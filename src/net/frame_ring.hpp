// SpscFrameRing — wait-free single-producer/single-consumer ring of wire
// frames, the seam between an I/O thread and a shard worker.
//
// Frames cross the ring by **ownership transfer, never by copy**: push and
// pop swap the caller's wire::Frame with the slot, so the arena-leased
// buffer the producer filled travels to the consumer whole, and the spent
// buffer the consumer handed in on its previous pop travels back to the
// producer through the very slot it vacated. The set of buffers in
// circulation is closed once warm — the SimChannel spares discipline,
// stretched across two threads. (A buffer may therefore be *released* on a
// thread other than the one that leased it; WordArena explicitly permits
// that — see arena.hpp — and the threaded tests assert lease balance
// summed across the participating threads.) The ring's buffers are as
// large as the frames pushed into them, so a producer holding oversized
// buffers pushes a copy: ShardedEndpoint::route_frame copies each datagram
// into a frame of its own size, and the MTU-sized socket receive buffers
// stay on the I/O thread.
//
// Concurrency contract: exactly one thread calls try_push (the producer),
// exactly one thread calls try_pop (the consumer), forever. Under that
// contract the ring is a textbook Lamport queue with cached opposite
// indices (each side re-reads the other's atomic only when its cached
// view says the ring is full/empty), so the steady-state cost is one
// relaxed load, one swap and one release store per frame — no locks, no
// CAS, no syscalls. A full ring fails the push (the caller keeps its
// frame): inbound datagram routers drop and count, outbound pollers hold
// the frame and retry — datagram semantics either way.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/check.hpp"
#include "wire/frame.hpp"

namespace ltnc::net {

class SpscFrameRing {
 public:
  /// Capacity is rounded up to a power of two (index masking); every slot
  /// starts with an empty frame, so buffers enter circulation from the
  /// producers' pushes and warm up the ring as they round-trip.
  explicit SpscFrameRing(std::size_t capacity) {
    LTNC_CHECK_MSG(capacity > 0, "SpscFrameRing needs a non-empty ring");
    std::size_t pow2 = 1;
    while (pow2 < capacity) pow2 <<= 1;
    slots_.resize(pow2);
    mask_ = pow2 - 1;
  }

  SpscFrameRing(const SpscFrameRing&) = delete;
  SpscFrameRing& operator=(const SpscFrameRing&) = delete;

  /// Producer side. Swaps `frame` into the ring (tagged with `peer`) and
  /// hands the slot's recycled spare back in its place. Returns false —
  /// leaving `frame` untouched — when the ring is full.
  bool try_push(std::uint32_t peer, wire::Frame& frame) {
    const std::uint64_t tail = tail_.load(std::memory_order_relaxed);
    if (tail - head_cache_ == slots_.size()) {
      head_cache_ = head_.load(std::memory_order_acquire);
      if (tail - head_cache_ == slots_.size()) return false;
    }
    Slot& slot = slots_[tail & mask_];
    slot.peer = peer;
    std::swap(slot.frame, frame);
    tail_.store(tail + 1, std::memory_order_release);
    return true;
  }

  /// Consumer side. Swaps the oldest queued frame out into `frame` (its
  /// previous storage stays behind as the slot's spare) and reports the
  /// peer it was tagged with. Returns false when the ring is empty.
  bool try_pop(std::uint32_t& peer, wire::Frame& frame) {
    const std::uint64_t head = head_.load(std::memory_order_relaxed);
    if (head == tail_cache_) {
      tail_cache_ = tail_.load(std::memory_order_acquire);
      if (head == tail_cache_) return false;
    }
    Slot& slot = slots_[head & mask_];
    peer = slot.peer;
    std::swap(slot.frame, frame);
    head_.store(head + 1, std::memory_order_release);
    return true;
  }

  std::size_t capacity() const { return slots_.size(); }

  /// Approximate occupancy — exact only when called from the producer or
  /// consumer thread (the other side may concurrently move its index).
  std::size_t size_approx() const {
    return static_cast<std::size_t>(tail_.load(std::memory_order_acquire) -
                                    head_.load(std::memory_order_acquire));
  }

 private:
  struct Slot {
    std::uint32_t peer = 0;
    wire::Frame frame;
  };

  std::vector<Slot> slots_;
  std::size_t mask_ = 0;
  // Each index on its own cache line so the producer's stores never
  // invalidate the consumer's line (and vice versa); the cached opposite
  // index lives with its reader.
  alignas(64) std::atomic<std::uint64_t> tail_{0};  ///< next push (producer)
  alignas(64) std::uint64_t head_cache_ = 0;        ///< producer's view
  alignas(64) std::atomic<std::uint64_t> head_{0};  ///< next pop (consumer)
  alignas(64) std::uint64_t tail_cache_ = 0;        ///< consumer's view
};

}  // namespace ltnc::net
