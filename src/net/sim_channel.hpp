// SimChannel — deterministic in-process datagram channel.
//
// A unidirectional lossy pipe with seeded fault injection: drop, duplicate
// and reorder probabilities, an MTU cap, and a bounded in-flight queue
// (tail-drop on overflow, like a router buffer). Two instances back to
// back make a duplex link. All randomness flows through the library Rng,
// so a given seed reproduces an exact fault schedule — the property the
// transport tests and the fuzz harness rely on.
//
// Frames in flight live in a fixed ring of arena-backed wire::Frames that
// is allocated once and recycled forever, keeping the serialize →
// transport → deserialize loop allocation-free at steady state.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "common/rng.hpp"
#include "wire/frame.hpp"

namespace ltnc::net {

struct SimChannelConfig {
  double loss_rate = 0.0;       ///< P(datagram silently dropped)
  double duplicate_rate = 0.0;  ///< P(datagram delivered twice)
  double reorder_rate = 0.0;    ///< P(datagram swapped with a queued one)
  std::size_t mtu = 65507;      ///< largest accepted frame (UDP default)
  std::size_t capacity = 1024;  ///< in-flight queue depth (tail-drop)
  std::uint64_t seed = 1;       ///< fault-schedule seed
};

class SimChannel {
 public:
  struct Stats {
    std::uint64_t sent = 0;              ///< accepted by send()
    std::uint64_t delivered = 0;         ///< handed out by recv()
    std::uint64_t dropped_loss = 0;      ///< loss injection
    std::uint64_t dropped_mtu = 0;       ///< frame exceeded the MTU
    std::uint64_t dropped_overflow = 0;  ///< queue full (tail-drop)
    std::uint64_t duplicated = 0;
    std::uint64_t reordered = 0;
  };

  explicit SimChannel(const SimChannelConfig& config);

  /// Enqueues one datagram. False when the frame exceeds the MTU; a true
  /// return does not promise delivery (loss and overflow still apply).
  bool send(std::span<const std::uint8_t> frame);
  /// Pops the next pending datagram into `out` (reusing its capacity).
  /// False when nothing is pending.
  bool recv(wire::Frame& out);

  std::size_t pending() const { return size_; }
  const Stats& stats() const { return stats_; }

 private:
  /// Slot index of the i-th queued frame (0 = next out).
  std::size_t slot(std::size_t i) const {
    return (head_ + i) % ring_.size();
  }
  void enqueue(std::span<const std::uint8_t> frame);

  SimChannelConfig cfg_;
  Rng rng_;
  std::vector<wire::Frame> ring_;
  /// Warmed buffers parked between flights: enqueue takes one, recv banks
  /// the caller's old buffer. Capacity circulates instead of every ring
  /// slot growing its own — the ring rotates through all slots, so
  /// per-slot buffers would keep leasing fresh arena blocks for a full
  /// revolution after "warmup".
  std::vector<wire::Frame> spares_;
  std::size_t head_ = 0;  ///< oldest queued frame
  std::size_t size_ = 0;  ///< frames currently in flight
  Stats stats_;
};

}  // namespace ltnc::net
