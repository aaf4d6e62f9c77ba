// ShardedEndpoint — the data plane spread across cores.
//
// Everything below the socket stays single-threaded *per shard*: frames
// for a conversation are hashed by (peer, content) onto one of N worker
// shards, each owning its own session::Endpoint (and therefore its own
// ContentStore slice, decode state and thread-local WordArena), connected
// to the I/O side by a pair of lock-free SPSC frame rings:
//
//        I/O thread (sockets)                 worker shard s
//   recv_batch ─▶ route_frame ─▶ [in ring s] ─▶ handle_frame ─┐
//                                                             ▼ Endpoint
//   send_batch ◀ poll_transmit ◀ [out ring s] ◀ poll_transmit ┘
//
// Frames cross the rings by ownership transfer (see frame_ring.hpp).
// route_frame first copies each inbound datagram, at its own size, into a
// frame that circulates with the rings: one memcpy of bytes that were
// just received. The I/O thread's MTU-sized receive buffers therefore
// never leave it, and shard arenas only ever hold frame-sized blocks.
// Nothing is copied between threads. The shard hash keeps every
// frame of one conversation on one shard — the per-(peer, content)
// handshake state machine never needs a lock — and the Endpoint inside a
// shard is the *same* sans-I/O class the single-threaded paths use; the
// concurrency lives entirely in this file and the rings.
//
// Division of labour: the ShardedEndpoint owns the worker threads and the
// rings; the application supplies a ShardApp that builds each shard's
// Endpoint (on the worker thread, so its storage is shard-local) and
// feeds it work each loop iteration; the I/O loop — whoever owns the
// sockets — stays on the caller's thread and just moves frames:
// route_frame() on the way in, poll_transmit(shard, …) on the way out.
// Exactly one thread may drive that I/O surface (the rings are SPSC).
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "common/arena.hpp"
#include "net/frame_ring.hpp"
#include "session/endpoint.hpp"
#include "telemetry/flight_recorder.hpp"
#include "telemetry/metrics.hpp"

namespace ltnc::session {

/// Shard owning the (peer, content) conversation: a splitmix64-finalized
/// hash of the pair, reduced mod num_shards. Stable across runs and
/// builds (no seeding, no pointer bits), uniform over realistic id
/// distributions (dense small peer ids × 14-bit derived content ids),
/// and by construction every frame of one conversation — advertise,
/// feedback, data, completion ack — lands on the same shard.
std::uint32_t shard_of(PeerId peer, ContentId content,
                       std::uint32_t num_shards);

struct ShardedConfig {
  std::uint32_t num_shards = 1;
  /// Frames per SPSC ring (per shard, per direction). Rounded up to a
  /// power of two. A full inbound ring drops the datagram (counted); a
  /// full outbound ring backpressures the shard.
  std::size_t ring_capacity = 512;
  /// Worker loop iterations per Endpoint::tick (shard session time is
  /// iteration-driven; retransmit budgets are per tick, so this sets how
  /// many drain/pump sweeps fit between timer checks).
  std::uint64_t iterations_per_tick = 1024;
  /// Optional metrics registry (must outlive the ShardedEndpoint). When
  /// set, every shard registers per-shard series (label shard="s"):
  /// frames in/out counters, inbound-ring occupancy sampled each tick,
  /// and the endpoint's handshake/completion latency histograms (in the
  /// shard's tick domain). The I/O thread adds an inbound-drops counter.
  /// Counter flushes are batched at tick boundaries so the per-frame hot
  /// path gains no atomic traffic. Ignored under LTNC_TELEMETRY=OFF.
  telemetry::Registry* registry = nullptr;
  /// When nonzero, each shard owns a FlightRecorder of this capacity
  /// (single-writer: only the worker records; dump after stop()). The
  /// trace timestamp domain is the shard's tick counter.
  std::size_t flight_recorder_capacity = 0;
};

/// The application half of a shard: builds the shard's Endpoint and feeds
/// it work. Both methods run on the worker thread — anything they touch
/// must be either shard-private or safely shared by the application.
class ShardApp {
 public:
  virtual ~ShardApp() = default;

  /// Builds shard `shard`'s endpoint (called once, on the worker thread,
  /// so every arena lease behind the endpoint is shard-local).
  virtual std::unique_ptr<Endpoint> make_endpoint(std::uint32_t shard) = 0;

  /// Called every worker iteration after inbound frames were applied and
  /// the transmit queue drained below the pump gate. Feed pushes here
  /// (offer_packet / next_push + start_transfer). Return true if work was
  /// done — a shard whose rings are idle and whose pump returns false
  /// yields its core.
  virtual bool pump(std::uint32_t shard, Endpoint& endpoint) = 0;
};

class ShardedEndpoint {
 public:
  /// Everything a shard learned, published after stop(): the endpoint's
  /// session counters, the ring tallies, and the worker thread's arena
  /// stats snapshot (taken after the endpoint was destroyed — lease
  /// balance holds summed across all shards plus the I/O thread, not per
  /// thread, because ring frames migrate by ownership transfer).
  struct ShardReport {
    SessionStats stats;
    std::uint64_t frames_in = 0;   ///< popped from the inbound ring
    std::uint64_t frames_out = 0;  ///< pushed to the outbound ring
    WordArena::Stats arena;
  };

  /// Starts the worker threads. `app` must outlive this object.
  ShardedEndpoint(const ShardedConfig& config, ShardApp& app);
  ~ShardedEndpoint();  ///< stop() if still running

  ShardedEndpoint(const ShardedEndpoint&) = delete;
  ShardedEndpoint& operator=(const ShardedEndpoint&) = delete;

  std::uint32_t num_shards() const {
    return static_cast<std::uint32_t>(shards_.size());
  }

  // --- I/O surface (exactly one driving thread) -----------------------------

  /// Routes one inbound frame to its conversation's shard. The bytes are
  /// copied into a ring frame of their own size; `frame` keeps its
  /// capacity and contents, so a receive buffer can be reused as is. The
  /// content id is peeked straight off the wire bytes; a frame too
  /// mangled to peek is routed by peer alone so the owning shard can
  /// count it malformed. False = that shard's inbound ring is full; the
  /// frame is dropped (datagram semantics) and counted.
  bool route_frame(PeerId peer, const wire::Frame& frame);

  /// Pops shard `shard`'s next outbound frame (ownership transfer) and
  /// its destination peer. False when that shard has nothing pending.
  bool poll_transmit(std::uint32_t shard, PeerId& peer, wire::Frame& out);

  /// Asks every shard to expire `content` at its next tick boundary (the
  /// sliding-window drop path, fanned across cores). Expiry is cold-path
  /// by construction — once per block per deadline — so the hand-off is a
  /// small mutex-guarded queue per shard rather than a third ring; the
  /// worker drains it between ticks, where it already owns the endpoint.
  /// Shards that never registered the content ignore the request. Safe
  /// from any thread. No-op after stop().
  void request_expire(ContentId content);

  // --- lifecycle / stats ----------------------------------------------------

  /// Signals every worker and joins them. Frames still in flight in the
  /// rings are dropped (datagram semantics). Idempotent.
  void stop();
  bool running() const { return !stopped_; }

  /// Live progress: frames handled across all shards (relaxed reads).
  std::uint64_t frames_processed() const;

  std::uint64_t inbound_drops() const {
    return inbound_drops_.load(std::memory_order_relaxed);
  }

  /// Valid after stop().
  const ShardReport& report(std::uint32_t shard) const;
  /// Session counters summed over all shards (valid after stop()).
  SessionStats aggregate_stats() const;

  /// Shard `shard`'s flight recorder — null unless configured. The worker
  /// is its only writer, so dump only after stop().
  const telemetry::FlightRecorder* flight_recorder(std::uint32_t shard) const;

 private:
  struct Shard {
    net::SpscFrameRing in;   ///< I/O thread → worker
    net::SpscFrameRing out;  ///< worker → I/O thread
    std::atomic<std::uint64_t> frames_in{0};
    std::atomic<std::uint64_t> frames_out{0};

    // Pending expire_content requests (any thread → worker, drained at
    // tick boundaries). The flag lets the worker skip the lock on the
    // overwhelmingly common empty case.
    std::mutex expire_mu;
    std::vector<ContentId> pending_expire;
    std::atomic<bool> has_expire{false};
    ShardReport report;  ///< written by the worker, read after join
    std::thread thread;

    // Telemetry handles, filled in the constructor (cold path) before
    // the worker starts; the worker is the only thread that updates
    // them. All null/empty when no registry is configured.
    telemetry::SessionInstruments instruments;
    telemetry::Counter* frames_in_counter = nullptr;
    telemetry::Counter* frames_out_counter = nullptr;
    telemetry::Histogram* in_ring_occupancy = nullptr;
    std::unique_ptr<telemetry::FlightRecorder> recorder;

    explicit Shard(std::size_t ring_capacity)
        : in(ring_capacity), out(ring_capacity) {}
  };

  void worker(std::uint32_t shard_index);

  ShardedConfig cfg_;
  ShardApp& app_;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::atomic<bool> stop_{false};
  bool stopped_ = false;
  std::atomic<std::uint64_t> inbound_drops_{0};
  telemetry::Counter* drops_counter_ = nullptr;  ///< I/O-thread side
  /// I/O-thread side: route_frame's copy target. A successful push swaps
  /// it into the ring and takes the slot's spare back, so the buffers it
  /// holds are ring buffers, sized by the frames that crossed.
  wire::Frame route_scratch_;
};

}  // namespace ltnc::session
