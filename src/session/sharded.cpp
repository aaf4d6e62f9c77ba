#include "session/sharded.hpp"

#include <string>

#include "common/check.hpp"
#include "telemetry/flight_recorder.hpp"
#include "telemetry/metrics.hpp"
#include "wire/codec.hpp"

namespace ltnc::session {
namespace {

/// Endpoint transmit backlog above which a shard stops pumping the
/// application for new pushes (bounds per-shard queue growth when the
/// outbound ring is the bottleneck).
constexpr std::size_t kPumpGate = 32;

}  // namespace

std::uint32_t shard_of(PeerId peer, ContentId content,
                       std::uint32_t num_shards) {
  LTNC_DCHECK(num_shards > 0);
  // splitmix64 finalizer over the conversation key. The multiply folds
  // the peer into the high bits so (peer, content) and (peer+1, content)
  // diverge completely before the avalanche.
  std::uint64_t x =
      content ^ (static_cast<std::uint64_t>(peer) * 0x9E3779B97F4A7C15ULL);
  x ^= x >> 30;
  x *= 0xBF58476D1CE4E5B9ULL;
  x ^= x >> 27;
  x *= 0x94D049BB133111EBULL;
  x ^= x >> 31;
  return static_cast<std::uint32_t>(x % num_shards);
}

ShardedEndpoint::ShardedEndpoint(const ShardedConfig& config, ShardApp& app)
    : cfg_(config), app_(app) {
  LTNC_CHECK_MSG(config.num_shards > 0, "need at least one shard");
  LTNC_CHECK_MSG(config.iterations_per_tick > 0,
                 "iterations_per_tick must be positive");
  shards_.reserve(config.num_shards);
  for (std::uint32_t s = 0; s < config.num_shards; ++s) {
    shards_.push_back(std::make_unique<Shard>(config.ring_capacity));
  }
  LTNC_TELEMETRY(
      if (cfg_.registry != nullptr) {
        drops_counter_ =
            &cfg_.registry->counter("ltnc_shard_inbound_drops_total");
        for (std::uint32_t s = 0; s < config.num_shards; ++s) {
          Shard& sh = *shards_[s];
          const std::string label = "shard=\"" + std::to_string(s) + "\"";
          sh.frames_in_counter =
              &cfg_.registry->counter("ltnc_shard_frames_in_total", label);
          sh.frames_out_counter =
              &cfg_.registry->counter("ltnc_shard_frames_out_total", label);
          sh.in_ring_occupancy = &cfg_.registry->histogram(
              "ltnc_shard_in_ring_occupancy_frames", label);
          sh.instruments.handshake_ticks = &cfg_.registry->histogram(
              "ltnc_session_handshake_ticks", label);
          sh.instruments.completion_ticks = &cfg_.registry->histogram(
              "ltnc_session_completion_ticks", label);
          sh.instruments.actor = s;
        }
      } if (cfg_.flight_recorder_capacity > 0) {
        for (std::uint32_t s = 0; s < config.num_shards; ++s) {
          shards_[s]->recorder = std::make_unique<telemetry::FlightRecorder>(
              cfg_.flight_recorder_capacity);
          shards_[s]->instruments.recorder = shards_[s]->recorder.get();
          shards_[s]->instruments.actor = s;
        }
      });
  // Rings exist before any worker starts; workers never touch each
  // other's shard.
  for (std::uint32_t s = 0; s < config.num_shards; ++s) {
    shards_[s]->thread = std::thread([this, s] { worker(s); });
  }
}

ShardedEndpoint::~ShardedEndpoint() { stop(); }

bool ShardedEndpoint::route_frame(PeerId peer, const wire::Frame& frame) {
  ContentId content = 0;
  // A frame too mangled to peek still routes (by peer alone) so the
  // owning shard's hardened decode can count it as malformed — the I/O
  // thread never decides what is garbage.
  if (wire::peek_content(frame.bytes(), content) != wire::DecodeStatus::kOk) {
    content = 0;
  }
  const std::uint32_t s = shard_of(peer, content, num_shards());
  // Copy at the datagram's own size into a frame that circulates with
  // the rings; the caller's (typically MTU-sized) receive buffer never
  // leaves this thread.
  route_scratch_.assign(frame.bytes());
  if (!shards_[s]->in.try_push(peer, route_scratch_)) {
    inbound_drops_.fetch_add(1, std::memory_order_relaxed);
    LTNC_TELEMETRY(if (drops_counter_ != nullptr) drops_counter_->add(1));
    return false;
  }
  return true;
}

bool ShardedEndpoint::poll_transmit(std::uint32_t shard, PeerId& peer,
                                    wire::Frame& out) {
  return shards_[shard]->out.try_pop(peer, out);
}

void ShardedEndpoint::request_expire(ContentId content) {
  if (stopped_) return;
  for (auto& shard : shards_) {
    {
      std::lock_guard<std::mutex> lock(shard->expire_mu);
      shard->pending_expire.push_back(content);
    }
    shard->has_expire.store(true, std::memory_order_release);
  }
}

void ShardedEndpoint::worker(std::uint32_t shard_index) {
  Shard& shard = *shards_[shard_index];
  {
    std::unique_ptr<Endpoint> ep = app_.make_endpoint(shard_index);
    LTNC_CHECK_MSG(ep != nullptr, "ShardApp::make_endpoint returned null");
    LTNC_TELEMETRY(
        if (shard.instruments.handshake_ticks != nullptr ||
            shard.instruments.recorder != nullptr) {
          ep->set_telemetry(&shard.instruments);
        });
    wire::Frame rx;          // inbound scratch, circulates through `in`
    wire::Frame pending;     // outbound frame awaiting ring space
    PeerId pending_peer = 0;
    bool has_pending = false;
    std::vector<ContentId> expire_scratch;
    std::uint64_t iterations = 0;
    // Registry counters are flushed as deltas at tick boundaries, so the
    // per-frame path pays only the pre-existing shard atomics.
    [[maybe_unused]] std::uint64_t flushed_in = 0;
    [[maybe_unused]] std::uint64_t flushed_out = 0;

    while (!stop_.load(std::memory_order_relaxed)) {
      bool worked = false;

      PeerId peer = 0;
      while (shard.in.try_pop(peer, rx)) {
        ep->handle_frame(peer, rx.bytes());
        shard.frames_in.fetch_add(1, std::memory_order_relaxed);
        worked = true;
      }

      // Drain the endpoint's transmit queue into the outbound ring; a
      // full ring holds the frame in `pending` (backpressure — the
      // endpoint is never asked for more until it fits).
      while (true) {
        if (has_pending) {
          if (!shard.out.try_push(pending_peer, pending)) break;
          has_pending = false;
          shard.frames_out.fetch_add(1, std::memory_order_relaxed);
          worked = true;
        } else if (ep->poll_transmit(pending_peer, pending)) {
          has_pending = true;
        } else {
          break;
        }
      }

      if (!has_pending && ep->pending_transmit() < kPumpGate) {
        worked = app_.pump(shard_index, *ep) || worked;
      }

      if (++iterations % cfg_.iterations_per_tick == 0) {
        if (shard.has_expire.load(std::memory_order_acquire)) {
          {
            std::lock_guard<std::mutex> lock(shard.expire_mu);
            std::swap(expire_scratch, shard.pending_expire);
            shard.has_expire.store(false, std::memory_order_relaxed);
          }
          for (const ContentId id : expire_scratch) ep->expire_content(id);
          expire_scratch.clear();
          worked = true;
        }
        ep->tick(iterations / cfg_.iterations_per_tick);
        LTNC_TELEMETRY(
            if (shard.frames_in_counter != nullptr) {
              const std::uint64_t in_now =
                  shard.frames_in.load(std::memory_order_relaxed);
              const std::uint64_t out_now =
                  shard.frames_out.load(std::memory_order_relaxed);
              shard.frames_in_counter->add(in_now - flushed_in);
              shard.frames_out_counter->add(out_now - flushed_out);
              flushed_in = in_now;
              flushed_out = out_now;
              shard.in_ring_occupancy->record(shard.in.size_approx());
            });
      }
      if (!worked) std::this_thread::yield();
    }

    shard.report.stats = ep->stats();
    shard.report.frames_in = shard.frames_in.load(std::memory_order_relaxed);
    shard.report.frames_out =
        shard.frames_out.load(std::memory_order_relaxed);
    // `ep`, `rx` and `pending` die here, before the arena snapshot, so
    // the report sees the shard's final lease/release tallies.
  }
  shard.report.arena = WordArena::local().stats();
  // Frames this shard leased may live on in the rings (ownership
  // transfer); reclaim only frees the thread's *cached* blocks, which is
  // exactly what would otherwise leak with the thread's TLS.
  WordArena::reclaim_local();
}

void ShardedEndpoint::stop() {
  if (stopped_) return;
  stop_.store(true, std::memory_order_relaxed);
  for (auto& shard : shards_) {
    if (shard->thread.joinable()) shard->thread.join();
  }
  stopped_ = true;
}

std::uint64_t ShardedEndpoint::frames_processed() const {
  std::uint64_t total = 0;
  for (const auto& shard : shards_) {
    total += shard->frames_in.load(std::memory_order_relaxed);
  }
  return total;
}

const ShardedEndpoint::ShardReport& ShardedEndpoint::report(
    std::uint32_t shard) const {
  LTNC_CHECK_MSG(stopped_, "reports are published by stop()");
  return shards_[shard]->report;
}

SessionStats ShardedEndpoint::aggregate_stats() const {
  LTNC_CHECK_MSG(stopped_, "reports are published by stop()");
  SessionStats total;
  for (const auto& shard : shards_) total += shard->report.stats;
  return total;
}

const telemetry::FlightRecorder* ShardedEndpoint::flight_recorder(
    std::uint32_t shard) const {
  LTNC_CHECK_MSG(stopped_, "flight recorders are single-writer: dump only "
                           "after stop()");
  return shards_[shard]->recorder.get();
}

}  // namespace ltnc::session
