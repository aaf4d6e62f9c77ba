#include "stream/harness.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/check.hpp"
#include "common/rng.hpp"
#include "dissemination/timer_wheel.hpp"
#include "harness/loopback.hpp"
#include "session/endpoint.hpp"
#include "store/content_store.hpp"
#include "stream/receiver.hpp"
#include "telemetry/telemetry.hpp"
#include "wire/frame.hpp"

namespace ltnc::stream {
namespace {

// Metric names shared by all three drivers (and live_stream's --prom
// exposition); the latency histogram carries its tick unit in the name.
constexpr const char* kCompletedName = "ltnc_stream_blocks_completed_total";
constexpr const char* kMissName = "ltnc_stream_deadline_misses_total";
constexpr const char* kGoodputName = "ltnc_stream_goodput_bytes_total";

ReceiverInstruments make_instruments(telemetry::Registry& registry,
                                     const char* latency_name) {
  ReceiverInstruments inst;
  inst.latency = &registry.histogram(latency_name);
  inst.completed = &registry.counter(kCompletedName);
  inst.misses = &registry.counter(kMissName);
  inst.goodput_bytes = &registry.counter(kGoodputName);
  return inst;
}

/// Push attempts per destination per tick: enough to spend a full
/// (slack-boosted) block budget within one block cadence, so the source
/// keeps pace with emission even while older blocks still want symbols.
std::size_t derive_pushes(const StreamConfig& stream) {
  double budget = static_cast<double>(redundancy_budget(
      stream.k(), stream.base_overhead, stream.loss_estimate));
  if (stream.slack_boost_ticks > 0) budget *= 1.0 + stream.slack_boost;
  const auto per_tick = static_cast<std::size_t>(
      std::ceil(budget / static_cast<double>(stream.ticks_per_block)));
  return per_tick + 1;
}

void fold_receiver(StreamRunStats& out, const Receiver& rx) {
  const ReceiverStats& s = rx.stream_stats();
  out.completed += s.blocks_completed;
  out.missed += s.deadline_misses;
  out.verify_failures += s.verify_failures;
  out.goodput_bytes += s.goodput_bytes;
  out.expired_frames += rx.endpoint().stats().expired_frames;
  out.every_receiver_decoded =
      out.every_receiver_decoded && s.blocks_completed > 0;
}

}  // namespace

StreamRunStats run_sim_stream(const SimStreamConfig& config) {
  LTNC_CHECK_MSG(config.stream.total_blocks > 0,
                 "sim stream needs a bounded block count");
  LTNC_CHECK_MSG(config.receivers > 0, "sim stream needs receivers");
  telemetry::Registry local_registry;
  telemetry::Registry& registry =
      config.registry != nullptr ? *config.registry : local_registry;
  constexpr const char* kLatency = "ltnc_stream_block_latency_ticks";
  const ReceiverInstruments inst = make_instruments(registry, kLatency);

  session::EndpointConfig net_cfg;
  net_cfg.feedback = session::FeedbackMode::kNone;
  session::Endpoint source(net_cfg, std::make_unique<store::ContentStore>());

  StreamConfig stream = config.stream;
  stream.fanout = config.receivers;  // unicast: one budget per receiver
  if (config.adaptive_budget) stream.loss_estimate = config.channel.loss_rate;
  StreamSource src(stream, source);

  std::vector<std::unique_ptr<net::SimChannel>> channels;
  std::vector<std::unique_ptr<Receiver>> fleet;
  channels.reserve(config.receivers);
  fleet.reserve(config.receivers);
  for (std::size_t r = 0; r < config.receivers; ++r) {
    net::SimChannelConfig ch = config.channel;
    ch.seed = config.channel.seed + 0x9e3779b97f4a7c15ULL * (r + 1);
    channels.push_back(std::make_unique<net::SimChannel>(ch));
    fleet.push_back(std::make_unique<Receiver>(stream, net_cfg, inst));
  }
  src.set_on_emit([&fleet](std::uint64_t seq, Instant birth) {
    for (auto& rx : fleet) rx->open_block(seq, birth);
  });

  const std::size_t pushes = config.pushes_per_tick != 0
                                 ? config.pushes_per_tick
                                 : derive_pushes(stream);
  Rng rng(config.seed);
  wire::Frame frame;
  // Everything must resolve by the last deadline plus channel drain; a
  // run that blows well past it is a harness bug, not a slow channel.
  const Instant horizon = src.birth_of(stream.total_blocks) +
                          stream.deadline_ticks +
                          4 * stream.ticks_per_block + 64;
  Instant t = 0;
  for (;; ++t) {
    LTNC_CHECK_MSG(t <= horizon, "sim stream failed to converge");
    source.tick(t);
    src.advance(t);
    bool exhausted = false;
    for (std::size_t i = 0; i < pushes && !exhausted; ++i) {
      for (std::size_t r = 0; r < fleet.size(); ++r) {
        if (!src.push_symbol(static_cast<session::PeerId>(r), rng)) {
          exhausted = true;
          break;
        }
      }
    }
    session::PeerId dest = 0;
    while (source.poll_transmit(dest, frame)) {
      channels[dest]->send(frame.bytes());
    }
    for (std::size_t r = 0; r < fleet.size(); ++r) {
      while (channels[r]->recv(frame)) {
        fleet[r]->ingest(0, frame.bytes(), t);
      }
      fleet[r]->finalize_due(t);
    }
    if (src.done() &&
        std::all_of(fleet.begin(), fleet.end(),
                    [](const auto& rx) { return rx->all_finalized(); })) {
      break;
    }
  }

  StreamRunStats out;
  out.receivers = config.receivers;
  out.blocks = src.blocks_emitted();
  out.source_frames = source.stats().frames_sent;
  out.duration_ticks = t;
  out.every_receiver_decoded = true;
  for (const auto& rx : fleet) fold_receiver(out, *rx);
  harness::latency_quantiles(registry, kLatency).store_into(out);
  return out;
}

StreamRunStats run_event_stream(const EventStreamConfig& config) {
  LTNC_CHECK_MSG(config.stream.total_blocks > 0,
                 "event stream needs a bounded block count");
  LTNC_CHECK_MSG(config.receivers > 0, "event stream needs receivers");
  telemetry::Registry local_registry;
  telemetry::Registry& registry =
      config.registry != nullptr ? *config.registry : local_registry;
  constexpr const char* kLatency = "ltnc_stream_block_latency_ticks";
  const ReceiverInstruments inst = make_instruments(registry, kLatency);

  session::EndpointConfig net_cfg;
  net_cfg.feedback = session::FeedbackMode::kNone;
  session::Endpoint source(net_cfg, std::make_unique<store::ContentStore>());

  // Broadcast: every receiver hears every surviving symbol, so the block
  // budget is a single fleet-wide allowance, not per receiver.
  StreamConfig stream = config.stream;
  stream.fanout = 1;
  stream.loss_estimate = std::max(stream.loss_estimate, config.loss_rate);
  StreamSource src(stream, source);

  std::vector<std::unique_ptr<Receiver>> fleet;
  fleet.reserve(config.receivers);
  for (std::size_t r = 0; r < config.receivers; ++r) {
    fleet.push_back(std::make_unique<Receiver>(stream, net_cfg, inst));
  }
  src.set_on_emit([&fleet](std::uint64_t seq, Instant birth) {
    for (auto& rx : fleet) rx->open_block(seq, birth);
  });

  struct Ev {
    enum Kind : std::uint8_t { kPush, kDeadline };
    Kind kind = kPush;
    std::uint64_t seq = 0;
  };
  dissem::TimerWheel<Ev> wheel;
  const std::size_t pushes = config.pushes_per_tick != 0
                                 ? config.pushes_per_tick
                                 : derive_pushes(stream);
  Rng push_rng(config.seed);
  Rng loss_rng(config.seed ^ 0xda3e39cb94b95bdbULL);
  wire::Frame frame;
  std::uint64_t deadlines_scheduled = 0;

  wheel.schedule(0, Ev{Ev::kPush, 0});
  while (auto ev = wheel.pop_next()) {
    const Instant now = wheel.now();
    if (ev->kind == Ev::kDeadline) {
      for (auto& rx : fleet) rx->finalize_block(ev->seq, now);
      continue;
    }
    src.advance(now);
    // One deadline event per emitted block, scheduled as emission catches
    // up (advance may emit several blocks on a slow push cadence).
    while (deadlines_scheduled < src.blocks_emitted()) {
      const std::uint64_t seq = deadlines_scheduled++;
      wheel.schedule(src.birth_of(seq) + stream.deadline_ticks + 1,
                     Ev{Ev::kDeadline, seq});
    }
    for (std::size_t i = 0; i < pushes; ++i) {
      if (!src.push_symbol(0, push_rng)) break;
    }
    session::PeerId dest = 0;
    while (source.poll_transmit(dest, frame)) {
      for (auto& rx : fleet) {
        if (loss_rng.chance(config.loss_rate)) continue;
        rx->ingest(0, frame.bytes(), now);
      }
    }
    if (!src.done()) wheel.schedule(now + 1, Ev{Ev::kPush, 0});
  }

  StreamRunStats out;
  out.receivers = config.receivers;
  out.blocks = src.blocks_emitted();
  out.source_frames = source.stats().frames_sent;
  out.duration_ticks = wheel.now();
  out.every_receiver_decoded = true;
  for (const auto& rx : fleet) fold_receiver(out, *rx);
  harness::latency_quantiles(registry, kLatency).store_into(out);
  return out;
}

StreamRunStats run_udp_stream(const UdpStreamConfig& config) {
  LTNC_CHECK_MSG(config.stream.total_blocks > 0,
                 "udp stream needs a bounded block count");
  LTNC_CHECK_MSG(config.receivers > 0, "udp stream needs receivers");
  telemetry::Registry local_registry;
  telemetry::Registry& registry =
      config.registry != nullptr ? *config.registry : local_registry;
  constexpr const char* kLatency = "ltnc_stream_block_latency_us";
  const ReceiverInstruments inst = make_instruments(registry, kLatency);

  const std::uint64_t total = config.stream.total_blocks;
  // Receiver r owns client socket r; the sender is the one service.
  std::string error;
  std::optional<harness::Loopback> net =
      harness::open_loopback(config.receivers, 1, &error);
  LTNC_CHECK_MSG(net.has_value(), "udp stream: loopback bind failed");

  // Births publish through an atomic table: slot holds birth+1 (0 = not
  // yet emitted) so block 0's birth of zero is distinguishable.
  std::unique_ptr<std::atomic<std::uint64_t>[]> births(
      new std::atomic<std::uint64_t>[total]());
  std::atomic<bool> abort{false};
  const harness::MicrosClock now_us;

  StreamRunStats out;
  out.every_receiver_decoded = true;
  std::mutex fold_mutex;
  session::EndpointConfig net_cfg;
  net_cfg.feedback = session::FeedbackMode::kNone;
  harness::ThreadGroup threads;
  for (std::size_t r = 0; r < config.receivers; ++r) {
    threads.spawn([&, r] {
      Receiver rx(config.stream, net_cfg, inst);
      harness::BatchIo io;
      std::uint64_t next_open = 0;
      while (!rx.all_finalized() && !abort.load(std::memory_order_relaxed)) {
        const Instant now = now_us();
        while (next_open < total) {
          const std::uint64_t stamped =
              births[next_open].load(std::memory_order_acquire);
          if (stamped == 0) break;
          rx.open_block(next_open, stamped - 1);
          ++next_open;
        }
        const std::size_t n = io.receive(
            *net->clients[r], [&](harness::PeerIndex, wire::Frame& frame) {
              rx.ingest(0, frame.bytes(), now);
            });
        rx.finalize_due(now);
        if (n == 0) std::this_thread::sleep_for(std::chrono::microseconds(50));
      }
      const std::lock_guard<std::mutex> lock(fold_mutex);
      fold_receiver(out, rx);
    });
  }

  // The calling thread is the sender.
  session::Endpoint source(net_cfg, std::make_unique<store::ContentStore>());
  telemetry::SessionInstruments sender_instruments;
  sender_instruments.recorder = config.recorder;
  if (config.recorder != nullptr) source.set_telemetry(&sender_instruments);
  StreamConfig stream = config.stream;
  stream.fanout = config.receivers;
  StreamSource src(stream, source);
  src.set_on_emit([&births](std::uint64_t seq, Instant birth) {
    births[seq].store(birth + 1, std::memory_order_release);
  });

  const std::size_t pushes = config.pushes_per_iter != 0
                                 ? config.pushes_per_iter
                                 : derive_pushes(stream) * config.receivers;
  Rng rng(config.seed);
  Rng loss_rng(config.seed ^ 0x6a09e667f3bcc909ULL);
  harness::BatchIo io;
  const auto keep = [&](session::PeerId, const wire::Frame&) {
    return !loss_rng.chance(config.loss_rate);  // emulated loss
  };
  // Wall-clock safety stop: the whole schedule plus two seconds.
  const Instant horizon = src.birth_of(total) + stream.deadline_ticks +
                          stream.ticks_per_block + 2'000'000;
  Instant now = 0;
  while (!src.done()) {
    now = now_us();
    if (now > horizon) {
      abort.store(true, std::memory_order_relaxed);
      break;
    }
    source.tick(now);
    src.advance(now);
    for (std::size_t i = 0; i < pushes; ++i) {
      const auto peer = static_cast<session::PeerId>(rng.uniform(
          static_cast<std::uint64_t>(config.receivers)));
      if (!src.push_symbol(peer, rng)) break;
    }
    if (io.transmit(*net->services[0], source, keep) == 0) {
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
  }
  threads.join();

  out.receivers = config.receivers;
  out.blocks = src.blocks_emitted();
  out.source_frames = source.stats().frames_sent;
  out.duration_ticks = now;
  harness::latency_quantiles(registry, kLatency).store_into(out);
  return out;
}

metrics::RunRecord stream_run_record(const std::string& section, double loss,
                                     const StreamConfig& stream,
                                     const StreamRunStats& r, double seconds) {
  metrics::RunRecord rec;
  rec.set("section", section);
  rec.set("loss", loss);
  rec.set("receivers", static_cast<std::uint64_t>(r.receivers));
  rec.set("blocks", r.blocks);
  rec.set("k", static_cast<std::uint64_t>(stream.k()));
  rec.set("block_bytes", static_cast<std::uint64_t>(stream.block_bytes));
  rec.set("deadline_ticks", static_cast<std::uint64_t>(stream.deadline_ticks));
  rec.set("completed", r.completed);
  rec.set("missed", r.missed);
  rec.set("miss_rate", r.miss_rate());
  rec.set("verify_failures", r.verify_failures);
  rec.set("latency_p50", r.latency_p50);
  rec.set("latency_p99", r.latency_p99);
  rec.set("latency_p999", r.latency_p999);
  rec.set("latency_samples", r.latency_samples);
  rec.set("goodput_bytes", r.goodput_bytes);
  rec.set("source_frames", r.source_frames);
  rec.set("expired_frames", r.expired_frames);
  rec.set("duration_ticks", r.duration_ticks);
  rec.set("every_receiver_decoded", r.every_receiver_decoded);
  rec.set("seconds", seconds);
  return rec;
}

}  // namespace ltnc::stream
