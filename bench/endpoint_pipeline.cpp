// Endpoint pipeline bench — the sharded data plane's two costs, measured
// separately and written to BENCH_endpoint.json so successive PRs can
// track the fleet:
//
//   1. Shard scaling: frames/sec through a syscall-free ring-fed decode
//      pipeline (route_frame → SPSC ring → Endpoint::handle_frame) for
//      1, 2 and 4 worker shards, with the speedup over one shard. On a
//      multi-core box the curve should approach the shard count; the
//      JSON records hardware_concurrency so a single-core CI result
//      (speedup ≈ 1) reads as the hardware's ceiling, not a regression.
//
//   2. The batched socket edge: frames per sendmmsg/recvmmsg call over a
//      loopback fan-out to 8 receiver sockets — the syscall amortization
//      that motivates batching at all (target: ≥ 8 frames per call).
//
// The file is one flat array of records: a "shard_scaling" row per shard
// count and one "udp_batch" row, each carrying the run's shape.
//
// Usage: endpoint_pipeline [--out=FILE] [--frames=N]
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "common/rng.hpp"
#include "harness/loopback.hpp"
#include "lt/lt_encoder.hpp"
#include "metrics/emitter.hpp"
#include "net/udp_transport.hpp"
#include "session/endpoint.hpp"
#include "session/protocols.hpp"
#include "session/sharded.hpp"
#include "store/content_store.hpp"
#include "wire/codec.hpp"
#include "wire/frame.hpp"

namespace {

using namespace ltnc;

constexpr std::size_t kK = 64;           // blocks per content
constexpr std::size_t kPayload = 256;    // bytes per block
constexpr std::size_t kContents = 16;
constexpr std::uint32_t kPeers = 64;

/// Receiver fleet for the scaling measurement: every shard registers a
/// sink for every content (a conversation can hash anywhere), no
/// completion acks — pure inbound decode throughput.
class DecodeApp final : public session::ShardApp {
 public:
  std::unique_ptr<session::Endpoint> make_endpoint(
      std::uint32_t /*shard*/) override {
    auto contents = std::make_unique<store::ContentStore>();
    for (std::size_t i = 0; i < kContents; ++i) {
      store::ContentConfig cfg;
      cfg.id = static_cast<ContentId>(i + 1);
      cfg.k = kK;
      cfg.payload_bytes = kPayload;
      contents->register_content(
          cfg, std::make_unique<session::LtSinkProtocol>(kK, kPayload));
    }
    session::EndpointConfig cfg;
    cfg.feedback = session::FeedbackMode::kNone;
    return std::make_unique<session::Endpoint>(cfg, std::move(contents));
  }

  bool pump(std::uint32_t /*shard*/, session::Endpoint& /*ep*/) override {
    return false;
  }
};

/// Pre-serializes `total` LT-coded data frames cycling over the
/// (peer, content) grid. Regenerated per run: routing swaps the pool's
/// storage into the rings.
std::vector<wire::Frame> make_frame_pool(std::uint64_t total,
                                         std::uint64_t seed) {
  std::vector<lt::LtEncoder> encoders;
  encoders.reserve(kContents);
  for (std::size_t i = 0; i < kContents; ++i) {
    encoders.emplace_back(
        lt::make_native_payloads(kK, kPayload, 555 + i));
  }
  Rng rng(seed);
  std::vector<wire::Frame> pool(total);
  for (std::uint64_t i = 0; i < total; ++i) {
    const ContentId content = static_cast<ContentId>(i % kContents + 1);
    wire::serialize(content, encoders[i % kContents].encode(rng), pool[i]);
  }
  return pool;
}

/// Seconds to route and decode `total_frames` through `shards` shards.
double run_scaling(std::uint32_t shards, std::uint64_t total_frames) {
  std::vector<wire::Frame> pool = make_frame_pool(total_frames, 42);

  DecodeApp app;
  session::ShardedConfig cfg;
  cfg.num_shards = shards;
  session::ShardedEndpoint sharded(cfg, app);

  const auto start = std::chrono::steady_clock::now();
  for (std::uint64_t i = 0; i < total_frames; ++i) {
    const auto peer = static_cast<session::PeerId>(i % kPeers);
    while (!sharded.route_frame(peer, pool[i])) {
      std::this_thread::yield();  // ring full — the shard is the bottleneck
    }
  }
  while (sharded.frames_processed() < total_frames) {
    std::this_thread::yield();
  }
  const auto stop = std::chrono::steady_clock::now();
  sharded.stop();
  return std::chrono::duration<double>(stop - start).count();
}

struct BatchPoint {
  bool batching_active = false;
  std::uint64_t frames = 0;
  double frames_per_send_call = 0.0;
  double frames_per_recv_call = 0.0;
  bool ok = false;
};

/// Loopback fan-out to 8 receiver sockets: send in kMaxBatch bursts,
/// drain between bursts so kernel buffers never overflow, and read the
/// syscall amortization off the transport tallies.
BatchPoint run_batch_edge(std::uint64_t total_frames) {
  BatchPoint point;
  std::string error;
  constexpr std::size_t kReceivers = 8;
  std::optional<harness::Loopback> net =
      harness::open_loopback(kReceivers, 1, &error);
  if (!net) {
    std::cerr << "batch edge skipped: " << error << "\n";
    return point;
  }
  net::UdpTransport& sender = *net->services[0];
  point.batching_active = sender.batching_active();

  const wire::Frame payload = [] {
    wire::Frame frame;
    frame.resize(kPayload);
    for (std::size_t i = 0; i < kPayload; ++i) {
      frame.mutable_bytes()[i] = static_cast<std::uint8_t>(i);
    }
    return frame;
  }();

  constexpr std::size_t kBurst = net::UdpTransport::kMaxBatch;
  std::vector<net::UdpTransport::TxItem> items(kBurst);
  harness::BatchIo io;
  std::uint64_t sent = 0;
  std::uint64_t drained = 0;
  std::uint64_t bursts = 0;
  const auto drain_all = [&] {
    for (const auto& receiver : net->clients) {
      drained += io.receive(
          *receiver, [](harness::PeerIndex, wire::Frame&) {}, 10000);
    }
  };
  while (sent < total_frames) {
    const std::size_t batch =
        static_cast<std::size_t>(std::min<std::uint64_t>(
            kBurst, total_frames - sent));
    for (std::size_t i = 0; i < batch; ++i) {
      items[i] = {static_cast<net::UdpTransport::PeerIndex>(
                      (sent + i) % kReceivers),
                  payload.bytes()};
    }
    sent += sender.send_batch({items.data(), batch});
    // Drain every few bursts: deep enough queues that recvmmsg can show
    // its batching, shallow enough that kernel buffers never overflow
    // (4 bursts / 8 receivers = 32 queued datagrams ≈ 10 KB per socket).
    if (++bursts % 4 == 0) drain_all();
  }
  drain_all();

  point.frames = sent;
  point.frames_per_send_call = sender.stats().frames_per_send_call();
  double recv_calls = 0.0;
  double recv_frames = 0.0;
  for (const auto& receiver : net->clients) {
    recv_calls += static_cast<double>(receiver->stats().recv_calls -
                                      receiver->stats().recv_would_block);
    recv_frames += static_cast<double>(receiver->stats().frames_received);
  }
  point.frames_per_recv_call =
      recv_calls == 0.0 ? 0.0 : recv_frames / recv_calls;
  point.ok = drained > 0;
  return point;
}

}  // namespace

int main(int argc, char** argv) {
  std::string out_path = "BENCH_endpoint.json";
  std::uint64_t total_frames = 24000;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg.rfind("--out=", 0) == 0) {
      out_path = std::string(arg.substr(6));
    } else if (arg.rfind("--frames=", 0) == 0) {
      total_frames = static_cast<std::uint64_t>(
          std::atoll(std::string(arg.substr(9)).c_str()));
    } else if (arg == "--help" || arg == "-h") {
      std::cout << "flags: --out=FILE --frames=N\n";
      return 0;
    }
  }

  const unsigned cores = std::thread::hardware_concurrency();
  std::cout << "endpoint pipeline: " << total_frames << " frames of "
            << kPayload << " B payload over " << kContents
            << " contents x " << kPeers << " peers ("
            << cores << " hardware threads)\n";

  // One flat array of records, each tagged with its section and the
  // run's shape (the BENCH_cache layout).
  auto record = [&](const char* section) {
    return metrics::RunRecord{
        {"section", section},
        {"bench", "endpoint_pipeline"},
        {"hardware_concurrency", std::uint64_t{cores}},
        {"payload_bytes", kPayload},
        {"contents", kContents},
        {"peers", std::uint64_t{kPeers}}};
  };
  std::vector<metrics::RunRecord> records;
  double frames_per_sec_1 = 0.0;
  for (const std::uint32_t shards : {1u, 2u, 4u}) {
    const double seconds = run_scaling(shards, total_frames);
    const double frames_per_sec = static_cast<double>(total_frames) / seconds;
    if (shards == 1) frames_per_sec_1 = frames_per_sec;
    const double speedup =
        frames_per_sec_1 == 0.0 ? 0.0 : frames_per_sec / frames_per_sec_1;
    std::cout << "  shards=" << shards << ": "
              << static_cast<std::uint64_t>(frames_per_sec) << " frames/s ("
              << seconds << " s, speedup x" << speedup << ")\n";
    metrics::RunRecord row = record("shard_scaling");
    row.set("shards", std::uint64_t{shards});
    row.set("frames", total_frames);
    row.set("seconds", seconds);
    row.set("frames_per_sec", frames_per_sec);
    row.set("speedup_vs_1", speedup);
    records.push_back(std::move(row));
  }

  const BatchPoint batch = run_batch_edge(total_frames / 4);
  if (batch.ok) {
    std::cout << "  udp batch edge: " << batch.frames_per_send_call
              << " frames/sendmmsg, " << batch.frames_per_recv_call
              << " frames/recvmmsg (batching "
              << (batch.batching_active ? "active" : "fallback") << ")\n";
  }
  metrics::RunRecord row = record("udp_batch");
  row.set("measured", batch.ok);
  row.set("batching_active", batch.batching_active);
  row.set("frames", batch.frames);
  row.set("frames_per_send_call", batch.frames_per_send_call);
  row.set("frames_per_recv_call", batch.frames_per_recv_call);
  records.push_back(std::move(row));

  std::ofstream out(out_path);
  if (!out) {
    std::cerr << "cannot write " << out_path << "\n";
    return 1;
  }
  metrics::write_json(out, records);
  std::cout << "wrote " << out_path << "\n";
  return 0;
}
