// File distribution à la Avalanche (paper §I, §IV): a file split into k
// blocks is pushed epidemically from one seed to a swarm of peers.
//
// The real-UDP modes run on the sans-I/O session layer: one
// session::Endpoint per end drives the protocol (frame parsing, duplicate
// suppression, the completion handshake) while this file only moves
// batches of datagrams between the endpoint and a UdpTransport through
// the shared loopback I/O core (harness/loopback.hpp) — the same Endpoint
// class the epidemic simulator steps in-process.
//
// Modes:
//   ./build/examples/file_distribution [peers] [blocks] [scheme]
//       Simulated swarm (scheme = ltnc|rlnc|wc|all; the paper's
//       trade-off table).
//
// Transfer modes. A directory becomes one content per file, multiplexed
// over a single endpoint pair; ids derive from each file's chunk count,
// block size and hash, so both ends agree without coordination — the
// receiver reads the same directory to learn the registrations, then
// verifies the decoded bytes hash-exact. The single-file modes are the
// one-content case: an in-memory synthetic file of [blocks] × [bytes]
// deterministic blocks, registered as content id 0 so its frames keep the
// v1 byte image.
//   ./build/examples/file_distribution --udp-recv <port> [blocks] [bytes]
//   ./build/examples/file_distribution --udp-recv-dir <port> <dir> [bytes]
//       Bind a real UDP socket, decode incoming LT frames, verify every
//       content, ack the sender when complete.
//   ./build/examples/file_distribution --udp-send <ip> <port> [blocks] [bytes]
//   ./build/examples/file_distribution --udp-send-dir <ip> <port> <dir> [bytes]
//       LT-encode the contents and stream wire frames at the receiver
//       until its per-content acks (binary feedback, §III-C) come back.
//   ./build/examples/file_distribution --udp-loopback [blocks] [bytes]
//   ./build/examples/file_distribution --udp-loopback-dir <dir> [bytes]
//       Both ends in one process over 127.0.0.1 — the CI smoke tests that
//       prove contents really transfer and verify over UDP.
//
// Sharded swarm mode (the multi-core data plane):
//   ./build/examples/file_distribution --udp-swarm-loopback
//       [peers] [blocks] [bytes] [--shards N] [--feedback binary|none]
//       [--stats-period MS] [--prom FILE] [--trace FILE]
//       One seeder socket fans the synthetic file out to `peers` receiver
//       sockets in the same process. The seeder's session layer runs as a
//       session::ShardedEndpoint — N worker shards behind SPSC frame
//       rings — while the main thread only moves batches of datagrams
//       (sendmmsg/recvmmsg) between the socket and the rings.
//       --feedback binary runs the §III-C advertise→proceed handshake per
//       push (default: none, rateless streaming); telemetry flags attach a
//       metrics registry (per-shard frame counters, handshake/completion
//       latency histograms, UDP batch-size histograms), dump Prometheus
//       text every MS ms / into FILE, and record per-shard flight-recorder
//       traces as Chrome trace_event JSON.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <iterator>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "common/table.hpp"
#include "dissemination/simulation.hpp"
#include "harness/loopback.hpp"
#include "lt/lt_encoder.hpp"
#include "net/udp_transport.hpp"
#include "session/endpoint.hpp"
#include "session/sharded.hpp"
#include "store/chunker.hpp"
#include "store/content_store.hpp"
#include "telemetry/export.hpp"
#include "telemetry/flight_recorder.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/telemetry.hpp"

namespace {

using namespace ltnc;
using harness::BatchIo;
using harness::PeerIndex;

constexpr std::uint64_t kContentSeed = 20100621;  // the synthetic file

/// Wall-clock budget for a loop that sees no traffic at all; a stall
/// fails in bounded time whatever one loop iteration costs.
constexpr std::chrono::seconds kIdleLimit{10};

/// Frames offered per send burst — one sendmmsg call. Small enough that
/// the loopback receiver, drained after every burst, stops the sender
/// within a few frames of decoding.
constexpr std::size_t kBurstFrames = 16;

/// expired() once kIdleLimit has passed since construction or the last
/// poke().
class IdleTimer {
 public:
  void poke() { last_ = std::chrono::steady_clock::now(); }
  bool expired() const {
    return std::chrono::steady_clock::now() - last_ > kIdleLimit;
  }

 private:
  std::chrono::steady_clock::time_point last_ =
      std::chrono::steady_clock::now();
};

session::EndpointConfig endpoint_config(
    bool receiver,
    session::FeedbackMode feedback = session::FeedbackMode::kNone) {
  // Dimensions live per content in the store; the endpoint itself is
  // dimension-less. Default: the sender streams rateless frames without a
  // per-packet handshake; the session closes with per-content completion
  // kAcks (re-announced on tick so a lost ack cannot wedge the sender).
  // With kBinary the receiver additionally answers each advertise with
  // abort/proceed.
  session::EndpointConfig cfg;
  cfg.feedback = feedback;
  if (receiver) {
    cfg.announce_completion = true;
    cfg.response_timeout = 1;
    cfg.max_retries = 7;  // 8 announcements in total
  } else if (feedback == session::FeedbackMode::kBinary) {
    // Advertises await the peer's abort/proceed; over a real (if
    // loopback) socket the answer takes a scheduler-dependent number of
    // worker iterations, so give the retransmit timer slack — the swarm
    // runs fine ticks (see iterations_per_tick below) for latency
    // resolution, making these tick budgets short wall-clock spans.
    cfg.response_timeout = 64;
    cfg.max_retries = 8;
  }
  return cfg;
}

// --- contents: files on disk, or the synthetic one-content case -------------

struct LoadedFile {
  store::FileContent meta;
  std::vector<std::uint8_t> bytes;
};

/// The single-file modes' content: `blocks` deterministic blocks of
/// `block_bytes` held in memory, registered as content id 0 so every
/// frame keeps the v1 byte image.
std::vector<LoadedFile> synthetic_content(std::size_t blocks,
                                          std::size_t block_bytes) {
  LoadedFile file;
  for (const Payload& block :
       lt::make_native_payloads(blocks, block_bytes, kContentSeed)) {
    const auto bytes = block.byte_view();
    file.bytes.insert(file.bytes.end(), bytes.begin(), bytes.end());
  }
  file.meta = store::describe_file("synthetic", file.bytes, block_bytes);
  file.meta.id = 0;
  std::vector<LoadedFile> files;
  files.push_back(std::move(file));
  return files;
}

/// Reads every regular file under `dir` (sorted by name for a
/// deterministic content set) and derives its registration record via the
/// shared chunker — the single chunk → payload → content path every mode
/// uses.
bool load_directory(const std::string& dir, std::size_t block_bytes,
                    std::vector<LoadedFile>& files) {
  namespace fs = std::filesystem;
  std::error_code ec;
  std::vector<fs::path> paths;
  for (fs::directory_iterator it(dir, ec), end; !ec && it != end;
       it.increment(ec)) {
    if (it->is_regular_file()) paths.push_back(it->path());
  }
  if (ec) {
    std::cerr << "cannot list " << dir << ": " << ec.message() << "\n";
    return false;
  }
  if (paths.empty()) {
    std::cerr << "no files in " << dir << "\n";
    return false;
  }
  std::sort(paths.begin(), paths.end());
  for (const fs::path& path : paths) {
    std::ifstream in(path, std::ios::binary);
    if (!in) {
      std::cerr << "cannot read " << path << "\n";
      return false;
    }
    LoadedFile file;
    file.bytes.assign(std::istreambuf_iterator<char>(in),
                      std::istreambuf_iterator<char>());
    file.meta = store::describe_file(path.filename().string(), file.bytes,
                                     block_bytes);
    for (const LoadedFile& other : files) {
      if (other.meta.id == file.meta.id) {
        std::cerr << "content-id collision between " << other.meta.name
                  << " and " << file.meta.name
                  << " (14-bit derived ids); rename one file\n";
        return false;
      }
    }
    files.push_back(std::move(file));
  }
  return true;
}

session::Endpoint make_receiver(
    const std::vector<LoadedFile>& files,
    session::FeedbackMode feedback = session::FeedbackMode::kNone) {
  auto contents = std::make_unique<store::ContentStore>();
  for (const LoadedFile& file : files) {
    contents->register_content(
        store::file_content_config(file.meta),
        std::make_unique<session::LtSinkProtocol>(file.meta.blocks,
                                                  file.meta.block_bytes));
  }
  return session::Endpoint(endpoint_config(true, feedback),
                           std::move(contents));
}

session::Endpoint make_sender(
    const std::vector<LoadedFile>& files,
    session::FeedbackMode feedback = session::FeedbackMode::kNone) {
  auto contents = std::make_unique<store::ContentStore>();
  for (const LoadedFile& file : files) {
    // Seeder-only entries: dimensions pinned, no decode state — enough
    // for per-content ack tracking (peer_completed_all).
    contents->register_content(store::file_content_config(file.meta),
                               nullptr);
  }
  return session::Endpoint(endpoint_config(false, feedback),
                           std::move(contents));
}

std::vector<lt::LtEncoder> make_encoders(const std::vector<LoadedFile>& files) {
  std::vector<lt::LtEncoder> encoders;
  encoders.reserve(files.size());
  for (const LoadedFile& file : files) {
    encoders.emplace_back(
        store::chunk_bytes(file.bytes, file.meta.block_bytes));
  }
  return encoders;
}

/// Hash-verifies one decoded content against its original bytes.
bool verify_received_file(session::Endpoint& endpoint,
                          const LoadedFile& file) {
  store::Content* content = endpoint.contents().find(file.meta.id);
  if (content == nullptr || !content->complete()) return false;
  const auto& sink =
      static_cast<const session::LtSinkProtocol&>(*content->protocol());
  const std::vector<std::uint8_t> bytes = store::assemble_bytes(
      file.meta.size_bytes, file.meta.block_bytes,
      [&sink](std::size_t i) -> const Payload& {
        return sink.decoder().native_payload(static_cast<NativeIndex>(i));
      });
  return store::hash_bytes(bytes) == file.meta.hash;
}

bool verify_all(session::Endpoint& receiver,
                const std::vector<LoadedFile>& files, const char* who) {
  for (const LoadedFile& file : files) {
    if (!verify_received_file(receiver, file)) {
      std::cerr << who << ": " << file.meta.name
                << " failed hash verification\n";
      return false;
    }
  }
  return true;
}

std::uint64_t total_bytes(const std::vector<LoadedFile>& files) {
  std::uint64_t bytes = 0;
  for (const LoadedFile& file : files) bytes += file.meta.size_bytes;
  return bytes;
}

std::uint64_t max_frames(const std::vector<LoadedFile>& files) {
  // Worst-case budget: BP needs a small multiple of k packets; loopback
  // drops under bursty sends add some more.
  std::uint64_t blocks = 0;
  for (const LoadedFile& file : files) blocks += file.meta.blocks;
  return 400 * blocks + 100000;
}

void print_receiver_summary(const char* who,
                            const session::Endpoint& receiver,
                            const std::vector<LoadedFile>& files) {
  const session::SessionStats& s = receiver.stats();
  const double content = static_cast<double>(total_bytes(files));
  std::cout << who << ": decoded and hash-verified " << files.size()
            << " content(s), " << total_bytes(files) << " bytes, from "
            << s.data_delivered << " data frames / " << s.bytes_received
            << " wire bytes — overhead "
            << (static_cast<double>(s.bytes_received) / content - 1.0) * 100.0
            << " %\n";
}

/// Offers rounds of one packet per not-yet-acked content until
/// kBurstFrames are queued toward peer 0.
void offer_burst(session::Endpoint& sender,
                 const std::vector<LoadedFile>& files,
                 std::vector<lt::LtEncoder>& encoders, Rng& rng) {
  for (std::size_t queued = 0; queued < kBurstFrames;) {
    const std::size_t before = queued;
    for (std::size_t i = 0; i < files.size(); ++i) {
      if (sender.peer_completed(0, files[i].meta.id)) continue;
      sender.offer_packet(0, files[i].meta.id, encoders[i].encode(rng));
      ++queued;
    }
    if (queued == before) break;  // everything acked
  }
}

/// Feeds frames from `socket` into the receiver until every content
/// decodes (or the link stays idle for kIdleLimit), verifies every
/// content and acks the sender.
int run_udp_dir_receiver(net::UdpTransport& socket,
                         const std::vector<LoadedFile>& files) {
  session::Endpoint receiver = make_receiver(files);
  BatchIo io;
  IdleTimer idle;
  while (!receiver.complete()) {
    // The endpoint absorbs malformed and foreign frames itself (stray
    // datagrams on an open port must never wedge the listener).
    const std::size_t n =
        io.receive(socket, [&](PeerIndex peer, wire::Frame& frame) {
          receiver.handle_frame(peer, frame.bytes());
        });
    if (n > 0) {
      idle.poke();
    } else if (idle.expired()) {
      std::cerr << "receiver: timed out waiting for frames\n";
      return 1;
    }
  }
  if (!verify_all(receiver, files, "receiver")) return 1;
  // The endpoint queued its completion kAcks at the delivering frames;
  // tick() re-announces them, giving the burst that survives loss.
  for (session::Instant now = 1; now <= 8; ++now) {
    io.transmit(socket, receiver);
    receiver.tick(now);
  }
  print_receiver_summary("receiver", receiver, files);
  return 0;
}

/// Streams encoded frames at the socket's peer 0 until it acks every
/// content.
int run_udp_dir_sender(net::UdpTransport& socket,
                       const std::vector<LoadedFile>& files) {
  std::vector<lt::LtEncoder> encoders = make_encoders(files);
  session::Endpoint sender = make_sender(files);
  Rng rng(1);
  BatchIo io;
  IdleTimer idle;
  const std::uint64_t budget = max_frames(files);
  while (!sender.peer_completed_all(0) &&
         socket.stats().frames_sent < budget) {
    offer_burst(sender, files, encoders, rng);
    const std::uint64_t before = socket.stats().frames_sent;
    io.transmit(socket, sender);
    // One receiver: every datagram back is its feedback.
    io.receive(socket, [&](PeerIndex, wire::Frame& frame) {
      sender.handle_frame(0, frame.bytes());
    });
    if (socket.stats().frames_sent > before) {
      idle.poke();
    } else if (idle.expired()) {
      std::cerr << "sender: socket refused every frame for "
                << kIdleLimit.count() << " s\n";
      return 1;
    }
  }
  const net::UdpStats& us = socket.stats();
  if (!sender.peer_completed_all(0)) {
    std::cerr << "sender: unacked contents remain after " << us.frames_sent
              << " frames\n";
    return 1;
  }
  std::cout << "sender: all " << files.size() << " content(s) acked; sent "
            << us.frames_sent << " frames / " << us.bytes_sent
            << " wire bytes in " << us.send_calls << " send calls\n";
  return 0;
}

/// Sender and receiver endpoints in one process over loopback — pacing
/// is explicit (send one burst, drain the receiver) so kernel socket
/// buffers never overflow unrealistically.
int run_udp_loopback_dir(const std::vector<LoadedFile>& files) {
  std::string error;
  std::optional<harness::Loopback> net = harness::open_loopback(1, 1, &error);
  if (!net) {
    std::cerr << "loopback: cannot open sockets: " << error << "\n";
    return 1;
  }
  // Each end is PeerIndex 0 on the other's socket.
  net::UdpTransport& tx = *net->services[0];
  net::UdpTransport& rx = *net->clients[0];
  std::cout << "loopback: streaming " << files.size() << " content(s) ("
            << total_bytes(files) << " bytes in blocks of "
            << files.front().meta.block_bytes << ") over 127.0.0.1:"
            << rx.local_port() << "\n";

  std::vector<lt::LtEncoder> encoders = make_encoders(files);
  session::Endpoint sender = make_sender(files);
  session::Endpoint receiver = make_receiver(files);
  Rng rng(1);
  BatchIo io;
  const auto to_receiver = [&](PeerIndex peer, wire::Frame& frame) {
    receiver.handle_frame(peer, frame.bytes());
  };
  const auto to_sender = [&](PeerIndex peer, wire::Frame& frame) {
    sender.handle_frame(peer, frame.bytes());
  };
  const std::uint64_t budget = max_frames(files);
  while (!receiver.complete() && tx.stats().frames_sent < budget) {
    // Interleaved bursts: one packet per unfinished content per round,
    // so the contents genuinely share the socket instead of queueing up.
    offer_burst(sender, files, encoders, rng);
    io.transmit(tx, sender);
    io.receive(rx, to_receiver, BatchIo::kUntilEmpty);
  }
  if (!receiver.complete()) {
    std::cerr << "loopback: decode incomplete after " << tx.stats().frames_sent
              << " frames\n";
    return 1;
  }
  if (!verify_all(receiver, files, "loopback")) return 1;

  // Per-content completion acks flow back over the socket until the
  // sender has marked every content done.
  for (session::Instant now = 1;
       now <= 8 && !sender.peer_completed_all(0); ++now) {
    io.transmit(rx, receiver);
    receiver.tick(now);
    io.receive(tx, to_sender, BatchIo::kUntilEmpty);
  }
  print_receiver_summary("loopback", receiver, files);
  std::cout << "loopback: " << tx.stats().frames_sent << " frames in "
            << tx.stats().send_calls << " send calls, all acks "
            << (sender.peer_completed_all(0) ? "received" : "NOT received")
            << "\n";
  return sender.peer_completed_all(0) ? 0 : 1;
}

// --- sharded swarm over loopback (the multi-core data plane) ----------------

/// Seeder application for the sharded endpoint: every shard owns the
/// subset of receiver peers that hash to it, LT-encodes independently
/// (same natives, per-shard rng) and keeps offering packets until each
/// assigned peer acks the content complete. Both methods run on the
/// worker threads; the per-shard state is created there too, so encoder
/// scratch stays shard-local.
class SwarmSeederApp final : public session::ShardApp {
 public:
  SwarmSeederApp(const std::vector<LoadedFile>& files,
                 std::uint32_t num_peers, std::uint32_t num_shards,
                 session::FeedbackMode feedback)
      : files_(files), feedback_(feedback) {
    assigned_.resize(num_shards);
    for (std::uint32_t p = 0; p < num_peers; ++p) {
      assigned_[session::shard_of(p, 0, num_shards)].push_back(p);
    }
    state_.resize(num_shards);
    done_ = std::make_unique<std::atomic<std::uint32_t>[]>(num_shards);
    for (std::uint32_t s = 0; s < num_shards; ++s) done_[s].store(0);
  }

  std::unique_ptr<session::Endpoint> make_endpoint(
      std::uint32_t shard) override {
    auto st = std::make_unique<ShardState>(files_.front(), shard);
    state_[shard] = std::move(st);  // distinct slots: no cross-shard writes
    return std::make_unique<session::Endpoint>(
        make_sender(files_, feedback_));
  }

  bool pump(std::uint32_t shard, session::Endpoint& endpoint) override {
    ShardState& st = *state_[shard];
    bool offered = false;
    std::uint32_t done = 0;
    for (const session::PeerId peer : assigned_[shard]) {
      if (endpoint.peer_completed(peer, 0)) {
        ++done;
        continue;
      }
      // Binary feedback: one outstanding advertise per peer — offering
      // again would supersede the in-flight handshake (and distort the
      // latency histogram); the retransmit timer owns the slow path.
      if (endpoint.awaiting_feedback(peer, 0)) continue;
      endpoint.offer_packet(peer, st.encoder.encode(st.rng));
      offered = true;
    }
    done_[shard].store(done, std::memory_order_relaxed);
    return offered;
  }

  /// Peers whose completion ack has reached their shard (main-thread view).
  std::uint32_t peers_done() const {
    std::uint32_t total = 0;
    for (std::size_t s = 0; s < state_.size(); ++s) {
      total += done_[s].load(std::memory_order_relaxed);
    }
    return total;
  }

  std::size_t peers_assigned(std::uint32_t shard) const {
    return assigned_[shard].size();
  }

 private:
  struct ShardState {
    lt::LtEncoder encoder;
    Rng rng;
    ShardState(const LoadedFile& file, std::uint32_t shard)
        : encoder(store::chunk_bytes(file.bytes, file.meta.block_bytes)),
          rng(1000 + shard) {}
  };

  const std::vector<LoadedFile>& files_;
  session::FeedbackMode feedback_;
  std::vector<std::vector<session::PeerId>> assigned_;
  std::vector<std::unique_ptr<ShardState>> state_;
  std::unique_ptr<std::atomic<std::uint32_t>[]> done_;
};

/// Opt-in knobs for the swarm smoke: protocol (handshake per push) and
/// observability (registry dump cadence and sinks).
struct SwarmOptions {
  session::FeedbackMode feedback = session::FeedbackMode::kNone;
  std::uint64_t stats_period_ms = 0;  ///< 0 = no periodic dump
  std::string prom_path;              ///< rewrite with each exposition
  std::string trace_path;             ///< Chrome trace of all shards
};

/// One-line histogram digest ("n=.. p50=.. p99=..") or "(empty)".
std::string histogram_digest(const telemetry::Snapshot& snap,
                             std::string_view name) {
  const auto* h = snap.find_histogram(name);
  if (h == nullptr || h->count() == 0) return "(empty)";
  std::string out = "n=" + std::to_string(h->count());
  out += " p50=" + std::to_string(static_cast<std::uint64_t>(h->quantile(0.5)));
  out += " p99=" + std::to_string(static_cast<std::uint64_t>(h->quantile(0.99)));
  return out;
}

int run_udp_swarm_loopback(std::size_t peers, std::size_t blocks,
                           std::size_t block_bytes, std::uint32_t shards,
                           const SwarmOptions& opts) {
  const std::vector<LoadedFile> files = synthetic_content(blocks, block_bytes);
  // Receiver p owns client socket p, which is PeerIndex p on the seeder's
  // socket and doubles as its session::PeerId everywhere below.
  std::string error;
  std::optional<harness::Loopback> net =
      harness::open_loopback(peers, 1, &error);
  if (!net) {
    std::cerr << "swarm: cannot open sockets: " << error << "\n";
    return 1;
  }
  net::UdpTransport& seeder = *net->services[0];

  std::cout << "swarm: seeding " << blocks << " blocks of " << block_bytes
            << " bytes to " << peers << " receivers over " << shards
            << " shard(s), feedback "
            << (opts.feedback == session::FeedbackMode::kBinary ? "binary"
                                                                : "none")
            << ", batched I/O "
            << (seeder.batching_active() ? "on" : "off (fallback)") << "\n";

  // Telemetry: one registry shared by the shards (per-shard series, the
  // constructor labels them) and the seeder socket. All observer-only —
  // the transfer runs identically with LTNC_TELEMETRY=OFF.
  telemetry::Registry registry;
  telemetry::TransportInstruments transport_instruments;
  transport_instruments.send_batch_frames =
      &registry.histogram("ltnc_udp_send_batch_frames");
  transport_instruments.recv_batch_frames =
      &registry.histogram("ltnc_udp_recv_batch_frames");
  transport_instruments.would_block =
      &registry.counter("ltnc_udp_would_block_total");
  transport_instruments.transient_errors =
      &registry.counter("ltnc_udp_transient_errors_total");
  transport_instruments.fatal_errors =
      &registry.counter("ltnc_udp_fatal_errors_total");
  seeder.set_telemetry(&transport_instruments);

  // Receiver fleet on its own thread: plain single-threaded sink
  // endpoints, one per socket — the peers are ordinary nodes; only the
  // seeder is sharded.
  std::atomic<bool> seeder_done{false};
  std::atomic<bool> rx_failed{false};
  std::atomic<std::uint64_t> rx_complete{0};
  harness::ThreadGroup rx_thread;
  rx_thread.spawn([&] {
    std::vector<session::Endpoint> endpoints;
    endpoints.reserve(peers);
    for (std::size_t p = 0; p < peers; ++p) {
      endpoints.push_back(make_receiver(files, opts.feedback));
    }
    std::vector<bool> counted(peers, false);
    BatchIo io;
    std::uint64_t iterations = 0;
    while (!seeder_done.load(std::memory_order_relaxed)) {
      bool any = false;
      for (std::size_t p = 0; p < peers; ++p) {
        session::Endpoint& endpoint = endpoints[p];
        any |= io.receive(*net->clients[p],
                          [&](PeerIndex peer, wire::Frame& frame) {
                            endpoint.handle_frame(peer, frame.bytes());
                          },
                          BatchIo::kUntilEmpty) > 0;
        io.transmit(*net->clients[p], endpoint);
        if (!counted[p] && endpoint.complete()) {
          counted[p] = true;
          rx_complete.fetch_add(1, std::memory_order_relaxed);
        }
      }
      if (++iterations % 1024 == 0) {
        for (auto& endpoint : endpoints) endpoint.tick(iterations / 1024);
      }
      if (!any) std::this_thread::yield();
    }
    for (std::size_t p = 0; p < peers; ++p) {
      if (!verify_received_file(endpoints[p], files.front())) {
        std::cerr << "swarm: receiver " << p << " failed verification\n";
        rx_failed.store(true, std::memory_order_relaxed);
      }
    }
  });

  // The seeder's I/O loop: this thread owns the socket and the ring
  // surface; the shards do all protocol work.
  int result = 0;
  {
    SwarmSeederApp app(files, static_cast<std::uint32_t>(peers), shards,
                       opts.feedback);
    session::ShardedConfig cfg;
    cfg.num_shards = shards;
    cfg.registry = &registry;
    cfg.flight_recorder_capacity = opts.trace_path.empty() ? 0 : 8192;
    if (opts.feedback == session::FeedbackMode::kBinary) {
      // Finer session ticks: handshake latency is measured in the shard's
      // tick domain, and at the default 1024 iterations/tick a loopback
      // round trip rounds down to zero. 8 keeps tick overhead noise-level
      // (the per-tick work is a scan of this shard's few conversations)
      // while giving the histograms real resolution.
      cfg.iterations_per_tick = 8;
    }
    session::ShardedEndpoint sharded(cfg, app);

    BatchIo io;
    IdleTimer idle;
    const std::uint64_t max_frames = 400 * blocks * peers + 100000 * peers;
    // One socket batch gathered across the shard rings, shard by shard.
    std::uint32_t shard = 0;
    const auto poll_shards = [&](session::PeerId& dst, wire::Frame& frame) {
      for (; shard < shards; ++shard) {
        if (sharded.poll_transmit(shard, dst, frame)) return true;
      }
      return false;
    };

    auto dump_snapshot = [&](const telemetry::Snapshot& snap) {
      if (!opts.prom_path.empty()) {
        std::ofstream out(opts.prom_path, std::ios::trunc);
        if (out) telemetry::render_prometheus(out, snap);
      } else {
        telemetry::render_prometheus(std::cout, snap);
      }
    };
    auto last_dump = std::chrono::steady_clock::now();
    std::uint64_t loop_count = 0;

    while (app.peers_done() < peers) {
      // Periodic exposition; the wall clock is only consulted every 4096
      // iterations so the hot loop stays syscall-and-ring-bound.
      if (opts.stats_period_ms != 0 && (++loop_count & 0xFFF) == 0) {
        const auto now = std::chrono::steady_clock::now();
        if (now - last_dump >=
            std::chrono::milliseconds(opts.stats_period_ms)) {
          last_dump = now;
          std::cout << "# --- telemetry peers_done=" << app.peers_done()
                    << "/" << peers << " ---\n";
          dump_snapshot(registry.snapshot());
        }
      }

      // Inbound: completion acks back into their conversation's shard.
      bool any = io.receive(seeder, [&](PeerIndex peer, wire::Frame& frame) {
                   sharded.route_frame(peer, frame);
                 }) > 0;
      // Outbound: the frames stay alive in the batch until the syscall
      // returns.
      shard = 0;
      any |= io.transmit(seeder, poll_shards, harness::KeepAll{}, 1) > 0;

      if (seeder.stats().frames_sent > max_frames) {
        std::cerr << "swarm: frame budget exhausted ("
                  << app.peers_done() << "/" << peers << " peers done, "
                  << rx_complete.load() << " decoders complete)\n";
        result = 1;
        break;
      }
      if (any) {
        idle.poke();
      } else if (idle.expired()) {
        std::cerr << "swarm: stalled (" << app.peers_done() << "/" << peers
                  << " peers done)\n";
        result = 1;
        break;
      }
    }

    seeder_done.store(true, std::memory_order_relaxed);
    rx_thread.join();
    sharded.stop();

    const net::UdpStats& us = seeder.stats();
    const session::SessionStats total = sharded.aggregate_stats();
    std::cout << "swarm: " << app.peers_done() << "/" << peers
              << " peers acked; seeder sent " << us.frames_sent
              << " frames in " << us.send_calls << " sendmmsg calls ("
              << us.frames_per_send_call() << " frames/call), received "
              << us.frames_received << " acks in " << us.recv_calls
              << " recv calls; session data_sent " << total.data_sent
              << ", inbound ring drops " << sharded.inbound_drops() << "\n";
    for (std::uint32_t s = 0; s < shards; ++s) {
      const auto& report = sharded.report(s);
      std::cout << "swarm: shard " << s << ": " << app.peers_assigned(s)
                << " peers, " << report.frames_out << " frames out, "
                << report.frames_in << " acks in\n";
    }

    // Final telemetry: one exposition of the finished state, a latency
    // digest (tick-domain histograms aggregated across shards), and the
    // merged flight-recorder trace. All post-stop(), so every shard's
    // counters are quiescent.
    const telemetry::Snapshot final_snap = registry.snapshot();
    if (opts.stats_period_ms != 0 || !opts.prom_path.empty()) {
      dump_snapshot(final_snap);
    }
    const telemetry::Snapshot agg = final_snap.aggregated();
    std::cout << "swarm: handshake latency (ticks) "
              << histogram_digest(agg, "ltnc_session_handshake_ticks")
              << "; completion latency (ticks) "
              << histogram_digest(agg, "ltnc_session_completion_ticks")
              << "\nswarm: udp send batch "
              << histogram_digest(agg, "ltnc_udp_send_batch_frames")
              << " frames/call; recv batch "
              << histogram_digest(agg, "ltnc_udp_recv_batch_frames")
              << " frames/call\n";
    if (!opts.trace_path.empty()) {
      std::vector<const telemetry::FlightRecorder*> recorders;
      for (std::uint32_t s = 0; s < shards; ++s) {
        if (const auto* r = sharded.flight_recorder(s)) recorders.push_back(r);
      }
      std::ofstream out(opts.trace_path, std::ios::trunc);
      if (out) {
        telemetry::dump_chrome_trace_multi(out, recorders);
        std::cout << "swarm: flight recorder trace (" << recorders.size()
                  << " shard(s)) -> " << opts.trace_path << "\n";
      } else {
        std::cerr << "swarm: cannot open " << opts.trace_path << "\n";
      }
    }
    if (rx_failed.load() || app.peers_done() < peers) result = 1;
  }
  return result;
}

int run_swarm_comparison(std::size_t peers, std::size_t blocks,
                         std::string_view scheme_arg) {
  using session::Scheme;

  dissem::SimConfig cfg;
  cfg.num_nodes = peers;
  cfg.k = blocks;
  cfg.payload_bytes = 64;  // small blocks: the table compares coding costs
  cfg.seed = 7;
  cfg.max_rounds = 200 * blocks;

  std::vector<Scheme> schemes;
  if (scheme_arg.empty() || scheme_arg == "all") {
    schemes = {Scheme::kWc, Scheme::kLtnc, Scheme::kRlnc};
  } else {
    Scheme one{};
    if (!session::scheme_from_string(scheme_arg, one)) {
      std::cerr << "unknown scheme '" << scheme_arg
                << "' (expected ltnc|rlnc|wc|all)\n";
      return 2;
    }
    schemes = {one};
  }

  std::cout << "Distributing a file of " << blocks << " blocks to " << peers
            << " peers (push gossip, binary feedback channel)\n\n";

  TextTable table({"scheme", "all peers done (rounds)", "overhead %",
                   "wire MB (measured)", "decode ctrl ops/peer",
                   "verified"});
  for (const Scheme scheme : schemes) {
    const dissem::SimResult res = dissem::run_simulation(scheme, cfg);
    const double n = static_cast<double>(peers);
    table.add_row(
        {session::scheme_name(scheme),
         res.all_complete ? TextTable::integer(
                                static_cast<long long>(res.rounds_run))
                          : "did not finish",
         TextTable::num(100 * res.overhead(), 1),
         TextTable::num(static_cast<double>(res.traffic.wire_bytes_total()) /
                            (1024.0 * 1024.0),
                        2),
         TextTable::num(
             static_cast<double>(res.decode_ops.control_total()) / n, 0),
         res.payloads_verified ? "yes" : "NO"});
  }
  table.print(std::cout);
  std::cout << "\nLTNC trades a little traffic for a decode cost low enough "
               "for sensor-class devices (paper's headline trade-off).\n"
               "Wire MB is measured through the frame codec, adaptive "
               "code-vector encoding included.\n";
  return 0;
}

std::size_t arg_or(int argc, char** argv, int index, std::size_t fallback) {
  return argc > index ? static_cast<std::size_t>(std::atoll(argv[index]))
                      : fallback;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string_view mode = argc > 1 ? argv[1] : "";

  if (mode == "--udp-loopback") {
    return run_udp_loopback_dir(synthetic_content(
        arg_or(argc, argv, 2, 256), arg_or(argc, argv, 3, 1024)));
  }
  if (mode == "--udp-swarm-loopback") {
    // Positional args first, then optional flags anywhere.
    std::uint32_t shards = 0;
    SwarmOptions opts;
    std::vector<std::size_t> positional;
    auto flag_value = [&](int& i) -> const char* {
      if (i + 1 >= argc) {
        std::cerr << argv[i] << " needs a value\n";
        return nullptr;
      }
      return argv[++i];
    };
    for (int i = 2; i < argc; ++i) {
      const std::string_view arg = argv[i];
      if (arg == "--shards") {
        const char* v = flag_value(i);
        if (v == nullptr) return 2;
        shards = static_cast<std::uint32_t>(std::atoi(v));
      } else if (arg == "--feedback") {
        const char* v = flag_value(i);
        if (v == nullptr) return 2;
        const std::string_view value = v;
        if (value == "binary") {
          opts.feedback = session::FeedbackMode::kBinary;
        } else if (value != "none") {
          std::cerr << "--feedback expects binary|none\n";
          return 2;
        }
      } else if (arg == "--stats-period") {
        const char* v = flag_value(i);
        if (v == nullptr) return 2;
        opts.stats_period_ms = static_cast<std::uint64_t>(std::atoll(v));
      } else if (arg == "--prom") {
        const char* v = flag_value(i);
        if (v == nullptr) return 2;
        opts.prom_path = v;
      } else if (arg == "--trace") {
        const char* v = flag_value(i);
        if (v == nullptr) return 2;
        opts.trace_path = v;
      } else {
        positional.push_back(
            static_cast<std::size_t>(std::atoll(argv[i])));
      }
    }
    if (shards == 0) {
      const unsigned cores = std::thread::hardware_concurrency();
      shards = cores > 1 ? std::min(4u, cores) : 1;
    }
    const std::size_t peers =
        positional.size() > 0 ? positional[0] : 8;
    const std::size_t blocks =
        positional.size() > 1 ? positional[1] : 64;
    const std::size_t bytes =
        positional.size() > 2 ? positional[2] : 512;
    if (peers == 0 || blocks == 0 || bytes == 0) {
      std::cerr << "usage: file_distribution --udp-swarm-loopback [peers] "
                   "[blocks] [bytes] [--shards N] [--feedback binary|none] "
                   "[--stats-period MS] [--prom FILE] [--trace FILE]\n";
      return 2;
    }
    return run_udp_swarm_loopback(peers, blocks, bytes, shards, opts);
  }
  if (mode == "--udp-loopback-dir") {
    if (argc < 3) {
      std::cerr << "usage: file_distribution --udp-loopback-dir <dir> "
                   "[block_bytes]\n";
      return 2;
    }
    std::vector<LoadedFile> files;
    if (!load_directory(argv[2], arg_or(argc, argv, 3, 1024), files)) {
      return 1;
    }
    return run_udp_loopback_dir(files);
  }
  const bool send_dir = mode == "--udp-send-dir";
  if (send_dir || mode == "--udp-send") {
    if (argc < (send_dir ? 5 : 4)) {
      std::cerr << (send_dir ? "usage: file_distribution --udp-send-dir <ip> "
                               "<port> <dir> [block_bytes]\n"
                             : "usage: file_distribution --udp-send <ip> "
                               "<port> [blocks] [bytes]\n");
      return 2;
    }
    std::vector<LoadedFile> files;
    if (!send_dir) {
      files = synthetic_content(arg_or(argc, argv, 4, 256),
                                arg_or(argc, argv, 5, 1024));
    } else if (!load_directory(argv[4], arg_or(argc, argv, 5, 1024), files)) {
      return 1;
    }
    std::string error;
    net::UdpConfig cfg;
    cfg.peer_address = argv[2];
    cfg.peer_port = static_cast<std::uint16_t>(std::atoi(argv[3]));
    auto socket = net::UdpTransport::open(cfg, &error);
    if (socket == nullptr) {
      std::cerr << "cannot open socket: " << error << "\n";
      return 1;
    }
    return run_udp_dir_sender(*socket, files);
  }
  const bool recv_dir = mode == "--udp-recv-dir";
  if (recv_dir || mode == "--udp-recv") {
    if (argc < (recv_dir ? 4 : 3)) {
      std::cerr << (recv_dir ? "usage: file_distribution --udp-recv-dir "
                               "<port> <dir> [block_bytes]\n"
                             : "usage: file_distribution --udp-recv <port> "
                               "[blocks] [bytes]\n");
      return 2;
    }
    std::vector<LoadedFile> files;
    if (!recv_dir) {
      files = synthetic_content(arg_or(argc, argv, 3, 256),
                                arg_or(argc, argv, 4, 1024));
    } else if (!load_directory(argv[3], arg_or(argc, argv, 4, 1024), files)) {
      return 1;
    }
    std::string error;
    net::UdpConfig cfg;
    cfg.bind_address = "0.0.0.0";
    cfg.bind_port = static_cast<std::uint16_t>(std::atoi(argv[2]));
    auto socket = net::UdpTransport::open(cfg, &error);
    if (socket == nullptr) {
      std::cerr << "cannot open socket: " << error << "\n";
      return 1;
    }
    std::cout << "receiver: listening on UDP port " << socket->local_port()
              << " for " << files.size() << " content(s)\n";
    return run_udp_dir_receiver(*socket, files);
  }

  return run_swarm_comparison(arg_or(argc, argv, 1, 100),
                              arg_or(argc, argv, 2, 256),
                              argc > 3 ? argv[3] : "");
}
