// fanout_udp_sharded — a ShardedEndpoint seeder (2 worker shards behind
// SPSC rings, plus this thread doing the socket I/O) serves 4 small
// contents to 96 receiver sockets, each with a multi-content
// ContentStore, all driven by one receiver thread: 4 threads in all.
// Both sides batch with sendmmsg/recvmmsg. There is no per-packet
// feedback; each (receiver, content) conversation stops on that
// content's completion kAck. Per-packet cost, shard routing, the rings
// and hundreds of concurrent conversations decide the time.
#include <algorithm>
#include <atomic>
#include <exception>
#include <stdexcept>
#include <string>
#include <thread>

#include "common/arena.hpp"
#include "lt/lt_encoder.hpp"
#include "session/protocols.hpp"
#include "session/sharded.hpp"
#include "store/content_store.hpp"
#include "trace.hpp"
#include "workloads.hpp"

namespace e2e {
namespace {

using namespace ltnc;
using net::UdpTransport;

constexpr std::size_t kReceivers = 96;
constexpr std::size_t kContents = 4;
constexpr std::size_t kBlocks = 64;
constexpr std::size_t kBlockBytes = 256;
constexpr std::uint32_t kShards = 2;
constexpr std::size_t kBatch = UdpTransport::kMaxBatch;
// Receiver session time: one tick per 1024 sweeps over all sockets, the
// cadence of file_distribution's swarm mode. A completed content
// re-announces its kAck once per tick, so this also sets how many
// redundant acks reach the seeder.
constexpr std::uint64_t kSweepsPerTick = 1024;
constexpr double kMaxSeconds = 30.0;

struct ContentSpec {
  ContentId id = 0;
  std::uint64_t seed = 0;
  std::uint64_t hash = 0;
};

store::ContentConfig content_config(const ContentSpec& spec) {
  store::ContentConfig cfg;
  cfg.id = spec.id;
  cfg.k = kBlocks;
  cfg.payload_bytes = kBlockBytes;
  return cfg;
}

/// The seeder application: each shard LT-encodes every content with its
/// own encoders and offers one packet per open conversation per pump,
/// until that (receiver, content) pair has acked.
class SeederApp final : public session::ShardApp {
 public:
  SeederApp(const std::vector<ContentSpec>& contents, std::uint64_t seed)
      : contents_(contents), seed_(seed), shards_(kShards) {
    for (std::uint32_t p = 0; p < kReceivers; ++p) {
      for (std::size_t c = 0; c < contents_.size(); ++c) {
        shards_[session::shard_of(p, contents_[c].id, kShards)]
            .conversations.push_back({p, c});
      }
    }
  }

  std::unique_ptr<session::Endpoint> make_endpoint(
      std::uint32_t shard) override {
    set_thread_role("shard");
    Shard& s = shards_[shard];
    s.rng.reseed(derive_seed(seed_, 100 + shard));
    auto store = std::make_unique<store::ContentStore>();
    for (const ContentSpec& spec : contents_) {
      store->register_content(content_config(spec), nullptr);
      s.encoders.emplace_back(
          lt::make_native_payloads(kBlocks, kBlockBytes, spec.seed));
    }
    session::EndpointConfig cfg;
    cfg.feedback = session::FeedbackMode::kNone;
    auto endpoint = std::make_unique<session::Endpoint>(cfg, std::move(store));
    ready_.fetch_add(1, std::memory_order_release);
    return endpoint;
  }

  bool pump(std::uint32_t shard, session::Endpoint& endpoint) override {
    Shard& s = shards_[shard];
    bool offered = false;
    std::uint32_t done = 0;
    for (const Conversation& c : s.conversations) {
      const ContentId id = contents_[c.content].id;
      if (endpoint.peer_completed(c.peer, id)) {
        ++done;
        continue;
      }
      const CodedPacket packet = timed(
          Span::kLtEncode, [&] { return s.encoders[c.content].encode(s.rng); });
      Scope offer(Span::kOfferPacket);
      endpoint.offer_packet(c.peer, id, packet);
      offered = true;
    }
    s.done.store(done, std::memory_order_relaxed);
    return offered;
  }

  bool ready() const {
    return ready_.load(std::memory_order_acquire) == kShards;
  }
  /// Conversations whose completion ack reached the seeder.
  std::uint32_t acked() const {
    std::uint32_t total = 0;
    for (const Shard& s : shards_) {
      total += s.done.load(std::memory_order_relaxed);
    }
    return total;
  }

 private:
  struct Conversation {
    session::PeerId peer = 0;
    std::size_t content = 0;
  };
  // Each shard's state is touched only by its worker (and by this
  // object's destructor after the workers joined).
  struct Shard {
    std::vector<Conversation> conversations;
    std::vector<lt::LtEncoder> encoders;
    Rng rng;
    std::atomic<std::uint32_t> done{0};
  };

  const std::vector<ContentSpec>& contents_;
  std::uint64_t seed_;
  std::vector<Shard> shards_;
  std::atomic<std::uint32_t> ready_{0};
};

/// What the receiver thread hands back after it joined.
struct ReceiverOutcome {
  std::vector<std::int64_t> verified_at_ns;  ///< 0 = not verified
  std::map<std::string, double> counts;
  std::uint64_t wire_bytes_received = 0;
  std::uint64_t frames_received = 0;
  std::uint64_t leftover = 0;
  std::exception_ptr error;  ///< set when the thread failed
};

/// The receiver fleet: one sink Endpoint per socket, swept round-robin.
void receive_loop(const std::vector<ContentSpec>& contents,
                  std::vector<std::unique_ptr<UdpTransport>>& sockets,
                  std::atomic<bool>& ready, std::atomic<bool>& stop,
                  Capture* capture, ReceiverOutcome& out) try {
  set_thread_role("rx");
  {
    std::vector<std::unique_ptr<session::Endpoint>> eps;
    for (std::size_t p = 0; p < kReceivers; ++p) {
      auto store = std::make_unique<store::ContentStore>();
      for (const ContentSpec& spec : contents) {
        store->register_content(
            content_config(spec),
            std::make_unique<session::LtSinkProtocol>(kBlocks, kBlockBytes));
      }
      session::EndpointConfig cfg;
      cfg.feedback = session::FeedbackMode::kNone;
      cfg.announce_completion = true;
      cfg.response_timeout = 1;
      cfg.max_retries = 7;
      eps.push_back(
          std::make_unique<session::Endpoint>(cfg, std::move(store)));
    }
    std::vector<wire::Frame> rx_frames(kBatch);
    std::vector<wire::Frame> tx_frames(kBatch);
    std::vector<UdpTransport::PeerIndex> rx_peers(kBatch);
    std::vector<UdpTransport::TxItem> items(kBatch);
    out.verified_at_ns.assign(kReceivers, 0);
    std::vector<std::uint8_t> complete(kReceivers, 0);
    ready.store(true, std::memory_order_release);

    std::uint64_t sweeps = 0;
    while (!stop.load(std::memory_order_acquire)) {
      bool any = false;
      for (std::size_t p = 0; p < kReceivers; ++p) {
        session::Endpoint& ep = *eps[p];
        for (;;) {
          const std::size_t got = timed(Span::kNetRecv, [&] {
            return sockets[p]->recv_batch(rx_frames, rx_peers);
          });
          if (got == 0) break;
          any = true;
          for (std::size_t i = 0; i < got; ++i) {
            if (capture != nullptr && p == 0) {
              capture->take(rx_frames[i].data(), rx_frames[i].size());
            }
            Scope handle(Span::kHandleFrame);
            ep.handle_frame(0, rx_frames[i].bytes());
          }
          if (got < kBatch) break;
        }
        // Completion acks go back to the seeder (socket peer 0).
        std::size_t n = 0;
        session::PeerId peer = 0;
        while (n < kBatch && timed(Span::kPollTransmit, [&] {
                 return ep.poll_transmit(peer, tx_frames[n]);
               })) {
          items[n] = {0, tx_frames[n].bytes()};
          ++n;
        }
        if (n > 0) {
          Scope send(Span::kNetSend);
          sockets[p]->send_batch({items.data(), n});
        }
        if (complete[p] == 0 && ep.complete()) {
          complete[p] = 1;
          bool ok = true;
          for (const ContentSpec& spec : contents) {
            store::Content& content = *ep.contents().find(spec.id);
            ok = ok && timed(Span::kFinishAndVerify, [&] {
                   return content.finish_and_verify(spec.seed);
                 });
            const auto& sink =
                static_cast<const session::LtSinkProtocol&>(*content.protocol());
            ok = ok && timed(Span::kHashVerify, [&] {
                   return hash_decoded(sink.decoder()) == spec.hash;
                 });
          }
          if (ok) out.verified_at_ns[p] = now_ns();
        }
      }
      if (++sweeps % kSweepsPerTick == 0) {
        for (auto& ep : eps) {
          Scope tick(Span::kTick);
          ep->tick(sweeps / kSweepsPerTick);
        }
      }
      if (!any) std::this_thread::yield();
    }

    for (const auto& ep : eps) {
      out.wire_bytes_received += ep->stats().bytes_received;
      out.frames_received += ep->stats().frames_received;
      add_session_counts(out.counts, ep->stats());
      for (std::size_t c = 0; c < ep->contents().size(); ++c) {
        out.counts["decode_control_ops"] += static_cast<double>(
            ep->contents().at(c).protocol()->decode_ops().control_total());
      }
    }
    for (const auto& socket : sockets) add_udp_counts(out.counts, socket->stats());
    for (const auto& socket : sockets) {
      while (const std::size_t got = socket->recv_batch(rx_frames, rx_peers)) {
        out.leftover += got;
      }
    }
  }
  WordArena::reclaim_local();
} catch (...) {
  out.error = std::current_exception();
  ready.store(true, std::memory_order_release);  // never strand set-up
}

}  // namespace

RepResult run_fanout_udp_sharded(std::uint64_t seed, Capture* capture) {
  RepResult r;
  r.receivers = kReceivers;
  r.content_bytes = kContents * kBlocks * kBlockBytes;

  const std::int64_t setup_start = now_ns();
  std::vector<ContentSpec> contents(kContents);
  for (std::size_t c = 0; c < kContents; ++c) {
    contents[c].id = static_cast<ContentId>(c + 1);
    contents[c].seed = derive_seed(seed, c);
    contents[c].hash = hash_natives(
        lt::make_native_payloads(kBlocks, kBlockBytes, contents[c].seed));
  }
  auto seeder = open_loopback_socket(0);
  std::vector<std::unique_ptr<UdpTransport>> sockets;
  for (std::size_t p = 0; p < kReceivers; ++p) {
    sockets.push_back(open_loopback_socket(seeder->local_port()));
    if (seeder->add_peer("127.0.0.1", sockets[p]->local_port()) != p) {
      throw std::runtime_error("fanout_udp_sharded: peer interning broke");
    }
  }
  if (capture != nullptr) {
    capture->k = kBlocks;
    capture->payload_bytes = kBlockBytes;
  }

  std::vector<wire::Frame> rx_frames(kBatch);
  std::vector<UdpTransport::PeerIndex> rx_peers(kBatch);
  std::vector<wire::Frame> tx_frames(kBatch);
  std::vector<UdpTransport::TxItem> items(kBatch);

  // Nothing below may throw until rx_thread is joined.
  SeederApp app(contents, seed);
  session::ShardedConfig cfg;
  cfg.num_shards = kShards;
  session::ShardedEndpoint sharded(cfg, app);
  std::atomic<bool> rx_ready{false};
  std::atomic<bool> rx_stop{false};
  ReceiverOutcome rx;
  std::thread rx_thread(receive_loop, std::cref(contents), std::ref(sockets),
                        std::ref(rx_ready), std::ref(rx_stop), capture,
                        std::ref(rx));
  while (!app.ready() || !rx_ready.load(std::memory_order_acquire)) {
    std::this_thread::yield();
  }
  r.setup_s = seconds_since(setup_start);

  const bool tracing = g_tracing.load(std::memory_order_relaxed);
  const std::uint64_t allocs0 = heap_allocations();
  const double cpu0 = process_cpu_s();
  const std::int64_t t0 = now_ns();
  std::int64_t io_busy_ns = 0;
  const std::uint32_t conversations = kReceivers * kContents;
  while (app.acked() < conversations && seconds_since(t0) < kMaxSeconds) {
    const std::int64_t iteration_start = tracing ? now_ns() : 0;
    bool any = false;
    const std::size_t got = timed(
        Span::kNetRecv, [&] { return seeder->recv_batch(rx_frames, rx_peers); });
    for (std::size_t i = 0; i < got; ++i) {
      Scope route(Span::kRouteFrame);
      sharded.route_frame(rx_peers[i], rx_frames[i]);
    }
    std::size_t filled = 0;
    for (std::uint32_t s = 0; s < kShards; ++s) {
      session::PeerId dst = 0;
      while (filled < kBatch && timed(Span::kShardedPollTransmit, [&] {
               return sharded.poll_transmit(s, dst, tx_frames[filled]);
             })) {
        items[filled] = {dst, tx_frames[filled].bytes()};
        ++filled;
      }
    }
    if (filled > 0) {
      Scope send(Span::kNetSend);
      seeder->send_batch({items.data(), filled});
    }
    any = got > 0 || filled > 0;
    if (tracing && any) io_busy_ns += now_ns() - iteration_start;
    if (!any) std::this_thread::yield();
  }
  r.loop_s = seconds_since(t0);
  r.cpu_s = process_cpu_s() - cpu0;
  r.allocs = heap_allocations() - allocs0;

  rx_stop.store(true, std::memory_order_release);
  rx_thread.join();
  sharded.stop();

  if (rx.error) std::rethrow_exception(rx.error);
  // A transfer counts only once the seeder has its ack: a loop that never
  // closed fails every transfer in it.
  std::int64_t last_ns = t0;
  for (const std::int64_t at : rx.verified_at_ns) {
    if (at == 0 || app.acked() < conversations) continue;
    ++r.verified;
    r.completion_s.push_back(static_cast<double>(at - t0) / 1e9);
    last_ns = std::max(last_ns, at);
  }
  r.wall_s = static_cast<double>(last_ns - t0) / 1e9;

  const session::SessionStats seeder_stats = sharded.aggregate_stats();
  r.wire_bytes_received = rx.wire_bytes_received + seeder_stats.bytes_received;
  r.frames_received = rx.frames_received + seeder_stats.frames_received;
  r.counts = rx.counts;
  add_session_counts(r.counts, seeder_stats);
  add_udp_counts(r.counts, seeder->stats());
  r.counts["useful_k"] = static_cast<double>(kReceivers * kContents * kBlocks);
  std::uint64_t seeder_leftover = 0;
  while (const std::size_t got = seeder->recv_batch(rx_frames, rx_peers)) {
    seeder_leftover += got;
  }
  r.counts["udp_socket_drops"] =
      r.counts["udp_frames_sent"] - r.counts["udp_frames_received"] -
      static_cast<double>(rx.leftover + seeder_leftover);
  r.counts["shard_inbound_drops"] = static_cast<double>(sharded.inbound_drops());
  double max_out = 0.0;
  double sum_out = 0.0;
  for (std::uint32_t s = 0; s < kShards; ++s) {
    const auto out = static_cast<double>(sharded.report(s).frames_out);
    max_out = std::max(max_out, out);
    sum_out += out;
  }
  r.counts["shard_imbalance"] =
      sum_out > 0.0 ? max_out / (sum_out / kShards) : 0.0;
  r.counts["io_busy_s"] = static_cast<double>(io_busy_ns) / 1e9;
  return r;
}

}  // namespace e2e
