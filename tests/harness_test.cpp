// The loopback I/O core shared by the UDP drivers: socket-fleet ordering,
// the poll → keep → send_batch drain, the recv_batch drain, the worker
// thread group and the latency fold.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/coded_packet.hpp"
#include "common/rng.hpp"
#include "harness/loopback.hpp"
#include "lt/lt_encoder.hpp"
#include "session/endpoint.hpp"
#include "telemetry/metrics.hpp"
#include "wire/frame.hpp"

namespace ltnc::harness {
namespace {

/// Receives on `socket` until `want` datagrams arrived or the retry
/// budget runs out (loopback delivery is immediate on Linux; the budget
/// only guards slower stacks).
std::vector<PeerIndex> receive_n(BatchIo& io, net::UdpTransport& socket,
                                 std::size_t want) {
  std::vector<PeerIndex> from;
  for (int spin = 0; spin < 100000 && from.size() < want; ++spin) {
    io.receive(socket, [&](PeerIndex peer, wire::Frame&) {
      from.push_back(peer);
    });
  }
  return from;
}

wire::Frame frame_of(std::uint8_t tag) {
  wire::Frame frame(8);
  for (auto& b : frame.mutable_bytes()) b = tag;
  return frame;
}

TEST(LoopbackHarness, OpenLoopbackInternsClientsAndServicesInOrder) {
  std::string error;
  std::optional<Loopback> net = open_loopback(3, 2, &error);
  ASSERT_TRUE(net.has_value()) << error;
  ASSERT_EQ(net->clients.size(), 3u);
  ASSERT_EQ(net->services.size(), 2u);
  for (const auto& client : net->clients) EXPECT_EQ(client->peer_count(), 2u);
  for (const auto& service : net->services) {
    EXPECT_EQ(service->peer_count(), 3u);
  }

  // Service 1 → client 2: the client sees the service as PeerIndex 1.
  BatchIo io;
  const wire::Frame frame = frame_of(7);
  const net::UdpTransport::TxItem to_client{2, frame.bytes()};
  ASSERT_EQ(net->services[1]->send_batch({&to_client, 1}), 1u);
  EXPECT_EQ(receive_n(io, *net->clients[2], 1),
            std::vector<PeerIndex>{1});

  // Client 2 → service 0: the service sees the client as PeerIndex 2.
  const net::UdpTransport::TxItem to_service{0, frame.bytes()};
  ASSERT_EQ(net->clients[2]->send_batch({&to_service, 1}), 1u);
  EXPECT_EQ(receive_n(io, *net->services[0], 1),
            std::vector<PeerIndex>{2});
}

TEST(LoopbackHarness, TransmitDrainsAnEndpointThroughTheKeepHook) {
  std::string error;
  std::optional<Loopback> net = open_loopback(1, 1, &error);
  ASSERT_TRUE(net.has_value()) << error;

  session::EndpointConfig cfg;
  cfg.feedback = session::FeedbackMode::kNone;
  cfg.k = 16;
  cfg.payload_bytes = 32;
  session::Endpoint sender(cfg, nullptr);
  lt::LtEncoder encoder(lt::make_native_payloads(16, 32, 3));
  Rng rng(9);
  constexpr std::size_t kFrames = 100;  // two socket batches
  for (std::size_t i = 0; i < kFrames; ++i) {
    sender.offer_packet(0, encoder.encode(rng));
  }

  // The hook sees every popped frame and drops every other one.
  BatchIo io;
  std::size_t seen = 0;
  const std::size_t handed = io.transmit(
      *net->services[0], sender,
      [&](session::PeerId dest, const wire::Frame& frame) {
        EXPECT_EQ(dest, 0u);
        EXPECT_FALSE(frame.empty());
        return seen++ % 2 == 0;
      });
  EXPECT_EQ(seen, kFrames);
  EXPECT_EQ(handed, kFrames / 2);
  EXPECT_EQ(sender.stats().frames_sent, kFrames);
  EXPECT_EQ(io.transmit(*net->services[0], sender), 0u);  // drained

  // Every kept frame arrives and decodes into a sink.
  session::EndpointConfig rx_cfg = cfg;
  session::Endpoint receiver(
      rx_cfg, std::make_unique<session::LtSinkProtocol>(16, 32));
  std::size_t received = 0;
  for (int spin = 0; spin < 100000 && received < kFrames / 2; ++spin) {
    received += io.receive(
        *net->clients[0],
        [&](PeerIndex peer, wire::Frame& frame) {
          EXPECT_EQ(peer, 0u);
          receiver.handle_frame(peer, frame.bytes());
        },
        BatchIo::kUntilEmpty);
  }
  EXPECT_EQ(received, kFrames / 2);
  EXPECT_EQ(receiver.stats().data_delivered, kFrames / 2);
}

TEST(LoopbackHarness, TransmitStopsAfterMaxBatches) {
  std::string error;
  std::optional<Loopback> net = open_loopback(1, 1, &error);
  ASSERT_TRUE(net.has_value()) << error;
  std::size_t queued = 3 * BatchIo::kBatch;
  const auto poll = [&](session::PeerId& dest, wire::Frame& frame) {
    if (queued == 0) return false;
    --queued;
    dest = 0;
    frame = frame_of(1);
    return true;
  };
  BatchIo io;
  EXPECT_EQ(io.transmit(*net->services[0], poll, KeepAll{}, 1),
            BatchIo::kBatch);
  EXPECT_EQ(queued, 2 * BatchIo::kBatch);
  EXPECT_EQ(net->services[0]->stats().send_calls, 1u);
  EXPECT_EQ(receive_n(io, *net->clients[0], BatchIo::kBatch).size(),
            BatchIo::kBatch);
}

TEST(LoopbackHarness, ThreadGroupRunsEveryBodyAndJoins) {
  std::atomic<int> ran{0};
  {
    ThreadGroup group;
    for (int i = 0; i < 4; ++i) {
      group.spawn([&ran] {
        // Arena-backed work on the worker; reclaimed after the body.
        wire::Frame frame(4096);
        frame.mutable_bytes()[0] = 1;
        ran.fetch_add(1, std::memory_order_relaxed);
      });
    }
    group.join();
    EXPECT_EQ(ran.load(), 4);
    group.join();  // idempotent; the destructor joins again
  }
  EXPECT_EQ(ran.load(), 4);
}

TEST(LoopbackHarness, LatencyQuantilesReadTheNamedHistogram) {
  telemetry::Registry registry;
  telemetry::Histogram& h = registry.histogram("ltnc_test_latency_us");
  for (std::uint64_t v = 1; v <= 1000; ++v) h.record(v);

  const LatencyQuantiles q =
      latency_quantiles(registry, "ltnc_test_latency_us");
  const telemetry::Snapshot snap = registry.snapshot();
  const auto* expected = snap.find_histogram("ltnc_test_latency_us");
  ASSERT_NE(expected, nullptr);
  EXPECT_EQ(q.samples, 1000u);
  EXPECT_DOUBLE_EQ(q.p50, expected->quantile(0.50));
  EXPECT_DOUBLE_EQ(q.p99, expected->quantile(0.99));
  EXPECT_DOUBLE_EQ(q.p999, expected->quantile(0.999));
  EXPECT_LE(q.p50, q.p99);

  struct {
    std::uint64_t latency_samples = 7;
    double latency_p50 = 1, latency_p99 = 1, latency_p999 = 1;
  } out;
  latency_quantiles(registry, "absent").store_into(out);
  EXPECT_EQ(out.latency_samples, 0u);
  EXPECT_EQ(out.latency_p99, 0.0);

  const MicrosClock clock;
  const std::uint64_t a = clock();
  EXPECT_LE(a, clock());
}

}  // namespace
}  // namespace ltnc::harness
