// Transport layer: SimChannel determinism and fault injection, UDP
// loopback round-trips, and wire frames surviving both backends intact.
#include "net/transport.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "common/coded_packet.hpp"
#include "common/rng.hpp"
#include "net/sim_channel.hpp"
#include "net/udp_transport.hpp"
#include "wire/codec.hpp"
#include "wire/frame.hpp"

namespace ltnc::net {
namespace {

wire::Frame make_frame(std::uint8_t fill, std::size_t size) {
  wire::Frame frame(size);
  for (std::size_t i = 0; i < size; ++i) frame.mutable_bytes()[i] = fill;
  return frame;
}

TEST(SimChannel, ReliableConfigDeliversInOrder) {
  SimChannel channel(SimChannelConfig{});
  for (std::uint8_t i = 0; i < 10; ++i) {
    const wire::Frame frame = make_frame(i, 16 + i);
    ASSERT_TRUE(channel.send(frame.bytes()));
  }
  EXPECT_EQ(channel.pending(), 10u);
  wire::Frame out;
  for (std::uint8_t i = 0; i < 10; ++i) {
    ASSERT_TRUE(channel.recv(out));
    EXPECT_EQ(out.size(), 16u + i);
    EXPECT_EQ(out.data()[0], i);
  }
  EXPECT_FALSE(channel.recv(out));
  EXPECT_EQ(channel.stats().delivered, 10u);
}

TEST(SimChannel, LossDropsDeterministically) {
  SimChannelConfig cfg;
  cfg.loss_rate = 0.5;
  cfg.seed = 33;
  const auto run = [&] {
    SimChannel channel(cfg);
    const wire::Frame frame = make_frame(7, 32);
    for (int i = 0; i < 1000; ++i) channel.send(frame.bytes());
    return channel.stats().dropped_loss;
  };
  const std::uint64_t first = run();
  EXPECT_GT(first, 300u);
  EXPECT_LT(first, 700u);
  EXPECT_EQ(first, run()) << "same seed must reproduce the fault schedule";
}

TEST(SimChannel, DuplicationDeliversTwice) {
  SimChannelConfig cfg;
  cfg.duplicate_rate = 1.0;
  SimChannel channel(cfg);
  const wire::Frame frame = make_frame(9, 8);
  ASSERT_TRUE(channel.send(frame.bytes()));
  EXPECT_EQ(channel.pending(), 2u);
  wire::Frame out;
  ASSERT_TRUE(channel.recv(out));
  ASSERT_TRUE(channel.recv(out));
  EXPECT_EQ(out.data()[0], 9);
  EXPECT_EQ(channel.stats().duplicated, 1u);
}

TEST(SimChannel, ReorderingChangesDeliveryOrder) {
  SimChannelConfig cfg;
  cfg.reorder_rate = 1.0;
  cfg.seed = 5;
  SimChannel channel(cfg);
  for (std::uint8_t i = 0; i < 32; ++i) {
    channel.send(make_frame(i, 4).bytes());
  }
  std::vector<std::uint8_t> order;
  wire::Frame out;
  while (channel.recv(out)) order.push_back(out.data()[0]);
  ASSERT_EQ(order.size(), 32u);
  bool shuffled = false;
  for (std::uint8_t i = 0; i < 32; ++i) shuffled |= order[i] != i;
  EXPECT_TRUE(shuffled);
  EXPECT_GT(channel.stats().reordered, 0u);
  // Nothing lost: every frame is still delivered exactly once.
  std::vector<bool> seen(32, false);
  for (const std::uint8_t b : order) seen[b] = true;
  for (std::uint8_t i = 0; i < 32; ++i) EXPECT_TRUE(seen[i]);
}

TEST(SimChannel, MtuRejectsOversizedFrames) {
  SimChannelConfig cfg;
  cfg.mtu = 100;
  SimChannel channel(cfg);
  EXPECT_FALSE(channel.send(make_frame(1, 101).bytes()));
  EXPECT_TRUE(channel.send(make_frame(1, 100).bytes()));
  EXPECT_EQ(channel.stats().dropped_mtu, 1u);
  EXPECT_EQ(channel.pending(), 1u);
}

TEST(SimChannel, OverflowTailDrops) {
  SimChannelConfig cfg;
  cfg.capacity = 4;
  SimChannel channel(cfg);
  for (int i = 0; i < 6; ++i) channel.send(make_frame(1, 4).bytes());
  EXPECT_EQ(channel.pending(), 4u);
  EXPECT_EQ(channel.stats().dropped_overflow, 2u);
}

TEST(SimChannel, CodedPacketsSurviveTheChannel) {
  Rng rng(71);
  SimChannel channel(SimChannelConfig{});
  std::vector<CodedPacket> sent;
  wire::Frame frame;
  for (int i = 0; i < 20; ++i) {
    BitVector coeffs(128);
    for (int d = 0; d < 5; ++d) coeffs.set(rng.uniform(128));
    sent.emplace_back(std::move(coeffs),
                      Payload::deterministic(48, 9, i));
    wire::serialize(ContentId{0}, sent.back(), frame);
    ASSERT_TRUE(channel.send(frame.bytes()));
  }
  wire::Frame rx;
  ContentId content = 0;
  CodedPacket decoded;
  for (const CodedPacket& original : sent) {
    ASSERT_TRUE(channel.recv(rx));
    ASSERT_EQ(wire::deserialize(rx.bytes(), content, decoded),
              wire::DecodeStatus::kOk);
    EXPECT_EQ(decoded.coeffs, original.coeffs);
    EXPECT_EQ(decoded.payload, original.payload);
  }
}

// -- UDP ------------------------------------------------------------------

/// Opens a loopback pair, or returns false when the environment has no
/// usable sockets (sandboxed CI) — the test then skips rather than fails.
bool open_loopback_pair(std::unique_ptr<UdpTransport>& receiver,
                        std::unique_ptr<UdpTransport>& sender) {
  std::string error;
  UdpConfig rx_cfg;
  rx_cfg.bind_address = "127.0.0.1";
  receiver = UdpTransport::open(rx_cfg, &error);
  if (receiver == nullptr) return false;

  UdpConfig tx_cfg;
  tx_cfg.bind_address = "127.0.0.1";
  tx_cfg.peer_address = "127.0.0.1";
  tx_cfg.peer_port = receiver->local_port();
  sender = UdpTransport::open(tx_cfg, &error);
  return sender != nullptr;
}

/// Polls until a datagram arrives (loopback is fast but asynchronous).
bool recv_with_retry(UdpTransport& transport, wire::Frame& out) {
  for (int spin = 0; spin < 100000; ++spin) {
    if (transport.recv(out)) return true;
  }
  return false;
}

TEST(UdpTransport, LoopbackRoundTripsFrames) {
  std::unique_ptr<UdpTransport> receiver;
  std::unique_ptr<UdpTransport> sender;
  if (!open_loopback_pair(receiver, sender)) {
    GTEST_SKIP() << "no usable UDP sockets in this environment";
  }
  ASSERT_GT(receiver->local_port(), 0);

  const CodedPacket original(BitVector::unit(256, 17),
                             Payload::deterministic(128, 3, 0));
  wire::Frame frame;
  wire::serialize(ContentId{0}, original, frame);
  ASSERT_TRUE(sender->send(frame.bytes()));

  wire::Frame rx;
  ASSERT_TRUE(recv_with_retry(*receiver, rx));
  EXPECT_EQ(rx.size(), frame.size());
  ContentId content = 0;
  CodedPacket decoded;
  ASSERT_EQ(wire::deserialize(rx.bytes(), content, decoded),
            wire::DecodeStatus::kOk);
  EXPECT_EQ(decoded.coeffs, original.coeffs);
  EXPECT_EQ(decoded.payload, original.payload);
}

TEST(UdpTransport, FeedbackFlowsBackToLastSender) {
  std::unique_ptr<UdpTransport> receiver;
  std::unique_ptr<UdpTransport> sender;
  if (!open_loopback_pair(receiver, sender)) {
    GTEST_SKIP() << "no usable UDP sockets in this environment";
  }

  wire::Frame frame;
  wire::serialize_feedback(ContentId{0}, wire::MessageType::kAck, 42, frame);
  ASSERT_TRUE(sender->send(frame.bytes()));
  wire::Frame rx;
  ASSERT_TRUE(recv_with_retry(*receiver, rx));

  // The receiver locks onto whoever spoke and replies with an abort.
  ASSERT_TRUE(receiver->set_peer_to_last_sender());
  wire::serialize_feedback(ContentId{0}, wire::MessageType::kAbort, 43, frame);
  ASSERT_TRUE(receiver->send(frame.bytes()));

  ASSERT_TRUE(recv_with_retry(*sender, rx));
  ContentId content = 0;
  wire::MessageType type{};
  std::uint64_t token = 0;
  ASSERT_EQ(wire::deserialize_feedback(rx.bytes(), type, token, content),
            wire::DecodeStatus::kOk);
  EXPECT_EQ(type, wire::MessageType::kAbort);
  EXPECT_EQ(token, 43u);
}

TEST(UdpTransport, SendWithoutPeerFails) {
  std::string error;
  UdpConfig cfg;
  cfg.bind_address = "127.0.0.1";
  auto transport = UdpTransport::open(cfg, &error);
  if (transport == nullptr) {
    GTEST_SKIP() << "no usable UDP sockets in this environment";
  }
  EXPECT_FALSE(transport->has_peer());
  const wire::Frame frame(8);
  EXPECT_FALSE(transport->send(frame.bytes()));
}

TEST(UdpTransport, RejectsBadAddress) {
  std::string error;
  UdpConfig cfg;
  cfg.bind_address = "not-an-address";
  EXPECT_EQ(UdpTransport::open(cfg, &error), nullptr);
  EXPECT_FALSE(error.empty());
}

// -- batched I/O ----------------------------------------------------------

TEST(UdpTransport, BatchRoundTripsAcrossTheLoopback) {
  std::unique_ptr<UdpTransport> receiver;
  std::unique_ptr<UdpTransport> sender;
  if (!open_loopback_pair(receiver, sender)) {
    GTEST_SKIP() << "no usable UDP sockets in this environment";
  }
  constexpr std::size_t kFrames = 24;

  // One serialized frame per token; the batch speaks (peer, bytes) pairs
  // against the sender's interned registry (the configured peer is 0).
  std::vector<wire::Frame> frames(kFrames);
  std::vector<UdpTransport::TxItem> items(kFrames);
  for (std::size_t i = 0; i < kFrames; ++i) {
    wire::serialize_feedback(ContentId{0}, wire::MessageType::kAck, i,
                             frames[i]);
    items[i] = {0, frames[i].bytes()};
  }
  ASSERT_EQ(sender->send_batch(items), kFrames);
  EXPECT_EQ(sender->stats().frames_sent, kFrames);
  if (sender->batching_active()) {
    // The whole fan-out must cost far fewer syscalls than frames — this
    // is the entire point of the batch edge.
    EXPECT_GE(sender->stats().frames_per_send_call(), 8.0);
  }

  // Drain with recv_batch; all datagrams come from one source, which
  // interns to a single peer index.
  std::vector<wire::Frame> rx(32);
  std::vector<UdpTransport::PeerIndex> peers(32);
  std::vector<bool> seen(kFrames, false);
  std::size_t received = 0;
  for (int spin = 0; spin < 100000 && received < kFrames; ++spin) {
    const std::size_t n = receiver->recv_batch(rx, peers);
    for (std::size_t i = 0; i < n; ++i) {
      ContentId content = 0;
      wire::MessageType type{};
      std::uint64_t token = 0;
      ASSERT_EQ(wire::deserialize_feedback(rx[i].bytes(), type, token, content),
                wire::DecodeStatus::kOk);
      ASSERT_LT(token, kFrames);
      EXPECT_FALSE(seen[token]) << "duplicate datagram " << token;
      seen[token] = true;
      EXPECT_EQ(peers[i], peers[0]);
      ++received;
    }
  }
  EXPECT_EQ(received, kFrames);
  EXPECT_EQ(receiver->peer_count(), 1u);
  EXPECT_EQ(receiver->stats().frames_received, kFrames);
  if (receiver->batching_active()) {
    // Everything was already queued on the loopback, so the drain takes
    // far fewer recvmmsg calls than frames (idle polls don't count
    // frames, so the ratio only shrinks below this if batching broke).
    EXPECT_LT(receiver->stats().recv_calls,
              receiver->stats().frames_received +
                  receiver->stats().recv_would_block);
  }
}

TEST(UdpTransport, SendBatchSkipsInvalidItemsAndCountsThemFatal) {
  std::unique_ptr<UdpTransport> receiver;
  std::unique_ptr<UdpTransport> sender;
  if (!open_loopback_pair(receiver, sender)) {
    GTEST_SKIP() << "no usable UDP sockets in this environment";
  }
  const wire::Frame good = make_frame(0xAB, 64);
  const wire::Frame huge = make_frame(0xCD, 70000);  // over any UDP MTU

  const UdpTransport::TxItem items[] = {
      {0, good.bytes()},
      {0, huge.bytes()},                       // over-MTU: skipped
      {UdpTransport::kInvalidPeer, good.bytes()},  // unknown peer: skipped
      {0, good.bytes()},
  };
  EXPECT_EQ(sender->send_batch(items), 2u);
  EXPECT_EQ(sender->stats().frames_sent, 2u);
  EXPECT_EQ(sender->stats().fatal_errors, 2u);

  wire::Frame rx;
  ASSERT_TRUE(recv_with_retry(*receiver, rx));
  EXPECT_EQ(rx.size(), 64u);
  ASSERT_TRUE(recv_with_retry(*receiver, rx));
  EXPECT_EQ(rx.size(), 64u);
}

TEST(UdpTransport, RecvBatchOnIdleSocketCountsWouldBlock) {
  std::string error;
  UdpConfig cfg;
  cfg.bind_address = "127.0.0.1";
  auto transport = UdpTransport::open(cfg, &error);
  if (transport == nullptr) {
    GTEST_SKIP() << "no usable UDP sockets in this environment";
  }
  std::vector<wire::Frame> frames(4);
  std::vector<UdpTransport::PeerIndex> peers(4);
  EXPECT_EQ(transport->recv_batch(frames, peers), 0u);
  EXPECT_GE(transport->stats().recv_would_block, 1u);
  EXPECT_EQ(transport->stats().fatal_errors, 0u);
}

TEST(UdpTransport, PeerRegistryInternsStably) {
  std::string error;
  UdpConfig cfg;
  cfg.bind_address = "127.0.0.1";
  auto transport = UdpTransport::open(cfg, &error);
  if (transport == nullptr) {
    GTEST_SKIP() << "no usable UDP sockets in this environment";
  }
  const auto a = transport->add_peer("127.0.0.1", 5001);
  const auto b = transport->add_peer("127.0.0.1", 5002);
  ASSERT_NE(a, UdpTransport::kInvalidPeer);
  ASSERT_NE(b, UdpTransport::kInvalidPeer);
  EXPECT_NE(a, b);
  EXPECT_EQ(transport->add_peer("127.0.0.1", 5001), a);
  EXPECT_EQ(transport->peer_count(), 2u);
  EXPECT_EQ(transport->add_peer("not-an-address", 5001),
            UdpTransport::kInvalidPeer);
#if defined(__linux__)
  EXPECT_TRUE(transport->batching_active());
#endif
}

}  // namespace
}  // namespace ltnc::net
