// Session Endpoint: the sans-I/O state machine, exercised both directly
// (frame by frame) and under SimChannel fault injection (loss,
// duplication, reorder, MTU overflow). The property at the end is the one
// the session layer exists for: two endpoints over arbitrary fault
// schedules always converge, and never leak a frame lease.
#include "session/endpoint.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "common/arena.hpp"
#include "common/rng.hpp"
#include "lt/lt_encoder.hpp"
#include "net/sim_channel.hpp"
#include "session/protocols.hpp"
#include "wire/codec.hpp"

namespace ltnc::session {
namespace {

using Event = Endpoint::Event;

constexpr std::size_t kK = 32;
constexpr std::size_t kM = 16;
constexpr std::uint64_t kContentSeed = 42;

EndpointConfig config(FeedbackMode feedback = FeedbackMode::kBinary) {
  EndpointConfig cfg;
  cfg.k = kK;
  cfg.payload_bytes = kM;
  cfg.feedback = feedback;
  cfg.response_timeout = 4;
  cfg.max_retries = 3;
  return cfg;
}

ProtocolParams params() {
  ProtocolParams p;
  p.k = kK;
  p.payload_bytes = kM;
  return p;
}

std::unique_ptr<Endpoint> make_ltnc_endpoint(
    FeedbackMode feedback = FeedbackMode::kBinary) {
  return std::make_unique<Endpoint>(config(feedback),
                                    make_node(Scheme::kLtnc, params()));
}

/// Shuttles every pending frame of `from` straight into `to` (reliable,
/// in-order glue — the trivial transport).
void shuttle(Endpoint& from, PeerId from_id, Endpoint& to,
             std::vector<Event>* events = nullptr) {
  PeerId dst = 0;
  wire::Frame frame;
  while (from.poll_transmit(dst, frame)) {
    const Event ev = to.handle_frame(from_id, frame.bytes());
    if (events != nullptr) events->push_back(ev);
  }
}

// --- handshake paths, frame by frame ---------------------------------------

TEST(SessionEndpoint, BinaryHandshakeDeliversPayload) {
  lt::LtEncoder source(lt::make_native_payloads(kK, kM, kContentSeed));
  Endpoint sender(config(), nullptr);
  auto receiver = make_ltnc_endpoint();
  Rng rng(1);

  sender.offer_packet(7, source.encode(rng));
  EXPECT_EQ(sender.stats().offers, 1u);
  EXPECT_EQ(sender.stats().advertises_sent, 1u);

  // advertise → receiver answers proceed → sender releases data.
  PeerId dst = 0;
  wire::Frame frame;
  ASSERT_TRUE(sender.poll_transmit(dst, frame));
  EXPECT_EQ(dst, 7u);
  wire::MessageType type{};
  ASSERT_EQ(wire::peek_type(frame.bytes(), type), wire::DecodeStatus::kOk);
  EXPECT_EQ(type, wire::MessageType::kAdvertise);

  EXPECT_EQ(receiver->handle_frame(3, frame.bytes()), Event::kProceeding);
  std::vector<Event> sender_events;
  shuttle(*receiver, 7, sender, &sender_events);
  ASSERT_EQ(sender_events, std::vector<Event>{Event::kProceedReceived});

  std::vector<Event> receiver_events;
  shuttle(sender, 3, *receiver, &receiver_events);
  ASSERT_EQ(receiver_events, std::vector<Event>{Event::kDelivered});
  EXPECT_EQ(receiver->stats().data_delivered, 1u);
  EXPECT_EQ(receiver->protocol()->useful_packets(), 1u);
  EXPECT_FALSE(sender.has_pending_transmit());
  EXPECT_FALSE(receiver->has_pending_transmit());
}

TEST(SessionEndpoint, AdvertiseIsByteIdenticalToDataFrameMinusPayload) {
  // The identity the simulator's header accounting stands on.
  lt::LtEncoder source(lt::make_native_payloads(kK, kM, kContentSeed));
  Rng rng(2);
  wire::Frame advertise;
  wire::Frame data;
  for (int i = 0; i < 50; ++i) {
    const CodedPacket packet = source.encode(rng);
    const wire::AdvertiseInfo info{.payload_bytes =
                                       packet.payload.size_bytes()};
    wire::serialize_advertise(info, packet.coeffs, advertise);
    wire::serialize(ContentId{0}, packet, data);
    EXPECT_EQ(advertise.size(), data.size() - packet.payload.size_bytes());
    EXPECT_EQ(advertise.size(),
              wire::serialized_size_advertise(info, packet.coeffs));
  }
}

TEST(SessionEndpoint, RedundantAdvertiseIsVetoed) {
  // Complete the receiver, then advertise something it cannot use.
  lt::LtEncoder source(lt::make_native_payloads(kK, kM, kContentSeed));
  auto receiver = make_ltnc_endpoint();
  Rng rng(3);
  CodedPacket last;
  wire::Frame frame;
  for (int i = 0; i < 10000 && !receiver->complete(); ++i) {
    last = source.encode(rng);
    wire::serialize(ContentId{0}, last, frame);
    receiver->handle_frame(0, frame.bytes());
  }
  ASSERT_TRUE(receiver->complete());

  Endpoint sender(config(), nullptr);
  sender.offer_packet(0, last);
  std::vector<Event> receiver_events;
  shuttle(sender, 1, *receiver, &receiver_events);
  ASSERT_EQ(receiver_events, std::vector<Event>{Event::kAborted});
  EXPECT_EQ(receiver->stats().aborts_sent, 1u);

  std::vector<Event> sender_events;
  shuttle(*receiver, 0, sender, &sender_events);
  ASSERT_EQ(sender_events, std::vector<Event>{Event::kAbortReceived});
  EXPECT_EQ(sender.stats().aborts_received, 1u);
  EXPECT_EQ(sender.stats().data_sent, 0u);  // the payload never moved
}

TEST(SessionEndpoint, FeedbackNoneSkipsHandshake) {
  lt::LtEncoder source(lt::make_native_payloads(kK, kM, kContentSeed));
  Endpoint sender(config(FeedbackMode::kNone), nullptr);
  auto receiver = make_ltnc_endpoint(FeedbackMode::kNone);
  Rng rng(4);
  sender.offer_packet(0, source.encode(rng));
  std::vector<Event> events;
  shuttle(sender, 0, *receiver, &events);
  ASSERT_EQ(events, std::vector<Event>{Event::kDelivered});
  EXPECT_EQ(sender.stats().advertises_sent, 0u);
}

TEST(SessionEndpoint, SmartFeedbackShipsAndConsumesCcArray) {
  lt::LtEncoder source(lt::make_native_payloads(kK, kM, kContentSeed));
  auto alice = make_ltnc_endpoint(FeedbackMode::kSmart);
  auto bob = make_ltnc_endpoint(FeedbackMode::kSmart);
  Rng rng(5);
  wire::Frame frame;
  // Seed alice until she can recode.
  for (int i = 0; i < 10000 && !alice->can_push(); ++i) {
    wire::serialize(ContentId{0}, source.encode(rng), frame);
    alice->handle_frame(2, frame.bytes());
  }
  ASSERT_TRUE(alice->can_push());

  // Bob ships his cc array; alice caches it and constructs for him.
  ASSERT_TRUE(bob->announce_cc(0));
  std::vector<Event> alice_events;
  shuttle(*bob, 1, *alice, &alice_events);
  ASSERT_EQ(alice_events, std::vector<Event>{Event::kCcReceived});

  ASSERT_TRUE(alice->start_transfer(1, rng));
  EXPECT_EQ(alice->stats().cc_received, 1u);
  EXPECT_EQ(bob->stats().cc_sent, 1u);
}

// --- duplicate suppression -------------------------------------------------

TEST(SessionEndpoint, ReplayedAdvertiseIsReansweredNotReopened) {
  lt::LtEncoder source(lt::make_native_payloads(kK, kM, kContentSeed));
  Endpoint sender(config(), nullptr);
  auto receiver = make_ltnc_endpoint();
  Rng rng(6);
  sender.offer_packet(0, source.encode(rng));
  PeerId dst = 0;
  wire::Frame advertise;
  ASSERT_TRUE(sender.poll_transmit(dst, advertise));

  EXPECT_EQ(receiver->handle_frame(0, advertise.bytes()), Event::kProceeding);
  // The proceed is lost; the sender's timer replays the advertise. The
  // receiver notes the replay, re-evaluates the veto against its current
  // state and re-arms the same conversation instead of opening a second.
  EXPECT_EQ(receiver->handle_frame(0, advertise.bytes()), Event::kProceeding);
  EXPECT_EQ(receiver->stats().advertises_received, 2u);
  EXPECT_EQ(receiver->stats().proceeds_sent, 2u);
  EXPECT_EQ(receiver->stats().duplicates_suppressed, 1u);
  EXPECT_EQ(receiver->pending_transmit(), 2u);

  // The duplicated go-ahead releases the data exactly once (suppression
  // lives on the sender side of the conversation).
  std::vector<Event> sender_events;
  shuttle(*receiver, 0, sender, &sender_events);
  EXPECT_EQ(sender_events,
            (std::vector<Event>{Event::kProceedReceived, Event::kNone}));
  EXPECT_EQ(sender.stats().data_sent, 1u);
  EXPECT_EQ(sender.stats().duplicates_suppressed, 1u);
}

TEST(SessionEndpoint, DuplicateProceedSendsDataExactlyOnce) {
  lt::LtEncoder source(lt::make_native_payloads(kK, kM, kContentSeed));
  Endpoint sender(config(), nullptr);
  Rng rng(7);
  sender.offer_packet(0, source.encode(rng));
  PeerId dst = 0;
  wire::Frame frame;
  ASSERT_TRUE(sender.poll_transmit(dst, frame));  // drop the advertise

  wire::Frame proceed;
  wire::serialize_feedback(ContentId{0}, wire::MessageType::kProceed, 0,
                           proceed);
  EXPECT_EQ(sender.handle_frame(0, proceed.bytes()), Event::kProceedReceived);
  EXPECT_EQ(sender.handle_frame(0, proceed.bytes()), Event::kNone);
  EXPECT_EQ(sender.stats().data_sent, 1u);
  EXPECT_EQ(sender.stats().duplicates_suppressed, 1u);
}

TEST(SessionEndpoint, StaleAbortIsIgnored) {
  Endpoint sender(config(), nullptr);
  wire::Frame abort_frame;
  wire::serialize_feedback(ContentId{0}, wire::MessageType::kAbort, 9,
                           abort_frame);
  EXPECT_EQ(sender.handle_frame(0, abort_frame.bytes()), Event::kNone);
  EXPECT_EQ(sender.stats().duplicates_suppressed, 1u);
  EXPECT_EQ(sender.stats().aborts_received, 0u);
}

// --- timers ----------------------------------------------------------------

TEST(SessionEndpoint, AdvertiseRetransmitsOnTimeoutThenGivesUp) {
  lt::LtEncoder source(lt::make_native_payloads(kK, kM, kContentSeed));
  Endpoint sender(config(), nullptr);
  Rng rng(8);
  sender.offer_packet(0, source.encode(rng));
  PeerId dst = 0;
  wire::Frame frame;
  ASSERT_TRUE(sender.poll_transmit(dst, frame));  // lost in flight

  const EndpointConfig& cfg = sender.config();
  Instant now = 0;
  for (std::uint32_t retry = 1; retry <= cfg.max_retries; ++retry) {
    now += cfg.response_timeout;
    sender.tick(now);
    ASSERT_TRUE(sender.poll_transmit(dst, frame)) << "retry " << retry;
    wire::MessageType type{};
    ASSERT_EQ(wire::peek_type(frame.bytes(), type), wire::DecodeStatus::kOk);
    EXPECT_EQ(type, wire::MessageType::kAdvertise);
  }
  EXPECT_EQ(sender.stats().advertise_retransmits, cfg.max_retries);

  // Retries exhausted: the transfer is abandoned, the queue stays quiet.
  now += cfg.response_timeout;
  sender.tick(now);
  EXPECT_FALSE(sender.has_pending_transmit());
  EXPECT_EQ(sender.stats().transfers_abandoned, 1u);
}

TEST(SessionEndpoint, InboundConversationTimesOutWhenDataNeverArrives) {
  lt::LtEncoder source(lt::make_native_payloads(kK, kM, kContentSeed));
  Endpoint sender(config(), nullptr);
  auto receiver = make_ltnc_endpoint();
  Rng rng(9);
  sender.offer_packet(0, source.encode(rng));
  PeerId dst = 0;
  wire::Frame frame;
  ASSERT_TRUE(sender.poll_transmit(dst, frame));
  EXPECT_EQ(receiver->handle_frame(0, frame.bytes()), Event::kProceeding);

  receiver->tick(receiver->config().response_timeout);
  EXPECT_EQ(receiver->stats().timeouts, 1u);
}

TEST(SessionEndpoint, TickServesAPeerArmedAfterAnEarlierTickSkippedIt) {
  lt::LtEncoder source(lt::make_native_payloads(kK, kM, kContentSeed));
  Endpoint sender(config(), nullptr);
  auto receiver = make_ltnc_endpoint();
  Rng rng(10);
  const Instant timeout = sender.config().response_timeout;
  PeerId dst = 0;
  wire::Frame frame;

  // Peer 3 completes a handshake, so it holds a conversation with
  // nothing armed; the next ticks walk it once, then skip it.
  sender.offer_packet(3, source.encode(rng));
  shuttle(sender, 0, *receiver);
  shuttle(*receiver, 3, sender);
  shuttle(sender, 0, *receiver);
  EXPECT_EQ(receiver->stats().data_delivered, 1u);
  for (Instant t = 1; t <= 3 * timeout; ++t) {
    sender.tick(t);
    receiver->tick(t);
  }
  EXPECT_FALSE(sender.has_pending_transmit());
  EXPECT_EQ(sender.stats().advertise_retransmits, 0u);

  // Re-arm both sides of the skipped conversation and lose the proceed:
  // the sender must retransmit and the receiver must time out, exactly
  // one deadline later.
  const Instant armed_at = 3 * timeout;
  sender.offer_packet(3, source.encode(rng));
  ASSERT_TRUE(sender.poll_transmit(dst, frame));
  EXPECT_EQ(receiver->handle_frame(0, frame.bytes()), Event::kProceeding);
  PeerId answer_dst = 0;
  ASSERT_TRUE(receiver->poll_transmit(answer_dst, frame));  // lost proceed

  sender.tick(armed_at + timeout - 1);
  receiver->tick(armed_at + timeout - 1);
  EXPECT_FALSE(sender.has_pending_transmit());
  EXPECT_EQ(receiver->stats().timeouts, 0u);

  sender.tick(armed_at + timeout);
  receiver->tick(armed_at + timeout);
  ASSERT_TRUE(sender.poll_transmit(dst, frame));
  EXPECT_EQ(dst, 3u);
  EXPECT_EQ(sender.stats().advertise_retransmits, 1u);
  EXPECT_EQ(receiver->stats().timeouts, 1u);
}

TEST(SessionEndpoint, StaggeredRetransmitsFireInFirstContactOrder) {
  lt::LtEncoder source(lt::make_native_payloads(kK, kM, kContentSeed));
  Endpoint sender(config(), nullptr);
  Rng rng(11);
  const EndpointConfig& cfg = sender.config();
  ASSERT_EQ(cfg.response_timeout, 4u);
  ASSERT_EQ(cfg.max_retries, 3u);

  // First contact 12, 10, 11 (not id order), one tick apart: deadlines
  // 4, 5 and 6. Every advertise is lost.
  const PeerId order[] = {12, 10, 11};
  for (Instant t = 0; t < 3; ++t) {
    sender.tick(t);
    sender.offer_packet(order[t], source.encode(rng));
  }
  PeerId dst = 0;
  wire::Frame frame;
  while (sender.poll_transmit(dst, frame)) {
  }

  // Ticks every response_timeout: 12 fires alone first, then the others
  // catch up and all three share deadlines, always in first-contact order,
  // until each has spent max_retries and is abandoned.
  const std::vector<std::vector<PeerId>> expected = {
      {12}, {12, 10, 11}, {12, 10, 11}, {10, 11}, {}};
  for (std::size_t i = 0; i < expected.size(); ++i) {
    sender.tick((i + 1) * cfg.response_timeout);
    std::vector<PeerId> fired;
    while (sender.poll_transmit(dst, frame)) {
      wire::MessageType type{};
      ASSERT_EQ(wire::peek_type(frame.bytes(), type), wire::DecodeStatus::kOk);
      EXPECT_EQ(type, wire::MessageType::kAdvertise);
      fired.push_back(dst);
    }
    EXPECT_EQ(fired, expected[i]) << "tick " << (i + 1) * cfg.response_timeout;
  }
  EXPECT_EQ(sender.stats().advertise_retransmits, 3 * cfg.max_retries);
  EXPECT_EQ(sender.stats().transfers_abandoned, 3u);
}

// --- hardening -------------------------------------------------------------

TEST(SessionEndpoint, MalformedAndForeignFramesAreAbsorbed) {
  auto receiver = make_ltnc_endpoint();
  const std::uint8_t garbage[] = {0xFF, 0x00, 0x13, 0x37};
  EXPECT_EQ(receiver->handle_frame(0, {garbage, sizeof(garbage)}),
            Event::kMalformed);

  // A structurally valid frame with foreign dimensions is dropped, not
  // delivered.
  lt::LtEncoder other(lt::make_native_payloads(2 * kK, kM, kContentSeed));
  Rng rng(10);
  wire::Frame frame;
  wire::serialize(ContentId{0}, other.encode(rng), frame);
  EXPECT_EQ(receiver->handle_frame(0, frame.bytes()), Event::kNone);
  EXPECT_EQ(receiver->stats().malformed_frames, 1u);
  EXPECT_EQ(receiver->stats().foreign_frames, 1u);
  EXPECT_EQ(receiver->stats().data_delivered, 0u);
}

TEST(SessionEndpoint, CompletionAnnounceReachesTheSender) {
  lt::LtEncoder source(lt::make_native_payloads(kK, kM, kContentSeed));
  EndpointConfig rx_cfg = config(FeedbackMode::kNone);
  rx_cfg.announce_completion = true;
  Endpoint receiver(rx_cfg,
                    std::make_unique<LtSinkProtocol>(kK, kM));
  Endpoint sender(config(FeedbackMode::kNone), nullptr);
  Rng rng(11);
  while (!receiver.complete()) {
    sender.offer_packet(0, source.encode(rng));
    shuttle(sender, 0, receiver);
  }
  ASSERT_TRUE(receiver.protocol()->finish_and_verify(kContentSeed));
  shuttle(receiver, 0, sender);
  EXPECT_TRUE(sender.peer_completed());
  EXPECT_EQ(sender.peer_completion_token(),
            receiver.stats().data_delivered);
}

// --- fault injection over SimChannel ---------------------------------------

struct FaultCase {
  const char* name;
  double loss, dup, reorder;
};

class EndpointFaultInjection : public ::testing::TestWithParam<FaultCase> {};

TEST_P(EndpointFaultInjection, TwoEndpointsAlwaysConvergeAndNeverLeak) {
  const FaultCase fault = GetParam();
  lt::LtEncoder source(lt::make_native_payloads(kK, kM, kContentSeed));
  Endpoint seeder(config(), nullptr);
  auto alice = make_ltnc_endpoint();
  auto bob = make_ltnc_endpoint();
  Endpoint* endpoints[] = {alice.get(), bob.get(), &seeder};

  net::SimChannelConfig ch;
  ch.loss_rate = fault.loss;
  ch.duplicate_rate = fault.dup;
  ch.reorder_rate = fault.reorder;
  std::vector<std::unique_ptr<net::SimChannel>> links;  // [from*3 + to]
  for (std::size_t i = 0; i < 9; ++i) {
    ch.seed = 500 + i;
    links.push_back(std::make_unique<net::SimChannel>(ch));
  }

  Rng rng(12);
  wire::Frame frame;
  const auto pump = [&] {
    for (std::size_t from = 0; from < 3; ++from) {
      PeerId to = 0;
      while (endpoints[from]->poll_transmit(to, frame)) {
        links[from * 3 + to]->send(frame.bytes());
      }
    }
    for (std::size_t from = 0; from < 3; ++from) {
      for (std::size_t to = 0; to < 3; ++to) {
        while (links[from * 3 + to]->recv(frame)) {
          endpoints[to]->handle_frame(static_cast<PeerId>(from),
                                      frame.bytes());
        }
      }
    }
  };

  Instant now = 0;
  const Instant deadline = 200000;
  while ((!alice->complete() || !bob->complete()) && now < deadline) {
    ++now;
    if (now % 6 == 1) {  // slower than the retransmit timer
      seeder.offer_packet(0, source.encode(rng));
      if (alice->can_push()) alice->start_transfer(1, rng);
      if (bob->can_push()) bob->start_transfer(0, rng);
    }
    pump();
    for (Endpoint* ep : endpoints) ep->tick(now);
    pump();
  }

  ASSERT_TRUE(alice->complete() && bob->complete())
      << fault.name << ": not complete after " << now << " ticks";
  EXPECT_TRUE(alice->protocol()->finish_and_verify(kContentSeed));
  EXPECT_TRUE(bob->protocol()->finish_and_verify(kContentSeed));

  // No frame lease leaks: every queue drained, nothing parked in flight.
  for (Endpoint* ep : endpoints) {
    EXPECT_EQ(ep->pending_transmit(), 0u) << fault.name;
  }
  for (const auto& link : links) EXPECT_EQ(link->pending(), 0u);

  if (fault.dup > 0.0) {
    EXPECT_GT(alice->stats().duplicates_suppressed +
                  bob->stats().duplicates_suppressed +
                  seeder.stats().duplicates_suppressed,
              0u)
        << fault.name;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Faults, EndpointFaultInjection,
    ::testing::Values(FaultCase{"clean", 0.0, 0.0, 0.0},
                      FaultCase{"lossy", 0.3, 0.0, 0.0},
                      FaultCase{"duplicating", 0.0, 0.3, 0.0},
                      FaultCase{"reordering", 0.0, 0.0, 0.4},
                      FaultCase{"hostile", 0.25, 0.15, 0.25}),
    [](const auto& info) { return info.param.name; });

TEST(SessionEndpoint, MtuOverflowNeverWedgesTheEndpoint) {
  // A channel whose MTU fits the advertise but never the data frame: the
  // handshake flows, every payload dies. The endpoint must stay bounded
  // (abandon, not accumulate) and the application loop must terminate.
  lt::LtEncoder source(lt::make_native_payloads(kK, 1024, kContentSeed));
  EndpointConfig cfg = config();
  cfg.payload_bytes = 1024;
  Endpoint sender(cfg, nullptr);
  Endpoint receiver(cfg, make_node(Scheme::kLtnc, [] {
                      ProtocolParams p;
                      p.k = kK;
                      p.payload_bytes = 1024;
                      return p;
                    }()));

  net::SimChannelConfig ch;
  ch.mtu = 64;  // advertise ≈ 10 bytes, data ≈ 1 KB
  net::SimChannel forward(ch);
  net::SimChannel backward(ch);

  Rng rng(13);
  wire::Frame frame;
  PeerId dst = 0;
  std::uint64_t mtu_drops = 0;
  for (Instant now = 1; now <= 600; ++now) {
    if (now % 6 == 1) sender.offer_packet(0, source.encode(rng));
    while (sender.poll_transmit(dst, frame)) {
      if (!forward.send(frame.bytes())) ++mtu_drops;
    }
    while (forward.recv(frame)) receiver.handle_frame(0, frame.bytes());
    while (receiver.poll_transmit(dst, frame)) backward.send(frame.bytes());
    while (backward.recv(frame)) sender.handle_frame(0, frame.bytes());
    sender.tick(now);
    receiver.tick(now);
  }

  EXPECT_GT(mtu_drops, 0u);                        // data frames refused
  EXPECT_GT(receiver.stats().timeouts, 0u);        // conversations reset
  EXPECT_EQ(receiver.stats().data_delivered, 0u);  // nothing ever fit
  EXPECT_FALSE(receiver.complete());
  EXPECT_LE(sender.pending_transmit(), 1u);  // bounded, not accumulating
}

// --- sparse peer table ------------------------------------------------------

TEST(SessionEndpoint, PeerTableIsSparseInThePeerIdSpace) {
  // A single conversation with a stratospheric PeerId must cost one slot,
  // not a dense table sized to the id — the event simulator addresses
  // the source as peer id = num_nodes, so a dense table would be O(n)
  // per node and O(n²) fleet-wide.
  lt::LtEncoder source(lt::make_native_payloads(kK, kM, kContentSeed));
  Endpoint sender(config(), nullptr);
  Rng rng(5);
  EXPECT_EQ(sender.contacted_peers(), 0u);
  sender.offer_packet(1'000'000'000u, source.encode(rng));
  sender.offer_packet(3u, source.encode(rng));
  sender.offer_packet(1'000'000'000u, source.encode(rng));
  EXPECT_EQ(sender.contacted_peers(), 2u);
}

TEST(SessionEndpoint, PeerTableSurvivesGrowthAcrossManyPeers) {
  // Push past several rehash boundaries and verify every conversation is
  // still found (a feedback token binds only via find_convo).
  lt::LtEncoder source(lt::make_native_payloads(kK, kM, kContentSeed));
  EndpointConfig cfg = config(FeedbackMode::kNone);
  Endpoint sender(cfg, nullptr);
  Rng rng(6);
  constexpr std::uint32_t kFleet = 300;
  for (std::uint32_t i = 0; i < kFleet; ++i) {
    sender.offer_packet(i * 7919u, source.encode(rng));  // scattered ids
  }
  EXPECT_EQ(sender.contacted_peers(), static_cast<std::size_t>(kFleet));
  // Re-offering to every peer reuses the existing slots.
  for (std::uint32_t i = 0; i < kFleet; ++i) {
    sender.offer_packet(i * 7919u, source.encode(rng));
  }
  EXPECT_EQ(sender.contacted_peers(), static_cast<std::size_t>(kFleet));
}

TEST(SessionEndpoint, ReclaimDropsIdleConversationsOnly) {
  lt::LtEncoder source(lt::make_native_payloads(kK, kM, kContentSeed));
  Endpoint sender(config(), nullptr);
  Rng rng(7);

  // An offer awaiting feedback is live state — reclaim must refuse.
  sender.offer_packet(9, source.encode(rng));
  EXPECT_FALSE(sender.reclaim_idle_convo(9, 0));
  EXPECT_EQ(sender.contacted_peers(), 1u);

  // Abort the transfer: the conversation goes idle and reclaim takes the
  // slot (and with it the peer's whole table entry).
  PeerId dst = 0;
  wire::Frame frame;
  ASSERT_TRUE(sender.poll_transmit(dst, frame));
  wire::Frame abort_frame;
  wire::serialize_feedback(0, wire::MessageType::kAbort, 0, abort_frame);
  EXPECT_EQ(sender.handle_frame(9, abort_frame.bytes()),
            Event::kAbortReceived);
  EXPECT_TRUE(sender.reclaim_idle_convo(9, 0));
  EXPECT_EQ(sender.contacted_peers(), 0u);
  EXPECT_FALSE(sender.reclaim_idle_convo(9, 0));  // nothing left

  // The peer can come back after a reclaim — a fresh slot is minted.
  sender.offer_packet(9, source.encode(rng));
  EXPECT_EQ(sender.contacted_peers(), 1u);
}

TEST(SessionEndpoint, ReclaimKeepsCompletionKnowledge) {
  // peer_done is durable protocol knowledge (the multi-file sender's stop
  // signal); a reclaim sweep must never forget it.
  lt::LtEncoder source(lt::make_native_payloads(kK, kM, kContentSeed));
  EndpointConfig cfg = config(FeedbackMode::kNone);
  Endpoint sender(cfg, nullptr);
  Rng rng(8);
  sender.offer_packet(4, source.encode(rng));
  wire::Frame ack;
  wire::serialize_feedback(0, wire::MessageType::kAck, 31, ack);
  EXPECT_EQ(sender.handle_frame(4, ack.bytes()), Event::kAckReceived);
  EXPECT_TRUE(sender.peer_completed(4, 0));
  EXPECT_FALSE(sender.reclaim_idle_convo(4, 0));
  EXPECT_TRUE(sender.peer_completed(4, 0));
}

TEST(SessionEndpoint, ReclaimChurnKeepsTableConsistent) {
  // Interleaved contact/reclaim over scattered ids stresses swap-remove
  // and backward-shift deletion: every surviving peer must stay findable,
  // every reclaimed one gone.
  lt::LtEncoder source(lt::make_native_payloads(kK, kM, kContentSeed));
  EndpointConfig cfg = config(FeedbackMode::kNone);
  Endpoint sender(cfg, nullptr);
  Rng rng(9);
  std::vector<PeerId> live;
  Rng chaos(0xabcdULL);
  for (int op = 0; op < 2000; ++op) {
    if (chaos.uniform(2) == 0 || live.empty()) {
      const PeerId peer = chaos.uniform(1u << 30);
      sender.offer_packet(peer, source.encode(rng));
      if (std::find(live.begin(), live.end(), peer) == live.end()) {
        live.push_back(peer);
      }
    } else {
      const std::size_t pick =
          chaos.uniform(static_cast<std::uint32_t>(live.size()));
      EXPECT_TRUE(sender.reclaim_idle_convo(live[pick], 0));
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(pick));
    }
    ASSERT_EQ(sender.contacted_peers(), live.size());
  }
  // Everyone left is still reachable.
  for (const PeerId peer : live) {
    EXPECT_TRUE(sender.reclaim_idle_convo(peer, 0));
  }
  EXPECT_EQ(sender.contacted_peers(), 0u);
}

}  // namespace
}  // namespace ltnc::session
