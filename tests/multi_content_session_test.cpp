// Multi-content session layer: one Endpoint pair serving many contents
// and generations over the same link.
//
// The acceptance criterion of the store subsystem lives here: ≥8 contents
// — mixed plain (LTNC / RLNC / WC) and generationed, mixed dimensions —
// transfer concurrently over a lossy/duplicating/reordering SimChannel to
// full decode with byte-exact payloads, generation completion growing
// monotonically, and zero foreign-frame drops between well-configured
// endpoints. Satellites: kGenerationPacket routing (+ the foreign_frames
// counter for genuinely unknown content ids), per-content completion
// acks, the token-bucket pacer, and the simulator's multi-content mode.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <vector>

#include "common/coded_packet.hpp"
#include "common/payload.hpp"
#include "common/rng.hpp"
#include "dissemination/simulation.hpp"
#include "net/sim_channel.hpp"
#include "session/endpoint.hpp"
#include "store/content_store.hpp"
#include "wire/codec.hpp"

namespace ltnc::session {
namespace {

std::uint64_t content_seed(ContentId id) { return 1000 + id; }

/// Seeds a content to completion with its canonical natives.
void seed_full(store::Content& content) {
  const std::uint64_t seed = content_seed(content.id());
  const std::size_t k = content.k();
  const std::size_t m = content.payload_bytes();
  for (std::uint32_t g = 0; g < content.generations(); ++g) {
    for (std::size_t j = 0; j < k; ++j) {
      content.deliver(
          g, CodedPacket::native(
                 k, j, Payload::deterministic(m, seed, g * k + j)));
    }
  }
  ASSERT_TRUE(content.complete());
}

/// The mixed 8-content catalogue of the acceptance run: plain contents of
/// three schemes and two dimension shapes, plus three generationed
/// contents of differing generation counts.
std::unique_ptr<store::ContentStore> make_mixed_store() {
  auto contents = std::make_unique<store::ContentStore>();
  const auto plain = [&](ContentId id, Scheme scheme, std::size_t k,
                         std::size_t m) {
    store::ContentConfig cfg;
    cfg.id = id;
    cfg.k = k;
    cfg.payload_bytes = m;
    cfg.scheme = scheme;
    contents->register_content(cfg);
  };
  const auto generationed = [&](ContentId id, std::size_t gens,
                                std::size_t k, std::size_t m) {
    store::ContentConfig cfg;
    cfg.id = id;
    cfg.k = k;
    cfg.payload_bytes = m;
    cfg.generations = gens;
    contents->register_content(cfg);
  };
  plain(1, Scheme::kLtnc, 16, 32);
  plain(2, Scheme::kLtnc, 16, 32);
  plain(3, Scheme::kRlnc, 16, 32);
  plain(4, Scheme::kWc, 16, 32);
  plain(7, Scheme::kLtnc, 8, 16);  // different dims on the same link
  generationed(5, 2, 8, 32);
  generationed(6, 2, 8, 32);
  generationed(8, 3, 4, 16);
  return contents;
}

TEST(MultiContentSession, EightMixedContentsDecodeOverHostileChannel) {
  EndpointConfig cfg;
  cfg.feedback = FeedbackMode::kBinary;
  cfg.response_timeout = 3;
  cfg.max_retries = 4;

  Endpoint seeder(cfg, make_mixed_store());
  Endpoint leecher(cfg, make_mixed_store());
  ASSERT_EQ(seeder.contents().size(), 8u);
  for (std::size_t i = 0; i < seeder.contents().size(); ++i) {
    seed_full(seeder.contents().at(i));
  }
  ASSERT_TRUE(seeder.complete());
  ASSERT_FALSE(leecher.complete());

  net::SimChannelConfig ch;
  ch.loss_rate = 0.15;
  ch.duplicate_rate = 0.05;
  ch.reorder_rate = 0.2;
  ch.seed = 5;
  net::SimChannel to_leecher(ch);
  ch.seed = 6;
  net::SimChannel to_seeder(ch);

  Rng rng(17);
  wire::Frame frame;
  PeerId dst = 0;
  const auto pump = [&] {
    while (seeder.poll_transmit(dst, frame)) to_leecher.send(frame.bytes());
    while (to_leecher.recv(frame)) leecher.handle_frame(0, frame.bytes());
    while (leecher.poll_transmit(dst, frame)) to_seeder.send(frame.bytes());
    while (to_seeder.recv(frame)) seeder.handle_frame(0, frame.bytes());
  };

  // Track per-generation completion monotonicity on the receiving side.
  std::vector<std::size_t> gen_complete(leecher.contents().size(), 0);

  Instant now = 0;
  const Instant deadline = 60000;
  while (!leecher.complete() && now < deadline) {
    ++now;
    // Both sides push: the seeder spreads, the leecher gossips back what
    // it has (exercising cross-direction multiplexing on the same link).
    for (Endpoint* ep : {&seeder, &leecher}) {
      const PeerId peer = 0;
      while (const store::Content* content = ep->next_push(peer)) {
        if (!ep->start_transfer(peer, content->id(), rng)) break;
      }
    }
    pump();
    seeder.tick(now);
    leecher.tick(now);
    pump();
    for (std::size_t i = 0; i < leecher.contents().size(); ++i) {
      const std::size_t done =
          leecher.contents().at(i).completed_generation_count();
      EXPECT_GE(done, gen_complete[i]) << "generation completion regressed";
      gen_complete[i] = done;
    }
  }

  ASSERT_TRUE(leecher.complete())
      << "leecher incomplete after " << now << " ticks";
  for (std::size_t i = 0; i < leecher.contents().size(); ++i) {
    store::Content& content = leecher.contents().at(i);
    EXPECT_TRUE(content.finish_and_verify(content_seed(content.id())))
        << "content " << content.id() << " failed byte verification";
    EXPECT_EQ(content.completed_generation_count(), content.generations());
  }
  // Well-configured endpoints never see each other's traffic as foreign.
  EXPECT_EQ(seeder.stats().foreign_frames, 0u);
  EXPECT_EQ(leecher.stats().foreign_frames, 0u);
  // The scheduler genuinely interleaved: every content moved data.
  EXPECT_GT(leecher.stats().data_delivered, 0u);
}

TEST(MultiContentSession, GenerationedContentDecodesEndToEnd) {
  // Satellite: GenerationedLtnc over the session layer — two endpoints,
  // one generationed content, a lossy channel, decode to completion with
  // monotone per-generation progress and byte-exact payloads.
  constexpr ContentId kId = 9;
  const auto make = [] {
    auto contents = std::make_unique<store::ContentStore>();
    store::ContentConfig cfg;
    cfg.id = kId;
    cfg.k = 8;
    cfg.payload_bytes = 64;
    cfg.generations = 4;
    contents->register_content(cfg);
    return contents;
  };
  EndpointConfig cfg;
  cfg.feedback = FeedbackMode::kBinary;
  cfg.response_timeout = 2;
  Endpoint a(cfg, make());
  Endpoint b(cfg, make());
  seed_full(a.contents().at(0));

  net::SimChannelConfig ch;
  ch.loss_rate = 0.2;
  ch.seed = 11;
  net::SimChannel ab(ch);
  ch.seed = 12;
  net::SimChannel ba(ch);

  Rng rng(23);
  wire::Frame frame;
  PeerId dst = 0;
  std::size_t last_done = 0;
  Instant now = 0;
  while (!b.complete() && now < 20000) {
    ++now;
    while (const store::Content* c = a.next_push(0)) {
      if (!a.start_transfer(0, c->id(), rng)) break;
    }
    while (a.poll_transmit(dst, frame)) ab.send(frame.bytes());
    while (ab.recv(frame)) b.handle_frame(0, frame.bytes());
    while (b.poll_transmit(dst, frame)) ba.send(frame.bytes());
    while (ba.recv(frame)) a.handle_frame(0, frame.bytes());
    a.tick(now);
    b.tick(now);
    const std::size_t done = b.contents().at(0).completed_generation_count();
    ASSERT_GE(done, last_done);
    last_done = done;
  }
  ASSERT_TRUE(b.complete());
  EXPECT_EQ(last_done, 4u);
  EXPECT_TRUE(b.contents().at(0).finish_and_verify(content_seed(kId)));
  EXPECT_EQ(b.stats().foreign_frames, 0u);
}

TEST(MultiContentSession, GenerationPacketsRouteAndUnknownContentsCount) {
  // Satellite: handle_frame routes kGenerationPacket to the store instead
  // of dropping it, and foreign_frames counts genuinely unknown content
  // ids.
  auto contents = std::make_unique<store::ContentStore>();
  store::ContentConfig cfg;
  cfg.id = 4;
  cfg.k = 8;
  cfg.payload_bytes = 16;
  cfg.generations = 2;
  contents->register_content(cfg);
  EndpointConfig ec;
  ec.feedback = FeedbackMode::kNone;
  Endpoint endpoint(ec, std::move(contents));

  wire::Frame frame;
  const CodedPacket native =
      CodedPacket::native(8, 3, Payload::deterministic(16, 1, 3));

  // Known generationed content: delivered.
  wire::serialize_generation(ContentId{4}, 1, native, frame);
  EXPECT_EQ(endpoint.handle_frame(0, frame.bytes()),
            Endpoint::Event::kDelivered);
  EXPECT_EQ(endpoint.stats().data_delivered, 1u);
  EXPECT_EQ(endpoint.stats().foreign_frames, 0u);

  // Unknown content id: counted foreign, not silently dropped.
  wire::serialize_generation(ContentId{99}, 0, native, frame);
  EXPECT_EQ(endpoint.handle_frame(0, frame.bytes()), Endpoint::Event::kNone);
  EXPECT_EQ(endpoint.stats().foreign_frames, 1u);

  // Out-of-range generation on a known content: foreign too.
  wire::serialize_generation(ContentId{4}, 7, native, frame);
  EXPECT_EQ(endpoint.handle_frame(0, frame.bytes()), Endpoint::Event::kNone);
  EXPECT_EQ(endpoint.stats().foreign_frames, 2u);

  // A plain data frame addressing the generationed content: shape
  // mismatch, foreign.
  wire::serialize(ContentId{4}, native, frame);
  EXPECT_EQ(endpoint.handle_frame(0, frame.bytes()), Endpoint::Event::kNone);
  EXPECT_EQ(endpoint.stats().foreign_frames, 3u);
  EXPECT_EQ(endpoint.stats().data_delivered, 1u);
}

TEST(MultiContentSession, LegacyEndpointCountsGenerationTrafficAsForeign) {
  // A single-content (plain) endpoint keeps its pre-store behaviour:
  // generation packets address no registered generationed content, so
  // they are counted foreign — never delivered, never a crash.
  EndpointConfig cfg;
  cfg.k = 8;
  cfg.payload_bytes = 16;
  cfg.feedback = FeedbackMode::kNone;
  ProtocolParams params;
  params.k = 8;
  params.payload_bytes = 16;
  Endpoint endpoint(cfg, make_node(Scheme::kLtnc, params));
  wire::Frame frame;
  wire::serialize_generation(
      ContentId{0}, 0,
      CodedPacket::native(8, 0, Payload::deterministic(16, 1, 0)), frame);
  EXPECT_EQ(endpoint.handle_frame(0, frame.bytes()), Endpoint::Event::kNone);
  EXPECT_EQ(endpoint.stats().foreign_frames, 1u);
  EXPECT_EQ(endpoint.stats().data_delivered, 0u);
}

TEST(MultiContentSession, ForgedFeedbackNeverBindsOrCompletes) {
  // Open-port hardening: feedback frames sweeping the content-id space
  // must neither allocate per-(peer, content) state nor trip the
  // completion flag — they bind only to conversations this endpoint
  // opened itself.
  EndpointConfig cfg;
  cfg.k = 8;
  cfg.payload_bytes = 16;
  cfg.feedback = FeedbackMode::kNone;
  Endpoint endpoint(cfg, nullptr);  // pure seeder, no offers made yet
  wire::Frame frame;
  for (std::uint64_t i = 0; i < 64; ++i) {
    wire::serialize_feedback(ContentId{1000 + i}, wire::MessageType::kAck,
                             i, frame);
    EXPECT_EQ(endpoint.handle_frame(0, frame.bytes()),
              Endpoint::Event::kNone);
    wire::serialize_feedback(ContentId{2000 + i}, wire::MessageType::kProceed,
                             i, frame);
    EXPECT_EQ(endpoint.handle_frame(0, frame.bytes()),
              Endpoint::Event::kNone);
  }
  EXPECT_FALSE(endpoint.peer_completed());
  EXPECT_EQ(endpoint.stats().foreign_frames, 64u);  // the forged acks
  // A legitimate ack still lands once a conversation exists.
  endpoint.offer_packet(0, ContentId{5},
                        CodedPacket::native(8, 0,
                                            Payload::deterministic(16, 1,
                                                                   0)));
  wire::Frame dropped;
  PeerId dst = 0;
  while (endpoint.poll_transmit(dst, dropped)) {
  }
  wire::serialize_feedback(ContentId{5}, wire::MessageType::kAck, 7, frame);
  EXPECT_EQ(endpoint.handle_frame(0, frame.bytes()),
            Endpoint::Event::kAckReceived);
  EXPECT_TRUE(endpoint.peer_completed(0, 5));
}

TEST(MultiContentSession, PacerThrottlesSwarmPushes) {
  // Token bucket: burst picks drain it, tick() refills at the configured
  // rate, handshake traffic is never gated.
  auto contents = std::make_unique<store::ContentStore>();
  for (ContentId id = 1; id <= 2; ++id) {
    store::ContentConfig cfg;
    cfg.id = id;
    cfg.k = 4;
    cfg.payload_bytes = 16;
    contents->register_content(cfg);
  }
  EndpointConfig cfg;
  cfg.feedback = FeedbackMode::kNone;  // no conversation state: contents
                                       // stay eligible for every pick
  cfg.pace_tokens_per_tick = 1.0;
  cfg.pace_burst = 2.0;
  Endpoint endpoint(cfg, std::move(contents));
  for (std::size_t i = 0; i < 2; ++i) seed_full(endpoint.contents().at(i));

  // Full bucket: exactly two picks, then deferral.
  EXPECT_NE(endpoint.next_push(0), nullptr);
  EXPECT_NE(endpoint.next_push(0), nullptr);
  EXPECT_EQ(endpoint.next_push(0), nullptr);
  EXPECT_EQ(endpoint.stats().swarm_pushes, 2u);
  EXPECT_EQ(endpoint.stats().pacer_deferrals, 1u);

  // One tick at rate 1 → one token → one pick.
  endpoint.tick(1);
  EXPECT_NE(endpoint.next_push(0), nullptr);
  EXPECT_EQ(endpoint.next_push(0), nullptr);
  EXPECT_EQ(endpoint.stats().swarm_pushes, 3u);

  // A long idle refills at most to the burst cap.
  endpoint.tick(1000);
  EXPECT_NE(endpoint.next_push(0), nullptr);
  EXPECT_NE(endpoint.next_push(0), nullptr);
  EXPECT_EQ(endpoint.next_push(0), nullptr);
}

TEST(MultiContentSession, PerContentCompletionAcks) {
  // announce_completion acks each content as it finishes; the sender
  // tracks them per (peer, content) and peer_completed_all() closes the
  // session only when every registered content is acked.
  constexpr std::size_t kK = 4;
  constexpr std::size_t kM = 16;
  auto rx_contents = std::make_unique<store::ContentStore>();
  auto tx_contents = std::make_unique<store::ContentStore>();
  for (ContentId id = 1; id <= 2; ++id) {
    store::ContentConfig cfg;
    cfg.id = id;
    cfg.k = kK;
    cfg.payload_bytes = kM;
    rx_contents->register_content(
        cfg, std::make_unique<LtSinkProtocol>(kK, kM));
    tx_contents->register_content(cfg, nullptr);  // seeder-only
  }
  EndpointConfig cfg;
  cfg.feedback = FeedbackMode::kNone;
  cfg.announce_completion = true;
  Endpoint receiver(cfg, std::move(rx_contents));
  EndpointConfig tx_cfg;
  tx_cfg.feedback = FeedbackMode::kNone;
  Endpoint sender(tx_cfg, std::move(tx_contents));

  wire::Frame frame;
  PeerId dst = 0;
  const auto shuttle = [&](Endpoint& from, Endpoint& to) {
    while (from.poll_transmit(dst, frame)) to.handle_frame(0, frame.bytes());
  };
  const auto send_natives = [&](ContentId id) {
    for (std::size_t i = 0; i < kK; ++i) {
      sender.offer_packet(0, id,
                          CodedPacket::native(
                              kK, i,
                              Payload::deterministic(kM, content_seed(id),
                                                     i)));
    }
    shuttle(sender, receiver);
    shuttle(receiver, sender);  // any queued acks flow back
  };

  send_natives(1);
  EXPECT_TRUE(sender.peer_completed(0, 1));
  EXPECT_FALSE(sender.peer_completed(0, 2));
  EXPECT_FALSE(sender.peer_completed_all(0));
  EXPECT_TRUE(sender.peer_completed());  // legacy any-ack view

  send_natives(2);
  EXPECT_TRUE(sender.peer_completed(0, 2));
  EXPECT_TRUE(sender.peer_completed_all(0));
  EXPECT_EQ(receiver.stats().completions_sent, 2u);
}

TEST(MultiContentSession, SimulatorMultiContentModeConvergesAndBreaksDown) {
  // The epidemic harness in multi-content mode: M contents seeded at
  // disjoint source subsets, every node completing all of them, with the
  // per-content traffic breakdown summing to the aggregate ledger.
  dissem::SimConfig cfg;
  cfg.num_nodes = 12;
  cfg.k = 16;
  cfg.payload_bytes = 16;
  cfg.seed = 7;
  cfg.num_contents = 3;
  cfg.max_rounds = 60000;
  cfg.source_pushes_per_round = 2;
  const dissem::SimResult res = dissem::run_simulation(Scheme::kLtnc, cfg);
  EXPECT_TRUE(res.all_complete);
  EXPECT_TRUE(res.payloads_verified);
  ASSERT_EQ(res.per_content.size(), 3u);
  net::TrafficStats sum;
  for (const net::TrafficStats& t : res.per_content) {
    EXPECT_GT(t.attempts, 0u);
    EXPECT_GT(t.payload_transfers, 0u);
    sum += t;
  }
  EXPECT_EQ(sum.attempts, res.traffic.attempts);
  EXPECT_EQ(sum.aborted, res.traffic.aborted);
  EXPECT_EQ(sum.payload_transfers, res.traffic.payload_transfers);
  EXPECT_EQ(sum.header_bytes, res.traffic.header_bytes);
  EXPECT_EQ(sum.payload_bytes, res.traffic.payload_bytes);
  EXPECT_EQ(sum.feedback_bytes, res.traffic.feedback_bytes);
  EXPECT_EQ(sum.control_bytes, res.traffic.control_bytes);
  EXPECT_EQ(sum.wire_bytes_total(), res.traffic.wire_bytes_total());
}

}  // namespace
}  // namespace ltnc::session
