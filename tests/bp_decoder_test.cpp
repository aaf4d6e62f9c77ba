#include "lt/bp_decoder.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <vector>

#include "common/rng.hpp"
#include "lt/lt_encoder.hpp"

namespace ltnc::lt {
namespace {

CodedPacket combine(std::size_t k, std::size_t m,
                    const std::vector<std::size_t>& idx,
                    const std::vector<Payload>& natives) {
  CodedPacket pkt{BitVector::from_indices(k, idx), Payload(m)};
  for (std::size_t i : idx) pkt.payload.xor_with(natives[i]);
  return pkt;
}

TEST(BpDecoder, DecodesFromUnitPackets) {
  constexpr std::size_t k = 8;
  constexpr std::size_t m = 16;
  const auto natives = make_native_payloads(k, m, 1);
  BpDecoder dec(k, m);
  for (std::size_t i = 0; i < k; ++i) {
    EXPECT_EQ(dec.receive(CodedPacket::native(k, i, natives[i])),
              ReceiveResult::kDecodedNative);
  }
  EXPECT_TRUE(dec.complete());
  for (std::size_t i = 0; i < k; ++i) {
    EXPECT_EQ(dec.native_payload(static_cast<NativeIndex>(i)), natives[i]);
  }
}

TEST(BpDecoder, DuplicateNativeIsDetected) {
  constexpr std::size_t k = 4;
  const auto natives = make_native_payloads(k, 8, 2);
  BpDecoder dec(k, 8);
  dec.receive(CodedPacket::native(k, 0, natives[0]));
  EXPECT_EQ(dec.receive(CodedPacket::native(k, 0, natives[0])),
            ReceiveResult::kDuplicate);
  EXPECT_EQ(dec.decoded_count(), 1u);
}

TEST(BpDecoder, RippleCascades) {
  // x0 ⊕ x1 and x1 ⊕ x2 stored; decoding x0 must ripple to x1 then x2.
  constexpr std::size_t k = 4;
  constexpr std::size_t m = 8;
  const auto natives = make_native_payloads(k, m, 3);
  BpDecoder dec(k, m);
  EXPECT_EQ(dec.receive(combine(k, m, {0, 1}, natives)),
            ReceiveResult::kStored);
  EXPECT_EQ(dec.receive(combine(k, m, {1, 2}, natives)),
            ReceiveResult::kStored);
  EXPECT_EQ(dec.decoded_count(), 0u);
  EXPECT_EQ(dec.stored_count(), 2u);
  EXPECT_EQ(dec.receive(combine(k, m, {0}, natives)),
            ReceiveResult::kDecodedNative);
  EXPECT_EQ(dec.decoded_count(), 3u);
  EXPECT_EQ(dec.stored_count(), 0u);
  for (std::size_t i : {0u, 1u, 2u}) {
    EXPECT_EQ(dec.native_payload(i), natives[i]);
  }
}

TEST(BpDecoder, ArrivalReducedByDecodedNatives) {
  constexpr std::size_t k = 4;
  constexpr std::size_t m = 8;
  const auto natives = make_native_payloads(k, m, 4);
  BpDecoder dec(k, m);
  dec.receive(combine(k, m, {0}, natives));
  // x0 ⊕ x3 arrives: reduces to x3 and decodes immediately.
  EXPECT_EQ(dec.receive(combine(k, m, {0, 3}, natives)),
            ReceiveResult::kDecodedNative);
  EXPECT_TRUE(dec.is_decoded(3));
  EXPECT_EQ(dec.native_payload(3), natives[3]);
}

TEST(BpDecoder, DependentPacketAbsorbsToZero) {
  constexpr std::size_t k = 4;
  constexpr std::size_t m = 8;
  const auto natives = make_native_payloads(k, m, 5);
  BpDecoder dec(k, m);
  dec.receive(combine(k, m, {1, 2}, natives));
  dec.receive(combine(k, m, {1}, natives));  // decodes x1 then ripples x2
  EXPECT_EQ(dec.decoded_count(), 2u);
  // Now x1 ⊕ x2 again: reduces against both decoded natives to zero.
  EXPECT_EQ(dec.receive(combine(k, m, {1, 2}, natives)),
            ReceiveResult::kDuplicate);
}

TEST(BpDecoder, ResidualDegree) {
  constexpr std::size_t k = 8;
  constexpr std::size_t m = 8;
  const auto natives = make_native_payloads(k, m, 6);
  BpDecoder dec(k, m);
  dec.receive(combine(k, m, {0}, natives));
  dec.receive(combine(k, m, {1}, natives));
  const BitVector v = BitVector::from_indices(k, {0, 1, 5});
  EXPECT_EQ(dec.residual_degree(v), 1u);
  EXPECT_EQ(dec.residual_degree(BitVector::from_indices(k, {0, 1})), 0u);
}

// Observer that mirrors the packet store and verifies event consistency.
class MirrorObserver : public StoreObserver {
 public:
  bool should_drop(PacketId, const BitVector&, std::size_t) override {
    return false;
  }
  void on_stored(PacketId id, const BitVector& coeffs,
                 std::size_t degree) override {
    ASSERT_FALSE(live.contains(id));
    ASSERT_EQ(coeffs.popcount(), degree);
    live[id] = degree;
  }
  void on_degree_changed(PacketId id, const BitVector& coeffs,
                         std::size_t old_degree,
                         std::size_t new_degree) override {
    ASSERT_TRUE(live.contains(id));
    ASSERT_EQ(live[id], old_degree);
    ASSERT_EQ(new_degree + 1, old_degree);
    ASSERT_EQ(coeffs.popcount(), new_degree);
    live[id] = new_degree;
  }
  void on_removed(PacketId id, const BitVector&,
                  std::size_t degree) override {
    ASSERT_TRUE(live.contains(id));
    ASSERT_EQ(live[id], degree);
    live.erase(id);
  }
  void on_native_decoded(NativeIndex index) override {
    decoded.push_back(index);
  }

  std::map<PacketId, std::size_t> live;
  std::vector<NativeIndex> decoded;
};

TEST(BpDecoder, ObserverSeesConsistentEventStream) {
  constexpr std::size_t k = 64;
  constexpr std::size_t m = 8;
  const auto natives = make_native_payloads(k, m, 7);
  LtEncoder enc(make_native_payloads(k, m, 7));
  MirrorObserver obs;
  BpDecoder dec(k, m, &obs);
  Rng rng(8);
  while (!dec.complete()) {
    dec.receive(enc.encode(rng));
    ASSERT_EQ(obs.live.size(), dec.stored_count());
  }
  EXPECT_EQ(obs.decoded.size(), k);
  EXPECT_TRUE(obs.live.empty());  // everything consumed once complete
  for (std::size_t i = 0; i < k; ++i) {
    EXPECT_EQ(dec.native_payload(static_cast<NativeIndex>(i)), natives[i]);
  }
}

// Observer that vetoes every degree-2 packet at receive time.
class VetoDegree2 : public StoreObserver {
 public:
  bool should_drop(PacketId id, const BitVector&,
                   std::size_t degree) override {
    return id == kInvalidPacket && degree == 2;
  }
};

TEST(BpDecoder, ObserverVetoRejectsAtReceive) {
  constexpr std::size_t k = 8;
  constexpr std::size_t m = 8;
  const auto natives = make_native_payloads(k, m, 9);
  VetoDegree2 obs;
  BpDecoder dec(k, m, &obs);
  EXPECT_EQ(dec.receive(combine(k, m, {0, 1}, natives)),
            ReceiveResult::kRejectedRedundant);
  EXPECT_EQ(dec.stored_count(), 0u);
  EXPECT_EQ(dec.receive(combine(k, m, {0, 1, 2}, natives)),
            ReceiveResult::kStored);
}

// Observer that drops stored packets when their degree falls to 2.
class DropOnReduce2 : public StoreObserver {
 public:
  bool should_drop(PacketId id, const BitVector&,
                   std::size_t degree) override {
    return id != kInvalidPacket && degree == 2;
  }
};

TEST(BpDecoder, ObserverDropDuringDecode) {
  constexpr std::size_t k = 8;
  constexpr std::size_t m = 8;
  const auto natives = make_native_payloads(k, m, 10);
  DropOnReduce2 obs;
  BpDecoder dec(k, m, &obs);
  dec.receive(combine(k, m, {0, 1, 2}, natives));
  EXPECT_EQ(dec.stored_count(), 1u);
  dec.receive(combine(k, m, {0}, natives));  // reduces the triple to degree 2
  EXPECT_EQ(dec.stored_count(), 0u);         // dropped by the observer
  EXPECT_EQ(dec.decoded_count(), 1u);
}

TEST(BpDecoder, RemovePacketExternally) {
  constexpr std::size_t k = 8;
  constexpr std::size_t m = 8;
  const auto natives = make_native_payloads(k, m, 11);
  BpDecoder dec(k, m);
  dec.receive(combine(k, m, {0, 1, 2, 3}, natives));
  std::vector<PacketId> ids;
  dec.for_each_packet([&](PacketId id) { ids.push_back(id); });
  ASSERT_EQ(ids.size(), 1u);
  dec.remove_packet(ids[0]);
  EXPECT_EQ(dec.stored_count(), 0u);
  EXPECT_FALSE(dec.packet_alive(ids[0]));
}

TEST(BpDecoder, ForEachPacketContaining) {
  constexpr std::size_t k = 8;
  constexpr std::size_t m = 8;
  const auto natives = make_native_payloads(k, m, 12);
  BpDecoder dec(k, m);
  dec.receive(combine(k, m, {0, 1}, natives));
  dec.receive(combine(k, m, {1, 2, 3}, natives));
  int count = 0;
  dec.for_each_packet_containing(1, [&](PacketId) { ++count; });
  EXPECT_EQ(count, 2);
  count = 0;
  dec.for_each_packet_containing(5, [&](PacketId) { ++count; });
  EXPECT_EQ(count, 0);
}

TEST(BpDecoder, ForEachPacketContainingVisitsEachLivePacketOnce) {
  // Regression: adjacency lists keep the ids of retired slots, and a
  // reused id whose new packet holds the same native used to be visited
  // twice. Churn the store (receives, decodes, external removals that
  // free ids for reuse) and compare every native's visit list with a
  // brute-force scan of the live packets.
  constexpr std::size_t k = 64;
  constexpr std::size_t m = 8;
  LtEncoder enc(make_native_payloads(k, m, 14));
  BpDecoder dec(k, m);
  Rng rng(15);
  std::size_t reused_checks = 0;
  for (int step = 0; step < 400 && !dec.complete(); ++step) {
    dec.receive(enc.encode(rng));
    if (dec.stored_count() > 0 && rng.chance(0.3)) {
      std::vector<PacketId> live;
      dec.for_each_packet([&](PacketId id) { live.push_back(id); });
      dec.remove_packet(live[rng.uniform(live.size())]);
    }
    for (NativeIndex x = 0; x < k; ++x) {
      std::vector<PacketId> visited;
      dec.for_each_packet_containing(
          x, [&](PacketId id) { visited.push_back(id); });
      std::vector<PacketId> expected;
      dec.for_each_packet([&](PacketId id) {
        if (dec.packet_coeffs(id).test(x)) expected.push_back(id);
      });
      std::sort(visited.begin(), visited.end());
      ASSERT_EQ(visited, expected) << "step " << step << " native " << x;
      reused_checks += expected.size();
    }
  }
  EXPECT_GT(reused_checks, 0u);
}

TEST(BpDecoder, LazyPayloadsMatchTheirCoefficients) {
  // Stored payloads lag behind their code vectors by up to kMaxPending
  // decoded natives; packet_payload() must always return the exact XOR
  // of the natives the packet still holds.
  constexpr std::size_t k = 96;
  constexpr std::size_t m = 40;
  const auto natives = make_native_payloads(k, m, 16);
  LtEncoder enc(make_native_payloads(k, m, 16));
  BpDecoder dec(k, m);
  Rng rng(17);
  std::size_t checked = 0;
  while (!dec.complete()) {
    dec.receive(enc.encode(rng));
    if (rng.chance(0.5)) continue;  // leave some queues to grow
    dec.for_each_packet([&](PacketId id) {
      Payload expected(m);
      dec.packet_coeffs(id).for_each_set(
          [&](std::size_t i) { expected.xor_with(natives[i]); });
      ASSERT_EQ(dec.packet_payload(id), expected) << "packet " << id;
      ++checked;
    });
  }
  EXPECT_GT(checked, 0u);
  for (std::size_t i = 0; i < k; ++i) {
    ASSERT_EQ(dec.native_payload(static_cast<NativeIndex>(i)), natives[i]);
  }
}

TEST(BpDecoder, DuplicatesAndAbsorbedPacketsPayNoPayloadWork) {
  constexpr std::size_t k = 8;
  constexpr std::size_t m = 64;
  const auto natives = make_native_payloads(k, m, 18);
  BpDecoder dec(k, m);
  dec.receive(combine(k, m, {0}, natives));
  dec.receive(combine(k, m, {1}, natives));
  const std::uint64_t before = dec.ops().data_word_ops;
  // Reduces to zero against decoded natives: a duplicate, no payload XOR.
  EXPECT_EQ(dec.receive(combine(k, m, {0, 1}, natives)),
            ReceiveResult::kDuplicate);
  EXPECT_EQ(dec.ops().data_word_ops, before);
  // a = {0,2,3} is stored as {2,3} with 0 queued; b = {2,3}. Decoding 2
  // leaves both at {3}; the ripple decodes 3 from b (one queued native
  // folded) and that absorbs a, whose queue of two is dropped with it,
  // never folded.
  static_assert(BpDecoder::kMaxPending >= 2);
  EXPECT_EQ(dec.receive(combine(k, m, {0, 2, 3}, natives)),
            ReceiveResult::kStored);
  EXPECT_EQ(dec.receive(combine(k, m, {2, 3}, natives)),
            ReceiveResult::kStored);
  EXPECT_EQ(dec.receive(combine(k, m, {2}, natives)),
            ReceiveResult::kDecodedNative);
  EXPECT_EQ(dec.ops().data_word_ops - before, m / 8);
  EXPECT_EQ(dec.stored_count(), 0u);
  EXPECT_EQ(dec.decoded_count(), 4u);
  EXPECT_EQ(dec.native_payload(3), natives[3]);
}

TEST(BpDecoder, CountsOps) {
  constexpr std::size_t k = 64;
  constexpr std::size_t m = 64;
  const auto natives = make_native_payloads(k, m, 13);
  BpDecoder dec(k, m);
  dec.receive(combine(k, m, {0, 1}, natives));
  dec.receive(combine(k, m, {0}, natives));
  EXPECT_GT(dec.ops().control_word_ops + dec.ops().control_steps, 0u);
  EXPECT_GT(dec.ops().data_word_ops, 0u);
}

class BpEndToEnd
    : public ::testing::TestWithParam<std::tuple<std::size_t, std::uint64_t>> {
};

TEST_P(BpEndToEnd, DecodesLtStreamWithReasonableOverhead) {
  const auto [k, seed] = GetParam();
  constexpr std::size_t m = 8;
  const auto natives = make_native_payloads(k, m, seed);
  LtEncoder enc(make_native_payloads(k, m, seed));
  BpDecoder dec(k, m);
  Rng rng(seed * 7 + 1);
  std::size_t received = 0;
  // LT decoding should finish within a small constant factor of k.
  const std::size_t budget = 6 * k + 200;
  while (!dec.complete() && received < budget) {
    dec.receive(enc.encode(rng));
    ++received;
  }
  ASSERT_TRUE(dec.complete()) << "k=" << k << " still incomplete after "
                              << received << " packets";
  for (std::size_t i = 0; i < k; ++i) {
    ASSERT_EQ(dec.native_payload(static_cast<NativeIndex>(i)), natives[i]);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, BpEndToEnd,
    ::testing::Combine(::testing::Values(16, 64, 256, 1024),
                       ::testing::Values(1, 2, 3)));

}  // namespace
}  // namespace ltnc::lt
