#include "core/degree_picker.hpp"

#include <gtest/gtest.h>

#include <map>
#include <vector>

#include "common/rng.hpp"

namespace ltnc::core {
namespace {

// Standalone harness: a degree index plus coverage tracker fed by hand.
struct Harness {
  std::size_t k;
  lt::RobustSoliton soliton;
  DegreeIndex index;
  std::map<PacketId, BitVector> packets;
  CoverageTracker coverage;
  PacketId next_id = 0;

  explicit Harness(std::size_t k_)
      : k(k_),
        soliton(k_),
        index(k_),
        coverage(k_) {}

  void add(std::vector<std::size_t> idx) {
    const BitVector v = BitVector::from_indices(k, idx);
    index.insert(next_id, idx.size());
    coverage.on_packet_added(v, idx.size());
    packets.emplace(next_id, v);
    ++next_id;
  }

  void decode(NativeIndex x) { coverage.on_native_decoded(x); }
};

TEST(DegreePicker, NothingHeldPicksNothing) {
  Harness h(16);
  DegreePicker picker(h.soliton, h.index, h.coverage);
  Rng rng(1);
  EXPECT_FALSE(picker.pick(rng).has_value());
}

TEST(DegreePicker, PaperBound1Example) {
  // {x1⊕x2⊕x3, x1⊕x3, x2⊕x5}: Σ i·n(i) = 7, so degree 8 is unreachable
  // but degree ≤ 7 passes bound 1. Coverage (4 natives) caps at 4.
  Harness h(16);
  h.add({0, 1, 2});
  h.add({0, 2});
  h.add({1, 4});
  DegreePicker picker(h.soliton, h.index, h.coverage);
  // No decoded natives and no degree-1 packets: without collisions degree 1
  // cannot be built, and bound 1 (Σ_{i≤1} i·n(i) = 0 < 1) discards it.
  EXPECT_FALSE(picker.reachable(1));
  EXPECT_TRUE(picker.reachable(2));
  EXPECT_TRUE(picker.reachable(4));
  EXPECT_FALSE(picker.reachable(5));  // bound 2: only 4 natives covered
  EXPECT_FALSE(picker.reachable(8));  // bound 1 as well
}

TEST(DegreePicker, DecodedNativesCountAsDegree1) {
  Harness h(16);
  h.decode(0);
  h.decode(1);
  DegreePicker picker(h.soliton, h.index, h.coverage);
  EXPECT_TRUE(picker.reachable(1));
  EXPECT_TRUE(picker.reachable(2));
  EXPECT_FALSE(picker.reachable(3));
}

TEST(DegreePicker, FalseAcceptsAreAllowed) {
  // Paper: neither bound discards degree 3 for {x1⊕x2, x3⊕x4} although it
  // is unreachable — the heuristics are upper bounds, not oracles.
  Harness h(16);
  h.add({0, 1});
  h.add({2, 3});
  DegreePicker picker(h.soliton, h.index, h.coverage);
  EXPECT_TRUE(picker.reachable(3));
  EXPECT_TRUE(picker.reachable(4));
  EXPECT_FALSE(picker.reachable(5));
}

TEST(DegreePicker, PickAlwaysReturnsReachable) {
  Harness h(64);
  h.add({0, 1});
  h.add({1, 2});
  h.decode(5);
  DegreePicker picker(h.soliton, h.index, h.coverage);
  Rng rng(3);
  for (int i = 0; i < 500; ++i) {
    const auto d = picker.pick(rng);
    ASSERT_TRUE(d.has_value());
    ASSERT_TRUE(picker.reachable(*d)) << "picked " << *d;
    ASSERT_LE(*d, 5u);
  }
  EXPECT_EQ(picker.stats().picks, 500u);
  EXPECT_GT(picker.stats().first_accepted, 0u);
}

TEST(DegreePicker, RichHoldingsAcceptFirstDraw) {
  // With plentiful holdings — including degree-1 resources, i.e. decoded
  // natives — the first draw should essentially always pass (the paper
  // reports 99.9 %).
  Harness h(64);
  for (std::size_t i = 0; i + 1 < 64; ++i) h.add({i, i + 1});
  for (std::size_t i = 0; i + 2 < 64; i += 2) h.add({i, i + 1, i + 2});
  h.decode(0);
  h.decode(1);
  DegreePicker picker(h.soliton, h.index, h.coverage);
  Rng rng(4);
  for (int i = 0; i < 2000; ++i) (void)picker.pick(rng);
  EXPECT_GT(picker.stats().first_accept_rate(), 0.999);
}

TEST(DegreePicker, BoundsDisabledAcceptsAnything) {
  Harness h(16);
  h.add({0, 1});
  DegreePicker unbounded(h.soliton, h.index, h.coverage,
                         /*enforce_bounds=*/false);
  Rng rng(5);
  bool saw_unreachable = false;
  for (int i = 0; i < 2000; ++i) {
    const auto d = unbounded.pick(rng);
    ASSERT_TRUE(d.has_value());
    if (*d > 2) saw_unreachable = true;
  }
  EXPECT_TRUE(saw_unreachable);
  EXPECT_EQ(unbounded.stats().retries_total, 0u);
}

TEST(DegreePicker, StatsTrackRetries) {
  // Holdings so poor that most draws (degree ≥ 2) are rejected: only one
  // decoded native.
  Harness h(256);
  h.decode(0);
  DegreePicker picker(h.soliton, h.index, h.coverage);
  Rng rng(6);
  for (int i = 0; i < 300; ++i) {
    const auto d = picker.pick(rng);
    ASSERT_TRUE(d.has_value());
    ASSERT_EQ(*d, 1u);  // the only reachable degree
  }
  EXPECT_GT(picker.stats().retries_total, 0u);
  EXPECT_LT(picker.stats().first_accept_rate(), 0.2);
}

}  // namespace
}  // namespace ltnc::core
