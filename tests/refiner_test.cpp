#include "core/refiner.hpp"

#include <gtest/gtest.h>

#include <map>
#include <vector>

#include "common/rng.hpp"

namespace ltnc::core {
namespace {

constexpr std::size_t kM = 16;

struct Fixture {
  std::size_t k;
  std::vector<Payload> natives;
  std::map<NativeIndex, Payload> decoded_values;
  ComponentTracker components;
  OccurrenceTracker occurrences;
  Refiner refiner;
  OpCounters ops;

  explicit Fixture(std::size_t k_)
      : k(k_),
        components(k_, kM,
                   [this](NativeIndex x) -> const Payload& {
                     return decoded_values.at(x);
                   }),
        occurrences(k_),
        refiner(components, occurrences) {
    for (std::size_t i = 0; i < k; ++i) {
      natives.push_back(Payload::deterministic(kM, 77, i));
    }
  }

  void edge(NativeIndex a, NativeIndex b) {
    Payload p = natives[a];
    p.xor_with(natives[b]);
    components.add_edge(a, b, p, ops);
  }

  void bump(NativeIndex x, int times) {
    for (int i = 0; i < times; ++i) {
      occurrences.on_sent(BitVector::unit(k, x));
    }
  }

  CodedPacket packet(std::vector<std::size_t> idx) {
    CodedPacket z{BitVector::from_indices(k, idx), Payload(kM)};
    for (std::size_t i : idx) z.payload.xor_with(natives[i]);
    return z;
  }

  Payload expected_payload(const BitVector& coeffs) const {
    Payload p(kM);
    coeffs.for_each_set([&](std::size_t i) { p.xor_with(natives[i]); });
    return p;
  }

  /// Refines z and folds the substitution bridges into its payload.
  std::size_t refine(CodedPacket& z) {
    PayloadFold bridges;
    const std::size_t substitutions = refiner.refine(z, bridges, ops);
    bridges.apply(z.payload);
    return substitutions;
  }
};

TEST(Refiner, PaperFigure4Substitution) {
  // z = x1⊕x2⊕x3⊕x4⊕x5; x3 is frequent, x7 is rare and reachable through
  // x3 ∼ x5 ∼ x7 (0-based: 2 ∼ 4 ∼ 6). Expect x3 → x7 (2 → 6).
  Fixture f(7);
  f.edge(2, 4);  // y4 = x3 ⊕ x5
  f.edge(4, 6);  // y6 = x5 ⊕ x7
  f.edge(1, 3);  // y... x2 ∼ x4 (irrelevant: both already in z)
  // Occurrence counts: make x3 (index 2) over-represented, x7 (index 6)
  // never sent; x4, x5 (indices 3, 4) rarer than x3 but present in z.
  f.bump(2, 5);
  f.bump(4, 3);
  f.bump(3, 2);
  f.bump(1, 1);

  CodedPacket z = f.packet({0, 1, 2, 3, 4});
  const std::size_t subs = f.refine(z);
  EXPECT_EQ(subs, 1u);
  EXPECT_EQ(z.coeffs, BitVector::from_indices(7, {0, 1, 3, 4, 6}));
  EXPECT_EQ(z.payload, f.expected_payload(z.coeffs));
}

TEST(Refiner, DegreeIsPreserved) {
  Fixture f(10);
  for (NativeIndex i = 0; i + 1 < 10; ++i) f.edge(i, i + 1);
  f.bump(0, 9);
  f.bump(1, 9);
  f.bump(2, 9);
  CodedPacket z = f.packet({0, 1, 2});
  f.refine(z);
  EXPECT_EQ(z.degree(), 3u);
  EXPECT_EQ(z.payload, f.expected_payload(z.coeffs));
}

TEST(Refiner, NoSubstituteWhenIsolated) {
  Fixture f(6);
  f.bump(0, 10);
  CodedPacket z = f.packet({0, 1});
  EXPECT_EQ(f.refine(z), 0u);
  EXPECT_EQ(z.coeffs, BitVector::from_indices(6, {0, 1}));
}

TEST(Refiner, NoSubstituteWhenAlreadyRarest) {
  Fixture f(6);
  f.edge(0, 1);
  f.bump(1, 5);  // the only peer is more frequent
  CodedPacket z = f.packet({0});
  EXPECT_EQ(f.refine(z), 0u);
}

TEST(Refiner, EqualFrequencyIsNotSubstituted) {
  // "Strictly less frequent": ties must not swap (avoids churn).
  Fixture f(6);
  f.edge(0, 1);
  f.bump(0, 3);
  f.bump(1, 3);
  CodedPacket z = f.packet({0});
  EXPECT_EQ(f.refine(z), 0u);
}

TEST(Refiner, SubstituteNotAlreadyInPacket) {
  // The rarest peer of 0 is 1, but 1 is already in z: must pick 2.
  Fixture f(6);
  f.edge(0, 1);
  f.edge(1, 2);
  f.bump(0, 9);
  f.bump(2, 4);
  CodedPacket z = f.packet({0, 1});
  EXPECT_EQ(f.refine(z), 1u);
  EXPECT_TRUE(z.coeffs.test(1));
  EXPECT_TRUE(z.coeffs.test(2));
  EXPECT_FALSE(z.coeffs.test(0));
  EXPECT_EQ(z.payload, f.expected_payload(z.coeffs));
}

TEST(Refiner, ReducesOccurrenceVarianceOverTime) {
  // Long-run property (§III-B.3): with refinement, the spread of the
  // occurrence counts stays small. Simulate sends of built packets whose
  // raw selection is biased toward low indices.
  constexpr std::size_t k = 32;
  Fixture f(k);
  for (NativeIndex i = 0; i + 1 < k; ++i) f.edge(i, i + 1);  // one big comp
  Rng rng(5);
  for (int round = 0; round < 2000; ++round) {
    // Biased builder: always proposes the same low natives.
    CodedPacket z = f.packet({0, 1, 2});
    f.refine(z);
    f.occurrences.on_sent(z.coeffs);
  }
  EXPECT_LT(f.occurrences.relative_stddev(), 0.05);
  // Without refinement the same stream gives relative σ = huge (only 3 of
  // 32 natives ever sent); sanity-check the contrast.
  OccurrenceTracker raw(k);
  for (int round = 0; round < 2000; ++round) {
    raw.on_sent(BitVector::from_indices(k, {0, 1, 2}));
  }
  EXPECT_GT(raw.relative_stddev(), 1.0);
}

}  // namespace
}  // namespace ltnc::core
