#include "core/redundancy.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <vector>

#include "common/rng.hpp"
#include "gf2/gf2_matrix.hpp"

namespace ltnc::core {
namespace {

constexpr std::size_t kM = 8;

struct Fixture {
  std::size_t k;
  std::vector<Payload> natives;
  std::map<NativeIndex, Payload> decoded_values;
  ComponentTracker components;
  RedundancyDetector detector;
  OpCounters ops;
  PacketId next_id = 0;

  explicit Fixture(std::size_t k_)
      : k(k_),
        components(k_, kM,
                   [this](NativeIndex x) -> const Payload& {
                     return decoded_values.at(x);
                   }),
        detector(k_, components) {
    for (std::size_t i = 0; i < k; ++i) {
      natives.push_back(Payload::deterministic(kM, 21, i));
    }
  }

  void decode(NativeIndex x) {
    decoded_values.emplace(x, natives[x]);
    components.mark_decoded(x, 0);
  }

  void edge(NativeIndex a, NativeIndex b) {
    Payload p = natives[a];
    p.xor_with(natives[b]);
    components.add_edge(a, b, p, ops);
  }

  PacketId store3(std::vector<std::size_t> idx) {
    const BitVector v = BitVector::from_indices(k, idx);
    const PacketId id = next_id++;
    detector.on_stored(id, v, idx.size());
    return id;
  }

  bool redundant(std::vector<std::size_t> idx) {
    return detector.is_redundant(BitVector::from_indices(k, idx));
  }
};

TEST(RedundancyDetector, Degree1IsDecodedCheck) {
  Fixture f(8);
  EXPECT_FALSE(f.redundant({3}));
  f.decode(3);
  EXPECT_TRUE(f.redundant({3}));
  EXPECT_FALSE(f.redundant({4}));
}

TEST(RedundancyDetector, Degree2UsesComponents) {
  Fixture f(8);
  EXPECT_FALSE(f.redundant({0, 1}));
  f.edge(0, 2);
  f.edge(2, 1);
  // x0 ⊕ x1 generable through x2 even though never received directly.
  EXPECT_TRUE(f.redundant({0, 1}));
  EXPECT_FALSE(f.redundant({0, 3}));
}

TEST(RedundancyDetector, Degree2BothDecoded) {
  Fixture f(8);
  f.decode(0);
  f.decode(5);
  EXPECT_TRUE(f.redundant({0, 5}));
}

TEST(RedundancyDetector, Degree3ExactAvailability) {
  Fixture f(8);
  EXPECT_FALSE(f.redundant({1, 2, 3}));
  const PacketId id = f.store3({1, 2, 3});
  EXPECT_TRUE(f.redundant({1, 2, 3}));
  EXPECT_FALSE(f.redundant({1, 2, 4}));
  f.detector.on_removed(id);
  EXPECT_FALSE(f.redundant({1, 2, 3}));
}

TEST(RedundancyDetector, Degree3DecodedPlusPair) {
  // Algorithm 3 clause: y = x ⊕ x' ⊕ x'' redundant when x is decoded and
  // x' ⊕ x'' is generable.
  Fixture f(8);
  f.decode(0);
  f.edge(1, 2);
  EXPECT_TRUE(f.redundant({0, 1, 2}));
  EXPECT_FALSE(f.redundant({0, 1, 3}));
  // Also with the decoded native in a middle position of the triple.
  f.decode(6);
  f.edge(5, 7);
  EXPECT_TRUE(f.redundant({5, 6, 7}));
}

TEST(RedundancyDetector, DegreeAbove3NeverFlagged) {
  Fixture f(8);
  f.decode(0);
  f.decode(1);
  f.decode(2);
  f.decode(3);
  // Fully generable, but degree 4 is outside the detector's scope.
  EXPECT_FALSE(f.redundant({0, 1, 2, 3}));
}

TEST(RedundancyDetector, DuplicateTriplesCounted) {
  Fixture f(8);
  const PacketId a = f.store3({1, 2, 3});
  const PacketId b = f.store3({1, 2, 3});
  f.detector.on_removed(a);
  EXPECT_TRUE(f.redundant({1, 2, 3}));  // second copy still live
  f.detector.on_removed(b);
  EXPECT_FALSE(f.redundant({1, 2, 3}));
}

TEST(RedundancyDetector, DegreeChangeReindexesTriples) {
  Fixture f(8);
  const PacketId id = f.next_id++;
  // Stored at degree 4 — not indexed.
  f.detector.on_stored(id, BitVector::from_indices(8, {1, 2, 3, 4}), 4);
  EXPECT_FALSE(f.redundant({1, 2, 3, 4}));
  // Reduced to degree 3: becomes available as a triple.
  f.detector.on_degree_changed(id, BitVector::from_indices(8, {1, 2, 3}), 4,
                               3);
  EXPECT_TRUE(f.redundant({1, 2, 3}));
  // Reduced to degree 2: triple disappears.
  f.detector.on_degree_changed(id, BitVector::from_indices(8, {1, 2}), 3, 2);
  EXPECT_FALSE(f.redundant({1, 2, 3}));
}

TEST(RedundancyDetector, CountsChecksAndHits) {
  Fixture f(8);
  f.decode(0);
  (void)f.redundant({0});
  (void)f.redundant({1});
  EXPECT_EQ(f.detector.checks(), 2u);
  EXPECT_EQ(f.detector.hits(), 1u);
}

TEST(RedundancyDetector, TripleIndexMatchesAReferenceMultiset) {
  // Many triples stored and dropped in random order — the open-addressed
  // table grows several times and its deletions shift probe runs. With
  // nothing decoded or connected, a triple is redundant exactly when a
  // live packet holds it.
  constexpr std::size_t k = 40;
  Fixture f(k);
  Rng rng(5);
  std::map<PacketId, std::vector<std::size_t>> live;
  std::map<std::vector<std::size_t>, int> count;
  std::vector<std::vector<std::size_t>> seen;
  const auto random_triple = [&] {
    std::vector<std::size_t> idx;
    while (idx.size() < 3) {
      const std::size_t c = rng.uniform(12);  // few natives: collisions
      if (std::find(idx.begin(), idx.end(), c) == idx.end()) idx.push_back(c);
    }
    std::sort(idx.begin(), idx.end());
    return idx;
  };
  for (int step = 0; step < 3000; ++step) {
    if (live.empty() || rng.chance(0.55)) {
      const auto idx = random_triple();
      live[f.store3(idx)] = idx;
      ++count[idx];
      seen.push_back(idx);
    } else {
      auto it = live.begin();
      std::advance(it, rng.uniform(live.size()));
      f.detector.on_removed(it->first);
      --count[it->second];
      live.erase(it);
    }
    if (step % 50 == 0) {
      for (const auto& idx : seen) {
        ASSERT_EQ(f.redundant(idx), count[idx] > 0) << "step " << step;
      }
    }
  }
  for (const auto& [id, idx] : live) f.detector.on_removed(id);
  for (const auto& idx : seen) EXPECT_FALSE(f.redundant(idx));
}

// Soundness property: whenever the detector says "redundant", the vector
// must genuinely lie in the GF(2) span of the node's holdings. (The
// converse does not hold — the detector is deliberately incomplete.)
class RedundancySoundness : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RedundancySoundness, NeverFlagsInnovativePackets) {
  constexpr std::size_t k = 16;
  Fixture f(k);
  gf2::GF2Matrix holdings(k);
  Rng rng(GetParam());

  // Build random holdings: decoded natives, degree-2 and degree-3 packets.
  for (int step = 0; step < 40; ++step) {
    const double roll = rng.uniform_double();
    if (roll < 0.25) {
      const auto x = static_cast<NativeIndex>(rng.uniform(k));
      if (f.components.is_decoded(x)) continue;
      // Decoding x also makes everything connected to x decodable; to keep
      // the oracle exact, only decode isolated natives.
      if (f.components.members_of(x).size() != 1) continue;
      f.decode(x);
      holdings.append_row(BitVector::unit(k, x));
    } else if (roll < 0.7) {
      const auto a = static_cast<NativeIndex>(rng.uniform(k));
      const auto b = static_cast<NativeIndex>(rng.uniform(k));
      if (a == b || f.components.is_decoded(a) ||
          f.components.is_decoded(b)) {
        continue;
      }
      f.edge(a, b);
      holdings.append_row(BitVector::from_indices(k, {a, b}));
    } else {
      std::vector<std::size_t> idx;
      while (idx.size() < 3) {
        const std::size_t candidate = rng.uniform(k);
        if (std::find(idx.begin(), idx.end(), candidate) == idx.end()) {
          idx.push_back(candidate);
        }
      }
      std::sort(idx.begin(), idx.end());
      f.store3(idx);
      holdings.append_row(BitVector::from_indices(k, idx));
    }
  }

  // Probe every degree-1, degree-2 and many degree-3 vectors.
  for (std::size_t a = 0; a < k; ++a) {
    const BitVector v1 = BitVector::unit(k, a);
    if (f.detector.is_redundant(v1)) {
      EXPECT_TRUE(holdings.in_row_space(v1)) << v1.to_string();
    }
    for (std::size_t b = a + 1; b < k; ++b) {
      const BitVector v2 = BitVector::from_indices(k, {a, b});
      if (f.detector.is_redundant(v2)) {
        EXPECT_TRUE(holdings.in_row_space(v2)) << v2.to_string();
      }
      for (std::size_t c = b + 1; c < k; c += 3) {
        const BitVector v3 = BitVector::from_indices(k, {a, b, c});
        if (f.detector.is_redundant(v3)) {
          EXPECT_TRUE(holdings.in_row_space(v3)) << v3.to_string();
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RedundancySoundness,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

}  // namespace
}  // namespace ltnc::core
