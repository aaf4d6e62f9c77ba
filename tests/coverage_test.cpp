#include "core/coverage.hpp"

#include <gtest/gtest.h>

#include <map>
#include <set>
#include <vector>

#include "common/rng.hpp"

namespace ltnc::core {
namespace {

// A tiny reference store the tracker is tested against: packets with live
// coefficient sets, supplying the rescan callable.
struct RefStore {
  std::map<int, std::pair<BitVector, std::size_t>> packets;  // id -> (coeffs, deg)
  std::set<NativeIndex> decoded;
  std::size_t k;

  explicit RefStore(std::size_t k_) : k(k_) {}

  auto rescan() const {
    return [this](NativeIndex x, auto&& visit) {
      for (const auto& [id, pkt] : packets) {
        if (pkt.first.test(x)) visit(pkt.second);
      }
    };
  }

  /// Ground truth: natives decoded or appearing in a packet of degree ≤ d.
  std::size_t coverage(std::size_t d) const {
    std::set<NativeIndex> covered(decoded.begin(), decoded.end());
    for (const auto& [id, pkt] : packets) {
      if (pkt.second <= d) {
        pkt.first.for_each_set([&](std::size_t i) {
          covered.insert(static_cast<NativeIndex>(i));
        });
      }
    }
    return covered.size();
  }
};

TEST(CoverageTracker, PaperExample) {
  // {x1⊕x2⊕x3, x1⊕x3, x2⊕x5} (0-based: {0,1,2}, {0,2}, {1,4}) covers only
  // 4 natives, so a degree-5 packet is unreachable (paper §III-B.1).
  RefStore store(8);
  CoverageTracker cov(8);
  auto add = [&](int id, std::vector<std::size_t> idx) {
    BitVector v = BitVector::from_indices(8, idx);
    store.packets[id] = {v, idx.size()};
    cov.on_packet_added(v, idx.size());
  };
  add(0, {0, 1, 2});
  add(1, {0, 2});
  add(2, {1, 4});
  EXPECT_EQ(cov.coverage(8), 4u);
  EXPECT_LT(cov.coverage(8), 5u);  // the bound rejects degree 5
  // Degree ≤ 2 packets are {0,2} and {1,4}: they cover natives {0,1,2,4}.
  EXPECT_EQ(cov.coverage(2), 4u);
  EXPECT_EQ(cov.coverage(1), 0u);
}

TEST(CoverageTracker, DegreeLimitedCoverage) {
  RefStore store(8);
  CoverageTracker cov(8);
  const BitVector pair = BitVector::from_indices(8, {0, 1});
  const BitVector triple = BitVector::from_indices(8, {2, 3, 4});
  store.packets[0] = {pair, 2};
  cov.on_packet_added(pair, 2);
  store.packets[1] = {triple, 3};
  cov.on_packet_added(triple, 3);
  EXPECT_EQ(cov.coverage(1), 0u);
  EXPECT_EQ(cov.coverage(2), 2u);
  EXPECT_EQ(cov.coverage(3), 5u);
}

TEST(CoverageTracker, DecodedNativesAlwaysCovered) {
  RefStore store(4);
  CoverageTracker cov(4);
  cov.on_native_decoded(2);
  EXPECT_EQ(cov.coverage(0), 1u);
  EXPECT_EQ(cov.coverage(4), 1u);
  EXPECT_EQ(cov.decoded_count(), 1u);
}

TEST(CoverageTracker, DegreeChangeLowersMinimum) {
  RefStore store(8);
  CoverageTracker cov(8);
  BitVector v = BitVector::from_indices(8, {0, 1, 2});
  store.packets[0] = {v, 3};
  cov.on_packet_added(v, 3);
  EXPECT_EQ(cov.coverage(2), 0u);
  // Native 2 decodes elsewhere; the packet reduces to {0,1} at degree 2.
  BitVector reduced = BitVector::from_indices(8, {0, 1});
  store.packets[0] = {reduced, 2};
  cov.on_native_decoded(2);
  cov.on_packet_degree_changed(reduced, 3, 2);
  EXPECT_EQ(cov.coverage(2), 3u);  // {0,1} via the packet + decoded {2}
}

TEST(CoverageTracker, RemovalTriggersRescan) {
  RefStore store(8);
  CoverageTracker cov(8);
  const BitVector a = BitVector::from_indices(8, {0, 1});
  const BitVector b = BitVector::from_indices(8, {0, 2, 3});
  store.packets[0] = {a, 2};
  cov.on_packet_added(a, 2);
  store.packets[1] = {b, 3};
  cov.on_packet_added(b, 3);
  EXPECT_EQ(cov.min_degree_of(0), 2u);
  // Remove the degree-2 packet: native 0's min must rescan to 3.
  store.packets.erase(0);
  cov.on_packet_removed(a, 2, store.rescan());
  EXPECT_EQ(cov.min_degree_of(0), 3u);
  EXPECT_EQ(cov.coverage(2), 0u);
  EXPECT_EQ(cov.coverage(3), 3u);
}

TEST(CoverageTracker, RandomisedAgainstGroundTruth) {
  // Drives the tracker with a belief-propagation-consistent event stream:
  // packets are added over undecoded natives, natives decode (reducing
  // *every* packet that contains them, consuming those that reach degree
  // 1), and packets are removed. Ground truth recomputed from the store.
  constexpr std::size_t k = 24;
  RefStore store(k);
  CoverageTracker cov(k);
  Rng rng(77);
  int next_id = 0;
  for (int step = 0; step < 1500; ++step) {
    const double roll = rng.uniform_double();
    if (roll < 0.5 || store.packets.empty()) {
      // Add a packet over undecoded natives.
      std::vector<std::size_t> idx;
      for (std::size_t i = 0; i < k; ++i) {
        if (!store.decoded.contains(static_cast<NativeIndex>(i)) &&
            rng.chance(0.2)) {
          idx.push_back(i);
        }
      }
      if (idx.size() < 2) continue;
      const BitVector v = BitVector::from_indices(k, idx);
      store.packets[next_id] = {v, idx.size()};
      cov.on_packet_added(v, idx.size());
      ++next_id;
    } else if (roll < 0.7 && store.decoded.size() + 2 < k) {
      // Decode a random undecoded native, BP-style: every packet holding
      // it reduces by one; packets reaching degree 1 are consumed.
      NativeIndex x;
      do {
        x = static_cast<NativeIndex>(rng.uniform(k));
      } while (store.decoded.contains(x));
      store.decoded.insert(x);
      cov.on_native_decoded(x);
      std::vector<int> holders;
      for (auto& [id, pkt] : store.packets) {
        if (pkt.first.test(x)) holders.push_back(id);
      }
      for (int id : holders) {
        auto& [v, d] = store.packets[id];
        v.flip(x);
        --d;
        if (d >= 2) {
          cov.on_packet_degree_changed(v, d + 1, d);
        } else {
          // Consumed by the ripple: degree change to 1, then removal.
          cov.on_packet_degree_changed(v, 2, 1);
          const BitVector residual = v;
          store.packets.erase(id);
          cov.on_packet_removed(residual, 1, store.rescan());
        }
      }
    } else {
      // Remove a random packet (e.g. redundancy drop).
      auto it = store.packets.begin();
      std::advance(it, rng.uniform(store.packets.size()));
      const BitVector v = it->second.first;
      const std::size_t d = it->second.second;
      store.packets.erase(it);
      cov.on_packet_removed(v, d, store.rescan());
    }
    if (step % 25 == 0) {
      for (std::size_t d : {std::size_t{1}, std::size_t{2}, std::size_t{3},
                            std::size_t{5}, k}) {
        ASSERT_EQ(cov.coverage(d), store.coverage(d))
            << "step " << step << " d=" << d;
      }
    }
  }
}

}  // namespace
}  // namespace ltnc::core
