// Coverage tracker: the second reachability bound of §III-B.1.
//
// "The maximum reachable degree is upper-bounded by the number of native
// packets that either are decoded or appear in at least one encoded packet
// of degree [at most] d." We maintain, per native, the minimum degree among
// the live packets containing it, plus a Fenwick tree over the histogram of
// those minima, so coverage(d) is an O(log k) prefix sum. When the last
// packet achieving a native's minimum disappears, the owner rescans that
// native's Tanner-graph adjacency (a callable passed with the removal,
// inlined into the scan) — removals are rare, so this stays cheap.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/bitvector.hpp"
#include "common/fenwick.hpp"
#include "common/types.hpp"

namespace ltnc::core {

class CoverageTracker {
 public:
  explicit CoverageTracker(std::size_t k);

  // -- store events ---------------------------------------------------
  void on_packet_added(const BitVector& coeffs, std::size_t degree);
  /// coeffs are the *reduced* coefficients (they no longer contain the
  /// native whose decoding triggered the reduction).
  void on_packet_degree_changed(const BitVector& coeffs,
                                std::size_t old_degree,
                                std::size_t new_degree);
  /// coeffs as of removal time; registered_degree is the degree the
  /// tracker last saw for the packet. rescan(x, visit) must call
  /// visit(degree) once per live stored packet containing native x (the
  /// removed one excluded); it runs for each native whose last
  /// minimum-degree holder this was.
  template <typename Rescan>
  void on_packet_removed(const BitVector& coeffs,
                         std::size_t registered_degree, Rescan&& rescan) {
    coeffs.for_each_set([&](std::size_t i) {
      const auto x = static_cast<NativeIndex>(i);
      if (!drop_contribution(x, registered_degree)) return;
      std::uint32_t best = kNone;
      std::uint32_t cnt = 0;
      rescan(x, [&](std::size_t degree) {
        const auto d = static_cast<std::uint32_t>(degree);
        if (best == kNone || d < best) {
          best = d;
          cnt = 1;
        } else if (d == best) {
          ++cnt;
        }
      });
      set_min(x, best, cnt);
    });
  }
  void on_native_decoded(NativeIndex x);

  // -- queries ----------------------------------------------------------
  /// Number of natives that are decoded or appear in a packet of degree ≤ d.
  std::size_t coverage(std::size_t d) const;
  std::size_t decoded_count() const { return decoded_count_; }
  /// Minimum degree among live packets containing x (0 when none/decoded —
  /// test accessor).
  std::size_t min_degree_of(NativeIndex x) const { return min_deg_[x]; }

 private:
  static constexpr std::uint32_t kNone = 0;  ///< no live packet contains x

  void lower_min(NativeIndex x, std::size_t degree);
  /// Drops one minimum-degree holder of x; true when none is left and x
  /// needs a rescan.
  bool drop_contribution(NativeIndex x, std::size_t degree);
  void set_min(NativeIndex x, std::uint32_t degree, std::uint32_t count);
  void hist_move(std::uint32_t from, std::uint32_t to);

  std::vector<std::uint32_t> min_deg_;  ///< per native; kNone if none
  std::vector<std::uint32_t> min_cnt_;  ///< #packets achieving the minimum
  std::vector<char> decoded_;
  Fenwick<std::int32_t> hist_;  ///< position d-1: #natives with min_deg == d
  std::size_t decoded_count_ = 0;
};

}  // namespace ltnc::core
