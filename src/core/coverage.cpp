#include "core/coverage.hpp"

#include <limits>

#include "common/check.hpp"

namespace ltnc::core {

CoverageTracker::CoverageTracker(std::size_t k)
    : min_deg_(k, kNone),
      min_cnt_(k, 0),
      decoded_(k, 0),
      hist_(k) {
  LTNC_CHECK_MSG(k > 0, "code length must be positive");
}

void CoverageTracker::hist_move(std::uint32_t from, std::uint32_t to) {
  if (from != kNone) hist_.add(from - 1, -1);
  if (to != kNone) hist_.add(to - 1, +1);
}

void CoverageTracker::lower_min(NativeIndex x, std::size_t degree) {
  if (decoded_[x]) return;  // decoded natives live outside the histogram
  const auto d = static_cast<std::uint32_t>(degree);
  if (min_deg_[x] == kNone || d < min_deg_[x]) {
    hist_move(min_deg_[x], d);
    min_deg_[x] = d;
    min_cnt_[x] = 1;
  } else if (d == min_deg_[x]) {
    ++min_cnt_[x];
  }
}

bool CoverageTracker::drop_contribution(NativeIndex x, std::size_t degree) {
  if (decoded_[x]) return false;
  const auto d = static_cast<std::uint32_t>(degree);
  if (d != min_deg_[x]) return false;  // a non-minimal packet left
  LTNC_DCHECK(min_cnt_[x] > 0);
  return --min_cnt_[x] == 0;
}

void CoverageTracker::set_min(NativeIndex x, std::uint32_t degree,
                              std::uint32_t count) {
  hist_move(min_deg_[x], degree);
  min_deg_[x] = degree;
  min_cnt_[x] = count;
}

void CoverageTracker::on_packet_added(const BitVector& coeffs,
                                      std::size_t degree) {
  coeffs.for_each_set(
      [&](std::size_t i) { lower_min(static_cast<NativeIndex>(i), degree); });
}

void CoverageTracker::on_packet_degree_changed(const BitVector& coeffs,
                                               std::size_t old_degree,
                                               std::size_t new_degree) {
  LTNC_DCHECK(new_degree + 1 == old_degree);
  coeffs.for_each_set([&](std::size_t i) {
    const auto x = static_cast<NativeIndex>(i);
    if (decoded_[x]) return;
    const auto od = static_cast<std::uint32_t>(old_degree);
    const auto nd = static_cast<std::uint32_t>(new_degree);
    if (od == min_deg_[x]) {
      // This packet was (one of) the minimum holders and just got lighter:
      // it becomes the unique new minimum at od−1.
      hist_move(min_deg_[x], nd);
      min_deg_[x] = nd;
      min_cnt_[x] = 1;
    } else if (nd == min_deg_[x]) {
      ++min_cnt_[x];
    }  // else: still above the minimum — nothing to update
  });
}

void CoverageTracker::on_native_decoded(NativeIndex x) {
  LTNC_CHECK_MSG(!decoded_[x], "native decoded twice");
  decoded_[x] = 1;
  ++decoded_count_;
  hist_move(min_deg_[x], kNone);
  min_deg_[x] = kNone;
  min_cnt_[x] = 0;
}

std::size_t CoverageTracker::coverage(std::size_t d) const {
  if (d == 0) return decoded_count_;
  return decoded_count_ +
         static_cast<std::size_t>(hist_.prefix_sum(d - 1));
}

}  // namespace ltnc::core
