#include "core/redundancy.hpp"

#include <array>
#include <utility>

#include "common/check.hpp"

namespace ltnc::core {

RedundancyDetector::RedundancyDetector(std::size_t k,
                                       const ComponentTracker& components)
    : k_(k), components_(components) {
  LTNC_CHECK_MSG(k > 0 && k < (1ULL << 21), "k out of key-packing range");
}

std::uint64_t RedundancyDetector::key3(std::size_t a, std::size_t b,
                                       std::size_t c) {
  // for_each_set yields ascending indices, so (a < b < c) holds and the
  // packing is canonical.
  return (static_cast<std::uint64_t>(a) << 42) |
         (static_cast<std::uint64_t>(b) << 21) | static_cast<std::uint64_t>(c);
}

std::size_t RedundancyDetector::TripleCounts::home(std::uint64_t key) const {
  return static_cast<std::size_t>((key * 0x9e3779b97f4a7c15ULL) >> shift_);
}

std::size_t RedundancyDetector::TripleCounts::find(std::uint64_t key) const {
  const std::size_t mask = entries_.size() - 1;
  std::size_t i = home(key);
  while (entries_[i].key != 0 && entries_[i].key != key) i = (i + 1) & mask;
  return i;
}

bool RedundancyDetector::TripleCounts::contains(std::uint64_t key) const {
  return !entries_.empty() && entries_[find(key)].key == key;
}

void RedundancyDetector::TripleCounts::increment(std::uint64_t key) {
  if (2 * (size_ + 1) > entries_.size()) grow();
  Entry& e = entries_[find(key)];
  if (e.key == 0) {
    e.key = key;
    ++size_;
  }
  ++e.count;
}

void RedundancyDetector::TripleCounts::decrement(std::uint64_t key) {
  LTNC_DCHECK(contains(key));
  const std::size_t mask = entries_.size() - 1;
  std::size_t hole = find(key);
  if (--entries_[hole].count != 0) return;
  // Backward-shift deletion: pull later members of the probe run into the
  // hole whenever their home slot does not lie between hole and them.
  for (std::size_t j = (hole + 1) & mask; entries_[j].key != 0;
       j = (j + 1) & mask) {
    const std::size_t h = home(entries_[j].key);
    if (((j - h) & mask) >= ((j - hole) & mask)) {
      entries_[hole] = entries_[j];
      hole = j;
    }
  }
  entries_[hole] = Entry{};
  --size_;
}

void RedundancyDetector::TripleCounts::grow() {
  std::vector<Entry> old = std::move(entries_);
  entries_.assign(old.empty() ? 16 : 2 * old.size(), Entry{});
  shift_ = 64;
  for (std::size_t n = entries_.size(); n > 1; n >>= 1) --shift_;
  for (const Entry& e : old) {
    if (e.key != 0) entries_[find(e.key)] = e;
  }
}

bool RedundancyDetector::is_redundant(const BitVector& coeffs) const {
  ++checks_;
  std::array<std::size_t, 3> n{};
  std::size_t degree = 0;
  std::size_t bit = coeffs.first_set();
  while (bit != BitVector::npos && degree < 3) {
    n[degree++] = bit;
    bit = coeffs.next_set(bit + 1);
  }
  if (bit != BitVector::npos) return false;  // degree > 3: not checked

  bool redundant = false;
  switch (degree) {
    case 0:
      redundant = true;  // the zero packet carries nothing
      break;
    case 1:
      redundant = components_.is_decoded(static_cast<NativeIndex>(n[0]));
      break;
    case 2:
      redundant = components_.connected(static_cast<NativeIndex>(n[0]),
                                        static_cast<NativeIndex>(n[1]));
      break;
    case 3: {
      const auto a = static_cast<NativeIndex>(n[0]);
      const auto b = static_cast<NativeIndex>(n[1]);
      const auto c = static_cast<NativeIndex>(n[2]);
      // Algorithm 3: split into a decoded native plus a generable pair, in
      // all three ways, or the exact triple is available.
      redundant =
          (components_.is_decoded(a) && components_.connected(b, c)) ||
          (components_.is_decoded(b) && components_.connected(a, c)) ||
          (components_.is_decoded(c) && components_.connected(a, b)) ||
          available3_.contains(key3(n[0], n[1], n[2]));
      break;
    }
    default:
      break;
  }
  if (redundant) ++hits_;
  return redundant;
}

void RedundancyDetector::register_key(PacketId id, const BitVector& coeffs) {
  std::array<std::size_t, 3> n{};
  std::size_t degree = 0;
  coeffs.for_each_set([&](std::size_t i) {
    LTNC_DCHECK(degree < 3);
    n[degree++] = i;
  });
  LTNC_DCHECK(degree == 3);
  const std::uint64_t key = key3(n[0], n[1], n[2]);
  available3_.increment(key);
  if (id >= packet_key_.size()) packet_key_.resize(id + 1, kNoKey);
  packet_key_[id] = key;
}

void RedundancyDetector::unregister_key(PacketId id) {
  if (id >= packet_key_.size() || packet_key_[id] == kNoKey) return;
  available3_.decrement(packet_key_[id]);
  packet_key_[id] = kNoKey;
}

void RedundancyDetector::on_stored(PacketId id, const BitVector& coeffs,
                                   std::size_t degree) {
  if (degree == 3) register_key(id, coeffs);
}

void RedundancyDetector::on_degree_changed(PacketId id,
                                           const BitVector& coeffs,
                                           std::size_t old_degree,
                                           std::size_t new_degree) {
  if (old_degree == 3) unregister_key(id);
  if (new_degree == 3) register_key(id, coeffs);
}

void RedundancyDetector::on_removed(PacketId id) { unregister_key(id); }

}  // namespace ltnc::core
