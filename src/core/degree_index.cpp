#include "core/degree_index.hpp"

#include "common/check.hpp"

namespace ltnc::core {

DegreeIndex::DegreeIndex(std::size_t k)
    : buckets_(k + 1), weighted_(k) {
  LTNC_CHECK_MSG(k > 0, "code length must be positive");
}

void DegreeIndex::insert(PacketId id, std::size_t degree) {
  link(id, degree);
  if (degree > max_degree_) max_degree_ = degree;
}

void DegreeIndex::remove(PacketId id, std::size_t degree) {
  unlink(id, degree);
  lower_max_degree();
}

void DegreeIndex::change(PacketId id, std::size_t old_degree,
                         std::size_t new_degree) {
  // Link before lowering the cached maximum, so a packet that leaves the
  // top bucket for the one below stops the walk right there.
  unlink(id, old_degree);
  link(id, new_degree);
  if (new_degree > max_degree_) max_degree_ = new_degree;
  lower_max_degree();
}

void DegreeIndex::link(PacketId id, std::size_t degree) {
  LTNC_CHECK_MSG(degree >= 1 && degree < buckets_.size(),
                 "degree out of range");
  if (id >= pos_.size()) pos_.resize(id + 1, 0);
  pos_[id] = static_cast<std::uint32_t>(buckets_[degree].size());
  buckets_[degree].push_back(id);
  weighted_.add(degree - 1, static_cast<std::int64_t>(degree));
  ++total_;
}

void DegreeIndex::unlink(PacketId id, std::size_t degree) {
  LTNC_CHECK_MSG(degree >= 1 && degree < buckets_.size(),
                 "degree out of range");
  auto& bucket = buckets_[degree];
  const std::uint32_t slot = pos_[id];
  LTNC_CHECK_MSG(slot < bucket.size() && bucket[slot] == id,
                 "packet not registered at this degree");
  const PacketId moved = bucket.back();
  bucket[slot] = moved;
  pos_[moved] = slot;
  bucket.pop_back();
  weighted_.add(degree - 1, -static_cast<std::int64_t>(degree));
  --total_;
}

void DegreeIndex::lower_max_degree() {
  // Degrees only fall under belief propagation, so this walk over emptied
  // buckets is paid for by the inserts that raised the maximum.
  while (max_degree_ > 0 && buckets_[max_degree_].empty()) --max_degree_;
}

const std::vector<PacketId>& DegreeIndex::bucket(std::size_t degree) const {
  LTNC_CHECK_MSG(degree >= 1 && degree < buckets_.size(),
                 "degree out of range");
  return buckets_[degree];
}

std::uint64_t DegreeIndex::weighted_sum_up_to(std::size_t d) const {
  if (d == 0) return 0;
  if (d > weighted_.size()) d = weighted_.size();
  return static_cast<std::uint64_t>(weighted_.prefix_sum(d - 1));
}


}  // namespace ltnc::core
