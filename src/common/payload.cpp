#include "common/payload.hpp"

#include <algorithm>

namespace ltnc {

namespace {

// The generator behind Payload::deterministic(): word w of native `index`
// is the w-th draw, the last word masked to the payload's byte length so
// equality is well defined for non-multiple-of-8 sizes.
SplitMix64 deterministic_stream(std::uint64_t seed, std::size_t index) {
  return SplitMix64(seed ^ (0x9e3779b97f4a7c15ULL * (index + 1)));
}

std::uint64_t tail_mask(std::size_t bytes) {
  const std::size_t tail = bytes % 8;
  return tail == 0 ? ~0ULL : (~0ULL >> ((8 - tail) * 8));
}

}  // namespace

Payload Payload::deterministic(std::size_t bytes, std::uint64_t seed,
                               std::size_t index) {
  Payload p(bytes);
  SplitMix64 sm = deterministic_stream(seed, index);
  for (std::size_t i = 0; i < p.words_.size(); ++i) p.words_[i] = sm.next();
  if (p.words_.size() != 0) p.words_[p.words_.size() - 1] &= tail_mask(bytes);
  return p;
}

bool matches_deterministic(const Payload& payload, std::uint64_t seed,
                           std::size_t index) {
  SplitMix64 sm = deterministic_stream(seed, index);
  const std::size_t n = payload.word_count();
  const std::uint64_t* words = payload.words();
  for (std::size_t i = 0; i + 1 < n; ++i) {
    if (words[i] != sm.next()) return false;
  }
  return n == 0 || words[n - 1] == (sm.next() & tail_mask(payload.size_bytes()));
}

std::size_t Payload::xor_with(const Payload& other) {
  LTNC_CHECK_MSG(bytes_ == other.bytes_, "Payload size mismatch in xor_with");
  kernels::xor_words(words_.data(), other.words_.data(), words_.size());
  return words_.size();
}

std::size_t Payload::xor_accumulate(const Payload* const* sources,
                                    std::size_t count) {
  kernels::xor_accumulate_batched(
      words_.data(), words_.size(), count, [&](std::size_t s) {
        const Payload& src = *sources[s];
        LTNC_CHECK_MSG(src.bytes_ == bytes_,
                       "Payload size mismatch in xor_accumulate");
        return src.words_.data();
      });
  return words_.size() * count;
}

bool Payload::is_zero() const {
  return !kernels::any_words(words_.data(), words_.size());
}

}  // namespace ltnc
