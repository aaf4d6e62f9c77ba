// Packet payload: an m-byte data block supporting word-parallel XOR.
//
// In the paper the content is divided into k native packets of m bytes
// (m = 256 KB in the evaluation). The dissemination simulator keeps m small
// (payload content does not influence protocol behaviour) while the
// data-plane cost benchmarks (Fig. 8c/8d) use realistic m. XOR work is
// returned to the caller so both planes can be accounted separately.
// Storage is leased from the thread-local WordArena and XOR routes through
// the dispatched SIMD kernels.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "common/arena.hpp"
#include "common/check.hpp"
#include "common/kernels.hpp"
#include "common/rng.hpp"

namespace ltnc {

class Payload {
 public:
  /// Creates an all-zero payload of `bytes` bytes.
  explicit Payload(std::size_t bytes = 0)
      : bytes_(bytes), words_((bytes + 7) / 8) {}

  /// Deterministic pseudo-random payload: the canonical content of native
  /// packet `index` for a run seeded with `seed`. Decoders verify against
  /// this to prove end-to-end correctness.
  static Payload deterministic(std::size_t bytes, std::uint64_t seed,
                               std::size_t index);

  std::size_t size_bytes() const { return bytes_; }
  std::size_t word_count() const { return words_.size(); }

  /// In-place GF(2) addition; returns the number of 64-bit word operations
  /// (data-plane cost accounting).
  std::size_t xor_with(const Payload& other);

  /// In-place GF(2) addition of every payload in `sources` (all the same
  /// size) in a single pass over this payload's words. Returns word ops
  /// charged: one per destination word per source, as if each source had
  /// been XORed individually.
  std::size_t xor_accumulate(const Payload* const* sources,
                             std::size_t count);

  bool operator==(const Payload& other) const {
    return bytes_ == other.bytes_ && words_ == other.words_;
  }
  bool operator!=(const Payload& other) const { return !(*this == other); }

  bool is_zero() const;

  std::uint8_t byte(std::size_t i) const {
    LTNC_DCHECK(i < bytes_);
    return static_cast<std::uint8_t>(words_[i >> 3] >> ((i & 7) * 8));
  }

  const std::uint64_t* words() const { return words_.data(); }
  std::uint64_t* mutable_words() { return words_.data(); }

  /// Read-only view of the limb words — the zero-copy source for wire
  /// serialization. Bytes past size_bytes() in the last word are always
  /// zero (class invariant; see deterministic()'s tail mask).
  std::span<const std::uint64_t> word_span() const {
    return {words_.data(), words_.size()};
  }

  /// The payload as a byte sequence (little-endian limb image) — exactly
  /// the bytes a wire frame carries. Valid while the payload lives.
  std::span<const std::uint8_t> byte_view() const {
    return {reinterpret_cast<const std::uint8_t*>(words_.data()), bytes_};
  }

 private:
  std::size_t bytes_;
  WordBuf words_;
};

/// A pending GF(2) sum: collects source payloads and folds them into a
/// destination in one pass (Payload::xor_accumulate). Sources are held by
/// pointer, so each must stay alive and unchanged until apply(). A source
/// added twice cancels, as in GF(2). Reusable: keep one as scratch and the
/// pointer list stops allocating once it has seen its largest sum.
class PayloadFold {
 public:
  void add(const Payload& source) { sources_.push_back(&source); }
  /// add(), except that a source already in the fold is taken out
  /// instead (x ⊕ x = 0): the result is the same and the pass reads
  /// two payloads fewer.
  void toggle(const Payload& source) {
    const auto it = std::find(sources_.begin(), sources_.end(), &source);
    if (it == sources_.end()) {
      sources_.push_back(&source);
    } else {
      *it = sources_.back();
      sources_.pop_back();
    }
  }
  std::size_t size() const { return sources_.size(); }
  void clear() { sources_.clear(); }

  /// dst ^= every collected source, then clears. Returns the word ops
  /// charged (see Payload::xor_accumulate).
  std::size_t apply(Payload& dst) {
    const std::size_t ops = dst.xor_accumulate(sources_.data(), size());
    sources_.clear();
    return ops;
  }

 private:
  std::vector<const Payload*> sources_;
};

/// True iff `payload` equals Payload::deterministic(payload.size_bytes(),
/// seed, index), compared word by word as the words are generated — the
/// allocation-free check behind every finish_and_verify.
bool matches_deterministic(const Payload& payload, std::uint64_t seed,
                           std::size_t index);

}  // namespace ltnc
