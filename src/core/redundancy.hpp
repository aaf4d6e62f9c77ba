// Redundancy detection (paper §III-C.1, Algorithm 3).
//
// A packet is redundant (non-innovative) for a node if it can be generated
// from what the node already holds. Belief propagation cannot see this the
// way Gaussian elimination can, so LTNC runs a dedicated low-cost check —
// but only for packets of degree ≤ 3 (almost two thirds of Robust-Soliton
// traffic), because the cost of exact detection grows exponentially with
// degree while high-degree packets are rarely redundant anyway:
//   degree 1: redundant iff the native is decoded                   O(1)
//   degree 2: redundant iff cc(x) = cc(x')                          O(1)
//   degree 3: Algorithm 3's four clauses, with an O(1) hash lookup
//             standing in for the paper's O(log k) search tree. The
//             table is open-addressed and the per-packet keys sit in a
//             vector indexed by PacketId, so storing and dropping degree-3
//             packets stops allocating once both have grown to the store.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/bitvector.hpp"
#include "common/types.hpp"
#include "core/components.hpp"

namespace ltnc::core {

class RedundancyDetector {
 public:
  RedundancyDetector(std::size_t k, const ComponentTracker& components);

  /// True iff a packet with these (already reduced) coefficients can be
  /// generated from the node's current holdings. Degrees above 3 always
  /// return false — the mechanism deliberately does not look there.
  bool is_redundant(const BitVector& coeffs) const;

  // -- availability index of stored degree-3 packets --------------------
  void on_stored(PacketId id, const BitVector& coeffs, std::size_t degree);
  void on_degree_changed(PacketId id, const BitVector& coeffs,
                         std::size_t old_degree, std::size_t new_degree);
  void on_removed(PacketId id);

  std::uint64_t checks() const { return checks_; }
  std::uint64_t hits() const { return hits_; }

 private:
  /// Packed native triple -> number of live degree-3 packets with exactly
  /// those coefficients: linear probing with backward-shift deletion, so
  /// no tombstones; it grows at half load and never shrinks. Key 0 marks
  /// an empty slot (a packed triple a < b < c is never 0).
  class TripleCounts {
   public:
    bool contains(std::uint64_t key) const;
    void increment(std::uint64_t key);
    void decrement(std::uint64_t key);

   private:
    struct Entry {
      std::uint64_t key = 0;
      std::uint32_t count = 0;
    };
    std::size_t home(std::uint64_t key) const;
    std::size_t find(std::uint64_t key) const;  ///< slot of key or empty
    void grow();

    std::vector<Entry> entries_;  ///< power-of-two size
    std::size_t size_ = 0;
    unsigned shift_ = 64;  ///< 64 − log2(entries_.size())
  };

  /// Marks a PacketId with no registered triple.
  static constexpr std::uint64_t kNoKey = 0;

  static std::uint64_t key3(std::size_t a, std::size_t b, std::size_t c);
  void register_key(PacketId id, const BitVector& coeffs);
  void unregister_key(PacketId id);

  std::size_t k_;
  const ComponentTracker& components_;
  TripleCounts available3_;
  /// PacketId -> its registered triple key or kNoKey (so removal survives
  /// the coefficient changes belief propagation applies).
  std::vector<std::uint64_t> packet_key_;
  mutable std::uint64_t checks_ = 0;
  mutable std::uint64_t hits_ = 0;
};

}  // namespace ltnc::core
