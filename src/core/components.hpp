// Connected components of native packets (paper Table I, Fig. 5).
//
// Two natives x, x' are equivalent (x ∼ x') when x ⊕ x' can be generated
// using only decoded natives and available degree-2 packets. The paper
// stores a leader-based representation cc(·): cc(x) = 0 when x is decoded,
// and cc(x) = cc(x') iff x ∼ x'. We extend it with:
//   * a spanning forest whose edges carry the payload of x ⊕ parent(x), so
//     the substitution packet x ⊕ x' can be *materialised* (the refinement
//     step needs its bytes, not just its existence). Path compression runs
//     in place (edge(x) ^= edge(parent)), so after a lookup x ⊕ x' is just
//     edge(x) ⊕ edge(x'): materialize_into() hands those two payloads to
//     the caller's fold instead of building a temporary;
//   * one lazy min-occurrence heap per component, so the refinement step's
//     "least frequent equivalent native" query is O(log k) amortised
//     (occurrence counts only grow, so stale heap entries are simply
//     re-inserted with their current count when popped).
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "common/bitvector.hpp"
#include "common/op_counters.hpp"
#include "common/payload.hpp"
#include "common/types.hpp"

namespace ltnc::core {

class ComponentTracker {
 public:
  /// decoded_value(x) must return the decoded payload of native x; it is
  /// only called for natives previously passed to mark_decoded().
  using DecodedLookup = std::function<const Payload&(NativeIndex)>;

  ComponentTracker(std::size_t k, std::size_t payload_bytes,
                   DecodedLookup decoded_value);

  /// A degree-2 packet a ⊕ b became available (received, or a stored packet
  /// reduced to degree 2 by belief propagation). Both endpoints must be
  /// undecoded. No-op if already connected.
  void add_edge(NativeIndex a, NativeIndex b, const Payload& xor_payload,
                OpCounters& ops);

  /// Native x was decoded: cc(x) becomes 0 and x joins the decoded
  /// component, whose pairs materialise directly from decoded values.
  /// When the last native of x's spanning tree is decoded, the tree's edge
  /// payloads are released.
  void mark_decoded(NativeIndex x, std::uint64_t current_occurrences);

  /// Leader-based representation: 0 = decoded, otherwise root native + 1.
  std::uint32_t cc(NativeIndex x) const { return leader_[x]; }
  bool connected(NativeIndex a, NativeIndex b) const {
    return leader_[a] == leader_[b];
  }
  bool is_decoded(NativeIndex x) const { return leader_[x] == 0; }

  /// The full cc array — what the feedback channel ships to the sender for
  /// the smart construction algorithm (§III-C.2).
  const std::vector<std::uint32_t>& leaders() const { return leader_; }

  /// Adds the payloads whose XOR is a ⊕ b to `dst` (at most two). Requires
  /// connected(a, b). The sources stay valid and unchanged until the next
  /// add_edge(). Logically const: path compression only reorganises the
  /// cached spanning forest.
  void materialize_into(PayloadFold& dst, NativeIndex a, NativeIndex b,
                        OpCounters& ops) const;

  /// Payload of a ⊕ b as a fresh packet payload (materialize_into folded
  /// into zero).
  Payload materialize(NativeIndex a, NativeIndex b, OpCounters& ops) const;

  /// Least-occurring native x' with x' ∼ x, occurrences(x') <
  /// occurrence_limit, and excluded.test(x') == false (excluded is the
  /// packet being refined, which always contains x itself). Returns nullopt
  /// when no such native exists. Logically const: only refreshes stale
  /// heap entries.
  std::optional<NativeIndex> pick_substitute(
      NativeIndex x, const std::vector<std::uint64_t>& occurrences,
      const BitVector& excluded, std::uint64_t occurrence_limit,
      OpCounters& ops) const;

  /// Number of live members in x's component (decoded component included).
  std::size_t component_size(NativeIndex x) const;

  /// Members of x's component, for tests (O(k) scan).
  std::vector<NativeIndex> members_of(NativeIndex x) const;

 private:
  /// 8 bytes: the occurrence count is kept as a 32-bit key, saturated at
  /// kMaxKey. Below that every comparison — and hence the heap-operation
  /// sequence — is the one full 64-bit counts would give; at and above it
  /// counts tie, and the stale-entry test stays exact in key space.
  struct HeapEntry {
    std::uint32_t occurrences;
    NativeIndex native;
  };
  static constexpr std::uint32_t kMaxKey = UINT32_MAX;
  static std::uint32_t heap_key(std::uint64_t occurrences) {
    return occurrences < kMaxKey ? static_cast<std::uint32_t>(occurrences)
                                 : kMaxKey;
  }
  /// Binary min-heap over HeapEntry ordered by occurrence count.
  using Heap = std::vector<HeapEntry>;

  static void heap_push(Heap& heap, HeapEntry e);
  static HeapEntry heap_pop(Heap& heap);

  /// Root of x's tree. Compresses the path in place: every node on it is
  /// re-parented onto the root with its edge payload made relative to it.
  NativeIndex find(NativeIndex x, OpCounters& ops) const;

  Heap& heap_for_leader(std::uint32_t leader) const;

  std::size_t k_;
  std::size_t payload_bytes_;
  DecodedLookup decoded_value_;

  std::vector<std::uint32_t> leader_;  ///< 0 = decoded, else root + 1
  std::vector<std::uint32_t> size_;    ///< live member count, valid at roots
  std::vector<std::uint32_t> undecoded_;  ///< undecoded members, at roots
  std::vector<NativeIndex> next_member_;  ///< circular member list per tree
  // The spanning forest and the per-component heaps are amortisation
  // caches: queries reorganise them (path compression, lazy heap refresh)
  // without changing any observable state, hence mutable.
  mutable std::vector<std::int32_t> parent_;   ///< forest; −1 at roots
  mutable std::vector<Payload> edge_payload_;  ///< payload of (x ⊕ parent[x])
  mutable std::vector<Heap> heaps_;            ///< per root native
  mutable Heap decoded_heap_;                  ///< component 0
  mutable std::vector<NativeIndex> chain_scratch_;  ///< find() path
  mutable Heap parked_scratch_;  ///< pick_substitute exclusion parking
  mutable PayloadFold fold_scratch_;  ///< add_edge / materialize sums
  std::size_t decoded_size_ = 0;
};

}  // namespace ltnc::core
