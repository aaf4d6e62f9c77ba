// Belief-propagation decoder over a Tanner graph (paper §II, Fig. 1).
//
// Encoded packets are nodes on one side of a bipartite graph, natives on
// the other; an edge means the native participates in the packet's XOR.
// Whenever a packet's degree reaches 1 its single remaining native is
// decoded and its value propagated along the native's edges, which may
// ripple further. Decoding cost is O(m·k·log k) — the 99 % saving over
// RLNC's Gaussian reduction that motivates LTNC.
//
// Payload work is deferred: a decoded native is XORed out of a stored
// packet's code vector at once, but only queued against its payload. The
// queue is folded in one batched pass when the payload is read
// (packet_payload, the ripple) or when it fills up, so packets that end up
// duplicate, vetoed or absorbed never pay for payload XORs.
//
// The decoder exposes a StoreObserver so LTNC (src/core) can mirror the
// packet store into its recoding structures (degree index, connected
// components, coverage, redundancy sets) and veto storage of packets its
// redundancy detector recognises (§III-C.1).
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/bitvector.hpp"
#include "common/coded_packet.hpp"
#include "common/op_counters.hpp"
#include "common/payload.hpp"
#include "common/types.hpp"

namespace ltnc::lt {

/// Callbacks fired by BpDecoder as its packet store evolves. All references
/// are valid only for the duration of the call. Default implementations do
/// nothing, so plain-LT users can ignore this entirely. No callback carries
/// a payload: stored payloads are reduced lazily, and an observer that
/// needs one reads it through BpDecoder::packet_payload(), which brings it
/// up to date.
class StoreObserver {
 public:
  virtual ~StoreObserver() = default;

  /// Consulted (a) before storing a freshly received packet (id ==
  /// kInvalidPacket) and (b) when a stored packet's degree drops to
  /// `degree` ∈ [2,3] during decoding. Return true to reject/remove it —
  /// this is where LTNC plugs in Algorithm 3.
  virtual bool should_drop(PacketId id, const BitVector& coeffs,
                           std::size_t degree) {
    (void)id;
    (void)coeffs;
    (void)degree;
    return false;
  }

  /// A packet entered the store with the given (already reduced) degree ≥ 2.
  virtual void on_stored(PacketId id, const BitVector& coeffs,
                         std::size_t degree) {
    (void)id;
    (void)coeffs;
    (void)degree;
  }

  /// A stored packet was reduced from `old_degree` to `new_degree` =
  /// old_degree − 1 (coeffs are the reduced values).
  virtual void on_degree_changed(PacketId id, const BitVector& coeffs,
                                 std::size_t old_degree,
                                 std::size_t new_degree) {
    (void)id;
    (void)coeffs;
    (void)old_degree;
    (void)new_degree;
  }

  /// A stored packet left the store. `degree` is the degree the observer
  /// last saw for it (i.e. the bucket it must be deregistered from).
  virtual void on_removed(PacketId id, const BitVector& coeffs,
                          std::size_t degree) {
    (void)id;
    (void)coeffs;
    (void)degree;
  }

  /// Native `index` was decoded (its value is native_payload(index)).
  virtual void on_native_decoded(NativeIndex index) { (void)index; }
};

enum class ReceiveResult {
  kDuplicate,          ///< reduced to zero by already-decoded natives
  kRejectedRedundant,  ///< vetoed by the observer's redundancy detector
  kDecodedNative,      ///< reduced to degree 1: decoded (and rippled)
  kStored,             ///< stored in the Tanner graph at degree ≥ 2
};

class BpDecoder {
 public:
  BpDecoder(std::size_t k, std::size_t payload_bytes,
            StoreObserver* observer = nullptr);

  std::size_t k() const { return k_; }
  std::size_t payload_bytes() const { return payload_bytes_; }

  /// Processes one incoming packet: reduce by decoded natives, consult the
  /// observer's redundancy veto (degree ≤ 3), then store or decode+ripple.
  ReceiveResult receive(const CodedPacket& packet);

  std::size_t decoded_count() const { return decoded_order_.size(); }
  bool complete() const { return decoded_count() == k_; }
  bool is_decoded(NativeIndex i) const { return decoded_mask_.test(i); }
  const Payload& native_payload(NativeIndex i) const;
  /// Natives in the order they were decoded.
  const std::vector<NativeIndex>& decoded_order() const {
    return decoded_order_;
  }
  /// Bitmask of decoded natives (used to pre-reduce advertised vectors).
  const BitVector& decoded_mask() const { return decoded_mask_; }

  /// Degree an advertised code vector would have after stripping decoded
  /// natives — the control-only evaluation a feedback channel performs.
  std::size_t residual_degree(const BitVector& coeffs) const {
    return coeffs.popcount_and_not(decoded_mask_);
  }

  // --- Packet-store introspection (for the LTNC recoding structures) ---
  std::size_t stored_count() const { return stored_count_; }
  bool packet_alive(PacketId id) const {
    return id < slots_.size() && slots_[id].alive;
  }
  const BitVector& packet_coeffs(PacketId id) const;
  /// The packet's payload, first folding in the decoded natives still
  /// queued against it (logically const; the fold is charged to ops()).
  const Payload& packet_payload(PacketId id) const;
  std::size_t packet_degree(PacketId id) const;

  /// Invokes fn(PacketId) once for every live stored packet containing
  /// native x. The adjacency list keeps the ids of retired slots, so a
  /// reused id can appear twice; a bitmap over slot ids skips the repeat.
  template <typename Fn>
  void for_each_packet_containing(NativeIndex x, Fn&& fn) const {
    visit_bits_.resize((slots_.size() + 63) / 64, 0);
    for (PacketId id : adjacency_[x]) {
      std::uint64_t& word = visit_bits_[id / 64];
      const std::uint64_t bit = std::uint64_t{1} << (id % 64);
      if ((word & bit) == 0 && packet_alive(id) && slots_[id].coeffs.test(x)) {
        word |= bit;
        fn(id);
      }
    }
    for (PacketId id : adjacency_[x]) visit_bits_[id / 64] = 0;
  }

  /// Invokes fn(PacketId) for every live stored packet.
  template <typename Fn>
  void for_each_packet(Fn&& fn) const {
    for (PacketId id = 0; id < slots_.size(); ++id) {
      if (slots_[id].alive) fn(id);
    }
  }

  /// Removes a stored packet (external policy decision, e.g. ablations).
  void remove_packet(PacketId id);

  const OpCounters& ops() const { return ops_; }
  OpCounters& mutable_ops() { return ops_; }

  /// Decoded natives a stored payload may lag behind before it is folded
  /// (what fits the slot's 64 bytes).
  static constexpr std::size_t kMaxPending = 2;

 private:
  struct Slot {
    BitVector coeffs;
    /// XOR of the natives in coeffs and in pending[0..pending_count).
    Payload payload;
    std::uint32_t degree = 0;
    bool alive = false;
    std::uint8_t pending_count = 0;
    NativeIndex pending[kMaxPending];
  };

  /// Clears the decoded natives out of coeffs, collecting them in
  /// reduce_natives_; charges control ops.
  void reduce_by_decoded(BitVector& coeffs);
  /// payload ^= the decoded values of natives[0..count); charges ops.
  void fold_natives(Payload& payload, const NativeIndex* natives,
                    std::size_t count) const;
  /// Folds slot's pending natives into its payload.
  void sync_payload(Slot& slot) const;
  /// Debug check: slot's payload with its queue and native `also` folded
  /// in is zero (no ops charged, so counters do not depend on the build
  /// type).
  bool folds_to_zero(const Slot& slot, NativeIndex also) const;
  /// Queues decoded native i against slot's payload; a full queue is
  /// folded together with i instead.
  void defer_native(Slot& slot, NativeIndex i);
  /// Marks native decoded, notifies, reduces every packet containing it.
  void decode_native(NativeIndex i, Payload value);
  /// Drains the ripple queue (degree-1 packets) to a fixpoint.
  void process_ripple();
  /// Removes a packet: marks it dead first (so observer callbacks never see
  /// it as live), fires on_removed with `registered_degree` — the degree
  /// the observer last saw for it — then recycles the slot.
  void retire_slot(PacketId id, std::size_t registered_degree);

  std::size_t k_;
  std::size_t payload_bytes_;
  StoreObserver* observer_;  ///< not owned; may be null

  BitVector decoded_mask_;
  std::vector<Payload> decoded_values_;
  std::vector<NativeIndex> decoded_order_;

  // Mutable: packet_payload() folds queued natives into a slot's payload.
  mutable std::vector<Slot> slots_;
  /// for_each_packet_containing's visited set, one bit per slot id; all
  /// zero between calls.
  mutable std::vector<std::uint64_t> visit_bits_;
  std::vector<PacketId> free_list_;
  std::size_t stored_count_ = 0;
  std::vector<std::vector<PacketId>> adjacency_;  ///< native -> packet ids
  std::vector<PacketId> ripple_;

  // Reusable scratch: decoded natives stripped from an arrival, the
  // decoded values being folded into a payload and the edge snapshot
  // taken while propagating a decoded native.
  std::vector<NativeIndex> reduce_natives_;
  mutable PayloadFold fold_;
  std::vector<PacketId> edges_scratch_;

  mutable OpCounters ops_;
};

}  // namespace ltnc::lt
