// LtncCodec — the complete per-node LTNC coding state (paper §III).
//
// Composes the belief-propagation decoder with the recoding machinery:
//   receive  — reduce by decoded natives, run Algorithm 3's redundancy
//              veto for degrees ≤ 3, then decode or store (mirroring the
//              packet into the degree index, coverage tracker, connected
//              components and degree-3 availability set);
//   recode   — pick a Robust-Soliton degree (§III-B.1), build greedily
//              (Algorithm 1), refine (Algorithm 2), record occurrences;
//   feedback — would_reject() implements the binary feedback channel;
//              recode_for() uses the receiver's cc for smart construction
//              (§III-C.2) when a full feedback channel exists.
//
// All the in-text statistics of the paper are exposed via stats().
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

#include "common/coded_packet.hpp"
#include "common/op_counters.hpp"
#include "common/rng.hpp"
#include "core/builder.hpp"
#include "core/components.hpp"
#include "core/coverage.hpp"
#include "core/degree_index.hpp"
#include "core/degree_picker.hpp"
#include "core/occurrences.hpp"
#include "core/redundancy.hpp"
#include "core/refiner.hpp"
#include "core/smart_constructor.hpp"
#include "lt/bp_decoder.hpp"
#include "lt/soliton.hpp"

namespace ltnc::core {

struct LtncConfig {
  std::size_t k = 0;
  std::size_t payload_bytes = 0;
  lt::RobustSolitonParams soliton{};
  /// §III-C.1 redundancy detection (ablation switch; paper: −31 % redundant
  /// insertions when on).
  bool enable_redundancy_detection = true;
  /// §III-B.3 refinement (ablation switch).
  bool enable_refinement = true;
  /// §III-B.1 reachability bounds (ablation switch).
  bool enable_reachability_bounds = true;
};

struct LtncStats {
  // receive path
  std::uint64_t receives = 0;
  std::uint64_t duplicates = 0;           ///< reduced to zero on arrival
  std::uint64_t redundant_rejected = 0;   ///< Algorithm 3 veto on arrival
  std::uint64_t decoded_on_arrival = 0;   ///< reduced to degree 1
  std::uint64_t stored = 0;
  std::uint64_t dropped_during_decode = 0;  ///< Algorithm 3 on degree drop
  // recode path
  std::uint64_t recodes = 0;
  std::uint64_t recode_failures = 0;
  std::uint64_t smart_degree1 = 0;
  std::uint64_t smart_degree2 = 0;
  std::uint64_t substitutions = 0;
};

class LtncCodec final : private lt::StoreObserver {
 public:
  explicit LtncCodec(const LtncConfig& config);

  LtncCodec(const LtncCodec&) = delete;
  LtncCodec& operator=(const LtncCodec&) = delete;

  std::size_t k() const { return cfg_.k; }
  std::size_t payload_bytes() const { return cfg_.payload_bytes; }

  // -- receiving ---------------------------------------------------------
  lt::ReceiveResult receive(const CodedPacket& packet);

  /// Binary feedback: would this advertised code vector be refused?
  /// (Duplicate of everything decoded, or detectably redundant.) Pure
  /// control-plane — no payload needed. Charged to decode ops.
  bool would_reject(const BitVector& coeffs) const;

  // -- recoding ----------------------------------------------------------
  /// Produces a fresh encoded packet (§III-B). Returns nullopt when the
  /// node holds nothing usable.
  std::optional<CodedPacket> recode(Rng& rng);

  /// Full-feedback variant: when the drawn degree is 1 or 2, construct a
  /// guaranteed-innovative packet from the receiver's cc (Algorithm 4),
  /// falling back to plain recoding.
  std::optional<CodedPacket> recode_for(
      const std::vector<std::uint32_t>& receiver_cc, Rng& rng);

  // -- decoding state ------------------------------------------------------
  std::size_t decoded_count() const { return decoder_.decoded_count(); }
  bool complete() const { return decoder_.complete(); }
  bool is_decoded(NativeIndex i) const { return decoder_.is_decoded(i); }
  const Payload& native_payload(NativeIndex i) const {
    return decoder_.native_payload(i);
  }
  std::size_t stored_count() const { return decoder_.stored_count(); }

  /// The node's cc leader array — what it ships over a full feedback
  /// channel (§III-C.2).
  const std::vector<std::uint32_t>& component_leaders() const {
    return components_.leaders();
  }

  // -- introspection -------------------------------------------------------
  const LtncStats& stats() const { return stats_; }
  const DegreePickStats& degree_stats() const { return picker_.stats(); }
  const BuildStats& build_stats() const { return builder_.stats(); }
  const RedundancyDetector& redundancy() const { return redundancy_; }
  const OccurrenceTracker& occurrences() const { return occurrences_; }
  const ComponentTracker& components() const { return components_; }
  const lt::BpDecoder& decoder() const { return decoder_; }

  /// Control/data operations charged to decoding (receive + BP).
  const OpCounters& decode_ops() const { return decoder_.ops(); }
  /// Control/data operations charged to recoding (pick/build/refine).
  const OpCounters& recode_ops() const { return recode_ops_; }

 private:
  // StoreObserver interface (BpDecoder callbacks).
  bool should_drop(PacketId id, const BitVector& coeffs,
                   std::size_t degree) override;
  void on_stored(PacketId id, const BitVector& coeffs,
                 std::size_t degree) override;
  void on_degree_changed(PacketId id, const BitVector& coeffs,
                         std::size_t old_degree,
                         std::size_t new_degree) override;
  void on_removed(PacketId id, const BitVector& coeffs,
                  std::size_t degree) override;
  void on_native_decoded(NativeIndex index) override;

  void maybe_merge_components(PacketId id, const BitVector& coeffs,
                              std::size_t degree);

  LtncConfig cfg_;
  lt::RobustSoliton soliton_;
  lt::BpDecoder decoder_;
  DegreeIndex index_;
  CoverageTracker coverage_;
  ComponentTracker components_;
  OccurrenceTracker occurrences_;
  RedundancyDetector redundancy_;
  DegreePicker picker_;
  PacketBuilder builder_;
  Refiner refiner_;
  SmartConstructor smart_;
  OpCounters recode_ops_;
  LtncStats stats_;
  PayloadFold recode_payload_;  ///< build + refine sources, folded once
};

}  // namespace ltnc::core
