// Refining an encoded packet (paper §III-B.3, Algorithm 2).
//
// After building, the packet's natives may be over-represented in the
// node's sending history, which skews the native-degree distribution away
// from the Dirac that belief propagation needs. Refinement walks the
// packet's natives and substitutes each with the least-frequent equivalent
// native (x ∼ x', i.e. x ⊕ x' is generable from degree-≤2 holdings) that is
// strictly less frequent and not already in the packet. Substituting
// (adding x ⊕ x') never changes the packet's degree.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/coded_packet.hpp"
#include "common/op_counters.hpp"
#include "common/types.hpp"
#include "core/components.hpp"
#include "core/occurrences.hpp"

namespace ltnc::core {

class Refiner {
 public:
  Refiner(const ComponentTracker& components, const OccurrenceTracker& occurrences);

  /// Applies Algorithm 2 to z's code vector in place and adds each
  /// substitution's bridge x ⊕ x' to `payload` (the packet's pending
  /// payload sum — see PacketBuilder::build); returns the number of
  /// substitutions performed.
  std::size_t refine(CodedPacket& z, PayloadFold& payload, OpCounters& ops);

  std::uint64_t substitutions_total() const { return substitutions_total_; }

 private:
  const ComponentTracker& components_;
  const OccurrenceTracker& occurrences_;
  std::uint64_t substitutions_total_ = 0;
  std::vector<NativeIndex> original_scratch_;  ///< packet natives as built
};

}  // namespace ltnc::core
