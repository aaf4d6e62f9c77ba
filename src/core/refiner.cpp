#include "core/refiner.hpp"

#include <vector>

namespace ltnc::core {

Refiner::Refiner(const ComponentTracker& components,
                 const OccurrenceTracker& occurrences)
    : components_(components), occurrences_(occurrences) {}

std::size_t Refiner::refine(CodedPacket& z, PayloadFold& payload,
                            OpCounters& ops) {
  // Iterate the natives of the packet as built; substituted-in natives are
  // not revisited (Algorithm 2 walks "each x ∈ z").
  std::vector<NativeIndex>& original = original_scratch_;
  original.clear();
  z.coeffs.for_each_set(
      [&](std::size_t i) { original.push_back(static_cast<NativeIndex>(i)); });

  std::size_t substitutions = 0;
  for (const NativeIndex x : original) {
    ops.control_steps += 1;
    const auto candidate = components_.pick_substitute(
        x, occurrences_.counts(), z.coeffs, occurrences_.count(x), ops);
    if (!candidate.has_value()) continue;
    // z' ← z' ⊕ (x ⊕ x'): drops x, introduces the rarer x'.
    components_.materialize_into(payload, x, *candidate, ops);
    z.coeffs.flip(x);
    z.coeffs.flip(*candidate);
    ops.control_word_ops += 2;
    ++substitutions;
  }
  substitutions_total_ += substitutions;
  return substitutions;
}

}  // namespace ltnc::core
