#include "lt/bp_decoder.hpp"

#include <algorithm>
#include <utility>

#include "common/check.hpp"

namespace ltnc::lt {

BpDecoder::BpDecoder(std::size_t k, std::size_t payload_bytes,
                     StoreObserver* observer)
    : k_(k),
      payload_bytes_(payload_bytes),
      observer_(observer),
      decoded_mask_(k),
      decoded_values_(k, Payload(0)),
      adjacency_(k) {
  LTNC_CHECK_MSG(k > 0, "code length must be positive");
}

const Payload& BpDecoder::native_payload(NativeIndex i) const {
  LTNC_CHECK_MSG(i < k_, "native index out of range");
  LTNC_CHECK_MSG(decoded_mask_.test(i), "native not decoded");
  return decoded_values_[i];
}

const BitVector& BpDecoder::packet_coeffs(PacketId id) const {
  LTNC_CHECK_MSG(packet_alive(id), "dead packet id");
  return slots_[id].coeffs;
}

const Payload& BpDecoder::packet_payload(PacketId id) const {
  LTNC_CHECK_MSG(packet_alive(id), "dead packet id");
  Slot& slot = slots_[id];
  sync_payload(slot);
  return slot.payload;
}

std::size_t BpDecoder::packet_degree(PacketId id) const {
  LTNC_CHECK_MSG(packet_alive(id), "dead packet id");
  return slots_[id].degree;
}

void BpDecoder::reduce_by_decoded(BitVector& coeffs) {
  // XOR out every decoded native appearing in the vector. Equivalent to
  // the paper's rule that a decoded native is immediately propagated into
  // arriving packets; the payload side is left to the caller, which folds
  // reduce_natives_ only if the packet is kept.
  reduce_natives_.clear();
  coeffs.for_each_set([&](std::size_t i) {
    ops_.control_steps += 1;
    if (decoded_mask_.test(i)) {
      coeffs.flip(i);
      reduce_natives_.push_back(static_cast<NativeIndex>(i));
    }
  });
}

void BpDecoder::fold_natives(Payload& payload, const NativeIndex* natives,
                             std::size_t count) const {
  if (count == 0) return;
  for (std::size_t s = 0; s < count; ++s) {
    fold_.add(decoded_values_[natives[s]]);
  }
  ops_.data_word_ops += fold_.apply(payload);
}

void BpDecoder::sync_payload(Slot& slot) const {
  fold_natives(slot.payload, slot.pending, slot.pending_count);
  slot.pending_count = 0;
}

bool BpDecoder::folds_to_zero(const Slot& slot, NativeIndex also) const {
  Payload sum = slot.payload;
  sum.xor_with(decoded_values_[also]);
  for (std::size_t p = 0; p < slot.pending_count; ++p) {
    sum.xor_with(decoded_values_[slot.pending[p]]);
  }
  return sum.is_zero();
}

void BpDecoder::defer_native(Slot& slot, NativeIndex i) {
  if (slot.pending_count < kMaxPending) {
    slot.pending[slot.pending_count++] = i;
    return;
  }
  // Queue full: fold it and i in one pass.
  NativeIndex natives[kMaxPending + 1];
  std::copy(slot.pending, slot.pending + kMaxPending, natives);
  natives[kMaxPending] = i;
  fold_natives(slot.payload, natives, kMaxPending + 1);
  slot.pending_count = 0;
}

ReceiveResult BpDecoder::receive(const CodedPacket& packet) {
  LTNC_CHECK_MSG(packet.coeffs.size() == k_, "code vector width mismatch");
  LTNC_CHECK_MSG(packet.payload.size_bytes() == payload_bytes_,
                 "payload size mismatch");
  ++ops_.invocations;

  BitVector coeffs = packet.coeffs;
  ops_.control_word_ops += coeffs.word_count();  // header copy/scan
  reduce_by_decoded(coeffs);

  const std::size_t degree = coeffs.popcount();
  ops_.control_word_ops += coeffs.word_count();
  if (degree == 0) return ReceiveResult::kDuplicate;

  if (degree >= 2 && degree <= 3 && observer_ != nullptr &&
      observer_->should_drop(kInvalidPacket, coeffs, degree)) {
    return ReceiveResult::kRejectedRedundant;
  }

  if (degree == 1) {
    Payload value = packet.payload;
    fold_natives(value, reduce_natives_.data(), reduce_natives_.size());
    decode_native(static_cast<NativeIndex>(coeffs.first_set()),
                  std::move(value));
    process_ripple();
    return ReceiveResult::kDecodedNative;
  }

  // Store the packet in the Tanner graph.
  PacketId id;
  if (!free_list_.empty()) {
    id = free_list_.back();
    free_list_.pop_back();
  } else {
    id = static_cast<PacketId>(slots_.size());
    slots_.emplace_back();
  }
  Slot& slot = slots_[id];
  slot.coeffs = std::move(coeffs);
  slot.payload = packet.payload;
  slot.degree = static_cast<std::uint32_t>(degree);
  slot.alive = true;
  slot.pending_count = 0;
  if (reduce_natives_.size() <= kMaxPending) {
    for (const NativeIndex i : reduce_natives_) {
      slot.pending[slot.pending_count++] = i;
    }
  } else {
    fold_natives(slot.payload, reduce_natives_.data(),
                 reduce_natives_.size());
  }
  ++stored_count_;
  slot.coeffs.for_each_set([&](std::size_t i) {
    adjacency_[i].push_back(id);
    ops_.control_steps += 1;
  });
  if (observer_ != nullptr) observer_->on_stored(id, slot.coeffs, degree);
  return ReceiveResult::kStored;
}

void BpDecoder::decode_native(NativeIndex i, Payload value) {
  LTNC_CHECK_MSG(!decoded_mask_.test(i), "native decoded twice");
  decoded_mask_.set(i);
  decoded_values_[i] = std::move(value);
  decoded_order_.push_back(i);
  if (observer_ != nullptr) observer_->on_native_decoded(i);

  // Propagate the decoded value along the native's edges. The snapshot
  // buffer is a reusable member (decode_native never re-enters itself —
  // ripples are deferred to process_ripple), swapped rather than copied so
  // steady-state decoding touches the allocator not at all.
  std::vector<PacketId>& edges = edges_scratch_;
  edges.clear();
  edges.swap(adjacency_[i]);
  for (PacketId id : edges) {
    ops_.control_steps += 1;
    if (!packet_alive(id)) continue;  // stale adjacency entry
    Slot& slot = slots_[id];
    if (!slot.coeffs.test(i)) continue;

    const std::size_t old_degree = slot.degree;
    slot.coeffs.flip(i);
    slot.degree = static_cast<std::uint32_t>(old_degree - 1);

    if (slot.degree == 0) {
      // Fully absorbed: the packet was dependent on decoded natives, so
      // its payload with i and the queue folded in is zero — and is
      // never computed.
      LTNC_DCHECK(folds_to_zero(slot, i));
      retire_slot(id, old_degree);
      continue;
    }
    // §III-C.1: re-test redundancy when a packet's degree drops into the
    // detectable range — dropping it now avoids useless XORs later.
    if (slot.degree >= 2 && slot.degree <= 3 && observer_ != nullptr &&
        observer_->should_drop(id, slot.coeffs, slot.degree)) {
      retire_slot(id, old_degree);
      continue;
    }
    defer_native(slot, i);
    if (observer_ != nullptr) {
      observer_->on_degree_changed(id, slot.coeffs, old_degree, slot.degree);
    }
    if (slot.degree == 1) ripple_.push_back(id);
  }
}

void BpDecoder::process_ripple() {
  while (!ripple_.empty()) {
    const PacketId id = ripple_.back();
    ripple_.pop_back();
    ops_.control_steps += 1;
    if (!packet_alive(id) || slots_[id].degree != 1) continue;
    Slot& slot = slots_[id];
    const std::size_t i = slot.coeffs.first_set();
    LTNC_DCHECK(i != BitVector::npos);
    const bool fresh = !decoded_mask_.test(i);
    Payload value;
    if (fresh) {
      sync_payload(slot);
      value = std::move(slot.payload);
    }
    retire_slot(id, 1);
    if (fresh) decode_native(static_cast<NativeIndex>(i), std::move(value));
  }
}

void BpDecoder::remove_packet(PacketId id) {
  LTNC_CHECK_MSG(packet_alive(id), "dead packet id");
  retire_slot(id, slots_[id].degree);
}

void BpDecoder::retire_slot(PacketId id, std::size_t registered_degree) {
  Slot& slot = slots_[id];
  slot.alive = false;  // invisible to traversals from observer callbacks
  --stored_count_;
  if (observer_ != nullptr) {
    observer_->on_removed(id, slot.coeffs, registered_degree);
  }
  slot.degree = 0;
  slot.pending_count = 0;
  slot.coeffs = BitVector();
  slot.payload = Payload();
  free_list_.push_back(id);
}

}  // namespace ltnc::lt
