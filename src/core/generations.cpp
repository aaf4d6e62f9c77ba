#include "core/generations.hpp"

#include "common/check.hpp"
#include "wire/codec.hpp"

namespace ltnc::core {

std::size_t GenerationPacket::wire_bytes() const {
  return wire::serialized_size_generation(ContentId{0}, generation, packet);
}

}  // namespace ltnc::core

namespace ltnc::core {

GenerationedLtnc::GenerationedLtnc(const GenerationConfig& config)
    : cfg_(config),
      per_gen_(config.generations == 0
                   ? 0
                   : config.total_blocks / config.generations) {
  LTNC_CHECK_MSG(config.generations >= 1, "need at least one generation");
  LTNC_CHECK_MSG(config.total_blocks >= config.generations,
                 "more generations than blocks");
  LTNC_CHECK_MSG(config.total_blocks % config.generations == 0,
                 "generations must divide the block count evenly");
  codecs_.reserve(config.generations);
  for (std::size_t g = 0; g < config.generations; ++g) {
    LtncConfig ltnc = config.ltnc;
    ltnc.k = per_gen_;
    ltnc.payload_bytes = config.payload_bytes;
    codecs_.push_back(std::make_unique<LtncCodec>(ltnc));
  }
}

lt::ReceiveResult GenerationedLtnc::receive(const GenerationPacket& packet) {
  LTNC_CHECK_MSG(packet.generation < codecs_.size(),
                 "generation id out of range");
  return codecs_[packet.generation]->receive(packet.packet);
}

bool GenerationedLtnc::would_reject(std::uint32_t generation,
                                    const BitVector& coeffs) const {
  LTNC_CHECK_MSG(generation < codecs_.size(), "generation id out of range");
  return codecs_[generation]->would_reject(coeffs);
}

std::uint32_t GenerationedLtnc::pick_generation(Rng& rng) const {
  // Prefer the generation where this node holds the least material (it is
  // the one most starved of fresh traffic); random tie-breaking keeps the
  // swarm from synchronising on one generation. Generations with nothing
  // to recode from are skipped.
  std::uint32_t best = static_cast<std::uint32_t>(codecs_.size());
  std::size_t best_held = 0;
  std::size_t ties = 1;
  for (std::uint32_t g = 0; g < codecs_.size(); ++g) {
    const auto& codec = *codecs_[g];
    const std::size_t held = codec.decoded_count() + codec.stored_count();
    if (held == 0) continue;
    if (best == codecs_.size() || held < best_held) {
      best = g;
      best_held = held;
      ties = 1;
    } else if (held == best_held && rng.uniform(++ties) == 0) {
      best = g;
    }
  }
  return best;
}

std::optional<GenerationPacket> GenerationedLtnc::recode(Rng& rng) {
  const std::uint32_t g = pick_generation(rng);
  if (g >= codecs_.size()) return std::nullopt;
  auto packet = codecs_[g]->recode(rng);
  if (!packet.has_value()) return std::nullopt;
  return GenerationPacket{g, std::move(*packet)};
}

std::size_t GenerationedLtnc::decoded_count() const {
  std::size_t n = 0;
  for (const auto& codec : codecs_) n += codec->decoded_count();
  return n;
}

bool GenerationedLtnc::complete() const {
  for (const auto& codec : codecs_) {
    if (!codec->complete()) return false;
  }
  return true;
}

const Payload& GenerationedLtnc::block_payload(std::size_t index) const {
  LTNC_CHECK_MSG(index < cfg_.total_blocks, "block index out of range");
  return codecs_[index / per_gen_]->native_payload(
      static_cast<NativeIndex>(index % per_gen_));
}

OpCounters GenerationedLtnc::decode_ops() const {
  OpCounters total;
  for (const auto& codec : codecs_) total += codec->decode_ops();
  return total;
}

OpCounters GenerationedLtnc::recode_ops() const {
  OpCounters total;
  for (const auto& codec : codecs_) total += codec->recode_ops();
  return total;
}

}  // namespace ltnc::core
