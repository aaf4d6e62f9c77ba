#include "core/generations.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "common/rng.hpp"
#include "lt/lt_encoder.hpp"
#include "wire/codec.hpp"

namespace ltnc::core {
namespace {

constexpr std::size_t kM = 16;

GenerationConfig config(std::size_t total, std::size_t gens) {
  GenerationConfig cfg;
  cfg.total_blocks = total;
  cfg.generations = gens;
  cfg.payload_bytes = kM;
  return cfg;
}

// A per-generation source: LT encoders over each generation's slice of the
// content (what an Avalanche-style seed does).
struct GenSource {
  std::vector<lt::LtEncoder> encoders;
  std::size_t per_gen;

  GenSource(std::size_t total, std::size_t gens, std::uint64_t seed)
      : per_gen(total / gens) {
    const auto all = lt::make_native_payloads(total, kM, seed);
    for (std::size_t g = 0; g < gens; ++g) {
      std::vector<Payload> slice(all.begin() + g * per_gen,
                                 all.begin() + (g + 1) * per_gen);
      encoders.emplace_back(std::move(slice));
    }
  }

  GenerationPacket next(Rng& rng) {
    const auto g = static_cast<std::uint32_t>(rng.uniform(encoders.size()));
    return GenerationPacket{g, encoders[g].encode(rng)};
  }
};

TEST(GenerationedLtnc, ValidatesConfig) {
  EXPECT_THROW(GenerationedLtnc(config(16, 0)), std::logic_error);
  EXPECT_THROW(GenerationedLtnc(config(16, 5)), std::logic_error);  // 5 ∤ 16
  EXPECT_THROW(GenerationedLtnc(config(4, 8)), std::logic_error);
  EXPECT_NO_THROW(GenerationedLtnc(config(16, 4)));
}

TEST(GenerationedLtnc, RejectsBadGenerationIds) {
  GenerationedLtnc codec(config(16, 4));
  EXPECT_THROW(codec.would_reject(4, BitVector(4)), std::logic_error);
  GenerationPacket pkt{9, CodedPacket{BitVector(4), Payload(kM)}};
  EXPECT_THROW(codec.receive(pkt), std::logic_error);
}

TEST(GenerationedLtnc, DecodesAllGenerations) {
  constexpr std::size_t kTotal = 64;
  constexpr std::size_t kGens = 4;
  const auto natives = lt::make_native_payloads(kTotal, kM, 9);
  GenSource source(kTotal, kGens, 9);
  GenerationedLtnc codec(config(kTotal, kGens));
  Rng rng(10);
  std::size_t received = 0;
  while (!codec.complete() && received < 30 * kTotal) {
    codec.receive(source.next(rng));
    ++received;
  }
  ASSERT_TRUE(codec.complete());
  EXPECT_EQ(codec.decoded_count(), kTotal);
  for (std::size_t i = 0; i < kTotal; ++i) {
    EXPECT_EQ(codec.block_payload(i), natives[i]) << "block " << i;
  }
}

TEST(GenerationedLtnc, RecodedTrafficDisseminates) {
  // seed → relay → sink, all generation-aware; the sink hears only
  // recoded traffic.
  constexpr std::size_t kTotal = 64;
  constexpr std::size_t kGens = 4;
  const auto natives = lt::make_native_payloads(kTotal, kM, 11);
  GenSource source(kTotal, kGens, 11);
  GenerationedLtnc relay(config(kTotal, kGens));
  GenerationedLtnc sink(config(kTotal, kGens));
  Rng rng(12);
  std::size_t steps = 0;
  while (!sink.complete() && steps < 60 * kTotal) {
    ++steps;
    relay.receive(source.next(rng));
    if (auto pkt = relay.recode(rng)) {
      if (!sink.would_reject(pkt->generation, pkt->packet.coeffs)) {
        sink.receive(*pkt);
      }
    }
  }
  ASSERT_TRUE(sink.complete());
  for (std::size_t i = 0; i < kTotal; ++i) {
    ASSERT_EQ(sink.block_payload(i), natives[i]);
  }
}

TEST(GenerationedLtnc, RecodePrefersStarvedGenerations) {
  constexpr std::size_t kTotal = 32;
  constexpr std::size_t kGens = 4;
  GenSource source(kTotal, kGens, 13);
  GenerationedLtnc codec(config(kTotal, kGens));
  Rng rng(14);
  // Fill only generation 2.
  while (codec.codec(2).decoded_count() + codec.codec(2).stored_count() <
         4) {
    GenerationPacket pkt{2, source.encoders[2].encode(rng)};
    codec.receive(pkt);
  }
  for (int i = 0; i < 20; ++i) {
    const auto pkt = codec.recode(rng);
    ASSERT_TRUE(pkt.has_value());
    EXPECT_EQ(pkt->generation, 2u);  // the only non-empty generation
  }
}

TEST(GenerationedLtnc, EmptyRecodeFails) {
  GenerationedLtnc codec(config(16, 2));
  Rng rng(15);
  EXPECT_FALSE(codec.recode(rng).has_value());
}

TEST(GenerationedLtnc, HeaderShrinksWithGenerations) {
  // The point of generations: a K = 1024 content carries 128-byte dense
  // code vectors monolithically but only 16-byte vectors with G = 8. The
  // sizes come from the wire codec (never from separate arithmetic), so
  // compare against it and check the dense-bitmap relation at a realistic
  // degree where the adaptive encoder picks the bitmap.
  const std::size_t degree = 600;  // past the sparse/dense crossover
  std::vector<std::size_t> mono_idx, gen_idx;
  for (std::size_t i = 0; i < degree; ++i) mono_idx.push_back(i);
  for (std::size_t i = 0; i < 100; ++i) gen_idx.push_back(i);
  GenerationPacket mono{
      0, CodedPacket{BitVector::from_indices(1024, mono_idx), Payload(0)}};
  GenerationPacket gen{
      0, CodedPacket{BitVector::from_indices(128, gen_idx), Payload(0)}};
  EXPECT_EQ(mono.wire_bytes(),
            wire::serialized_size_generation(ContentId{0}, 0, mono.packet));
  EXPECT_EQ(gen.wire_bytes(),
            wire::serialized_size_generation(ContentId{0}, 0, gen.packet));
  // Both vectors are dense here, so the 128-byte vs 16-byte gap survives
  // framing: the generation packet is ~112 bytes smaller.
  EXPECT_EQ(mono.wire_bytes() - gen.wire_bytes(), 128u - 16u);
}

TEST(GenerationedLtnc, ControlCostBelowMonolithic) {
  // Decoding G small generations costs less control work than one big
  // instance at equal total content.
  constexpr std::size_t kTotal = 256;
  Rng rng(16);

  GenSource source(kTotal, 8, 17);
  GenerationedLtnc split(config(kTotal, 8));
  std::size_t guard = 0;
  while (!split.complete() && ++guard < 50 * kTotal) {
    split.receive(source.next(rng));
  }
  ASSERT_TRUE(split.complete());

  lt::LtEncoder mono_src(lt::make_native_payloads(kTotal, kM, 17));
  LtncConfig mono_cfg;
  mono_cfg.k = kTotal;
  mono_cfg.payload_bytes = kM;
  LtncCodec mono(mono_cfg);
  guard = 0;
  while (!mono.complete() && ++guard < 50 * kTotal) {
    mono.receive(mono_src.encode(rng));
  }
  ASSERT_TRUE(mono.complete());

  EXPECT_LT(split.decode_ops().control_word_ops,
            mono.decode_ops().control_word_ops);
}

}  // namespace
}  // namespace ltnc::core
