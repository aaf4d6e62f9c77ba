#include "common/payload.hpp"

#include <gtest/gtest.h>

#include <vector>

namespace ltnc {
namespace {

TEST(Payload, StartsZero) {
  const Payload p(40);
  EXPECT_EQ(p.size_bytes(), 40u);
  EXPECT_TRUE(p.is_zero());
}

TEST(Payload, DeterministicIsReproducibleAndDistinct) {
  const Payload a = Payload::deterministic(64, 1, 0);
  const Payload b = Payload::deterministic(64, 1, 0);
  const Payload c = Payload::deterministic(64, 1, 1);
  const Payload d = Payload::deterministic(64, 2, 0);
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
  EXPECT_NE(a, d);
  EXPECT_FALSE(a.is_zero());
}

TEST(Payload, XorRoundTrips) {
  Payload a = Payload::deterministic(48, 3, 5);
  const Payload original = a;
  const Payload b = Payload::deterministic(48, 3, 6);
  a.xor_with(b);
  EXPECT_NE(a, original);
  a.xor_with(b);
  EXPECT_EQ(a, original);
}

TEST(Payload, XorReturnsWordCount) {
  Payload a(64);
  const Payload b(64);
  EXPECT_EQ(a.xor_with(b), 8u);
  Payload c(1);
  const Payload d(1);
  EXPECT_EQ(c.xor_with(d), 1u);
}

TEST(Payload, XorSizeMismatchThrows) {
  Payload a(8);
  const Payload b(16);
  EXPECT_THROW(a.xor_with(b), std::logic_error);
}

TEST(Payload, TailBytesAreMaskedForOddSizes) {
  // Equality must be well defined when size is not a multiple of 8: the
  // trailing word bits beyond size are zeroed.
  const Payload a = Payload::deterministic(13, 9, 2);
  Payload sum = a;
  sum.xor_with(a);
  EXPECT_TRUE(sum.is_zero());
  for (std::size_t i = 13; i < 16; ++i) {
    EXPECT_EQ(a.words()[1] >> ((i - 8) * 8) & 0xff, 0u);
  }
}

TEST(Payload, MatchesDeterministicAgreesWithEquality) {
  for (const std::size_t bytes : {0, 8, 13, 1024}) {
    const Payload p = Payload::deterministic(bytes, 6, 3);
    EXPECT_TRUE(matches_deterministic(p, 6, 3)) << bytes;
    if (bytes == 0) continue;
    EXPECT_FALSE(matches_deterministic(p, 7, 3)) << bytes;
    EXPECT_FALSE(matches_deterministic(p, 6, 4)) << bytes;
  }
}

TEST(Payload, MatchesDeterministicCatchesAFlippedTailBit) {
  // 13 bytes: the second word carries 5 payload bytes; flip the last one.
  Payload p = Payload::deterministic(13, 9, 2);
  ASSERT_TRUE(matches_deterministic(p, 9, 2));
  p.mutable_words()[1] ^= 1ULL << (4 * 8 + 7);
  EXPECT_FALSE(matches_deterministic(p, 9, 2));
  // Same at a whole-word size: the very last bit of the last word.
  Payload q = Payload::deterministic(1024, 9, 2);
  q.mutable_words()[127] ^= 1ULL << 63;
  EXPECT_FALSE(matches_deterministic(q, 9, 2));
}

TEST(Payload, FoldEqualsSequentialXor) {
  std::vector<Payload> sources;
  for (std::size_t i = 0; i < 70; ++i) {
    sources.push_back(Payload::deterministic(40, 5, i));
  }
  Payload expected = Payload::deterministic(40, 6, 0);
  Payload folded = expected;
  PayloadFold fold;
  for (const Payload& s : sources) {
    expected.xor_with(s);
    fold.add(s);
  }
  fold.add(sources[3]);  // a repeated source cancels, as in GF(2)
  expected.xor_with(sources[3]);
  EXPECT_EQ(fold.apply(folded), 71 * folded.word_count());
  EXPECT_EQ(folded, expected);
  EXPECT_EQ(fold.size(), 0u);  // apply() empties the fold
}

TEST(Payload, ByteAccessor) {
  const Payload a = Payload::deterministic(16, 4, 7);
  // byte() must agree with the packed word representation.
  for (std::size_t i = 0; i < 16; ++i) {
    const std::uint8_t expected =
        static_cast<std::uint8_t>(a.words()[i / 8] >> ((i % 8) * 8));
    EXPECT_EQ(a.byte(i), expected);
  }
}

TEST(Payload, EmptyPayloadWorks) {
  Payload a(0);
  Payload b(0);
  EXPECT_EQ(a.xor_with(b), 0u);
  EXPECT_TRUE(a.is_zero());
  EXPECT_EQ(a, b);
}

}  // namespace
}  // namespace ltnc
