// Wire codec: round-trip identity for every message type (property-tested
// over random dimensions/degrees), adaptive code-vector encoding choice,
// size-function agreement, the strict v1 rejection policy, and the
// uninitialized-growth contract of Frame (every serializer overwrites all
// it exposes; growth keeps the existing prefix).
#include "wire/codec.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <functional>
#include <utility>
#include <vector>

#include "common/bitvector.hpp"
#include "common/coded_packet.hpp"
#include "common/payload.hpp"
#include "common/rng.hpp"
#include "core/generations.hpp"
#include "wire/frame.hpp"

namespace ltnc::wire {
namespace {

BitVector random_coeffs(std::size_t k, std::size_t degree, Rng& rng) {
  BitVector v(k);
  while (v.popcount() < degree) v.set(rng.uniform(k));
  return v;
}

Payload random_payload(std::size_t bytes, Rng& rng) {
  Payload p(bytes);
  for (std::size_t w = 0; w < p.word_count(); ++w) {
    p.mutable_words()[w] = rng.next();
  }
  // Respect the masked-tail invariant for byte sizes that are not a
  // multiple of 8 (same rule as Payload::deterministic).
  const std::size_t tail = bytes % 8;
  if (tail != 0 && p.word_count() != 0) {
    p.mutable_words()[p.word_count() - 1] &= ~0ULL >> ((8 - tail) * 8);
  }
  return p;
}

TEST(WireCodec, CodedPacketRoundTripsAcrossDimensions) {
  Rng rng(101);
  for (const std::size_t k : {1u, 7u, 8u, 63u, 64u, 65u, 200u, 1024u}) {
    for (const std::size_t m : {0u, 1u, 7u, 8u, 64u, 257u}) {
      for (int rep = 0; rep < 8; ++rep) {
        const std::size_t degree = rng.uniform(k + 1);
        const CodedPacket original(random_coeffs(k, degree, rng),
                                   random_payload(m, rng));
        Frame frame;
        serialize(ContentId{0}, original, frame);
        EXPECT_EQ(frame.size(), serialized_size(ContentId{0}, original));
        EXPECT_EQ(frame.size(), original.wire_bytes());

        ContentId content = 0;
        CodedPacket decoded;
        ASSERT_EQ(deserialize(frame.bytes(), content, decoded),
                  DecodeStatus::kOk)
            << "k=" << k << " m=" << m << " degree=" << degree;
        EXPECT_EQ(decoded.coeffs, original.coeffs);
        EXPECT_EQ(decoded.payload, original.payload);
      }
    }
  }
}

TEST(WireCodec, ZeroDegreeAndFullDegreeRoundTrip) {
  Rng rng(102);
  for (const std::size_t k : {1u, 64u, 100u}) {
    BitVector none(k);
    BitVector all(k);
    for (std::size_t i = 0; i < k; ++i) all.set(i);
    for (const BitVector& coeffs : {none, all}) {
      const CodedPacket original(coeffs, random_payload(16, rng));
      Frame frame;
      serialize(ContentId{0}, original, frame);
      ContentId content = 0;
      CodedPacket decoded;
      ASSERT_EQ(deserialize(frame.bytes(), content, decoded),
                DecodeStatus::kOk);
      EXPECT_EQ(decoded.coeffs, original.coeffs);
    }
  }
}

TEST(WireCodec, GenerationPacketRoundTrips) {
  Rng rng(103);
  for (const std::uint32_t generation :
       {0u, 1u, 127u, 128u, 0xFFFFu, 0xFFFFFFFFu}) {
    const CodedPacket original(random_coeffs(96, 5, rng),
                               random_payload(33, rng));
    Frame frame;
    serialize_generation(ContentId{0}, generation, original, frame);
    EXPECT_EQ(frame.size(),
              serialized_size_generation(ContentId{0}, generation, original));

    ContentId content = 0;
    std::uint32_t decoded_gen = 0;
    CodedPacket decoded;
    ASSERT_EQ(
        deserialize_generation(frame.bytes(), content, decoded_gen, decoded),
        DecodeStatus::kOk);
    EXPECT_EQ(decoded_gen, generation);
    EXPECT_EQ(decoded.coeffs, original.coeffs);
    EXPECT_EQ(decoded.payload, original.payload);

    core::GenerationPacket pkt{generation, original};
    EXPECT_EQ(pkt.wire_bytes(), frame.size());
  }
}

TEST(WireCodec, AdvertiseRoundTrips) {
  Rng rng(107);
  for (int rep = 0; rep < 100; ++rep) {
    const std::size_t k = 1 + rng.uniform(600);
    const std::size_t m = rng.uniform(300);
    const BitVector coeffs = random_coeffs(k, rng.uniform(k + 1), rng);
    Frame frame;
    const AdvertiseInfo info{.payload_bytes = m};
    serialize_advertise(info, coeffs, frame);
    EXPECT_EQ(frame.size(), serialized_size_advertise(info, coeffs));

    BitVector decoded;
    AdvertiseInfo decoded_info;
    ASSERT_EQ(deserialize_advertise(frame.bytes(), decoded, decoded_info),
              DecodeStatus::kOk);
    EXPECT_EQ(decoded, coeffs);
    EXPECT_EQ(decoded_info.payload_bytes, m);

    // The identity the session layer's traffic accounting rests on: an
    // advertise is the coded-packet frame minus its payload span, byte
    // for byte.
    const CodedPacket packet(coeffs, Payload(m));
    EXPECT_EQ(frame.size(), serialized_size(ContentId{0}, packet) - m);
    Frame packet_frame;
    serialize(ContentId{0}, packet, packet_frame);
    // Same adaptive coeff encoding chosen, same prefix layout — only the
    // type byte and the missing payload differ.
    EXPECT_EQ(frame.bytes()[2], packet_frame.bytes()[2]);  // flags agree
  }
}

TEST(WireCodec, AdvertiseRejectsTrailingBytes) {
  Frame frame;
  serialize_advertise(AdvertiseInfo{.payload_bytes = 8},
                      BitVector::unit(16, 3), frame);
  const std::uint8_t junk = 0;
  frame.append(&junk, 1);
  BitVector decoded;
  AdvertiseInfo info;
  EXPECT_EQ(deserialize_advertise(frame.bytes(), decoded, info),
            DecodeStatus::kTrailingBytes);
}

TEST(WireCodec, FeedbackRoundTrips) {
  for (const MessageType type : {MessageType::kAbort, MessageType::kAck,
                                 MessageType::kProceed}) {
    for (const std::uint64_t token :
         {std::uint64_t{0}, std::uint64_t{127}, std::uint64_t{128},
          std::uint64_t{1} << 40, ~std::uint64_t{0}}) {
      Frame frame;
      serialize_feedback(ContentId{0}, type, token, frame);
      EXPECT_EQ(frame.size(), serialized_size_feedback(ContentId{0}, token));

      ContentId content = 0;
      MessageType decoded_type{};
      std::uint64_t decoded_token = 0;
      ASSERT_EQ(deserialize_feedback(frame.bytes(), decoded_type,
                                     decoded_token, content),
                DecodeStatus::kOk);
      EXPECT_EQ(decoded_type, type);
      EXPECT_EQ(decoded_token, token);
    }
  }
}

TEST(WireCodec, CcArrayRoundTrips) {
  Rng rng(104);
  for (const std::size_t n : {0u, 1u, 17u, 300u}) {
    std::vector<std::uint32_t> leaders(n);
    for (auto& leader : leaders) {
      leader = static_cast<std::uint32_t>(rng.next());
    }
    Frame frame;
    serialize_cc(ContentId{0}, leaders, frame);
    EXPECT_EQ(frame.size(), serialized_size_cc(leaders));

    ContentId content = 0;
    std::vector<std::uint32_t> decoded;
    ASSERT_EQ(deserialize_cc(frame.bytes(), content, decoded),
              DecodeStatus::kOk);
    EXPECT_EQ(decoded, leaders);
  }
}

TEST(WireCodec, PeekTypeSeesEveryMessage) {
  Frame frame;
  MessageType type{};

  serialize(ContentId{0}, CodedPacket(BitVector(8), Payload(4)), frame);
  ASSERT_EQ(peek_type(frame.bytes(), type), DecodeStatus::kOk);
  EXPECT_EQ(type, MessageType::kCodedPacket);

  serialize_feedback(ContentId{0}, MessageType::kAck, 9, frame);
  ASSERT_EQ(peek_type(frame.bytes(), type), DecodeStatus::kOk);
  EXPECT_EQ(type, MessageType::kAck);

  serialize_cc(ContentId{0}, {}, frame);
  ASSERT_EQ(peek_type(frame.bytes(), type), DecodeStatus::kOk);
  EXPECT_EQ(type, MessageType::kCcArray);
}

// -- v2 content multiplexing ------------------------------------------------

TEST(WireCodec, ContentIdRoundTripsOnEveryType) {
  Rng rng(108);
  for (const ContentId cid : {ContentId{1}, ContentId{42}, ContentId{0x3FFF},
                              ContentId{1} << 40}) {
    const CodedPacket original(random_coeffs(64, 5, rng),
                               random_payload(32, rng));
    Frame frame;
    ContentId decoded_cid = 0;

    serialize(cid, original, frame);
    EXPECT_EQ(frame.size(), serialized_size(cid, original));
    CodedPacket packet;
    ASSERT_EQ(deserialize(frame.bytes(), decoded_cid, packet),
              DecodeStatus::kOk);
    EXPECT_EQ(decoded_cid, cid);
    EXPECT_EQ(packet.coeffs, original.coeffs);

    serialize_generation(cid, 7, original, frame);
    std::uint32_t gen = 0;
    ASSERT_EQ(deserialize_generation(frame.bytes(), decoded_cid, gen, packet),
              DecodeStatus::kOk);
    EXPECT_EQ(decoded_cid, cid);
    EXPECT_EQ(gen, 7u);

    serialize_feedback(cid, MessageType::kProceed, 99, frame);
    MessageType type{};
    std::uint64_t token = 0;
    ASSERT_EQ(deserialize_feedback(frame.bytes(), type, token, decoded_cid),
              DecodeStatus::kOk);
    EXPECT_EQ(decoded_cid, cid);
    EXPECT_EQ(token, 99u);

    std::vector<std::uint32_t> leaders = {1, 2, 3};
    serialize_cc(cid, leaders, frame);
    std::vector<std::uint32_t> decoded_leaders;
    ASSERT_EQ(deserialize_cc(frame.bytes(), decoded_cid, decoded_leaders),
              DecodeStatus::kOk);
    EXPECT_EQ(decoded_cid, cid);
    EXPECT_EQ(decoded_leaders, leaders);
  }
}

TEST(WireCodec, AdvertiseCarriesContentAndGeneration) {
  Rng rng(109);
  const BitVector coeffs = random_coeffs(48, 6, rng);
  AdvertiseInfo info;
  info.content = 321;
  info.has_generation = true;
  info.generation = 5;
  info.payload_bytes = 100;
  Frame frame;
  serialize_advertise(info, coeffs, frame);
  EXPECT_EQ(frame.size(), serialized_size_advertise(info, coeffs));

  BitVector decoded;
  AdvertiseInfo out;
  ASSERT_EQ(deserialize_advertise(frame.bytes(), decoded, out),
            DecodeStatus::kOk);
  EXPECT_EQ(out.content, info.content);
  EXPECT_TRUE(out.has_generation);
  EXPECT_EQ(out.generation, info.generation);
  EXPECT_EQ(out.payload_bytes, info.payload_bytes);
  EXPECT_EQ(decoded, coeffs);
}

TEST(WireCodec, DefaultContentFramesAreByteIdenticalToV1) {
  // The content-id field costs zero bytes for id 0 and the version byte
  // stays 1, so a single-content fleet never pays for multiplexing and
  // old decoders keep reading new senders.
  Rng rng(110);
  const CodedPacket packet(random_coeffs(64, 4, rng), random_payload(16, rng));
  Frame plain;
  Frame with_id;
  serialize(ContentId{0}, packet, plain);
  serialize(ContentId{9}, packet, with_id);
  // The v1 image is the v2 frame without its one-byte id varint: version
  // 1, the same type, the id flag clear, then the same body.
  ASSERT_EQ(plain.size() + 1, with_id.size());
  EXPECT_EQ(plain.bytes()[0], 1u);  // v1 version byte
  EXPECT_EQ(plain.bytes()[1], with_id.bytes()[1]);
  EXPECT_EQ(plain.bytes()[2], with_id.bytes()[2] & ~kFlagContentId);
  EXPECT_TRUE(std::equal(plain.bytes().begin() + 3, plain.bytes().end(),
                         with_id.bytes().begin() + 4));
}

TEST(WireCodec, V2FramesDecodeAsV2AndV1FlagPolicyHolds) {
  Rng rng(111);
  const CodedPacket packet(random_coeffs(64, 4, rng), random_payload(16, rng));
  Frame frame;
  serialize(ContentId{9}, packet, frame);
  EXPECT_EQ(frame.bytes()[0], 2u);  // v2 version byte

  // A v1 frame may never set the multiplexing bits: flip the version of a
  // v2 frame back to 1 and the decoder must reject it as malformed (the
  // bits were reserved in v1).
  frame.mutable_bytes()[0] = 1;
  CodedPacket decoded;
  ContentId cid = 0;
  EXPECT_EQ(deserialize(frame.bytes(), cid, decoded),
            DecodeStatus::kMalformed);
}

TEST(WireCodec, ContentIdCostIsAtMostTwoBytesForDerivedIds) {
  // derive_content_id folds into 14 bits, so the multiplexing overhead on
  // a Soliton-typical frame is bounded by 2 wire bytes (satellite
  // acceptance: content-id varint ≤ 2 bytes).
  EXPECT_EQ(content_id_size(0), 0u);
  EXPECT_EQ(content_id_size(1), 1u);
  EXPECT_EQ(content_id_size(127), 1u);
  EXPECT_EQ(content_id_size(128), 2u);
  EXPECT_EQ(content_id_size(0x3FFF), 2u);
  Rng rng(112);
  const CodedPacket packet(random_coeffs(1024, 8, rng),
                           random_payload(64, rng));
  const std::size_t base = serialized_size(ContentId{0}, packet);
  for (const ContentId cid : {ContentId{1}, ContentId{200},
                              ContentId{0x3FFF}}) {
    EXPECT_LE(serialized_size(cid, packet) - base, 2u);
  }
}

// -- adaptive code-vector encoding -----------------------------------------

TEST(WireCodec, SparseBeatsDenseAtLowDegree) {
  Rng rng(105);
  const std::size_t k = 1024;
  const std::size_t dense = coeff_encoded_size(BitVector(k),
                                               CoeffEncoding::kDense);
  EXPECT_EQ(dense, 128u);
  for (const std::size_t degree : {1u, 2u, 8u, 32u, 64u}) {
    const BitVector coeffs = random_coeffs(k, degree, rng);
    EXPECT_EQ(choose_coeff_encoding(coeffs), CoeffEncoding::kSparse)
        << "degree=" << degree;
    EXPECT_LT(coeff_encoded_size(coeffs, CoeffEncoding::kSparse), dense);
  }
  for (const std::size_t degree : {256u, 512u, 1024u}) {
    const BitVector coeffs = random_coeffs(k, degree, rng);
    EXPECT_EQ(choose_coeff_encoding(coeffs), CoeffEncoding::kDense)
        << "degree=" << degree;
  }
}

TEST(WireCodec, ChosenEncodingNeverLoses) {
  // The serializer's pick is exactly min(dense, sparse) for every shape.
  Rng rng(106);
  for (int rep = 0; rep < 200; ++rep) {
    const std::size_t k = 1 + rng.uniform(600);
    const std::size_t degree = rng.uniform(k + 1);
    const BitVector coeffs = random_coeffs(k, degree, rng);
    const std::size_t dense = coeff_encoded_size(coeffs,
                                                 CoeffEncoding::kDense);
    const std::size_t sparse = coeff_encoded_size(coeffs,
                                                  CoeffEncoding::kSparse);
    const std::size_t chosen =
        coeff_encoded_size(coeffs, choose_coeff_encoding(coeffs));
    EXPECT_EQ(chosen, std::min(dense, sparse));
  }
}

TEST(WireCodec, WireBytesTracksDegree) {
  // Satellite check: wire_bytes() is the codec size, so a low-degree
  // packet over a large k reports far less than the old bitmap formula.
  const std::size_t k = 1024;
  const CodedPacket low(BitVector::unit(k, 3), Payload(64));
  EXPECT_LT(low.wire_bytes(), (k + 7) / 8 + 64);
  Frame frame;
  serialize(ContentId{0}, low, frame);
  EXPECT_EQ(low.wire_bytes(), frame.size());
}

// -- strict rejection policy -----------------------------------------------

TEST(WireCodec, RejectsWrongVersion) {
  Frame frame;
  serialize(ContentId{0}, CodedPacket(BitVector(16), Payload(8)), frame);
  frame.mutable_bytes()[0] = kProtocolVersion + 1;
  ContentId content = 0;
  CodedPacket decoded;
  EXPECT_EQ(deserialize(frame.bytes(), content, decoded),
            DecodeStatus::kBadVersion);
}

TEST(WireCodec, RejectsUnknownType) {
  Frame frame;
  serialize(ContentId{0}, CodedPacket(BitVector(16), Payload(8)), frame);
  frame.mutable_bytes()[1] = 0x7F;
  ContentId content = 0;
  CodedPacket decoded;
  EXPECT_EQ(deserialize(frame.bytes(), content, decoded),
            DecodeStatus::kBadType);
}

TEST(WireCodec, RejectsMismatchedType) {
  Frame frame;
  serialize_feedback(ContentId{0}, MessageType::kAck, 1, frame);
  ContentId content = 0;
  CodedPacket decoded;
  EXPECT_EQ(deserialize(frame.bytes(), content, decoded),
            DecodeStatus::kBadType);
}

TEST(WireCodec, RejectsReservedFlagBits) {
  Frame frame;
  serialize(ContentId{0}, CodedPacket(BitVector(16), Payload(8)), frame);
  frame.mutable_bytes()[2] |= 0x80;
  ContentId content = 0;
  CodedPacket decoded;
  EXPECT_EQ(deserialize(frame.bytes(), content, decoded),
            DecodeStatus::kMalformed);
}

TEST(WireCodec, RejectsDirtyTailBitsInDenseBitmap) {
  // k = 12 leaves 4 tail bits in the second bitmap byte; a frame with any
  // of them set must be rejected, or the decoded degree would be wrong.
  BitVector coeffs(12);
  coeffs.set(0);
  Frame frame;
  serialize(ContentId{0}, CodedPacket(coeffs, Payload(0)), frame);
  ASSERT_EQ(frame.size(), 3u + 1 + 1 + 2);
  frame.mutable_bytes()[frame.size() - 1] |= 0xF0;
  ContentId content = 0;
  CodedPacket decoded;
  EXPECT_EQ(deserialize(frame.bytes(), content, decoded),
            DecodeStatus::kMalformed);
}

TEST(WireCodec, RejectsTrailingBytes) {
  Frame frame;
  serialize(ContentId{0}, CodedPacket(BitVector(16), Payload(8)), frame);
  const std::uint8_t junk = 0;
  frame.append(&junk, 1);
  ContentId content = 0;
  CodedPacket decoded;
  EXPECT_EQ(deserialize(frame.bytes(), content, decoded),
            DecodeStatus::kTrailingBytes);
}

TEST(WireCodec, RejectsOversizedDimensions) {
  // Hand-build a frame declaring k past the cap: ver/type/flags, then a
  // 5-byte varint for 2^32.
  const std::uint8_t huge_k[] = {kProtocolVersion,
                                 static_cast<std::uint8_t>(
                                     MessageType::kCodedPacket),
                                 0,
                                 0x80, 0x80, 0x80, 0x80, 0x10,  // k = 2^32
                                 0x00};                         // m = 0
  ContentId content = 0;
  CodedPacket decoded;
  EXPECT_EQ(deserialize({huge_k, sizeof(huge_k)}, content, decoded),
            DecodeStatus::kMalformed);
}

TEST(WireCodec, RejectsOverlongVarint) {
  // k = 0 encoded as 0x80 0x00 (overlong) must be rejected, so every
  // message has exactly one byte representation.
  const std::uint8_t overlong[] = {kProtocolVersion,
                                   static_cast<std::uint8_t>(
                                       MessageType::kCodedPacket),
                                   0, 0x80, 0x00, 0x00};
  ContentId content = 0;
  CodedPacket decoded;
  EXPECT_EQ(deserialize({overlong, sizeof(overlong)}, content, decoded),
            DecodeStatus::kMalformed);
}

TEST(WireCodec, RejectsUnorderedSparseIndices) {
  // Sparse degree 2 with a gap that walks past k.
  const std::uint8_t bad[] = {kProtocolVersion,
                              static_cast<std::uint8_t>(
                                  MessageType::kCodedPacket),
                              1,     // sparse
                              0x08,  // k = 8
                              0x00,  // m = 0
                              0x02,  // degree 2
                              0x07,  // index 7 (the last valid one)
                              0x00};  // next = 7 + 0 + 1 = 8 ≥ k
  ContentId content = 0;
  CodedPacket decoded;
  EXPECT_EQ(deserialize({bad, sizeof(bad)}, content, decoded),
            DecodeStatus::kMalformed);
}

TEST(WireCodec, RejectsSparseDegreeAboveK) {
  const std::uint8_t bad[] = {kProtocolVersion,
                              static_cast<std::uint8_t>(
                                  MessageType::kCodedPacket),
                              1,     // sparse
                              0x04,  // k = 4
                              0x00,  // m = 0
                              0x05};  // degree 5 > k
  ContentId content = 0;
  CodedPacket decoded;
  EXPECT_EQ(deserialize({bad, sizeof(bad)}, content, decoded),
            DecodeStatus::kMalformed);
}

TEST(WireCodec, RejectsEmptyFrame) {
  ContentId content = 0;
  CodedPacket decoded;
  MessageType type{};
  EXPECT_EQ(deserialize({}, content, decoded), DecodeStatus::kTruncated);
  EXPECT_EQ(peek_type({}, type), DecodeStatus::kTruncated);
}

// -- uninitialized frame growth ---------------------------------------------

/// A frame grown to `bytes` whose whole capacity holds `fill`: what a
/// recycled receive buffer or arena block may look like before a write.
Frame pregrown(std::size_t bytes, std::uint8_t fill) {
  Frame frame;
  frame.resize(bytes);
  std::memset(frame.data(), fill, frame.capacity());
  return frame;
}

TEST(WireCodec, SerializersOverwriteEveryExposedByte) {
  Rng rng(113);
  const CodedPacket sparse(random_coeffs(4096, 3, rng),
                           random_payload(61, rng));
  const CodedPacket dense(random_coeffs(64, 40, rng), random_payload(19, rng));
  ASSERT_EQ(choose_coeff_encoding(sparse.coeffs), CoeffEncoding::kSparse);
  ASSERT_EQ(choose_coeff_encoding(dense.coeffs), CoeffEncoding::kDense);
  const std::vector<std::uint32_t> leaders = {0, 5, 300, 70000};

  for (const ContentId cid : {ContentId{0}, ContentId{0x3FFF}}) {
    AdvertiseInfo plain;
    plain.content = cid;
    plain.payload_bytes = sparse.payload.size_bytes();
    AdvertiseInfo with_gen = plain;
    with_gen.has_generation = true;
    with_gen.generation = 9;
    const std::vector<std::pair<const char*, std::function<void(Frame&)>>>
        writers = {
            {"coded sparse", [&](Frame& f) { serialize(cid, sparse, f); }},
            {"coded dense", [&](Frame& f) { serialize(cid, dense, f); }},
            {"generation sparse",
             [&](Frame& f) { serialize_generation(cid, 3, sparse, f); }},
            {"generation dense",
             [&](Frame& f) { serialize_generation(cid, 200, dense, f); }},
            {"advertise",
             [&](Frame& f) { serialize_advertise(plain, sparse.coeffs, f); }},
            {"advertise dense",
             [&](Frame& f) { serialize_advertise(plain, dense.coeffs, f); }},
            {"advertise generation",
             [&](Frame& f) {
               serialize_advertise(with_gen, sparse.coeffs, f);
             }},
            {"abort",
             [&](Frame& f) {
               serialize_feedback(cid, MessageType::kAbort, 7, f);
             }},
            {"ack",
             [&](Frame& f) {
               serialize_feedback(cid, MessageType::kAck, 1u << 20, f);
             }},
            {"proceed",
             [&](Frame& f) {
               serialize_feedback(cid, MessageType::kProceed, 0, f);
             }},
            {"cc", [&](Frame& f) { serialize_cc(cid, leaders, f); }},
            {"cc empty", [&](Frame& f) { serialize_cc(cid, {}, f); }},
        };
    for (const auto& [name, write] : writers) {
      Frame zeroed = pregrown(4096, 0x00);
      write(zeroed);
      Frame fresh;
      write(fresh);
      Frame dirty = pregrown(4096, 0xA5);
      write(dirty);
      // A small dirty frame grows uninitialized under the serializer.
      Frame grown = pregrown(5, 0xA5);
      write(grown);
      const std::vector<std::uint8_t> want(zeroed.bytes().begin(),
                                           zeroed.bytes().end());
      for (const Frame* f : {&fresh, &dirty, &grown}) {
        EXPECT_EQ(std::vector<std::uint8_t>(f->bytes().begin(),
                                            f->bytes().end()),
                  want)
            << name << " cid=" << cid;
      }
    }
  }
}

TEST(WireFrame, GrowthKeepsTheExistingPrefix) {
  std::vector<std::uint8_t> prefix(100);
  for (std::size_t i = 0; i < prefix.size(); ++i) {
    prefix[i] = static_cast<std::uint8_t>(i * 37 + 1);
  }
  Frame frame;
  frame.assign(prefix);

  frame.reserve(65507);  // the UDP MTU: a receive buffer's growth
  EXPECT_GE(frame.capacity(), 65507u);
  EXPECT_EQ(frame.size(), prefix.size());
  EXPECT_TRUE(std::equal(prefix.begin(), prefix.end(), frame.data()));

  Frame resized;
  resized.assign(prefix);
  resized.resize(70000);
  EXPECT_EQ(resized.size(), 70000u);
  EXPECT_TRUE(std::equal(prefix.begin(), prefix.end(), resized.data()));

  Frame appended;
  appended.assign({prefix.data(), 3});
  appended.append(prefix.data() + 3, prefix.size() - 3);  // grows
  EXPECT_TRUE(std::equal(prefix.begin(), prefix.end(),
                         appended.bytes().begin(), appended.bytes().end()));

  // A copy carries the logical bytes, not the grown capacity.
  const Frame copy = frame;
  EXPECT_TRUE(std::equal(prefix.begin(), prefix.end(), copy.bytes().begin(),
                         copy.bytes().end()));
  EXPECT_LT(copy.capacity(), frame.capacity());
}

}  // namespace
}  // namespace ltnc::wire
