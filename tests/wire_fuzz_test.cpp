// Deserializer hardening fuzz: truncations, bit flips, byte mutations and
// pure garbage must be rejected cleanly — never a crash, never a read past
// the frame (ASan/UBSan enforce the memory-safety half in the sanitizer
// CI job), and never a decoded packet that violates its own invariants.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/coded_packet.hpp"
#include "common/rng.hpp"
#include "wire/codec.hpp"
#include "wire/frame.hpp"

namespace ltnc::wire {
namespace {

BitVector random_coeffs(std::size_t k, std::size_t degree, Rng& rng) {
  BitVector v(k);
  while (v.popcount() < degree) v.set(rng.uniform(k));
  return v;
}

/// Decodes `frame` as every message type; returns true if any accepted.
/// Accepted packets are checked against their own invariants.
bool decode_any(std::span<const std::uint8_t> frame) {
  bool accepted = false;

  ContentId content = 0;
  CodedPacket packet;
  if (deserialize(frame, content, packet) == DecodeStatus::kOk) {
    accepted = true;
    // The zero-tail invariant must survive hostile input, or degree
    // bookkeeping (popcount) is poisoned downstream.
    EXPECT_EQ(packet.degree(), packet.coeffs.indices().size());
  }

  std::uint32_t generation = 0;
  CodedPacket gen_packet;
  if (deserialize_generation(frame, content, generation, gen_packet) ==
      DecodeStatus::kOk) {
    accepted = true;
    EXPECT_EQ(gen_packet.degree(), gen_packet.coeffs.indices().size());
  }

  MessageType type{};
  std::uint64_t token = 0;
  if (deserialize_feedback(frame, type, token, content) == DecodeStatus::kOk) {
    accepted = true;
  }

  std::vector<std::uint32_t> leaders;
  if (deserialize_cc(frame, content, leaders) == DecodeStatus::kOk) {
    accepted = true;
  }

  BitVector advertised;
  AdvertiseInfo info;
  if (deserialize_advertise(frame, advertised, info) == DecodeStatus::kOk) {
    accepted = true;
    EXPECT_EQ(advertised.popcount(), advertised.indices().size());
  }

  return accepted;
}

/// One valid serialized frame of each message type, varied by `rng`.
std::vector<Frame> sample_frames(Rng& rng) {
  std::vector<Frame> frames(6);
  const std::size_t k = 1 + rng.uniform(300);
  const std::size_t m = rng.uniform(100);
  const CodedPacket packet(random_coeffs(k, rng.uniform(k + 1), rng),
                           Payload::deterministic(m, rng.next(), 0));
  serialize(ContentId{0}, packet, frames[0]);
  serialize_generation(ContentId{0}, static_cast<std::uint32_t>(rng.next()),
                       packet, frames[1]);
  serialize_feedback(ContentId{0},
                     rng.chance(0.5) ? MessageType::kAbort : MessageType::kAck,
                     rng.next(), frames[2]);
  std::vector<std::uint32_t> leaders(rng.uniform(50));
  for (auto& leader : leaders) {
    leader = static_cast<std::uint32_t>(rng.uniform(k));
  }
  serialize_cc(ContentId{0}, leaders, frames[3]);
  serialize_advertise(
      AdvertiseInfo{.payload_bytes = packet.payload.size_bytes()},
      packet.coeffs, frames[4]);
  serialize_feedback(ContentId{0}, MessageType::kProceed, rng.next(),
                     frames[5]);
  return frames;
}

TEST(WireFuzz, EveryTruncationIsRejected) {
  Rng rng(7001);
  for (int rep = 0; rep < 20; ++rep) {
    for (const Frame& frame : sample_frames(rng)) {
      for (std::size_t len = 0; len < frame.size(); ++len) {
        // A strict prefix can never decode as the same message; at most a
        // shorter message of another type could coincidentally parse, and
        // decode_any verifies invariants in that case.
        ContentId content = 0;
        CodedPacket packet;
        const DecodeStatus status =
            deserialize(frame.bytes().first(len), content, packet);
        EXPECT_NE(status, DecodeStatus::kOk);
        decode_any(frame.bytes().first(len));
      }
    }
  }
}

TEST(WireFuzz, BitFlipsNeverCrashAndKeepInvariants) {
  Rng rng(7002);
  for (int rep = 0; rep < 40; ++rep) {
    for (Frame& frame : sample_frames(rng)) {
      const int flips = 1 + static_cast<int>(rng.uniform(4));
      for (int f = 0; f < flips; ++f) {
        const std::size_t bit = rng.uniform(frame.size() * 8);
        frame.mutable_bytes()[bit / 8] ^= std::uint8_t{1} << (bit % 8);
      }
      decode_any(frame.bytes());  // must not crash / overread
    }
  }
}

TEST(WireFuzz, ByteMutationsNeverCrash) {
  Rng rng(7003);
  for (int rep = 0; rep < 40; ++rep) {
    for (Frame& frame : sample_frames(rng)) {
      const int edits = 1 + static_cast<int>(rng.uniform(8));
      for (int e = 0; e < edits; ++e) {
        frame.mutable_bytes()[rng.uniform(frame.size())] =
            static_cast<std::uint8_t>(rng.next());
      }
      decode_any(frame.bytes());
    }
  }
}

TEST(WireFuzz, PureGarbageNeverCrashes) {
  Rng rng(7004);
  for (int rep = 0; rep < 400; ++rep) {
    Frame frame;
    frame.resize(rng.uniform(200));
    for (std::size_t i = 0; i < frame.size(); ++i) {
      frame.mutable_bytes()[i] = static_cast<std::uint8_t>(rng.next());
    }
    decode_any(frame.bytes());
  }
}

TEST(WireFuzz, GarbageWithValidHeaderNeverCrashes) {
  // Force the header checks to pass so the body parsers get exercised.
  Rng rng(7005);
  for (int rep = 0; rep < 400; ++rep) {
    Frame frame;
    frame.resize(3 + rng.uniform(120));
    for (std::size_t i = 0; i < frame.size(); ++i) {
      frame.mutable_bytes()[i] = static_cast<std::uint8_t>(rng.next());
    }
    frame.mutable_bytes()[0] = kProtocolVersion;
    frame.mutable_bytes()[1] =
        static_cast<std::uint8_t>(1 + rng.uniform(5));  // every known type
    frame.mutable_bytes()[2] = static_cast<std::uint8_t>(rng.uniform(2));
    decode_any(frame.bytes());
  }
}

}  // namespace
}  // namespace ltnc::wire
