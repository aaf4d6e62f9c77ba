#include "wire/codec.hpp"

#include <bit>
#include <cstring>

#include "common/check.hpp"

namespace ltnc::wire {
namespace {

// -- LEB128 varints --------------------------------------------------------

std::size_t varint_size(std::uint64_t value) {
  std::size_t n = 1;
  while (value >= 0x80) {
    value >>= 7;
    ++n;
  }
  return n;
}

struct Writer {
  std::uint8_t* p;

  void put_u8(std::uint8_t v) { *p++ = v; }

  void put_varint(std::uint64_t value) {
    while (value >= 0x80) {
      *p++ = static_cast<std::uint8_t>(value) | 0x80;
      value >>= 7;
    }
    *p++ = static_cast<std::uint8_t>(value);
  }

  void put_bytes(const void* src, std::size_t n) {
    if (n != 0) std::memcpy(p, src, n);
    p += n;
  }
};

struct Reader {
  const std::uint8_t* p;
  const std::uint8_t* end;

  std::size_t remaining() const { return static_cast<std::size_t>(end - p); }

  DecodeStatus get_u8(std::uint8_t& out) {
    if (p == end) return DecodeStatus::kTruncated;
    out = *p++;
    return DecodeStatus::kOk;
  }

  /// Canonical LEB128: at most 10 bytes, the final byte non-zero (except
  /// for the single-byte zero) and within the 64-bit range.
  DecodeStatus get_varint(std::uint64_t& out) {
    std::uint64_t value = 0;
    for (std::size_t i = 0; i < 10; ++i) {
      if (p == end) return DecodeStatus::kTruncated;
      const std::uint8_t byte = *p++;
      if (i == 9 && byte > 1) return DecodeStatus::kMalformed;  // > 2^64-1
      value |= static_cast<std::uint64_t>(byte & 0x7F) << (7 * i);
      if ((byte & 0x80) == 0) {
        if (i > 0 && byte == 0) return DecodeStatus::kMalformed;  // overlong
        out = value;
        return DecodeStatus::kOk;
      }
    }
    return DecodeStatus::kMalformed;  // unterminated 10-byte run
  }
};

#define WIRE_TRY(expr)                                    \
  do {                                                    \
    const DecodeStatus status_ = (expr);                  \
    if (status_ != DecodeStatus::kOk) return status_;     \
  } while (false)

// -- code vectors ----------------------------------------------------------

std::size_t dense_size(std::size_t bits) { return (bits + 7) / 8; }

/// Sparse encoding size of `coeffs`, whose weight the caller already
/// counted.
std::size_t sparse_size(const BitVector& coeffs, std::size_t degree) {
  std::size_t size = varint_size(degree);
  std::size_t prev = 0;
  bool first = true;
  coeffs.for_each_set([&](std::size_t i) {
    size += varint_size(first ? i : i - prev - 1);
    first = false;
    prev = i;
  });
  return size;
}

void write_dense(Writer& w, const BitVector& coeffs) {
  const std::size_t bytes = dense_size(coeffs.size());
  if constexpr (std::endian::native == std::endian::little) {
    // Bit i lives at byte i/8, bit i%8 — exactly the little-endian byte
    // image of the limb words (tail bits past size() are zero by the
    // BitVector invariant), so the bitmap is one memcpy from the span.
    w.put_bytes(coeffs.word_span().data(), bytes);
  } else {
    for (std::size_t b = 0; b < bytes; ++b) {
      const std::uint64_t word = coeffs.word_span()[b / 8];
      w.put_u8(static_cast<std::uint8_t>(word >> ((b % 8) * 8)));
    }
  }
}

void write_sparse(Writer& w, const BitVector& coeffs, std::size_t degree) {
  w.put_varint(degree);
  std::size_t prev = 0;
  bool first = true;
  coeffs.for_each_set([&](std::size_t i) {
    w.put_varint(first ? i : i - prev - 1);
    first = false;
    prev = i;
  });
}

DecodeStatus read_dense(Reader& r, BitVector& coeffs) {
  const std::size_t k = coeffs.size();
  const std::size_t bytes = dense_size(k);
  if (r.remaining() < bytes) return DecodeStatus::kTruncated;
  // Reject dirty tail bits past k so the BitVector zero-tail invariant
  // (and with it popcount/degree) can never be poisoned from the wire.
  if (k % 8 != 0) {
    const std::uint8_t tail = r.p[bytes - 1];
    if ((tail >> (k % 8)) != 0) return DecodeStatus::kMalformed;
  }
  if constexpr (std::endian::native == std::endian::little) {
    if (bytes != 0) std::memcpy(coeffs.mutable_words(), r.p, bytes);
  } else {
    for (std::size_t b = 0; b < bytes; ++b) {
      coeffs.mutable_words()[b / 8] |= static_cast<std::uint64_t>(r.p[b])
                                       << ((b % 8) * 8);
    }
  }
  r.p += bytes;
  return DecodeStatus::kOk;
}

DecodeStatus read_sparse(Reader& r, BitVector& coeffs) {
  const std::size_t k = coeffs.size();
  std::uint64_t degree = 0;
  WIRE_TRY(r.get_varint(degree));
  if (degree > k) return DecodeStatus::kMalformed;
  std::uint64_t index = 0;
  for (std::uint64_t d = 0; d < degree; ++d) {
    std::uint64_t delta = 0;
    WIRE_TRY(r.get_varint(delta));
    // First varint is the index itself; the rest are gap-minus-one, so
    // indices are strictly increasing by construction.
    if (d == 0) {
      index = delta;
    } else {
      if (delta >= k || index + delta + 1 < index) {
        return DecodeStatus::kMalformed;  // overflow-safe bound
      }
      index = index + delta + 1;
    }
    if (index >= k) return DecodeStatus::kMalformed;
    coeffs.set(static_cast<std::size_t>(index));
  }
  return DecodeStatus::kOk;
}

/// How one frame encodes its code vector, decided once per frame and
/// handed to both the size and the write step: the winning encoding, the
/// vector's weight (the sparse degree varint) and the encoded bytes.
struct CoeffPlan {
  CoeffEncoding enc;
  std::size_t degree;
  std::size_t bytes;
};

CoeffPlan plan_coeffs(const BitVector& coeffs) {
  const std::size_t dense = dense_size(coeffs.size());
  const std::size_t degree = coeffs.popcount();
  // Each sparse index costs ≥ 1 byte on top of the degree varint, so a
  // degree at or past the bitmap size can never win — skip the exact walk.
  if (degree >= dense) return {CoeffEncoding::kDense, degree, dense};
  const std::size_t sparse = sparse_size(coeffs, degree);
  if (sparse < dense) return {CoeffEncoding::kSparse, degree, sparse};
  return {CoeffEncoding::kDense, degree, dense};
}

// -- shared message scaffolding --------------------------------------------

std::size_t header_size() { return 3; }  // version, type, flags

/// The multiplexing flag bits introduced by wire v2.
constexpr std::uint8_t kV2Flags = kFlagContentId | kFlagGeneration;

/// Flags for a frame carrying `content` (and, for advertises, a
/// generation); the version byte follows from whether any v2 bit is set,
/// so default-content frames keep the exact v1 byte image.
std::uint8_t frame_flags(std::uint8_t base, ContentId content, bool has_gen) {
  std::uint8_t flags = base;
  if (content != 0) flags |= kFlagContentId;
  if (has_gen) flags |= kFlagGeneration;
  return flags;
}

void write_header(Writer& w, MessageType type, std::uint8_t flags) {
  w.put_u8((flags & kV2Flags) != 0 ? std::uint8_t{2} : std::uint8_t{1});
  w.put_u8(static_cast<std::uint8_t>(type));
  w.put_u8(flags);
}

/// Writes header plus the optional content-id varint (the shared prefix of
/// every v2 message body).
void write_head(Writer& w, MessageType type, std::uint8_t flags,
                ContentId content) {
  write_header(w, type, flags);
  if ((flags & kFlagContentId) != 0) w.put_varint(content);
}

DecodeStatus read_header(Reader& r, MessageType& type, std::uint8_t& flags) {
  std::uint8_t version = 0;
  std::uint8_t raw_type = 0;
  WIRE_TRY(r.get_u8(version));
  if (version < 1 || version > kProtocolVersion) {
    return DecodeStatus::kBadVersion;
  }
  WIRE_TRY(r.get_u8(raw_type));
  if (raw_type < static_cast<std::uint8_t>(MessageType::kCodedPacket) ||
      raw_type > static_cast<std::uint8_t>(MessageType::kProceed)) {
    return DecodeStatus::kBadType;
  }
  WIRE_TRY(r.get_u8(flags));
  // v1 predates the multiplexing fields: its reserved bits stay reserved,
  // so an old frame can never alias into a content-id read.
  if (version == 1 && (flags & kV2Flags) != 0) return DecodeStatus::kMalformed;
  type = static_cast<MessageType>(raw_type);
  return DecodeStatus::kOk;
}

/// Reads header + optional content id, enforcing the per-type flag policy
/// (`allowed` is the full set of bits the type may carry).
DecodeStatus read_head(Reader& r, std::uint8_t allowed, MessageType& type,
                       std::uint8_t& flags, ContentId& content) {
  WIRE_TRY(read_header(r, type, flags));
  if ((flags & ~allowed) != 0) return DecodeStatus::kMalformed;
  content = 0;
  if ((flags & kFlagContentId) != 0) WIRE_TRY(r.get_varint(content));
  return DecodeStatus::kOk;
}

/// Size of the shared advertise prefix of a packet body: dimensions plus
/// the code vector — everything ahead of the payload span. The advertise
/// frame is exactly header + this prefix, which is what keeps the
/// advertise/data size identity from ever drifting.
std::size_t coeff_prefix_size(const BitVector& coeffs,
                              std::size_t payload_bytes,
                              const CoeffPlan& plan) {
  return varint_size(coeffs.size()) + varint_size(payload_bytes) + plan.bytes;
}

/// Writes the shared advertise prefix (the serializer twin of
/// read_coeff_prefix below).
void write_coeff_prefix(Writer& w, const BitVector& coeffs,
                        std::size_t payload_bytes, const CoeffPlan& plan) {
  w.put_varint(coeffs.size());
  w.put_varint(payload_bytes);
  if (plan.enc == CoeffEncoding::kDense) {
    write_dense(w, coeffs);
  } else {
    write_sparse(w, coeffs, plan.degree);
  }
}

std::size_t packet_body_size(const CodedPacket& packet,
                             const CoeffPlan& plan) {
  return coeff_prefix_size(packet.coeffs, packet.payload.size_bytes(), plan) +
         packet.payload.size_bytes();
}

void write_packet_body(Writer& w, const CodedPacket& packet,
                       const CoeffPlan& plan) {
  write_coeff_prefix(w, packet.coeffs, packet.payload.size_bytes(), plan);
  const std::size_t m = packet.payload.size_bytes();
  if constexpr (std::endian::native == std::endian::little) {
    w.put_bytes(packet.payload.byte_view().data(), m);
  } else {
    for (std::size_t b = 0; b < m; ++b) w.put_u8(packet.payload.byte(b));
  }
}

// Frame sizes under a given plan: the serialized_size* functions and the
// serializers share these, so a serializer plans its code vector once.

std::size_t packet_frame_size(ContentId content, const CodedPacket& packet,
                              const CoeffPlan& plan) {
  return header_size() + content_id_size(content) +
         packet_body_size(packet, plan);
}

std::size_t generation_frame_size(ContentId content, std::uint32_t generation,
                                  const CodedPacket& packet,
                                  const CoeffPlan& plan) {
  return packet_frame_size(content, packet, plan) + varint_size(generation);
}

std::size_t advertise_frame_size(const AdvertiseInfo& info,
                                 const BitVector& coeffs,
                                 const CoeffPlan& plan) {
  // serialized_size() minus the payload span, via the shared prefix
  // arithmetic, so the advertise/packet size identity can never drift.
  return header_size() + content_id_size(info.content) +
         (info.has_generation ? varint_size(info.generation) : 0) +
         coeff_prefix_size(coeffs, info.payload_bytes, plan);
}

/// Reads the shared advertise prefix of a packet body: dimensions and the
/// code vector (everything ahead of the payload span). Flag validation
/// already happened in read_head; only the encoding bit matters here.
DecodeStatus read_coeff_prefix(Reader& r, std::uint8_t flags,
                               BitVector& coeffs, std::uint64_t& m) {
  const auto enc = static_cast<CoeffEncoding>(flags & kFlagSparse);
  std::uint64_t k = 0;
  WIRE_TRY(r.get_varint(k));
  WIRE_TRY(r.get_varint(m));
  if (k > kMaxCodeLength) return DecodeStatus::kMalformed;
  if (m > kMaxPayloadBytes) return DecodeStatus::kMalformed;

  if (coeffs.size() == static_cast<std::size_t>(k)) {
    coeffs.clear();  // reuse the lease on the steady-state path
  } else {
    coeffs = BitVector(static_cast<std::size_t>(k));
  }
  return enc == CoeffEncoding::kDense ? read_dense(r, coeffs)
                                      : read_sparse(r, coeffs);
}

DecodeStatus read_packet_body(Reader& r, std::uint8_t flags,
                              CodedPacket& packet) {
  std::uint64_t m = 0;
  // The payload tail bounds the body, but the dimensions come first —
  // read_coeff_prefix caps them before leasing storage, and the payload
  // length is re-checked against the remaining frame right after.
  WIRE_TRY(read_coeff_prefix(r, flags, packet.coeffs, m));

  if (r.remaining() < m) return DecodeStatus::kTruncated;
  if (packet.payload.size_bytes() != static_cast<std::size_t>(m)) {
    packet.payload = Payload(static_cast<std::size_t>(m));
  }
  std::uint64_t* words = packet.payload.mutable_words();
  if constexpr (std::endian::native == std::endian::little) {
    const std::size_t whole = static_cast<std::size_t>(m) / 8;
    if (whole != 0) std::memcpy(words, r.p, whole * 8);
    if (m % 8 != 0) {
      std::uint64_t last = 0;
      std::memcpy(&last, r.p + whole * 8, m % 8);
      words[whole] = last;  // tail bytes masked to zero, matching Payload
    }
  } else {
    for (std::size_t w = 0; w < packet.payload.word_count(); ++w) words[w] = 0;
    for (std::size_t b = 0; b < m; ++b) {
      words[b / 8] |= static_cast<std::uint64_t>(r.p[b]) << ((b % 8) * 8);
    }
  }
  r.p += m;
  return DecodeStatus::kOk;
}

DecodeStatus finish(const Reader& r) {
  return r.p == r.end ? DecodeStatus::kOk : DecodeStatus::kTrailingBytes;
}

}  // namespace

const char* status_name(DecodeStatus status) {
  switch (status) {
    case DecodeStatus::kOk:
      return "ok";
    case DecodeStatus::kTruncated:
      return "truncated";
    case DecodeStatus::kBadVersion:
      return "bad-version";
    case DecodeStatus::kBadType:
      return "bad-type";
    case DecodeStatus::kMalformed:
      return "malformed";
    case DecodeStatus::kTrailingBytes:
      return "trailing-bytes";
  }
  return "unknown";
}

std::size_t coeff_encoded_size(const BitVector& coeffs, CoeffEncoding enc) {
  return enc == CoeffEncoding::kDense
             ? dense_size(coeffs.size())
             : sparse_size(coeffs, coeffs.popcount());
}

CoeffEncoding choose_coeff_encoding(const BitVector& coeffs) {
  return plan_coeffs(coeffs).enc;
}

std::size_t content_id_size(ContentId content) {
  return content == 0 ? 0 : varint_size(content);
}

std::size_t serialized_size(ContentId content, const CodedPacket& packet) {
  return packet_frame_size(content, packet, plan_coeffs(packet.coeffs));
}

std::size_t serialized_size_generation(ContentId content,
                                       std::uint32_t generation,
                                       const CodedPacket& packet) {
  return generation_frame_size(content, generation, packet,
                               plan_coeffs(packet.coeffs));
}

std::size_t serialized_size_feedback(ContentId content, std::uint64_t token) {
  return header_size() + content_id_size(content) + varint_size(token);
}

std::size_t serialized_size_cc(std::span<const std::uint32_t> leaders) {
  std::size_t size = header_size() + varint_size(leaders.size());
  for (const std::uint32_t leader : leaders) size += varint_size(leader);
  return size;
}

std::size_t serialized_size_advertise(const AdvertiseInfo& info,
                                      const BitVector& coeffs) {
  return advertise_frame_size(info, coeffs, plan_coeffs(coeffs));
}

void serialize(ContentId content, const CodedPacket& packet, Frame& out) {
  const CoeffPlan plan = plan_coeffs(packet.coeffs);
  out.resize(packet_frame_size(content, packet, plan));
  Writer w{out.data()};
  write_head(w, MessageType::kCodedPacket,
             frame_flags(static_cast<std::uint8_t>(plan.enc), content, false),
             content);
  write_packet_body(w, packet, plan);
  LTNC_DCHECK(w.p == out.data() + out.size());
}

void serialize_generation(ContentId content, std::uint32_t generation,
                          const CodedPacket& packet, Frame& out) {
  const CoeffPlan plan = plan_coeffs(packet.coeffs);
  out.resize(generation_frame_size(content, generation, packet, plan));
  Writer w{out.data()};
  write_head(w, MessageType::kGenerationPacket,
             frame_flags(static_cast<std::uint8_t>(plan.enc), content, false),
             content);
  w.put_varint(generation);
  write_packet_body(w, packet, plan);
  LTNC_DCHECK(w.p == out.data() + out.size());
}

void serialize_feedback(ContentId content, MessageType type,
                        std::uint64_t token, Frame& out) {
  LTNC_CHECK_MSG(type == MessageType::kAbort || type == MessageType::kAck ||
                     type == MessageType::kProceed,
                 "feedback frames are kAbort, kAck or kProceed");
  out.resize(serialized_size_feedback(content, token));
  Writer w{out.data()};
  write_head(w, type, frame_flags(0, content, false), content);
  w.put_varint(token);
  LTNC_DCHECK(w.p == out.data() + out.size());
}

void serialize_cc(ContentId content, std::span<const std::uint32_t> leaders,
                  Frame& out) {
  out.resize(serialized_size_cc(leaders) + content_id_size(content));
  Writer w{out.data()};
  write_head(w, MessageType::kCcArray, frame_flags(0, content, false),
             content);
  w.put_varint(leaders.size());
  for (const std::uint32_t leader : leaders) w.put_varint(leader);
  LTNC_DCHECK(w.p == out.data() + out.size());
}

void serialize_advertise(const AdvertiseInfo& info, const BitVector& coeffs,
                         Frame& out) {
  const CoeffPlan plan = plan_coeffs(coeffs);
  out.resize(advertise_frame_size(info, coeffs, plan));
  Writer w{out.data()};
  write_head(w, MessageType::kAdvertise,
             frame_flags(static_cast<std::uint8_t>(plan.enc), info.content,
                         info.has_generation),
             info.content);
  if (info.has_generation) w.put_varint(info.generation);
  write_coeff_prefix(w, coeffs, info.payload_bytes, plan);
  LTNC_DCHECK(w.p == out.data() + out.size());
}

DecodeStatus peek_type(std::span<const std::uint8_t> frame,
                       MessageType& type) {
  Reader r{frame.data(), frame.data() + frame.size()};
  std::uint8_t flags = 0;
  return read_header(r, type, flags);
}

DecodeStatus peek_content(std::span<const std::uint8_t> frame,
                          ContentId& content) {
  Reader r{frame.data(), frame.data() + frame.size()};
  MessageType type{};
  std::uint8_t flags = 0;
  WIRE_TRY(read_header(r, type, flags));
  content = 0;
  if ((flags & kFlagContentId) != 0) WIRE_TRY(r.get_varint(content));
  return DecodeStatus::kOk;
}

DecodeStatus deserialize(std::span<const std::uint8_t> frame,
                         ContentId& content, CodedPacket& packet) {
  Reader r{frame.data(), frame.data() + frame.size()};
  MessageType type{};
  std::uint8_t flags = 0;
  WIRE_TRY(read_head(r, kFlagSparse | kFlagContentId, type, flags, content));
  if (type != MessageType::kCodedPacket) return DecodeStatus::kBadType;
  WIRE_TRY(read_packet_body(r, flags, packet));
  return finish(r);
}

DecodeStatus deserialize_generation(std::span<const std::uint8_t> frame,
                                    ContentId& content,
                                    std::uint32_t& generation,
                                    CodedPacket& packet) {
  Reader r{frame.data(), frame.data() + frame.size()};
  MessageType type{};
  std::uint8_t flags = 0;
  WIRE_TRY(read_head(r, kFlagSparse | kFlagContentId, type, flags, content));
  if (type != MessageType::kGenerationPacket) return DecodeStatus::kBadType;
  std::uint64_t gen = 0;
  WIRE_TRY(r.get_varint(gen));
  if (gen > 0xFFFFFFFFULL) return DecodeStatus::kMalformed;
  WIRE_TRY(read_packet_body(r, flags, packet));
  WIRE_TRY(finish(r));
  generation = static_cast<std::uint32_t>(gen);
  return DecodeStatus::kOk;
}

DecodeStatus deserialize_feedback(std::span<const std::uint8_t> frame,
                                  MessageType& type, std::uint64_t& token,
                                  ContentId& content) {
  Reader r{frame.data(), frame.data() + frame.size()};
  std::uint8_t flags = 0;
  WIRE_TRY(read_head(r, kFlagContentId, type, flags, content));
  if (type != MessageType::kAbort && type != MessageType::kAck &&
      type != MessageType::kProceed) {
    return DecodeStatus::kBadType;
  }
  WIRE_TRY(r.get_varint(token));
  return finish(r);
}

DecodeStatus deserialize_advertise(std::span<const std::uint8_t> frame,
                                   BitVector& coeffs, AdvertiseInfo& info) {
  Reader r{frame.data(), frame.data() + frame.size()};
  MessageType type{};
  std::uint8_t flags = 0;
  WIRE_TRY(read_head(r, kFlagSparse | kFlagContentId | kFlagGeneration, type,
                     flags, info.content));
  if (type != MessageType::kAdvertise) return DecodeStatus::kBadType;
  info.has_generation = (flags & kFlagGeneration) != 0;
  info.generation = 0;
  if (info.has_generation) {
    std::uint64_t gen = 0;
    WIRE_TRY(r.get_varint(gen));
    if (gen > 0xFFFFFFFFULL) return DecodeStatus::kMalformed;
    info.generation = static_cast<std::uint32_t>(gen);
  }
  std::uint64_t m = 0;
  WIRE_TRY(read_coeff_prefix(r, flags, coeffs, m));
  WIRE_TRY(finish(r));
  info.payload_bytes = static_cast<std::size_t>(m);
  return DecodeStatus::kOk;
}

DecodeStatus deserialize_cc(std::span<const std::uint8_t> frame,
                            ContentId& content,
                            std::vector<std::uint32_t>& leaders) {
  Reader r{frame.data(), frame.data() + frame.size()};
  MessageType type{};
  std::uint8_t flags = 0;
  WIRE_TRY(read_head(r, kFlagContentId, type, flags, content));
  if (type != MessageType::kCcArray) return DecodeStatus::kBadType;
  std::uint64_t count = 0;
  WIRE_TRY(r.get_varint(count));
  if (count > kMaxCodeLength) return DecodeStatus::kMalformed;
  // Every entry is ≥ 1 byte, so bound the declared count by the frame
  // before reserving storage.
  if (count > r.remaining()) return DecodeStatus::kTruncated;
  leaders.clear();
  leaders.reserve(static_cast<std::size_t>(count));
  for (std::uint64_t i = 0; i < count; ++i) {
    std::uint64_t leader = 0;
    WIRE_TRY(r.get_varint(leader));
    if (leader > 0xFFFFFFFFULL) return DecodeStatus::kMalformed;
    leaders.push_back(static_cast<std::uint32_t>(leader));
  }
  return finish(r);
}

}  // namespace ltnc::wire
