#include "common/coded_packet.hpp"

#include "wire/codec.hpp"

namespace ltnc {

std::size_t CodedPacket::wire_bytes() const {
  return wire::serialized_size(ContentId{0}, *this);
}

}  // namespace ltnc
