// Self-healing distributed storage (paper §I and §VI: "beyond epidemic
// content dissemination, LTNC can be used in self-healing distributed
// storage systems").
//
// A file of k blocks is stored as LT-encoded fragments spread over many
// storage bricks. When bricks die, the survivors regenerate *fresh*
// LT-structured fragments with LTNC's recoding — without ever decoding
// the file — and hand them to replacement bricks. The demo kills bricks
// repeatedly, repairs, and finally proves the file still decodes with
// belief propagation from the surviving fragments alone.
//
//   ./build/examples/storage_repair [bricks] [blocks] [rounds]
#include <cstdlib>
#include <iostream>
#include <memory>
#include <vector>

#include "common/rng.hpp"
#include "core/ltnc_codec.hpp"
#include "lt/bp_decoder.hpp"
#include "lt/lt_encoder.hpp"

namespace {

using namespace ltnc;

// A storage brick holds a bounded number of encoded fragments and an LTNC
// state to recode repairs from what it holds.
class Brick {
 public:
  Brick(std::size_t k, std::size_t m) {
    core::LtncConfig cfg;
    cfg.k = k;
    cfg.payload_bytes = m;
    state_ = std::make_unique<core::LtncCodec>(cfg);
  }

  void store(const CodedPacket& fragment) {
    fragments_.push_back(fragment);
    state_->receive(fragment);
  }

  std::optional<CodedPacket> repair_fragment(Rng& rng) {
    return state_->recode(rng);
  }

  const std::vector<CodedPacket>& fragments() const { return fragments_; }

 private:
  std::vector<CodedPacket> fragments_;
  std::unique_ptr<core::LtncCodec> state_;
};

}  // namespace

int main(int argc, char** argv) {
  const std::size_t bricks =
      argc > 1 ? static_cast<std::size_t>(std::atoll(argv[1])) : 24;
  const std::size_t k =
      argc > 2 ? static_cast<std::size_t>(std::atoll(argv[2])) : 128;
  const std::size_t failure_rounds =
      argc > 3 ? static_cast<std::size_t>(std::atoll(argv[3])) : 6;
  constexpr std::size_t m = 128;
  constexpr std::uint64_t content_seed = 77;
  const std::size_t fragments_per_brick = (3 * k / bricks) + 2;

  const auto natives = lt::make_native_payloads(k, m, content_seed);
  lt::LtEncoder archiver(lt::make_native_payloads(k, m, content_seed));
  Rng rng(5);

  // --- initial placement: LT fragments spread over the bricks ----------
  std::vector<std::unique_ptr<Brick>> field;
  for (std::size_t b = 0; b < bricks; ++b) {
    auto brick = std::make_unique<Brick>(k, m);
    for (std::size_t f = 0; f < fragments_per_brick; ++f) {
      brick->store(archiver.encode(rng));
    }
    field.push_back(std::move(brick));
  }
  std::cout << "stored " << bricks * fragments_per_brick
            << " LT fragments on " << bricks << " bricks ("
            << fragments_per_brick << " each) for a " << k
            << "-block file\n";

  // --- failure / repair cycles ------------------------------------------
  std::size_t repaired_fragments = 0;
  for (std::size_t round = 0; round < failure_rounds; ++round) {
    // A random brick dies with everything on it.
    const std::size_t dead = rng.uniform(field.size());
    field[dead] = std::make_unique<Brick>(k, m);
    // Survivors regenerate fresh fragments for the replacement — note:
    // nobody decodes the file; repairs are pure recoding (paper §I, the
    // self-healing-storage use of LTNC, as [18][19] do with RLNC).
    for (std::size_t f = 0; f < fragments_per_brick; ++f) {
      const std::size_t donor = rng.uniform(field.size());
      if (donor == dead) continue;
      if (auto fragment = field[donor]->repair_fragment(rng)) {
        field[dead]->store(*fragment);
        ++repaired_fragments;
      }
    }
  }
  std::cout << failure_rounds << " bricks failed and were repaired with "
            << repaired_fragments << " freshly recoded fragments\n";

  // --- recovery proof ----------------------------------------------------
  lt::BpDecoder reader(k, m);
  std::size_t fragments_read = 0;
  for (const auto& brick : field) {
    for (const auto& fragment : brick->fragments()) {
      if (reader.complete()) break;
      reader.receive(fragment);
      ++fragments_read;
    }
  }
  std::size_t intact = 0;
  if (reader.complete()) {
    for (std::size_t i = 0; i < k; ++i) {
      intact +=
          reader.native_payload(static_cast<NativeIndex>(i)) == natives[i];
    }
  }
  std::cout << "recovery: read " << fragments_read << " fragments, decoded "
            << reader.decoded_count() << "/" << k << " blocks, " << intact
            << " verified byte-exact (belief propagation, "
            << reader.ops().control_total() << " control ops)\n";
  return (reader.complete() && intact == k) ? 0 : 1;
}
