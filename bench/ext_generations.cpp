// Extension bench — generations over LTNC (paper §I points at Avalanche's
// generations [2][13] as a directly applicable optimisation).
//
// Sweeps the generation count G for a fixed content of K blocks through a
// source → relay → sink pipeline and reports the classic trade-off:
// smaller code vectors and cheaper decoding versus more packets needed
// (each generation pays its own LT overhead and the coupon-collector cost
// of hitting the last incomplete generation).
#include <iostream>
#include <vector>

#include "bench_util.hpp"
#include "core/generations.hpp"
#include "lt/lt_encoder.hpp"

namespace {

using namespace ltnc;

struct RunResult {
  std::size_t packets_to_sink = 0;
  std::uint64_t decode_ctrl_ops = 0;
  std::size_t header_bytes = 0;
  bool ok = false;
};

RunResult run(std::size_t total_blocks, std::size_t generations,
              std::size_t payload_bytes, std::uint64_t seed) {
  const std::size_t per_gen = total_blocks / generations;
  const auto all =
      lt::make_native_payloads(total_blocks, payload_bytes, seed);
  std::vector<lt::LtEncoder> sources;
  for (std::size_t g = 0; g < generations; ++g) {
    std::vector<Payload> slice(all.begin() + g * per_gen,
                               all.begin() + (g + 1) * per_gen);
    sources.emplace_back(std::move(slice));
  }

  core::GenerationConfig cfg;
  cfg.total_blocks = total_blocks;
  cfg.generations = generations;
  cfg.payload_bytes = payload_bytes;
  core::GenerationedLtnc relay(cfg);
  core::GenerationedLtnc sink(cfg);

  Rng rng(seed + 5);
  RunResult result;
  const std::size_t budget = 80 * total_blocks;
  for (std::size_t step = 0; step < budget && !sink.complete(); ++step) {
    const auto g = static_cast<std::uint32_t>(rng.uniform(generations));
    relay.receive(core::GenerationPacket{g, sources[g].encode(rng)});
    if (auto pkt = relay.recode(rng)) {
      result.header_bytes += pkt->wire_bytes() - payload_bytes;
      if (!sink.would_reject(pkt->generation, pkt->packet.coeffs)) {
        sink.receive(*pkt);
        ++result.packets_to_sink;
      }
    }
  }
  result.ok = sink.complete();
  result.decode_ctrl_ops = sink.decode_ops().control_total();
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace ltnc;
  const auto args = bench::Args::parse(argc, argv);
  const std::size_t total = args.k != 0 ? args.k : (args.full ? 2048 : 512);
  constexpr std::size_t m = 64;

  bench::print_header(
      args,
      "Extension: generations over LTNC (header size vs coding efficiency)",
      "K = " + std::to_string(total) + " blocks, m = " + std::to_string(m) +
          " B, source->relay->sink pipeline");

  std::vector<metrics::RunRecord> table;
  for (const std::size_t g : {std::size_t{1}, std::size_t{4}, std::size_t{16},
                              std::size_t{64}}) {
    if (total % g != 0) continue;
    const RunResult r = run(total, g, m, args.seed);
    table.push_back({{"generations", g},
                     {"code vector B", (total / g + 7) / 8},
                     {"pkts to sink", r.packets_to_sink},
                     {"decode ctrl ops", r.decode_ctrl_ops},
                     {"complete", r.ok ? "yes" : "NO"}});
  }
  bench::emit(args, table);
  bench::prose(args) << "\nexpected: headers and decode control shrink with "
                        "G while the packets needed grow (per-generation LT "
                        "overhead).\n";
  return 0;
}
