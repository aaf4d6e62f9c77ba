// Ablation — §III-C.1 redundancy detection on/off.
//
// The paper reports the mechanism "decreases by 31 % the number of
// redundant encoded packets inserted in the data structure upon
// reception". With the binary feedback channel the same detector also
// aborts transfers, so turning it off shows up in overhead, wasted
// payload bytes and stored-packet bloat.
#include <iostream>

#include "bench_util.hpp"
#include "metrics/experiment.hpp"

int main(int argc, char** argv) {
  using namespace ltnc;
  using session::Scheme;
  const auto args = bench::Args::parse(argc, argv);

  dissem::SimConfig cfg;
  cfg.num_nodes = args.nodes != 0 ? args.nodes : 128;
  cfg.k = args.k != 0 ? args.k : (args.full ? 2048 : 512);
  cfg.payload_bytes = 64;
  cfg.seed = args.seed;
  cfg.max_rounds = 120 * cfg.k;
  const std::size_t runs = args.runs != 0 ? args.runs : 3;

  bench::print_header(args, "Ablation: redundancy detection (Algorithm 3)",
                      "N = " + std::to_string(cfg.num_nodes) +
                          ", k = " + std::to_string(cfg.k) +
                          ", runs = " + std::to_string(runs));

  const auto on = metrics::run_monte_carlo(Scheme::kLtnc, cfg, runs);
  dissem::SimConfig off_cfg = cfg;
  off_cfg.ltnc.enable_redundancy_detection = false;
  const auto off = metrics::run_monte_carlo(Scheme::kLtnc, off_cfg, runs);

  bench::Ablation table{"detector"};
  table.add("communication overhead %", 100 * on.overhead.mean(),
            100 * off.overhead.mean(), 1);
  table.add("abort rate %", 100 * on.abort_rate.mean(),
            100 * off.abort_rate.mean(), 1);
  table.add("mean completion round", on.mean_completion.mean(),
            off.mean_completion.mean(), 1);
  table.add("decode ctrl ops / node", on.decode_control_per_node,
            off.decode_control_per_node, 0);
  bench::emit(args, table.rows);

  const double reduction =
      off.overhead.mean() > 0.0
          ? 100.0 * (1.0 - on.overhead.mean() / off.overhead.mean())
          : 0.0;
  bench::prose(args)
      << "\nredundant payload insertions removed by the detector: "
      << metrics::fixed(reduction, 1) << "% (paper: 31%)\n";
  return 0;
}
