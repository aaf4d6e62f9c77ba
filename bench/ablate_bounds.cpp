// Ablation — §III-B.1 reachability bounds on/off.
//
// The two bounds discard degree draws the node cannot possibly build,
// avoiding wasted builds that fall short of their target. Without them
// every draw is accepted and the builder's target-hit rate collapses in
// the early (sparse) dissemination phase.
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

  bench::print_header(args, "Ablation: degree reachability bounds (§III-B.1)",
                      "N = " + std::to_string(cfg.num_nodes) +
                          ", k = " + std::to_string(cfg.k) +
                          ", runs = " + std::to_string(runs));

  const auto on = metrics::run_monte_carlo(Scheme::kLtnc, cfg, runs);
  dissem::SimConfig off_cfg = cfg;
  off_cfg.ltnc.enable_reachability_bounds = false;
  const auto off = metrics::run_monte_carlo(Scheme::kLtnc, off_cfg, runs);

  bench::Ablation table{"bounds"};
  table.add("build reaches target %", 100 * on.build_target_rate,
            100 * off.build_target_rate, 1);
  table.add("mean relative degree deviation %",
            100 * on.build_mean_relative_deviation,
            100 * off.build_mean_relative_deviation, 2);
  table.add("communication overhead %", 100 * on.overhead.mean(),
            100 * off.overhead.mean(), 1);
  table.add("mean completion round", on.mean_completion.mean(),
            off.mean_completion.mean(), 1);
  bench::emit(args, table.rows);
  bench::prose(args) << "\nexpected: OFF accepts unreachable degrees, so "
                        "builds fall short of their targets far more often.\n";
  return 0;
}
