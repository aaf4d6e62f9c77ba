// Edge-cache capacity sweep: hit rate, source offload and backhaul bytes
// versus cache capacity, as a fraction of the catalog's working set.
//
//   section "event"   timer-wheel driver, 10^4 users (10^5 with --full),
//                     Zipf(1.0) over 256 contents, k=32, 64-B symbols —
//                     the scale curve
//   section "udp"     real UDP loopback through session::Endpoint at a
//                     coarse capacity grid — the wire-truth curve
//   section "sim"     one SimChannel row under loss (full frame path)
//   section "policy"  LRU and LFU reactive-warming rows at half the
//                     working set (no proactive fill)
//
// The popularity placement is nested by construction (same per-content
// fill stream at every capacity), so the event and udp curves must be
// monotone: hit rate and offload non-decreasing in capacity, backhaul
// non-increasing, and the catalog head fully served at capacity >= the
// working set. The bench asserts this and exits nonzero on violation —
// the CI smoke run turns a placement regression into a red build.
//
// Writes BENCH_cache.json (one flat array; bench/diff_bench.py globs
// it). Flags (bench::Args): --full --seed=S --out=FILE, and --nodes=N for
// the user count of the event sweep.
#include <cstdint>
#include <iostream>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "cache/harness.hpp"
#include "metrics/emitter.hpp"

namespace {

using ltnc::cache::cache_run_record;
using ltnc::cache::CacheScenario;
using ltnc::cache::Policy;
using ltnc::metrics::RunRecord;

/// The catalog shape shared by every section: Zipf(1.0) over 256
/// contents of k=32 symbols, 64 B each — small enough that the event
/// driver holds 10^5 users in RAM, large enough that capacity choices
/// matter.
CacheScenario base_scenario(std::uint64_t seed) {
  CacheScenario s;
  s.catalog.contents = 256;
  s.catalog.alpha = 1.0;
  s.catalog.k = 32;
  s.catalog.symbol_bytes = 64;
  s.catalog.seed = seed;
  s.cache.policy = Policy::kPopularity;
  s.requests_per_user = 4;
  s.seed = seed;
  return s;
}

struct CurvePoint {
  double frac = 0.0;
  double hit = 0.0;
  double offload = 0.0;
  std::uint64_t backhaul = 0;
};

/// Asserts the capacity curve's shape; returns false (and complains on
/// stderr) when the placement lost its nesting property.
bool check_monotone(const std::string& section,
                    const std::vector<CurvePoint>& curve) {
  bool ok = true;
  for (std::size_t i = 1; i < curve.size(); ++i) {
    const CurvePoint& a = curve[i - 1];
    const CurvePoint& b = curve[i];
    if (b.hit + 1e-12 < a.hit) {
      std::cerr << section << ": hit rate fell " << a.hit << " -> " << b.hit
                << " between frac " << a.frac << " and " << b.frac << "\n";
      ok = false;
    }
    if (b.offload + 1e-12 < a.offload) {
      std::cerr << section << ": offload fell " << a.offload << " -> "
                << b.offload << " between frac " << a.frac << " and "
                << b.frac << "\n";
      ok = false;
    }
    if (b.backhaul > a.backhaul) {
      std::cerr << section << ": backhaul rose " << a.backhaul << " -> "
                << b.backhaul << " between frac " << a.frac << " and "
                << b.frac << "\n";
      ok = false;
    }
  }
  return ok;
}

}  // namespace

int main(int argc, char** argv) {
  const auto args = ltnc::bench::Args::parse(argc, argv);
  const bool full = args.full;
  const std::uint64_t seed = args.seed;

  std::vector<RunRecord> records;
  bool curves_ok = true;
  double head_at_ws = -1.0;

  const std::size_t ws = ltnc::cache::working_set_bytes(
      base_scenario(seed).catalog, base_scenario(seed).cache);
  std::cerr << "edge_cache: working set = " << ws << " bytes\n";

  // --- event-engine capacity sweep -----------------------------------------
  const std::size_t event_users =
      args.nodes != 0 ? args.nodes : (full ? 100'000 : 10'000);
  const std::vector<double> fracs{0.0, 0.125, 0.25, 0.5, 0.75, 1.0, 1.25};
  std::cerr << "edge_cache: event sweep (" << event_users << " users)\n";
  std::vector<CurvePoint> event_curve;
  for (const double frac : fracs) {
    ltnc::cache::EventCacheConfig cfg;
    cfg.scenario = base_scenario(seed);
    cfg.scenario.users = event_users;
    cfg.scenario.cache.capacity_bytes =
        static_cast<std::size_t>(static_cast<double>(ws) * frac);
    const auto [r, seconds] =
        ltnc::bench::timed([&] { return run_event_cache(cfg); });
    std::cerr << "  event frac=" << frac << ": hit=" << r.hit_rate()
              << " offload=" << r.offload() << " backhaul=" << r.backhaul_bytes
              << " (" << seconds << "s)\n";
    event_curve.push_back({frac, r.hit_rate(), r.offload(), r.backhaul_bytes});
    if (frac == 1.0) head_at_ws = r.head_hit_rate();
    records.push_back(
        cache_run_record("event", frac, cfg.scenario, r, seconds));
  }
  curves_ok = check_monotone("event", event_curve) && curves_ok;

  // --- UDP loopback coarse sweep -------------------------------------------
  const std::vector<double> udp_fracs{0.0, 0.5, 1.25};
  std::cerr << "edge_cache: udp sweep\n";
  std::vector<CurvePoint> udp_curve;
  for (const double frac : udp_fracs) {
    ltnc::cache::UdpCacheConfig cfg;
    cfg.scenario = base_scenario(seed);
    cfg.scenario.users = 8;
    cfg.scenario.cache.capacity_bytes =
        static_cast<std::size_t>(static_cast<double>(ws) * frac);
    const auto [r, seconds] =
        ltnc::bench::timed([&] { return run_udp_cache(cfg); });
    std::cerr << "  udp frac=" << frac << ": hit=" << r.hit_rate()
              << " offload=" << r.offload() << " backhaul=" << r.backhaul_bytes
              << " (" << seconds << "s)\n";
    udp_curve.push_back({frac, r.hit_rate(), r.offload(), r.backhaul_bytes});
    records.push_back(cache_run_record("udp", frac, cfg.scenario, r, seconds));
  }
  curves_ok = check_monotone("udp", udp_curve) && curves_ok;

  // --- SimChannel row under loss (full frame path) -------------------------
  {
    ltnc::cache::SimCacheConfig cfg;
    cfg.scenario = base_scenario(seed);
    cfg.scenario.users = 16;
    cfg.scenario.loss_rate = 0.05;
    cfg.scenario.cache.capacity_bytes = ws;
    const auto [r, seconds] =
        ltnc::bench::timed([&] { return run_sim_cache(cfg); });
    std::cerr << "  sim loss=0.05: hit=" << r.hit_rate()
              << " completed=" << r.completed << "/" << r.requests << " ("
              << seconds << "s)\n";
    records.push_back(cache_run_record("sim", 1.0, cfg.scenario, r, seconds));
  }

  // --- reactive policies at half the working set ---------------------------
  for (const Policy policy : {Policy::kLru, Policy::kLfu}) {
    ltnc::cache::EventCacheConfig cfg;
    cfg.scenario = base_scenario(seed);
    cfg.scenario.users = full ? 10'000 : 2'000;
    cfg.scenario.cache.policy = policy;
    cfg.scenario.cache.capacity_bytes = ws / 2;
    const auto [r, seconds] =
        ltnc::bench::timed([&] { return run_event_cache(cfg); });
    std::cerr << "  policy " << ltnc::cache::policy_name(policy)
              << ": hit=" << r.hit_rate() << " evicted=" << r.evicted_entries
              << " (" << seconds << "s)\n";
    records.push_back(
        cache_run_record("policy", 0.5, cfg.scenario, r, seconds));
  }

  if (!ltnc::bench::write_baseline(args.out_or("BENCH_cache.json"),
                                   records)) {
    return 1;
  }

  if (!curves_ok) {
    std::cerr << "edge_cache: capacity curves are not monotone\n";
    return 1;
  }
  if (head_at_ws < 0.9) {
    std::cerr << "edge_cache: head hit rate " << head_at_ws
              << " < 0.9 at capacity = working set\n";
    return 1;
  }
  return 0;
}
