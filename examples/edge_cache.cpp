// edge_cache — a coded edge cache serving a Zipf catalog of users.
//
// An edge node holds popularity-weighted fractions of LT-coded symbols
// under a byte budget; users fetch contents drawn from a Zipf(α)
// catalog, take whatever the edge holds, and complete the decode from
// the origin source — every cached symbol is one the backhaul never
// carries. Three drivers share the scenario: the discrete-event engine
// (scale), the SimChannel wire path (loss/reorder faults), and real UDP
// loopback sockets.
//
//   ./build/examples/edge_cache [users] [requests-per-user]
//       [--contents N] [--alpha A] [--capacity-frac F]
//       [--policy lru|lfu|popularity] [--loss P] [--churn P]
//       [--driver event|sim|udp] [--seed S] [--prom FILE]
//
// Exits nonzero unless every request completed and verified — the CI
// smoke contract.
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>
#include <string_view>

#include "cache/harness.hpp"
#include "telemetry/export.hpp"
#include "telemetry/metrics.hpp"

int main(int argc, char** argv) {
  std::size_t users = 16;
  std::size_t requests = 4;
  std::size_t contents = 64;
  double alpha = 1.0;
  double capacity_frac = 0.5;
  ltnc::cache::Policy policy = ltnc::cache::Policy::kPopularity;
  double loss = 0.0;
  double churn = 0.0;
  std::string driver = "sim";
  std::uint64_t seed = 1;
  std::string prom_path;

  std::size_t positional = 0;
  auto flag_value = [&](int& i) -> const char* {
    if (i + 1 >= argc) {
      std::cerr << argv[i] << " needs a value\n";
      return nullptr;
    }
    return argv[++i];
  };
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    const char* v = nullptr;
    if (arg == "--contents") {
      if ((v = flag_value(i)) == nullptr) return 2;
      contents = static_cast<std::size_t>(std::atoll(v));
    } else if (arg == "--alpha") {
      if ((v = flag_value(i)) == nullptr) return 2;
      alpha = std::atof(v);
    } else if (arg == "--capacity-frac") {
      if ((v = flag_value(i)) == nullptr) return 2;
      capacity_frac = std::atof(v);
    } else if (arg == "--policy") {
      if ((v = flag_value(i)) == nullptr) return 2;
      const auto parsed = ltnc::cache::policy_from_string(v);
      if (!parsed) {
        std::cerr << "unknown policy " << v << " (lru|lfu|popularity)\n";
        return 2;
      }
      policy = *parsed;
    } else if (arg == "--loss") {
      if ((v = flag_value(i)) == nullptr) return 2;
      loss = std::atof(v);
    } else if (arg == "--churn") {
      if ((v = flag_value(i)) == nullptr) return 2;
      churn = std::atof(v);
    } else if (arg == "--driver") {
      if ((v = flag_value(i)) == nullptr) return 2;
      driver = v;
    } else if (arg == "--seed") {
      if ((v = flag_value(i)) == nullptr) return 2;
      seed = static_cast<std::uint64_t>(std::atoll(v));
    } else if (arg == "--prom") {
      if ((v = flag_value(i)) == nullptr) return 2;
      prom_path = v;
    } else if (arg == "--help" || arg == "-h") {
      std::cout << "usage: edge_cache [users] [requests-per-user]"
                   " [--contents N] [--alpha A] [--capacity-frac F]"
                   " [--policy lru|lfu|popularity] [--loss P] [--churn P]"
                   " [--driver event|sim|udp] [--seed S] [--prom FILE]\n";
      return 0;
    } else if (positional == 0) {
      users = static_cast<std::size_t>(std::atoll(argv[i]));
      ++positional;
    } else if (positional == 1) {
      requests = static_cast<std::size_t>(std::atoll(argv[i]));
      ++positional;
    } else {
      std::cerr << "unexpected argument " << arg << "\n";
      return 2;
    }
  }

  ltnc::telemetry::Registry registry;
  ltnc::cache::CacheScenario sc;
  sc.catalog.contents = contents;
  sc.catalog.alpha = alpha;
  sc.catalog.k = 32;
  sc.catalog.symbol_bytes = 64;
  sc.catalog.seed = seed;
  sc.catalog.content_churn = churn;
  sc.cache.policy = policy;
  sc.users = users;
  sc.requests_per_user = requests;
  sc.loss_rate = loss;
  sc.seed = seed;
  sc.registry = &registry;
  const std::size_t ws = ltnc::cache::working_set_bytes(sc.catalog, sc.cache);
  sc.cache.capacity_bytes =
      static_cast<std::size_t>(static_cast<double>(ws) * capacity_frac);

  std::cout << "edge_cache: " << users << " users x " << requests
            << " requests, " << contents << " contents, zipf(" << alpha
            << "), policy " << ltnc::cache::policy_name(policy)
            << ", capacity " << sc.cache.capacity_bytes << "/" << ws
            << " bytes, driver " << driver << "\n";

  const auto start = std::chrono::steady_clock::now();
  ltnc::cache::CacheRunStats r;
  if (driver == "event") {
    ltnc::cache::EventCacheConfig cfg;
    cfg.scenario = sc;
    r = run_event_cache(cfg);
  } else if (driver == "sim") {
    ltnc::cache::SimCacheConfig cfg;
    cfg.scenario = sc;
    cfg.channel.loss_rate = loss;
    r = run_sim_cache(cfg);
  } else if (driver == "udp") {
    ltnc::cache::UdpCacheConfig cfg;
    cfg.scenario = sc;
    r = run_udp_cache(cfg);
  } else {
    std::cerr << "unknown driver " << driver << " (event|sim|udp)\n";
    return 2;
  }

  const double seconds = std::chrono::duration<double>(
                             std::chrono::steady_clock::now() - start)
                             .count();
  // The same record bench/edge_cache writes, with the driver as section.
  ltnc::metrics::write_table(
      std::cout,
      ltnc::cache::cache_run_record(driver, capacity_frac, sc, r, seconds));

  if (!prom_path.empty()) {
    std::ofstream out(prom_path, std::ios::trunc);
    if (!out) {
      std::cerr << "edge_cache: cannot open " << prom_path << "\n";
      return 1;
    }
    ltnc::telemetry::render_prometheus(out, registry.snapshot());
    std::cout << "  prometheus -> " << prom_path << "\n";
  }

  // Smoke contract: every request decoded and verified. Churn runs may
  // legitimately fail stragglers (a content replaced mid-flight), so the
  // bar relaxes to "most" there.
  if (r.requests == 0) return 1;
  if (churn > 0.0) {
    return r.completed * 10 >= r.requests * 9 ? 0 : 1;
  }
  return (r.completed == r.requests && r.verify_failures == 0) ? 0 : 1;
}
