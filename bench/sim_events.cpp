// Event-engine scaling bench — the tentpole's scaling law, written to
// BENCH_sim.json so successive PRs can track it.
//
// For each swarm size n the bench runs a single-content LTNC dissemination
// (k = 16, 16-byte blocks — small content keeps the 10⁶-node point inside
// a laptop's RAM; the engine cost scales with *events*, not content size)
// through the discrete-event engine in kScale mode and records:
//
//   events/sec        wheel events dispatched per wall-clock second
//   peak RSS          ru_maxrss of a *forked* child that ran only that
//                     point — allocator retention from a previous (bigger)
//                     point can never leak into a smaller one
//   completion rounds how many gossip periods full dissemination took
//
// plus a lockstep-vs-engine wall-clock comparison at small n, where both
// drivers produce statistically equivalent runs.
//
// Default sweep: n ∈ {10³, 10⁴, 10⁵}. --full adds the 10⁶-node point
// (minutes, not hours, on one core). --nodes=N runs a single point — the
// CI smoke uses --nodes=100000.
//
// Usage: sim_events [--full] [--nodes=N] [--seed=S] [--out=FILE]
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <string>
#include <string_view>
#include <vector>

#include "dissemination/event_engine.hpp"
#include "dissemination/simulation.hpp"
#include "metrics/emitter.hpp"

namespace {

using namespace ltnc;

dissem::SimConfig scaling_config(std::size_t n, std::uint64_t seed) {
  dissem::SimConfig cfg;
  cfg.num_nodes = n;
  cfg.k = 16;
  cfg.payload_bytes = 16;
  cfg.seed = seed;
  cfg.source_pushes_per_round = 4;
  cfg.max_rounds = 5000;
  return cfg;
}

long peak_rss_kb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return usage.ru_maxrss;  // KiB on Linux
}

/// One sweep point, run to completion in *this* process.
metrics::RunRecord run_point(std::size_t n, std::uint64_t seed) {
  const dissem::SimConfig cfg = scaling_config(n, seed);
  dissem::EventSimulation sim(session::Scheme::kLtnc, cfg,
                              dissem::EngineMode::kScale);
  const auto start = std::chrono::steady_clock::now();
  const dissem::SimResult result = sim.run();
  const auto stop = std::chrono::steady_clock::now();
  const double seconds = std::chrono::duration<double>(stop - start).count();

  metrics::RunRecord record = dissem::sim_run_record(result);
  record.set("engine", std::string("event-scale"));
  record.set("seconds", seconds);
  record.set("events_processed", sim.events_processed());
  record.set("events_per_sec",
             static_cast<double>(sim.events_processed()) / seconds);
  record.set("materialized_nodes",
             static_cast<std::uint64_t>(sim.core().materialized_count()));
  record.set("peak_rss_kb", static_cast<std::uint64_t>(peak_rss_kb()));
  return record;
}

/// Forks a child that runs one sweep point and writes its record, as one
/// JSON object, through a pipe — ru_maxrss then measures exactly that
/// point's footprint.
std::string run_point_forked(std::size_t n, std::uint64_t seed) {
  int fds[2];
  if (pipe(fds) != 0) {
    std::cerr << "pipe failed: " << std::strerror(errno) << "\n";
    return {};
  }
  const pid_t pid = fork();
  if (pid < 0) {
    std::cerr << "fork failed; running n=" << n << " in-process\n";
    close(fds[0]);
    close(fds[1]);
    return metrics::json_object(run_point(n, seed));
  }
  if (pid == 0) {
    close(fds[0]);
    const std::string json = metrics::json_object(run_point(n, seed));
    std::size_t off = 0;
    while (off < json.size()) {
      const ssize_t w =
          write(fds[1], json.data() + off, json.size() - off);
      if (w <= 0) break;
      off += static_cast<std::size_t>(w);
    }
    close(fds[1]);
    _exit(0);
  }
  close(fds[1]);
  std::string json;
  char buf[4096];
  ssize_t r = 0;
  while ((r = read(fds[0], buf, sizeof buf)) > 0) {
    json.append(buf, static_cast<std::size_t>(r));
  }
  close(fds[0]);
  int status = 0;
  waitpid(pid, &status, 0);
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0 || json.empty()) {
    std::cerr << "child for n=" << n << " failed\n";
    return {};
  }
  return json;
}

/// Lockstep vs event engine at small n: both run the same config (the
/// trajectories differ — kScale re-orders draws — but the work is the
/// same dissemination).
std::string run_speedup_point(std::size_t n, std::uint64_t seed) {
  const dissem::SimConfig cfg = scaling_config(n, seed);

  const auto t0 = std::chrono::steady_clock::now();
  const dissem::SimResult lock =
      dissem::run_simulation(session::Scheme::kLtnc, cfg);
  const auto t1 = std::chrono::steady_clock::now();
  const dissem::SimResult event = dissem::run_event_simulation(
      session::Scheme::kLtnc, cfg, dissem::EngineMode::kScale);
  const auto t2 = std::chrono::steady_clock::now();

  const double lock_s = std::chrono::duration<double>(t1 - t0).count();
  const double event_s = std::chrono::duration<double>(t2 - t1).count();

  metrics::RunRecord record;
  record.set("engine", std::string("lockstep-vs-event"));
  record.set("num_nodes", static_cast<std::uint64_t>(n));
  record.set("lockstep_seconds", lock_s);
  record.set("lockstep_rounds",
             static_cast<std::uint64_t>(lock.rounds_run));
  record.set("event_seconds", event_s);
  record.set("event_rounds", static_cast<std::uint64_t>(event.rounds_run));
  record.set("speedup", lock_s / event_s);
  record.set("both_complete", lock.all_complete && event.all_complete);
  return metrics::json_object(record);
}

}  // namespace

int main(int argc, char** argv) {
  bool full = false;
  std::size_t only_nodes = 0;
  std::uint64_t seed = 1;
  std::string out_path = "BENCH_sim.json";
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg == "--full") {
      full = true;
    } else if (arg.rfind("--nodes=", 0) == 0) {
      only_nodes = static_cast<std::size_t>(
          std::atoll(std::string(arg.substr(8)).c_str()));
    } else if (arg.rfind("--seed=", 0) == 0) {
      seed = static_cast<std::uint64_t>(
          std::atoll(std::string(arg.substr(7)).c_str()));
    } else if (arg.rfind("--out=", 0) == 0) {
      out_path = std::string(arg.substr(6));
    } else if (arg == "--help" || arg == "-h") {
      std::cout << "flags: --full --nodes=N --seed=S --out=FILE\n";
      return 0;
    }
  }

  std::vector<std::size_t> sweep{1000, 10000, 100000};
  if (full) sweep.push_back(1000000);
  if (only_nodes != 0) sweep.assign(1, only_nodes);

  std::vector<std::string> objects;
  for (const std::size_t n : sweep) {
    std::cerr << "sim_events: n=" << n << "...\n";
    std::string json = run_point_forked(n, seed);
    if (json.empty()) return 1;
    std::cerr << "  " << json << "\n";
    objects.push_back(std::move(json));
  }
  if (only_nodes == 0) {
    std::cerr << "sim_events: lockstep-vs-event at n=1000...\n";
    objects.push_back(run_speedup_point(1000, seed));
    std::cerr << "  " << objects.back() << "\n";
  }

  std::ofstream out(out_path);
  if (!out) {
    std::cerr << "cannot open " << out_path << "\n";
    return 1;
  }
  metrics::write_json_objects(out, objects);
  std::cout << "wrote " << out_path << "\n";
  return 0;
}
