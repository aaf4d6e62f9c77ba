// e2e_transfer — runs one closed-loop transfer workload repeatedly and
// writes every repetition's raw measurements as JSON; run.py turns them
// into the benchmark's metrics.
//
//   e2e_transfer --workload <unicast_udp|swarm_sim|fanout_udp_sharded>
//                --seed N --seconds S --trace 0|1 --out FILE
//                [--chrome FILE]
//
// --trace 0: one warm-up repetition, then repetitions with tracing off
//   for S seconds (at least the workload's minimum count).
// --trace 1: one warm-up repetition, then for S seconds pairs of an
//   untraced and a traced repetition (spans around every library call,
//   in memory) on the same inputs, then the handle_frame replay split;
//   --chrome receives the kept spans as Chrome trace_event JSON.
// Exit status: 0 when every transfer verified and every seed-determined
// count repeated, 1 when a transfer or a repeat check failed, 2 on usage
// or set-up errors.
#include <sys/resource.h>

#include <cstdlib>
#include <fstream>
#include <iostream>
#include <map>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/kernels.hpp"
#include "telemetry/telemetry.hpp"
#include "trace.hpp"
#include "workloads.hpp"

namespace e2e {
namespace {

struct Workload {
  const char* name;
  RepResult (*run)(std::uint64_t seed, Capture* capture);
  /// 0: every repetition draws fresh inputs. n > 0: repetition i replays
  /// input set i mod n, and its seed-determined counts, if it reports
  /// any, must match.
  std::uint32_t input_sets;
  /// Repetitions a --trace 0 run always makes, however long they take:
  /// enough for run.py's fast decile, or for every input set to be
  /// replayed at least twice.
  std::uint32_t min_reps;
};

constexpr Workload kWorkloads[] = {
    {"unicast_udp", run_unicast_udp, 4, 100},
    {"swarm_sim", run_swarm_sim, 4, 10},
    {"fanout_udp_sharded", run_fanout_udp_sharded, 0, 2},
};

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  int trace = 0;
  std::string out;
  std::string chrome;
};

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "e2e_transfer: " << why
            << "\nusage: e2e_transfer --workload W --seed N --seconds S "
               "--trace 0|1 --out FILE [--chrome FILE]\n";
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      a.workload = value;
    } else if (key == "--seed") {
      a.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      a.seconds = std::strtod(value.c_str(), nullptr);
    } else if (key == "--trace") {
      a.trace = std::atoi(value.c_str());
    } else if (key == "--out") {
      a.out = value;
    } else if (key == "--chrome") {
      a.chrome = value;
    } else {
      usage("unknown flag " + key);
    }
  }
  if (argc % 2 != 1) usage("flags take one value each");
  if (a.out.empty()) usage("--out is required");
  if (!(a.seconds > 0.0)) usage("--seconds must be positive");
  if (a.trace != 0 && a.trace != 1) usage("--trace must be 0 or 1");
  return a;
}

struct Phase {
  const char* name;
  std::vector<RepResult> reps;
};

class Runner {
 public:
  Runner(const Workload& w, std::uint64_t seed) : w_(w), seed_(seed) {}

  /// Input set of the next repetition: fresh inputs each time, or the
  /// workload's input sets in rotation.
  std::uint64_t next_set() {
    const std::uint64_t index = next_++;
    return w_.input_sets == 0 ? index : index % w_.input_sets;
  }

  /// Runs repetitions until `seconds` have passed and `min_reps` are done.
  Phase run(const char* name, double seconds, std::uint32_t min_reps) {
    Phase phase{name, {}};
    const std::int64_t start = now_ns();
    while (phase.reps.size() < min_reps || seconds_since(start) < seconds) {
      phase.reps.push_back(one(next_set(), nullptr));
    }
    return phase;
  }

  /// One repetition on input set `set`, recording into `capture` when
  /// given one.
  RepResult one(std::uint64_t set, Capture* capture) {
    RepResult r = w_.run(derive_seed(seed_, set), capture);
    r.input_set = set;
    failed_ += r.receivers - r.verified;
    attempted_ += r.receivers;
    if (!r.det.empty()) {
      auto [it, fresh] = det_.emplace(set, r.det);
      if (!fresh) ++det_checks_;
      if (!fresh && it->second != r.det) {
        std::cerr << "e2e_transfer: " << w_.name << " input set " << set
                  << " did not repeat its counts\n";
        det_ok_ = false;
      }
    }
    return r;
  }

  std::uint64_t attempted() const { return attempted_; }
  std::uint64_t failed() const { return failed_; }
  bool det_ok() const { return det_ok_; }
  std::uint64_t det_checks() const { return det_checks_; }

 private:
  const Workload& w_;
  std::uint64_t seed_;
  std::uint64_t next_ = 0;  ///< repetitions started
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  bool det_ok_ = true;
  std::uint64_t det_checks_ = 0;
  std::map<std::uint64_t, std::vector<std::uint64_t>> det_;
};

template <typename T>
void write_array(std::ostream& o, const char* key, const std::vector<T>& v) {
  o << ",\"" << key << "\":[";
  for (std::size_t i = 0; i < v.size(); ++i) o << (i ? "," : "") << v[i];
  o << "]";
}

void write_rep(std::ostream& o, const char* phase, const RepResult& r) {
  o << "{\"phase\":\"" << phase << "\",\"input_set\":" << r.input_set
    << ",\"setup_s\":" << r.setup_s
    << ",\"wall_s\":" << r.wall_s << ",\"loop_s\":" << r.loop_s
    << ",\"cpu_s\":" << r.cpu_s << ",\"receivers\":" << r.receivers
    << ",\"verified\":" << r.verified
    << ",\"content_bytes\":" << r.content_bytes
    << ",\"wire_bytes_received\":" << r.wire_bytes_received
    << ",\"frames_received\":" << r.frames_received
    << ",\"allocs\":" << r.allocs;
  write_array(o, "completion_s", r.completion_s);
  write_array(o, "completion_round", r.completion_round);
  write_array(o, "round_s", r.round_s);
  write_array(o, "round_cpu_s", r.round_cpu_s);
  o << ",\"round_digest\":" << r.round_digest;
  o << ",\"counts\":{";
  bool first = true;
  for (const auto& [k, v] : r.counts) {
    o << (first ? "" : ",") << "\"" << k << "\":" << v;
    first = false;
  }
  o << "}}";
}

void write_map(std::ostream& o, const std::map<std::string, double>& m) {
  o << "{";
  bool first = true;
  for (const auto& [k, v] : m) {
    o << (first ? "" : ",") << "\"" << k << "\":" << v;
    first = false;
  }
  o << "}";
}

long peak_rss_kb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return usage.ru_maxrss;
}

std::string compiler() {
#if defined(__clang__)
  return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  return std::string("gcc ") + __VERSION__;
#else
  return "unknown";
#endif
}

int run(const Args& args) {
  const Workload* w = nullptr;
  for (const Workload& candidate : kWorkloads) {
    if (args.workload == candidate.name) w = &candidate;
  }
  if (w == nullptr) usage("unknown workload '" + args.workload + "'");

  set_thread_role("main");
  Runner runner(*w, args.seed);
  std::vector<Phase> phases;
  phases.push_back({"warmup", {runner.one(runner.next_set(), nullptr)}});
  // The footprint of one transfer in a fresh process; later repetitions
  // add only allocator retention (new threads get new malloc arenas).
  const long first_rss_kb = peak_rss_kb();

  std::map<std::string, double> replay;
  SpanTotals all[static_cast<std::size_t>(Span::kCount)] = {};
  SpanTotals main_thread[static_cast<std::size_t>(Span::kCount)] = {};
  if (args.trace == 0) {
    phases.push_back(runner.run("untraced", args.seconds, w->min_reps));
  } else {
    // Untraced and traced repetitions alternate in pairs on the same
    // inputs, so the tracing overhead is not confounded with the host's
    // speed drifting between two halves of the run.
    Phase untraced{"untraced", {}};
    Phase traced{"traced", {}};
    Capture capture;
    reset_traces();
    const std::int64_t start = now_ns();
    while (traced.reps.size() < 3 || seconds_since(start) < args.seconds) {
      const std::uint64_t set = runner.next_set();
      untraced.reps.push_back(runner.one(set, nullptr));
      g_tracing.store(true);
      traced.reps.push_back(
          runner.one(set, traced.reps.empty() ? &capture : nullptr));
      g_tracing.store(false);
    }
    phases.push_back(std::move(untraced));
    phases.push_back(std::move(traced));
    sum_totals(all, nullptr);
    sum_totals(main_thread, "main");
    replay = replay_split(capture);
    if (!args.chrome.empty()) {
      std::ofstream chrome(args.chrome);
      dump_chrome_trace(chrome);
      if (!chrome) throw std::runtime_error("cannot write " + args.chrome);
    }
  }

  std::ofstream o(args.out);
  o.precision(17);
  o << "{\"workload\":\"" << w->name << "\",\"seed\":" << args.seed
    << ",\"trace\":" << args.trace << ",\"min_reps\":" << w->min_reps
    << ",\"attempted\":" << runner.attempted()
    << ",\"failed\":" << runner.failed()
    << ",\"repeat_checks\":" << runner.det_checks()
    << ",\"repeats_ok\":" << (runner.det_ok() ? "true" : "false")
    << ",\"peak_rss_kb\":" << first_rss_kb
    << ",\"final_peak_rss_kb\":" << peak_rss_kb() << ",\"provenance\":{"
    << "\"build_type\":\"" << E2E_BUILD_TYPE << "\",\"compiler\":\""
    << compiler() << "\",\"kernel_tier\":\""
    << ltnc::kernels::backend_name()
    << "\",\"hardware_concurrency\":" << std::thread::hardware_concurrency()
    << ",\"telemetry\":" << (LTNC_TELEMETRY_ENABLED ? "true" : "false")
    << "},\"reps\":[";
  bool first = true;
  for (const Phase& p : phases) {
    for (const RepResult& r : p.reps) {
      if (!first) o << ",\n";
      first = false;
      write_rep(o, p.name, r);
    }
  }
  o << "],\"spans\":{";
  for (std::size_t i = 0; i < static_cast<std::size_t>(Span::kCount); ++i) {
    o << (i ? "," : "") << "\"" << span_name(static_cast<Span>(i))
      << "\":{\"calls\":" << all[i].calls << ",\"total_ns\":"
      << all[i].total_ns << ",\"self_ns\":" << all[i].self_ns
      << ",\"main_self_ns\":" << main_thread[i].self_ns << "}";
  }
  o << "},\"replay\":";
  write_map(o, replay);
  o << "}\n";
  if (!o) throw std::runtime_error("cannot write " + args.out);
  return runner.failed() == 0 && runner.det_ok() ? 0 : 1;
}

}  // namespace
}  // namespace e2e

int main(int argc, char** argv) {
  const e2e::Args args = e2e::parse(argc, argv);
  try {
    return e2e::run(args);
  } catch (const std::exception& e) {
    std::cerr << "e2e_transfer: " << e.what() << "\n";
    return 2;
  }
}
