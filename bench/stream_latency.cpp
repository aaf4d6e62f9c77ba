// Streaming latency figure: block-completion latency quantiles and
// deadline-miss rate versus channel loss, across all three stream
// harness drivers.
//
//   section "sim"    deterministic SimChannel fleet, fixed (non-adaptive)
//                    redundancy so the miss-rate-vs-loss curve is a clean
//                    monotone readout of what loss does to a fixed budget
//   section "sim-adaptive"  same sweep with the loss estimate fed back
//                    into the budget — what the deadline scheduler buys
//   section "udp"    real datagrams over loopback (microsecond domain),
//                    sender-side emulated loss
//   section "event"  timer-wheel broadcast at 10^4 receivers (10^5 with
//                    --full) — the scale point
//
// Writes BENCH_stream.json (one flat array; bench/diff_bench.py globs
// it). Flags: --full --seed=S --out=FILE --receivers=N
//
// The bench enforces its own claims and exits nonzero when one fails:
// no row may report a verify failure, and each seeded SimChannel sweep
// ("sim", "sim-adaptive") must miss nothing at zero loss and never miss
// less as loss rises.
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "metrics/emitter.hpp"
#include "stream/harness.hpp"

namespace {

using ltnc::metrics::RunRecord;
using ltnc::stream::StreamConfig;
using ltnc::stream::StreamRunStats;

/// The laptop-scale stream shape shared by the sim and UDP sweeps: 4 KiB
/// blocks of k=64 symbols, a deadline four block-cadences out. ε = 1.9
/// budgets ~2.9k symbols per block — what small-block LT belief
/// propagation needs for a ≥ 99.9 % first-try decode (see the probe
/// table in tests/stream_test.cpp; BP overhead shrinks as k grows).
StreamConfig sim_stream_shape(std::uint64_t blocks, std::uint64_t seed) {
  StreamConfig s;
  s.block_bytes = 4096;
  s.symbol_bytes = 64;  // k = 64
  s.ticks_per_block = 16;
  s.deadline_ticks = 64;
  s.window = 8;
  s.total_blocks = blocks;
  s.base_overhead = 1.9;
  s.seed = seed;
  return s;
}

/// The bench's acceptance claims, checked row by row (sweeps run in
/// ascending loss order).
class Claims {
 public:
  void check(const std::string& section, double loss,
             const StreamRunStats& r) {
    if (r.verify_failures != 0) {
      fail(section, loss, std::to_string(r.verify_failures) +
                              " verify failures");
    }
    if (section != "sim" && section != "sim-adaptive") return;
    if (loss == 0.0 && r.miss_rate() != 0.0) {
      fail(section, loss, "misses at zero loss");
    }
    const auto prev = last_miss_.find(section);
    if (prev != last_miss_.end() && r.miss_rate() < prev->second) {
      fail(section, loss, "miss rate fell as loss rose");
    }
    last_miss_[section] = r.miss_rate();
  }
  bool ok() const { return ok_; }

 private:
  void fail(const std::string& section, double loss,
            const std::string& what) {
    std::cerr << "stream_latency: " << section << " loss=" << loss << ": "
              << what << "\n";
    ok_ = false;
  }

  bool ok_ = true;
  std::map<std::string, double> last_miss_;
};

template <typename Fn>
RunRecord timed(Fn&& fn, const std::string& section, double loss,
                const StreamConfig& stream, Claims& claims) {
  const auto start = std::chrono::steady_clock::now();
  const StreamRunStats r = fn();
  const auto stop = std::chrono::steady_clock::now();
  const double seconds = std::chrono::duration<double>(stop - start).count();
  RunRecord rec =
      ltnc::stream::stream_run_record(section, loss, stream, r, seconds);
  claims.check(section, loss, r);
  std::cerr << "  " << section << " loss=" << loss << ": miss_rate="
            << r.miss_rate() << " p50=" << r.latency_p50
            << " p99=" << r.latency_p99 << " (" << seconds << "s)\n";
  return rec;
}

}  // namespace

int main(int argc, char** argv) {
  bool full = false;
  std::uint64_t seed = 1;
  std::string out_path = "BENCH_stream.json";
  std::size_t receivers_override = 0;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg == "--full") {
      full = true;
    } else if (arg.rfind("--seed=", 0) == 0) {
      seed = static_cast<std::uint64_t>(
          std::atoll(std::string(arg.substr(7)).c_str()));
    } else if (arg.rfind("--out=", 0) == 0) {
      out_path = std::string(arg.substr(6));
    } else if (arg.rfind("--receivers=", 0) == 0) {
      receivers_override = static_cast<std::size_t>(
          std::atoll(std::string(arg.substr(12)).c_str()));
    } else if (arg == "--help" || arg == "-h") {
      std::cout << "flags: --full --seed=S --out=FILE --receivers=N\n";
      return 0;
    }
  }

  std::vector<RunRecord> records;
  Claims claims;
  // Well-separated loss points so the fixed-budget miss-rate curve steps
  // decisively: ~0 %, <1 %, a few %, then a collapse past the budget.
  const std::vector<double> losses{0.0, 0.15, 0.3, 0.5};

  // --- SimChannel sweeps ----------------------------------------------------
  const std::uint64_t sim_blocks = full ? 128 : 48;
  std::cerr << "stream_latency: sim sweep (" << sim_blocks << " blocks)\n";
  for (const double loss : losses) {
    ltnc::stream::SimStreamConfig cfg;
    cfg.stream = sim_stream_shape(sim_blocks, seed);
    cfg.channel.loss_rate = loss;
    cfg.channel.seed = seed;
    cfg.receivers = receivers_override != 0 ? receivers_override : 4;
    cfg.adaptive_budget = false;
    cfg.seed = seed;
    records.push_back(timed([&] { return run_sim_stream(cfg); }, "sim", loss,
                            cfg.stream, claims));
  }
  for (const double loss : losses) {
    ltnc::stream::SimStreamConfig cfg;
    cfg.stream = sim_stream_shape(sim_blocks, seed);
    cfg.stream.base_overhead = 1.2;  // lean base; the estimator pads it
    cfg.stream.slack_boost_ticks = 16;
    cfg.channel.loss_rate = loss;
    cfg.channel.seed = seed;
    cfg.receivers = receivers_override != 0 ? receivers_override : 4;
    cfg.adaptive_budget = true;
    cfg.seed = seed;
    records.push_back(timed([&] { return run_sim_stream(cfg); },
                            "sim-adaptive", loss, cfg.stream, claims));
  }

  // --- UDP loopback sweep ---------------------------------------------------
  // Microsecond domain: 100 blocks/s cadence, 50 ms deadline.
  const std::uint64_t udp_blocks = full ? 100 : 30;
  std::cerr << "stream_latency: udp sweep (" << udp_blocks << " blocks)\n";
  for (const double loss : {0.0, 0.2, 0.4}) {
    ltnc::stream::UdpStreamConfig cfg;
    cfg.stream = sim_stream_shape(udp_blocks, seed);
    cfg.stream.ticks_per_block = 10'000;  // 100 fps
    cfg.stream.deadline_ticks = 50'000;   // 50 ms
    cfg.receivers = receivers_override != 0 ? receivers_override : 2;
    cfg.loss_rate = loss;
    cfg.seed = seed;
    records.push_back(timed([&] { return run_udp_stream(cfg); }, "udp", loss,
                            cfg.stream, claims));
  }

  // --- Event-engine scale point ---------------------------------------------
  const std::size_t event_receivers = full ? 100'000 : 10'000;
  std::cerr << "stream_latency: event scale (" << event_receivers
            << " receivers)\n";
  {
    ltnc::stream::EventStreamConfig cfg;
    cfg.stream.block_bytes = 512;  // small blocks keep 10^5 decoders in RAM
    cfg.stream.symbol_bytes = 64;  // k = 8
    cfg.stream.ticks_per_block = 16;
    cfg.stream.deadline_ticks = 48;
    cfg.stream.window = 4;
    cfg.stream.total_blocks = 16;
    cfg.stream.base_overhead = 3.0;  // k = 8 BP wants ~4x (see probe table)
    cfg.stream.seed = seed;
    cfg.receivers = event_receivers;
    cfg.loss_rate = 0.05;
    cfg.seed = seed;
    RunRecord rec = timed([&] { return run_event_stream(cfg); }, "event",
                          cfg.loss_rate, cfg.stream, claims);
    records.push_back(std::move(rec));
  }

  std::ofstream out(out_path);
  if (!out) {
    std::cerr << "cannot open " << out_path << "\n";
    return 1;
  }
  ltnc::metrics::write_json(out, records);
  std::cout << "wrote " << out_path << "\n";
  if (!claims.ok()) {
    std::cerr << "stream_latency: acceptance claims failed\n";
    return 1;
  }
  return 0;
}
