// Shared helpers for the benches.
//
// Every plain-main bench parses its flags through bench::Args:
//   --full         paper-scale parameters (slow; default is laptop scale)
//   --csv          one CSV table on stdout instead of the boxed table
//   --nodes=N --k=K --runs=R --seed=S   explicit overrides
//   --out=FILE     where a JSON bench writes its baseline
//   --frames=N     frames a throughput bench pushes
// An unknown flag or a malformed number prints the flag list and exits 2,
// so a typo never silently runs the default scale. Each bench prints the
// scale it ran at, so every published number is reproducible by
// construction.
//
// Results are metrics::RunRecord rows (one per table row; the keys are
// the column headers). The figure benches print them with bench::emit —
// in --csv mode stdout is exactly one CSV table, and the banner,
// secondary tables and notes go to bench::prose(), which is then stderr.
// The JSON benches write them with bench::write_baseline.
#pragma once

#include <charconv>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>
#include <string_view>
#include <system_error>
#include <utility>
#include <vector>

#include "metrics/emitter.hpp"

namespace ltnc::bench {

struct Args {
  bool full = false;
  bool csv = false;
  std::size_t nodes = 0;  ///< 0 = bench default
  std::size_t k = 0;
  std::size_t runs = 0;
  std::uint64_t seed = 1;
  std::string out;           ///< empty = bench default
  std::uint64_t frames = 0;  ///< 0 = bench default

  static Args parse(int argc, char** argv) {
    Args args;
    for (int i = 1; i < argc; ++i) {
      const std::string_view arg = argv[i];
      if (arg == "--full") {
        args.full = true;
      } else if (arg == "--csv") {
        args.csv = true;
      } else if (arg.starts_with("--out=")) {
        args.out = arg.substr(6);
      } else if (arg == "--help" || arg == "-h") {
        std::cout << kFlags << "\n";
        std::exit(0);
      } else if (!number(arg, "--nodes=", args.nodes) &&
                 !number(arg, "--k=", args.k) &&
                 !number(arg, "--runs=", args.runs) &&
                 !number(arg, "--seed=", args.seed) &&
                 !number(arg, "--frames=", args.frames)) {
        std::cerr << argv[0] << ": unknown flag " << arg << "\n"
                  << kFlags << "\n";
        std::exit(2);
      }
    }
    return args;
  }

  /// The --out path, or the bench's own baseline name.
  std::string out_or(const char* fallback) const {
    return out.empty() ? fallback : out;
  }

 private:
  static constexpr const char* kFlags =
      "flags: --full --csv --nodes=N --k=K --runs=R --seed=S --out=FILE "
      "--frames=N";

  /// Parses `arg` as prefix + decimal into `value`; false when the prefix
  /// does not match. A matching prefix with a malformed number exits 2.
  template <typename T>
  static bool number(std::string_view arg, std::string_view prefix,
                     T& value) {
    if (!arg.starts_with(prefix)) return false;
    const std::string_view digits = arg.substr(prefix.size());
    const auto [end, ec] =
        std::from_chars(digits.data(), digits.data() + digits.size(), value);
    if (ec != std::errc{} || end != digits.data() + digits.size()) {
      std::cerr << "bad number in " << arg << "\n" << kFlags << "\n";
      std::exit(2);
    }
    return true;
  }
};

/// A result beside the wall-clock seconds it took to produce.
template <typename T>
struct Timed {
  T value;
  double seconds;
};

/// Runs `fn` once on the steady clock.
template <typename Fn>
auto timed(Fn&& fn) -> Timed<decltype(fn())> {
  const auto start = std::chrono::steady_clock::now();
  auto value = fn();
  const std::chrono::duration<double> took =
      std::chrono::steady_clock::now() - start;
  return {std::move(value), took.count()};
}

/// Where everything but the result table goes: stdout beside the boxed
/// table, stderr in --csv mode.
inline std::ostream& prose(const Args& args) {
  return args.csv ? std::cerr : std::cout;
}

inline void print_header(const Args& args, const std::string& title,
                         const std::string& scale) {
  prose(args) << "\n=== " << title << " ===\n" << scale << "\n\n";
}

/// An ON/OFF ablation table: rows of `metric | <what> ON | <what> OFF`.
struct Ablation {
  std::string what;
  std::vector<metrics::RunRecord> rows{};

  void add(const char* metric, double on, double off, int precision) {
    rows.push_back({{"metric", metric},
                    {what + " ON", metrics::fixed(on, precision)},
                    {what + " OFF", metrics::fixed(off, precision)}});
  }
};

/// Writes a bench's baseline — one JSON array of the given objects — to
/// `path` and says so on stdout. False (after a complaint on stderr) when
/// the file cannot be opened.
inline bool write_baseline(const std::string& path,
                           const std::vector<std::string>& objects) {
  std::ofstream out(path);
  if (!out) {
    std::cerr << "cannot write " << path << "\n";
    return false;
  }
  metrics::write_json_objects(out, objects);
  std::cout << "wrote " << path << "\n";
  return true;
}

inline bool write_baseline(const std::string& path,
                           const std::vector<metrics::RunRecord>& records) {
  std::vector<std::string> objects;
  objects.reserve(records.size());
  for (const metrics::RunRecord& r : records) {
    objects.push_back(metrics::json_object(r));
  }
  return write_baseline(path, objects);
}

/// The bench's result table on stdout: CSV with --csv, boxed otherwise.
inline void emit(const Args& args,
                 const std::vector<metrics::RunRecord>& records) {
  if (args.csv) {
    metrics::write_csv(std::cout, records);
  } else {
    metrics::write_table(std::cout, records);
  }
}

}  // namespace ltnc::bench
