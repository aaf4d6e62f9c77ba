// Shared helpers for the figure-reproduction benches.
//
// Every bench accepts:
//   --full         paper-scale parameters (slow; default is laptop scale)
//   --csv          one CSV table on stdout instead of the boxed table
//   --nodes=N --k=K --runs=R --seed=S   explicit overrides
// and prints the scale it ran at, so every published number is
// reproducible by construction.
//
// Results are metrics::RunRecord rows (one per table row; the keys are
// the column headers) written by bench::emit. In --csv mode stdout is
// exactly one CSV table: the banner, secondary tables and notes go to
// bench::prose(), which is then stderr.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <string>
#include <string_view>
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

  static Args parse(int argc, char** argv) {
    Args args;
    for (int i = 1; i < argc; ++i) {
      const std::string_view arg = argv[i];
      auto value_of = [&](std::string_view prefix) -> long long {
        return std::atoll(std::string(arg.substr(prefix.size())).c_str());
      };
      if (arg == "--full") {
        args.full = true;
      } else if (arg == "--csv") {
        args.csv = true;
      } else if (arg.rfind("--nodes=", 0) == 0) {
        args.nodes = static_cast<std::size_t>(value_of("--nodes="));
      } else if (arg.rfind("--k=", 0) == 0) {
        args.k = static_cast<std::size_t>(value_of("--k="));
      } else if (arg.rfind("--runs=", 0) == 0) {
        args.runs = static_cast<std::size_t>(value_of("--runs="));
      } else if (arg.rfind("--seed=", 0) == 0) {
        args.seed = static_cast<std::uint64_t>(value_of("--seed="));
      } else if (arg == "--help" || arg == "-h") {
        std::cout << "flags: --full --csv --nodes=N --k=K --runs=R --seed=S\n";
        std::exit(0);
      }
    }
    return args;
  }
};

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
