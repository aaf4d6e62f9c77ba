// Shared helpers for the figure-reproduction benches.
//
// Every bench accepts:
//   --full         paper-scale parameters (slow; default is laptop scale)
//   --csv          machine-readable output instead of the boxed table
//   --nodes=N --k=K --runs=R   explicit overrides
// and prints the scale it ran at, so every published number is
// reproducible by construction.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <string>
#include <string_view>
#include <vector>

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

inline void print_header(const std::string& title, const std::string& scale) {
  std::cout << "\n=== " << title << " ===\n" << scale << "\n\n";
}

}  // namespace ltnc::bench
