// The google-benchmark main shared by the benches that keep a baseline:
// unless --benchmark_out is given, a full run also writes its results as
// google-benchmark JSON to the bench's baseline file, so successive
// changes can diff against it.
#pragma once

#include <benchmark/benchmark.h>

#include <string>
#include <string_view>
#include <vector>

namespace ltnc::bench {

inline int gbench_main(int argc, char** argv, const char* baseline) {
  std::vector<char*> args(argv, argv + argc);
  bool has_out = false;
  bool filtered = false;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    // Exact flag only — "--benchmark_out_format" alone must not suppress
    // the default baseline file.
    has_out |= arg.starts_with("--benchmark_out=");
    filtered |= arg.starts_with("--benchmark_filter");
  }
  std::string out_flag = std::string("--benchmark_out=") + baseline;
  std::string format_flag = "--benchmark_out_format=json";
  // Only full runs refresh the baseline: a filtered run writing the
  // default file would replace the committed baseline with a partial one.
  if (!has_out && !filtered) {
    args.push_back(out_flag.data());
    args.push_back(format_flag.data());
  }
  int args_count = static_cast<int>(args.size());
  benchmark::Initialize(&args_count, args.data());
  if (benchmark::ReportUnrecognizedArguments(args_count, args.data())) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}

}  // namespace ltnc::bench
