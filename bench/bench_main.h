// main() body for the google-benchmark binaries: `--threads=N` sizes the
// process-wide pool through the same reader as every other binary, and
// the remaining flags go to google-benchmark (which answers --help and
// rejects flags it does not know, here with exit 2).
#ifndef IMSR_BENCH_BENCH_MAIN_H_
#define IMSR_BENCH_BENCH_MAIN_H_

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstring>

#include "util/flags.h"
#include "util/thread_pool.h"

namespace imsr::bench {

inline int RunBenchmarks(int argc, char** argv) {
  // Move the --threads tokens behind the rest and parse them with the
  // shared thread-flag reader; google-benchmark sees only the others.
  char** const threads =
      std::stable_partition(argv + 1, argv + argc, [](const char* arg) {
        return std::strcmp(arg, "--threads") != 0 &&
               std::strncmp(arg, "--threads=", 10) != 0;
      });
  util::FlagSet flags(argv[0], "google-benchmark suite");
  util::RegisterThreadFlag(&flags);
  flags.ParseOrExit(static_cast<int>(argv + argc - threads), threads);
  util::ApplyThreadFlag(flags);
  argc = static_cast<int>(threads - argv);
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 2;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}

}  // namespace imsr::bench

#endif  // IMSR_BENCH_BENCH_MAIN_H_
