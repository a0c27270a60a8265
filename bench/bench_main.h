// main() body for the google-benchmark binaries: `--threads=N` sizes the
// process-wide pool, as on every other binary, and the remaining flags
// go to google-benchmark (which rejects flags it does not know).
#ifndef IMSR_BENCH_BENCH_MAIN_H_
#define IMSR_BENCH_BENCH_MAIN_H_

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstring>

#include "util/flags.h"
#include "util/thread_pool.h"

namespace imsr::bench {

inline int RunBenchmarks(int argc, char** argv) {
  util::ApplyThreadFlag(util::Flags(argc, argv));
  argc = static_cast<int>(
      std::remove_if(argv + 1, argv + argc,
                     [](const char* arg) {
                       return std::strncmp(arg, "--threads=", 10) == 0;
                     }) -
      argv);
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}

}  // namespace imsr::bench

#endif  // IMSR_BENCH_BENCH_MAIN_H_
