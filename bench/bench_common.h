// Shared helpers for the paper-reproduction bench binaries: flag-driven
// experiment configuration and consistent result formatting. Every bench
// prints the paper's rows/series next to ours, at a laptop scale that is
// overridable from the command line (--scale=, --repeats=, ...).
#ifndef IMSR_BENCH_BENCH_COMMON_H_
#define IMSR_BENCH_BENCH_COMMON_H_

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "core/experiment.h"
#include "core/train_flags.h"
#include "data/stats.h"
#include "data/synthetic.h"
#include "util/csv.h"
#include "util/flags.h"
#include "util/thread_pool.h"

namespace imsr::bench {

// Parses an extractor name from a flag value; a typo prints the valid
// names on stderr and exits with a usage error instead of aborting.
inline models::ExtractorKind ExtractorKindFromNameOrExit(
    const std::string& name) {
  models::ExtractorKind kind;
  std::string error;
  if (!models::ExtractorKindFromName(name, &kind, &error)) {
    std::fprintf(stderr, "error: %s\n", error.c_str());
    std::exit(2);
  }
  return kind;
}

// Scale applied to dataset presets when --scale is not given. Chosen so
// the full bench suite finishes in tens of minutes on a laptop.
inline constexpr double kDefaultScale = 0.16;

struct BenchSetup {
  double scale = kDefaultScale;
  int repeats = 1;
  uint64_t seed = 7;
  core::ExperimentConfig experiment;  // model/strategy/eval defaults
};

// The flags every paper bench takes: --scale, --repeats, --seed,
// --top_n, the shared model and training flags (core/train_flags.h) and
// --threads, with BenchSetup's defaults. A bench registers its own
// flags on the returned set before ParseBenchFlags; `--help` lists them
// all with their defaults.
inline util::FlagSet BenchFlags(const std::string& program,
                                const std::string& synopsis) {
  const BenchSetup defaults;
  util::FlagSet flags(program, synopsis);
  flags.AddDouble("scale", defaults.scale,
                  "fraction of each dataset preset's full size");
  flags.AddInt("repeats", defaults.repeats, "seeds averaged per cell",
               /*min=*/1);
  flags.AddInt("seed", static_cast<int64_t>(defaults.seed),
               "base seed of the repeats");
  flags.AddInt("top_n", defaults.experiment.eval.top_n, "ranking cutoff N",
               /*min=*/1);
  core::RegisterTrainFlags(&flags, /*with_training=*/true);
  util::RegisterThreadFlag(&flags);
  return flags;
}

// Parses argv into `flags` (--help exits 0, a usage error exits 2),
// sizes the process-wide pool from --threads and reads the common flags.
inline BenchSetup ParseBenchFlags(int argc, char** argv,
                                  util::FlagSet* flags) {
  flags->ParseOrExit(argc - 1, argv + 1);
  util::ApplyThreadFlag(*flags);
  BenchSetup setup;
  setup.scale = flags->GetDouble("scale");
  setup.repeats = static_cast<int>(flags->GetInt("repeats"));
  setup.seed = static_cast<uint64_t>(flags->GetInt("seed"));
  setup.experiment.seed = setup.seed;
  core::ReadTrainFlags(*flags, &setup.experiment.model,
                       &setup.experiment.strategy.train);
  setup.experiment.eval.top_n = static_cast<int>(flags->GetInt("top_n"));
  return setup;
}

// The four dataset presets of Table II, at the bench scale.
inline std::vector<data::SyntheticConfig> AllDatasetConfigs(double scale) {
  return {data::SyntheticConfig::Electronics(scale),
          data::SyntheticConfig::Clothing(scale),
          data::SyntheticConfig::Books(scale),
          data::SyntheticConfig::Taobao(scale)};
}

// Runs one strategy on a dataset, averaging over `repeats` seeds.
inline core::ExperimentResult RunStrategy(
    const data::Dataset& dataset, const BenchSetup& setup,
    core::StrategyKind kind, models::ExtractorKind model_kind) {
  core::ExperimentConfig config = setup.experiment;
  config.model.kind = model_kind;
  config.strategy.kind = kind;
  return core::RunRepeatedExperiment(dataset, config, setup.repeats);
}

inline void PrintHeader(const std::string& title,
                        const std::string& paper_reference) {
  std::printf("==============================================================\n");
  std::printf("%s\n", title.c_str());
  std::printf("Paper reference: %s\n", paper_reference.c_str());
  std::printf("Absolute numbers differ from the paper (synthetic corpus at\n"
              "laptop scale); the reproduced quantity is the *shape*:\n"
              "orderings, trends and rough factors.\n");
  std::printf("==============================================================\n\n");
}

inline void PrintTable(const util::Table& table) {
  std::printf("%s\n", table.ToPrettyString().c_str());
}

}  // namespace imsr::bench

#endif  // IMSR_BENCH_BENCH_COMMON_H_
