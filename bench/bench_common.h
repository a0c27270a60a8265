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

// Parses the common bench flags:
//   --scale=0.25 --repeats=1 --seed=7 --dim=32 --epochs=3
//   --pretrain_epochs=5 --kd=0.1 --c1=0.04 --c2=0.3 --delta_k=3 --k0=4
// and sizes the process-wide pool from --threads=N.
inline BenchSetup ParseBenchFlags(const util::Flags& flags) {
  util::ApplyThreadFlag(flags);
  BenchSetup setup;
  setup.scale = flags.GetDouble("scale", kDefaultScale);
  setup.repeats = static_cast<int>(flags.GetInt("repeats", 1));
  setup.seed = static_cast<uint64_t>(flags.GetInt("seed", 7));
  setup.experiment.seed = setup.seed;

  auto& model = setup.experiment.model;
  model.embedding_dim = flags.GetInt("dim", 32);
  model.attention_dim = flags.GetInt("dim", 32);

  auto& train = setup.experiment.strategy.train;
  train.pretrain_epochs =
      static_cast<int>(flags.GetInt("pretrain_epochs", 5));
  train.epochs = static_cast<int>(flags.GetInt("epochs", 3));
  train.learning_rate =
      static_cast<float>(flags.GetDouble("lr", 0.005));
  train.initial_interests = static_cast<int>(flags.GetInt("k0", 4));
  train.eir.coefficient =
      static_cast<float>(flags.GetDouble("kd", 0.1));
  train.expansion.nid.c1 = flags.GetDouble("c1", 0.06);
  train.expansion.pit.c2 = flags.GetDouble("c2", 0.3);
  train.expansion.delta_k =
      static_cast<int>(flags.GetInt("delta_k", 3));
  setup.experiment.eval.top_n =
      static_cast<int>(flags.GetInt("top_n", 20));
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
