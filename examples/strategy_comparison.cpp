// Strategy comparison on one dataset: runs every learning strategy (FR,
// FT, SML, ADER, IMSR and the IMSR ablations) on the same synthetic log
// and prints average HR/NDCG, per-span series, training cost and interest
// growth — a minimal version of the paper's Table III + Figure 4 in one
// binary.
//
//   ./examples/strategy_comparison [--data=books] [--model=dr]
//                                  [--scale=0.3] [--repeats=1]
#include <cstdio>

#include "core/experiment.h"
#include "data/synthetic.h"
#include "util/csv.h"
#include "util/flags.h"

int main(int argc, char** argv) {
  using namespace imsr;  // NOLINT(build/namespaces)
  core::ExperimentConfig config;
  util::FlagSet flags("strategy_comparison",
                      "every learning strategy on one synthetic log");
  flags.AddString("data", "taobao",
                  "dataset preset (electronics | clothing | books | taobao)");
  flags.AddDouble("scale", 0.3, "fraction of the preset's full size");
  flags.AddString("model", "dr", "base model (mind | dr | sa)");
  flags.AddInt("dim", config.model.embedding_dim, "embedding dimension",
               /*min=*/1);
  flags.AddInt("repeats", 1, "seeds averaged per strategy", /*min=*/1);
  flags.ParseOrExit(argc - 1, argv + 1);

  data::SyntheticConfig preset;
  std::string error;
  if (!data::SyntheticConfig::PresetFromName(flags.GetString("data"),
                                             flags.GetDouble("scale"),
                                             &preset, &error) ||
      !models::ExtractorKindFromName(flags.GetString("model"),
                                     &config.model.kind, &error)) {
    std::fprintf(stderr, "error: %s\n", error.c_str());
    return 2;
  }
  const data::SyntheticDataset synthetic = data::GenerateSynthetic(preset);
  const data::Dataset& dataset = *synthetic.dataset;
  std::printf("%s: %lld users, %d items\n\n",
              synthetic.config.name.c_str(),
              static_cast<long long>(dataset.num_kept_users()),
              dataset.num_items());

  config.model.embedding_dim = flags.GetInt("dim");
  const int repeats = static_cast<int>(flags.GetInt("repeats"));

  util::Table table({"Strategy", "avg HR@20", "avg NDCG@20", "train s",
                     "avg K"});
  const std::vector<core::StrategyKind> strategies = {
      core::StrategyKind::kFullRetrain,
      core::StrategyKind::kFineTune,
      core::StrategyKind::kSml,
      core::StrategyKind::kAder,
      core::StrategyKind::kImsrNoExpansion,
      core::StrategyKind::kImsrNoEir,
      core::StrategyKind::kImsr,
  };
  for (core::StrategyKind kind : strategies) {
    config.strategy.kind = kind;
    const core::ExperimentResult result =
        RunRepeatedExperiment(dataset, config, repeats);
    double train_seconds = 0.0;
    for (const core::SpanMetrics& span : result.spans) {
      train_seconds += span.train_seconds;
    }
    table.AddRow({core::StrategyKindName(kind),
                  util::FormatPercent(result.avg_hit_ratio),
                  util::FormatPercent(result.avg_ndcg),
                  util::FormatDouble(train_seconds, 1),
                  util::FormatDouble(result.spans.back().avg_interests,
                                     1)});
  }
  std::printf("%s", table.ToPrettyString().c_str());
  std::printf(
      "\nExpected ordering: FR highest (full data, high cost); IMSR best\n"
      "incremental strategy; FT cheapest but forgets existing interests.\n");
  return 0;
}
