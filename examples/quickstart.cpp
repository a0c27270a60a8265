// Quickstart: generate a synthetic interaction stream, train a ComiRec-DR
// base model incrementally with IMSR, and compare against plain
// fine-tuning.
//
//   ./examples/quickstart [--users=300] [--spans=6] [--epochs=3]
#include <cstdio>

#include "core/experiment.h"
#include "data/synthetic.h"
#include "util/flags.h"

int main(int argc, char** argv) {
  using namespace imsr;  // NOLINT(build/namespaces) — example brevity
  data::SyntheticConfig data_config = data::SyntheticConfig::Taobao(0.4);
  core::ExperimentConfig config;
  util::FlagSet flags("quickstart", "IMSR vs fine-tuning on one log");
  flags.AddInt("users", data_config.num_users, "synthetic users",
               /*min=*/1);
  flags.AddInt("epochs", config.strategy.train.epochs,
               "epochs per incremental span");
  flags.ParseOrExit(argc - 1, argv + 1);

  // 1. Simulate an e-commerce interaction log with evolving interests.
  data_config.num_users = static_cast<int32_t>(flags.GetInt("users"));
  const data::SyntheticDataset synthetic =
      data::GenerateSynthetic(data_config);
  const data::Dataset& dataset = *synthetic.dataset;
  std::printf("dataset: %lld users kept, %d items, %d incremental spans\n",
              static_cast<long long>(dataset.num_kept_users()),
              dataset.num_items(), dataset.num_incremental_spans());

  // 2. Configure the base model and the IMSR strategy.
  config.model.kind = models::ExtractorKind::kComiRecDr;
  config.model.embedding_dim = 32;
  config.strategy.kind = core::StrategyKind::kImsr;
  config.strategy.train.epochs = static_cast<int>(flags.GetInt("epochs"));
  config.eval.top_n = 20;

  // 3. Run IMSR and plain fine-tuning on the same data.
  const core::ExperimentResult imsr = RunExperiment(dataset, config);
  config.strategy.kind = core::StrategyKind::kFineTune;
  const core::ExperimentResult ft = RunExperiment(dataset, config);

  // 4. Report.
  std::printf("\n%-6s %-12s %-12s %-12s %-12s\n", "span", "IMSR HR@20",
              "IMSR NDCG", "FT HR@20", "FT NDCG");
  for (size_t i = 0; i < imsr.spans.size(); ++i) {
    std::printf("%-6d %-12.4f %-12.4f %-12.4f %-12.4f\n",
                imsr.spans[i].trained_through_span, imsr.spans[i].hit_ratio,
                imsr.spans[i].ndcg, ft.spans[i].hit_ratio,
                ft.spans[i].ndcg);
  }
  std::printf("\naverages over incremental spans:\n");
  std::printf("  IMSR: HR@20 %.4f  NDCG@20 %.4f  (avg interests %.2f)\n",
              imsr.avg_hit_ratio, imsr.avg_ndcg,
              imsr.spans.back().avg_interests);
  std::printf("  FT:   HR@20 %.4f  NDCG@20 %.4f\n", ft.avg_hit_ratio,
              ft.avg_ndcg);
  std::printf("  IMSR added %d interests (%d users expanded, %d trimmed)\n",
              imsr.expansion.interests_added, imsr.expansion.users_expanded,
              imsr.expansion.interests_trimmed);
  return 0;
}
