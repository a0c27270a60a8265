// Table IV reproduction: IMSR (on ComiRec-DR) versus the life-long MSR
// baselines MIMN and LimaRec, which update user representations online
// but never update model parameters after pretraining. Average HR@20 over
// the incremental spans.
#include "baselines/limarec.h"
#include "baselines/mimn.h"
#include "bench/bench_common.h"

namespace {

using namespace imsr;  // NOLINT(build/namespaces)

const core::InterestStore& Interests(const baselines::MimnModel& model) {
  return model.memory();
}
const core::InterestStore& Interests(const baselines::LimaRecModel& model) {
  return model.interests();
}

// Runs a life-long model: pretrain once, then only observe spans; after
// each span the stored interests rank the next span's test items.
template <typename Model>
double RunLifelong(Model& model, const data::Dataset& dataset,
                   const eval::EvalConfig& eval_config) {
  model.Pretrain(dataset);
  double total = 0.0;
  int spans = 0;
  for (int span = 1; span <= dataset.num_incremental_spans() - 1; ++span) {
    model.ObserveSpan(dataset, span);
    const eval::EvalResult result =
        EvaluateSpan(model.item_embeddings(), Interests(model), dataset,
                     span + 1, eval_config);
    total += result.metrics.hit_ratio;
    ++spans;
  }
  return spans > 0 ? total / spans : 0.0;
}

}  // namespace

int main(int argc, char** argv) {
  util::FlagSet flags = bench::BenchFlags(
      "bench_table4_lifelong", "Table IV: IMSR vs the life-long MSR models");
  const bench::BenchSetup setup = bench::ParseBenchFlags(argc, argv, &flags);

  bench::PrintHeader(
      "Table IV — IMSR vs life-long MSR models (MIMN, LimaRec)",
      "Table IV (average HR over 5 time spans, 4 datasets)");

  util::Table table({"Dataset", "MIMN", "LimaRec", "IMSR (ComiRec-DR)"});
  for (const data::SyntheticConfig& data_config :
       bench::AllDatasetConfigs(setup.scale)) {
    const data::SyntheticDataset synthetic = GenerateSynthetic(data_config);
    const data::Dataset& dataset = *synthetic.dataset;

    baselines::MimnConfig mimn_config;
    mimn_config.base.kind = models::ExtractorKind::kComiRecDr;
    mimn_config.base.embedding_dim = setup.experiment.model.embedding_dim;
    mimn_config.pretrain = setup.experiment.strategy.train;
    mimn_config.pretrain.seed = setup.seed;
    baselines::MimnModel mimn(mimn_config, dataset.num_items(),
                              setup.seed);
    const double mimn_hr = RunLifelong(mimn, dataset, setup.experiment.eval);

    baselines::LimaRecConfig lima_config;
    lima_config.embedding_dim = setup.experiment.model.embedding_dim;
    lima_config.pretrain_epochs =
        setup.experiment.strategy.train.pretrain_epochs;
    lima_config.learning_rate =
        setup.experiment.strategy.train.learning_rate;
    lima_config.seed = setup.seed;
    baselines::LimaRecModel lima(lima_config, dataset.num_items());
    const double lima_hr = RunLifelong(lima, dataset, setup.experiment.eval);

    const core::ExperimentResult imsr = bench::RunStrategy(
        dataset, setup, core::StrategyKind::kImsr,
        models::ExtractorKind::kComiRecDr);

    table.AddRow({data_config.name, util::FormatPercent(mimn_hr),
                  util::FormatPercent(lima_hr),
                  util::FormatPercent(imsr.avg_hit_ratio)});
  }
  bench::PrintTable(table);

  std::printf(
      "Paper's shape: IMSR > LimaRec > MIMN on every dataset (paper:\n"
      "IMSR +2.9-5.1%% HR over LimaRec) — life-long models update only\n"
      "user representations with a fixed interest count, so they trail a\n"
      "method that also updates model parameters and expands capacity.\n");
  return 0;
}
