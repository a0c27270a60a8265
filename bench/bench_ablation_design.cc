// Ablations of this reproduction's own design choices (DESIGN.md §1) —
// not a paper table, but evidence that the engineering decisions carry
// their weight:
//   (1) evidence-gated interest persistence (vs always overwriting),
//   (2) distilling over the whole candidate set with an embedding
//       snapshot teacher (vs target-only / live-embedding teacher is
//       approximated by a very low KD coefficient),
//   (3) relative PIT trimming (vs the absolute threshold),
//   (4) expansion every epoch vs once per span (Algorithm 2 fidelity
//       vs cost).
#include "bench/bench_common.h"

namespace {

using namespace imsr;  // NOLINT(build/namespaces)

core::ExperimentResult RunVariant(const data::Dataset& dataset,
                                  const bench::BenchSetup& setup,
                                  core::TrainConfig train) {
  core::ExperimentConfig config = setup.experiment;
  config.model.kind = models::ExtractorKind::kComiRecDr;
  config.strategy.kind = core::StrategyKind::kImsr;
  config.strategy.train = train;
  return core::RunRepeatedExperiment(dataset, config, setup.repeats);
}

}  // namespace

int main(int argc, char** argv) {
  util::FlagSet flags = bench::BenchFlags(
      "bench_ablation_design",
      "ablations of this reproduction's own design choices");
  const bench::BenchSetup setup = bench::ParseBenchFlags(argc, argv, &flags);

  bench::PrintHeader(
      "Design-choice ablations (this reproduction's own decisions)",
      "DESIGN.md §1 — not a paper experiment");

  const data::SyntheticDataset synthetic = GenerateSynthetic(
      data::SyntheticConfig::Taobao(setup.scale));
  const data::Dataset& dataset = *synthetic.dataset;
  const core::TrainConfig base = setup.experiment.strategy.train;

  util::Table table({"Variant", "HR@20", "NDCG@20", "avg K"});
  auto add = [&](const std::string& name, const core::TrainConfig& train) {
    const core::ExperimentResult result =
        RunVariant(dataset, setup, train);
    table.AddRow({name, util::FormatPercent(result.avg_hit_ratio),
                  util::FormatPercent(result.avg_ndcg),
                  util::FormatDouble(result.spans.back().avg_interests,
                                     1)});
  };

  add("IMSR (all design choices on)", base);

  {
    core::TrainConfig train = base;
    train.min_evidence_items = 0;  // always overwrite
    add("w/o evidence-gated persistence", train);
  }
  {
    core::TrainConfig train = base;
    train.eir.coefficient = base.eir.coefficient * 0.01f;
    add("near-zero KD (weak retention anchor)", train);
  }
  {
    core::TrainConfig train = base;
    train.expansion.pit.relative = false;  // absolute c2
    add("absolute PIT threshold", train);
  }
  {
    core::TrainConfig train = base;
    train.expansion_every_epoch = true;  // Algorithm 2 verbatim
    add("IntsEx every epoch (Alg. 2 verbatim)", train);
  }

  bench::PrintTable(table);

  std::printf(
      "Expected: disabling evidence gating reverts to the fine-tuning\n"
      "forgetting mode (biggest drop); a near-zero KD coefficient removes\n"
      "the retention anchor; absolute trimming mis-scales for capsule\n"
      "norms; IntsEx-every-epoch should closely match the once-per-span\n"
      "default (later runs are near no-ops) at slightly higher cost.\n");
  return 0;
}
