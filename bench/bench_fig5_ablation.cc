// Figure 5 reproduction: ablation study on Books and Taobao with
// ComiRec-DR and ComiRec-SA. Variants: FT, IMSR w/o NID&PIT, IMSR w/o
// EIR, IMSR(DIR) (Euclidean retention), IMSR(KD1/KD2/KD3) (softmax
// distillation variants) and full IMSR.
#include "bench/bench_common.h"

namespace {

using namespace imsr;  // NOLINT(build/namespaces)

struct Variant {
  std::string name;
  core::StrategyKind kind;
  core::RetentionKind retention;
};

}  // namespace

int main(int argc, char** argv) {
  util::FlagSet flags = bench::BenchFlags(
      "bench_fig5_ablation", "Figure 5: ablation study on Books and Taobao");
  const bench::BenchSetup setup = bench::ParseBenchFlags(argc, argv, &flags);

  bench::PrintHeader(
      "Figure 5 — ablation study (Books & Taobao, ComiRec-DR/SA)",
      "Fig. 5 (per-span HR of FT, IMSR w/o NID&PIT, w/o EIR, DIR, "
      "KD1-3, IMSR)");

  const std::vector<Variant> variants = {
      {"FT", core::StrategyKind::kFineTune,
       core::RetentionKind::kSigmoidKd},
      {"IMSR w/o NID&PIT", core::StrategyKind::kImsrNoExpansion,
       core::RetentionKind::kSigmoidKd},
      {"IMSR w/o EIR", core::StrategyKind::kImsrNoEir,
       core::RetentionKind::kSigmoidKd},
      {"IMSR(DIR)", core::StrategyKind::kImsr,
       core::RetentionKind::kEuclidean},
      {"IMSR(KD1)", core::StrategyKind::kImsr,
       core::RetentionKind::kSoftmaxKd1},
      {"IMSR(KD2)", core::StrategyKind::kImsr,
       core::RetentionKind::kSoftmaxKd2},
      {"IMSR(KD3)", core::StrategyKind::kImsr,
       core::RetentionKind::kSoftmaxKd3},
      {"IMSR", core::StrategyKind::kImsr,
       core::RetentionKind::kSigmoidKd},
  };

  for (const data::SyntheticConfig& preset :
       {data::SyntheticConfig::Books(setup.scale),
        data::SyntheticConfig::Taobao(setup.scale)}) {
    const data::SyntheticDataset synthetic = GenerateSynthetic(preset);
    const data::Dataset& dataset = *synthetic.dataset;

    for (models::ExtractorKind model_kind :
         {models::ExtractorKind::kComiRecDr,
          models::ExtractorKind::kComiRecSa}) {
      std::printf("--- %s / %s ---\n", preset.name.c_str(),
                  models::ExtractorKindName(model_kind));
      std::vector<std::string> header = {"Variant"};
      for (int span = 0; span <= dataset.num_incremental_spans() - 1;
           ++span) {
        header.push_back("span " + std::to_string(span));
      }
      header.push_back("avg");
      util::Table table(header);

      for (const Variant& variant : variants) {
        bench::BenchSetup variant_setup = setup;
        variant_setup.experiment.strategy.train.eir.kind =
            variant.retention;
        const core::ExperimentResult result = bench::RunStrategy(
            dataset, variant_setup, variant.kind, model_kind);
        std::vector<std::string> row = {variant.name};
        for (const core::SpanMetrics& span : result.spans) {
          row.push_back(util::FormatPercent(span.hit_ratio));
        }
        row.push_back(util::FormatPercent(result.avg_hit_ratio));
        table.AddRow(row);
      }
      bench::PrintTable(table);
    }
  }

  std::printf(
      "Paper's shape (Fig. 5): full IMSR best on both datasets and both\n"
      "base models; removing any component hurts; on Taobao the NID&PIT\n"
      "removal hurts most (fast-moving interests; avg K grows 4.0->9.2);\n"
      "on Books the EIR removal hurts most (stable interests; K only\n"
      "4.0->5.6); DIR (Euclidean) retention is worse than any KD variant;\n"
      "the KD variants (EIR/KD1/KD2/KD3) are close to each other.\n");
  return 0;
}
