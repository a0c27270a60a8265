// Table V reproduction: training time per incremental span and average
// inference time per user, on the Taobao preset. The reproduced shape:
// FR's training time grows with the span index (it retrains on all
// accumulated data), ADER's grows with its exemplar pool, FT/SML/IMSR
// stay flat, IMSR costs only a few percent more than FT, and inference
// time is slightly higher for IMSR (more interests).
#include "bench/bench_common.h"

namespace {

using namespace imsr;  // NOLINT(build/namespaces)

}  // namespace

int main(int argc, char** argv) {
  util::FlagSet flags = bench::BenchFlags(
      "bench_table5_time", "Table V: training and inference time on Taobao");
  flags.AddString("model", "dr", "base model (mind | dr | sa)");
  const bench::BenchSetup setup = bench::ParseBenchFlags(argc, argv, &flags);
  const std::string model_name = flags.GetString("model");

  bench::PrintHeader(
      "Table V — training / inference time on Taobao",
      "Table V (per-span training seconds + avg inference ms/user)");

  const data::SyntheticDataset synthetic =
      GenerateSynthetic(data::SyntheticConfig::Taobao(setup.scale));
  const data::Dataset& dataset = *synthetic.dataset;
  const models::ExtractorKind model_kind =
      bench::ExtractorKindFromNameOrExit(model_name);

  const std::vector<core::StrategyKind> strategies = {
      core::StrategyKind::kFullRetrain, core::StrategyKind::kFineTune,
      core::StrategyKind::kSml, core::StrategyKind::kAder,
      core::StrategyKind::kImsr};

  std::vector<std::string> header = {"Strategy"};
  for (int span = 1; span <= dataset.num_incremental_spans() - 1; ++span) {
    header.push_back("t=" + std::to_string(span) + " (s)");
  }
  header.push_back("infer (ms/user)");
  util::Table table(header);

  for (core::StrategyKind kind : strategies) {
    const core::ExperimentResult result =
        bench::RunStrategy(dataset, setup, kind, model_kind);
    std::vector<std::string> row = {core::StrategyKindName(kind)};
    double infer_total = 0.0;
    for (size_t i = 1; i < result.spans.size(); ++i) {
      row.push_back(util::FormatDouble(result.spans[i].train_seconds, 2));
      infer_total += result.spans[i].infer_ms_per_user;
    }
    row.push_back(util::FormatDouble(
        infer_total / static_cast<double>(result.spans.size() - 1), 3));
    table.AddRow(row);
  }
  bench::PrintTable(table);

  std::printf(
      "Paper's shape (Taobao, Table V): FR ~6x slower than FT and growing\n"
      "linearly per span; ADER growing with its exemplar pool; SML a\n"
      "constant factor over FT; IMSR within a few percent of FT and flat;\n"
      "IMSR inference slightly slower (adaptive interest count).\n");
  return 0;
}
