// Table III reproduction: HR@20 / NDCG@20 / RI of the five learning
// strategies (FR, FT, SML, ADER, IMSR) on three base models (MIND,
// ComiRec-DR, ComiRec-SA) across the four datasets, averaged over the
// incremental spans 1..T-1.
//
// Flags: --data=taobao limits to one dataset, --model=dr to one base
// model, --scale/--repeats control cost (paper uses 10 repeats at full
// scale; the default here is 1 repeat at laptop scale).
#include <optional>

#include "bench/bench_common.h"

namespace {

using namespace imsr;  // NOLINT(build/namespaces)

struct StrategyRow {
  core::StrategyKind kind;
  core::ExperimentResult result;
};

}  // namespace

int main(int argc, char** argv) {
  util::FlagSet flags = bench::BenchFlags(
      "bench_table3_performance",
      "Table III: HR@20 / NDCG@20 / RI of every strategy and base model");
  flags.AddString("data", "", "dataset preset to run alone (omit = all four)");
  flags.AddString("model", "", "base model to run alone (omit = all three)");
  const bench::BenchSetup setup = bench::ParseBenchFlags(argc, argv, &flags);
  const std::string only_data = flags.GetString("data");
  const std::string only_model = flags.GetString("model");
  // Validate the filter up front so a typo is a usage error, not a
  // silently empty report.
  const bool filter_model = !only_model.empty();
  const models::ExtractorKind only_model_kind =
      filter_model ? bench::ExtractorKindFromNameOrExit(only_model)
                   : models::ExtractorKind::kMind;

  bench::PrintHeader(
      "Table III — performance comparison of learning strategies",
      "Table III (3 base models x 5 strategies x 4 datasets)");

  const std::vector<models::ExtractorKind> base_models = {
      models::ExtractorKind::kMind, models::ExtractorKind::kComiRecDr,
      models::ExtractorKind::kComiRecSa};
  const std::vector<core::StrategyKind> strategies = {
      core::StrategyKind::kFullRetrain, core::StrategyKind::kFineTune,
      core::StrategyKind::kSml, core::StrategyKind::kAder,
      core::StrategyKind::kImsr};

  for (const data::SyntheticConfig& data_config :
       bench::AllDatasetConfigs(setup.scale)) {
    std::string lower = data_config.name;
    for (char& c : lower) c = static_cast<char>(std::tolower(c));
    if (!only_data.empty() && lower != only_data) continue;

    const data::SyntheticDataset synthetic = GenerateSynthetic(data_config);
    const data::Dataset& dataset = *synthetic.dataset;
    std::printf("--- %s (%lld users, %d items) ---\n",
                data_config.name.c_str(),
                static_cast<long long>(dataset.num_kept_users()),
                dataset.num_items());

    for (models::ExtractorKind model_kind : base_models) {
      if (filter_model && only_model_kind != model_kind) {
        continue;
      }
      std::vector<StrategyRow> rows;
      std::optional<double> ft_score;
      for (core::StrategyKind kind : strategies) {
        StrategyRow row{kind, bench::RunStrategy(dataset, setup, kind,
                                                 model_kind)};
        if (kind == core::StrategyKind::kFineTune) {
          ft_score =
              (row.result.avg_hit_ratio + row.result.avg_ndcg) / 2.0;
        }
        rows.push_back(std::move(row));
      }

      // Best / second-best among the incremental strategies (not FR).
      double best = -1.0;
      double second = -1.0;
      for (const StrategyRow& row : rows) {
        if (row.kind == core::StrategyKind::kFullRetrain) continue;
        const double score =
            (row.result.avg_hit_ratio + row.result.avg_ndcg) / 2.0;
        if (score > best) {
          second = best;
          best = score;
        } else if (score > second) {
          second = score;
        }
      }

      util::Table table({"Base model", "Strategy", "HR@20", "NDCG@20",
                         "RI vs FT", "avg K", "mark"});
      for (const StrategyRow& row : rows) {
        const double score =
            (row.result.avg_hit_ratio + row.result.avg_ndcg) / 2.0;
        std::string ri = "-";
        if (ft_score.has_value() &&
            row.kind != core::StrategyKind::kFineTune &&
            *ft_score > 0.0) {
          ri = util::FormatDouble((score / *ft_score - 1.0) * 100.0, 2);
        }
        std::string mark;
        if (row.kind != core::StrategyKind::kFullRetrain) {
          if (score == best) mark = "best";
          else if (score == second) mark = "2nd";
        }
        table.AddRow({models::ExtractorKindName(model_kind),
                      core::StrategyKindName(row.kind),
                      util::FormatPercent(row.result.avg_hit_ratio),
                      util::FormatPercent(row.result.avg_ndcg), ri,
                      util::FormatDouble(
                          row.result.spans.back().avg_interests, 1),
                      mark});
      }
      bench::PrintTable(table);
    }
  }

  std::printf(
      "Paper's shape: FR highest (trains on all data); FT lowest of the\n"
      "strategies; SML/ADER between FT and IMSR; IMSR best incremental\n"
      "method (paper: +3.8-4.8%% NDCG over the 2nd-best incremental,\n"
      "~8%% RI over FT), consistent across base models; IMSR's average\n"
      "interest count grows most on Taobao.\n");
  return 0;
}
