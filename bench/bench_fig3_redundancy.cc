// Figure 3 reproduction: what fixed (untrimmed) interest expansion learns.
// Expanding every user by a fixed delta-K *without* PIT produces new
// interest vectors that are either (a) redundant — highly correlated with
// an existing interest in how they score the user's items (high Pearson
// coefficient) — or (b) vacuous — tiny L2 norm ("learned nothing"). The
// bench reports both statistics with trimming disabled, exactly the two
// pathologies PIT removes.
#include <algorithm>

#include "bench/bench_common.h"
#include "core/imsr_trainer.h"
#include "eval/interest_analysis.h"

namespace {

using namespace imsr;  // NOLINT(build/namespaces)

}  // namespace

int main(int argc, char** argv) {
  util::FlagSet flags = bench::BenchFlags(
      "bench_fig3_redundancy",
      "Figure 3: redundancy and vacuousness of untrimmed new interests");
  bench::BenchSetup setup = bench::ParseBenchFlags(argc, argv, &flags);

  bench::PrintHeader(
      "Figure 3 — redundancy/vacuousness of untrimmed new interests",
      "Fig. 3 (Pearson correlations vs existing interests; L2 norms)");

  const data::SyntheticDataset synthetic = GenerateSynthetic(
      data::SyntheticConfig::Taobao(std::max(setup.scale, 0.15)));
  const data::Dataset& dataset = *synthetic.dataset;

  // IMSR with NID always firing and trimming disabled = fixed expansion.
  models::MsrModel model(setup.experiment.model, dataset.num_items(),
                         setup.seed);
  core::InterestStore store;
  core::TrainConfig train = setup.experiment.strategy.train;
  train.expansion.nid.c1 = 1e9;  // always expand
  train.expansion.pit.c2 = 0.0;  // never trim
  core::ImsrTrainer trainer(&model, &store, train);
  trainer.Pretrain(dataset);
  trainer.TrainSpan(dataset, 1);

  // For each expanded user: the Pearson correlation of each new
  // interest's similarity profile over the user's items against its
  // most-correlated existing interest, and the new interests' L2 norms.
  std::vector<double> max_correlations;
  std::vector<double> new_norms;
  int shown = 0;
  for (data::UserId user : dataset.active_users(1)) {
    if (!store.Has(user)) continue;
    const std::vector<int>& births = store.BirthSpans(user);
    const int64_t k_total = store.NumInterests(user);
    int64_t k_existing = 0;
    for (int birth : births) k_existing += birth == 0 ? 1 : 0;
    if (k_existing == k_total || k_existing == 0) continue;

    const data::UserSpanData& span_data = dataset.user_span(user, 1);
    std::vector<data::ItemId> items = span_data.all;
    const data::UserSpanData& pre = dataset.user_span(user, 0);
    items.insert(items.end(), pre.all.begin(), pre.all.end());
    if (items.size() < 4) continue;
    const nn::Tensor item_embeddings =
        model.embeddings().LookupNoGrad(items);
    const nn::Tensor& interests = store.Interests(user);
    const std::vector<eval::MaxCorrelation> correlations =
        eval::MaxCorrelationAgainstExisting(interests, item_embeddings,
                                            k_existing);
    const std::vector<double> norms = eval::InterestNorms(interests);
    for (size_t j = 0; j < correlations.size(); ++j) {
      max_correlations.push_back(correlations[j].correlation);
      new_norms.push_back(norms[static_cast<size_t>(k_existing) + j]);
    }

    if (shown < 2) {
      ++shown;
      std::printf("example user %d (%lld existing, %lld new):\n", user,
                  static_cast<long long>(k_existing),
                  static_cast<long long>(k_total - k_existing));
      for (size_t j = 0; j < correlations.size(); ++j) {
        std::printf(
            "  new interest %zu: max Pearson %.3f (vs existing %lld), "
            "L2 norm %.3f\n",
            j, correlations[j].correlation,
            static_cast<long long>(correlations[j].existing),
            norms[static_cast<size_t>(k_existing) + j]);
      }
    }
  }

  IMSR_CHECK(!max_correlations.empty())
      << "no expanded users — increase --scale";

  std::sort(max_correlations.begin(), max_correlations.end());
  std::sort(new_norms.begin(), new_norms.end());
  auto quantile = [](const std::vector<double>& values, double q) {
    return values[static_cast<size_t>(q *
                                      static_cast<double>(values.size() -
                                                          1))];
  };
  const double redundant_fraction =
      static_cast<double>(std::count_if(max_correlations.begin(),
                                        max_correlations.end(),
                                        [](double c) { return c > 0.8; })) /
      static_cast<double>(max_correlations.size());
  const double vacuous_fraction =
      static_cast<double>(std::count_if(new_norms.begin(), new_norms.end(),
                                        [](double n) { return n < 0.3; })) /
      static_cast<double>(new_norms.size());

  std::printf("\n%zu new interests created without trimming:\n",
              max_correlations.size());
  std::printf(
      "  max Pearson vs existing: q25 %.3f  median %.3f  q75 %.3f\n",
      quantile(max_correlations, 0.25), quantile(max_correlations, 0.5),
      quantile(max_correlations, 0.75));
  std::printf("  L2 norm:                 q25 %.3f  median %.3f  q75 %.3f\n",
              quantile(new_norms, 0.25), quantile(new_norms, 0.5),
              quantile(new_norms, 0.75));
  std::printf("  redundant (corr > 0.8): %.1f%%   vacuous (norm < 0.3): "
              "%.1f%%\n\n",
              redundant_fraction * 100.0, vacuous_fraction * 100.0);

  std::printf(
      "Paper's shape (Fig. 3): without trimming, some new interests are\n"
      "highly correlated with an existing interest (redundant) and some\n"
      "have near-zero L2 norm (learned nothing) — the two pathologies the\n"
      "projection-based trimmer removes.\n");
  return 0;
}
