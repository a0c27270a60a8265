// Figure 2 reproduction: the "skirt vs LEGO" case. A user has been
// interested in several categories (incl. toys) but never in clothing.
// In the new span the user interacts with both a clothing item ("skirt" —
// a never-seen category) and a toy item ("LEGO" — an existing interest).
// The figure shows the item's dot-products against the interests: the
// unseen-category item is *puzzled* (flat profile over all interests)
// while the toy item peaks at its own interest; after expansion and
// training, the unseen-category item peaks at the newly created interest.
#include <algorithm>

#include "bench/bench_common.h"
#include "core/imsr_trainer.h"
#include "core/nid.h"
#include "core/pit.h"

namespace {

using namespace imsr;  // NOLINT(build/namespaces)

std::string ProfileRow(const std::string& label,
                       const std::vector<double>& probs) {
  std::string row = label;
  for (double p : probs) {
    row += ' ';
    row += util::FormatDouble(p, 3);
  }
  return row;
}

}  // namespace

int main(int argc, char** argv) {
  util::FlagSet flags = bench::BenchFlags(
      "bench_fig2_puzzlement",
      "Figure 2: assignment profiles of a puzzled vs a classified item");
  bench::BenchSetup setup = bench::ParseBenchFlags(argc, argv, &flags);

  bench::PrintHeader(
      "Figure 2 — assignment profiles of a puzzled vs a classified item",
      "Fig. 2 (dot-products of skirt/LEGO to interests, before/after "
      "training)");

  // Build a compact dataset whose ground truth we control.
  data::SyntheticConfig config = data::SyntheticConfig::Electronics(
      std::max(setup.scale, 0.15));
  config.seed = setup.seed;
  const data::SyntheticDataset synthetic = GenerateSynthetic(config);
  const data::Dataset& dataset = *synthetic.dataset;

  // Pretrain an IMSR (ComiRec-DR) model on span 0.
  models::MsrModel model(setup.experiment.model, dataset.num_items(),
                         setup.seed);
  core::InterestStore store;
  core::TrainConfig train = setup.experiment.strategy.train;
  core::ImsrTrainer trainer(&model, &store, train);
  trainer.Pretrain(dataset);

  // Pick the user/item pair with the clearest contrast: "LEGO" is the
  // user's pre-training item whose assignment profile is most peaked
  // (largest KL from uniform) and "skirt" the unseen-category item whose
  // profile is flattest (smallest KL).
  data::UserId chosen_user = -1;
  data::ItemId lego = -1;
  data::ItemId skirt = -1;
  double best_spread = -1.0;
  int users_probed = 0;
  for (data::UserId user : dataset.active_users(1)) {
    if (!store.Has(user)) continue;
    if (++users_probed > 25) break;
    const auto& owned =
        synthetic.truth.user_interests[static_cast<size_t>(user)];
    const data::UserSpanData& pretrain = dataset.user_span(user, 0);
    if (pretrain.all.empty()) continue;
    const nn::Tensor& interests = store.Interests(user);

    data::ItemId best_lego = -1;
    double best_lego_kl = -1.0;
    for (data::ItemId item : pretrain.all) {
      const double item_kl = core::AssignmentKl(
          model.embeddings().RowNoGrad(item), interests);
      if (item_kl > best_lego_kl) {
        best_lego_kl = item_kl;
        best_lego = item;
      }
    }

    data::ItemId best_skirt = -1;
    double best_skirt_kl = 1e30;
    for (data::ItemId item = 0; item < dataset.num_items(); item += 3) {
      const int category =
          synthetic.truth.item_category[static_cast<size_t>(item)];
      if (std::find(owned.begin(), owned.end(), category) != owned.end()) {
        continue;
      }
      const double item_kl = core::AssignmentKl(
          model.embeddings().RowNoGrad(item), interests);
      if (item_kl < best_skirt_kl) {
        best_skirt_kl = item_kl;
        best_skirt = item;
      }
    }
    if (best_lego < 0 || best_skirt < 0) continue;
    const double spread = best_lego_kl - best_skirt_kl;
    if (spread > best_spread) {
      best_spread = spread;
      chosen_user = user;
      lego = best_lego;
      skirt = best_skirt;
    }
  }
  IMSR_CHECK(chosen_user >= 0) << "no suitable case-study user";

  auto profile = [&](data::ItemId item) {
    return core::AssignmentDistribution(
        model.embeddings().RowNoGrad(item), store.Interests(chosen_user));
  };
  auto kl = [&](data::ItemId item) {
    return core::AssignmentKl(model.embeddings().RowNoGrad(item),
                              store.Interests(chosen_user));
  };

  std::printf("user %d, K=%lld existing interests\n", chosen_user,
              static_cast<long long>(store.NumInterests(chosen_user)));
  std::printf("BEFORE expansion/training (red bars in the paper):\n");
  std::printf("  %s\n",
              ProfileRow("skirt p(h_k|e):", profile(skirt)).c_str());
  std::printf("    KL from uniform = %.4f  (puzzled: flat profile)\n",
              kl(skirt));
  std::printf("  %s\n", ProfileRow("LEGO  p(h_k|e):", profile(lego)).c_str());
  std::printf("    KL from uniform = %.4f  (classified: peaked profile)\n\n",
              kl(lego));

  const double skirt_kl_before = kl(skirt);
  const double lego_kl_before = kl(lego);

  // The figure's "after" state: give the user one new interest vector and
  // let it absorb the unseen-category interactions (the paper retrains
  // with fine-tuning; the equivalent here is PIT's orthogonal
  // initialisation followed by re-extraction over a stream containing the
  // new category).
  const int64_t k_before = store.NumInterests(chosen_user);
  util::Rng rng(setup.seed ^ 0xF16);
  const nn::Tensor seed_vector = core::OrthogonalComponent(
      store.Interests(chosen_user), model.embeddings().RowNoGrad(skirt));
  store.Append(chosen_user,
               seed_vector.Reshape({1, model.config().embedding_dim}),
               /*span=*/1);
  model.extractor().EnsureUserCapacity(
      chosen_user, store.NumInterests(chosen_user), rng, nullptr);
  // The user now interacts with several items of the unseen category.
  std::vector<data::ItemId> items = dataset.user_span(chosen_user, 1).all;
  const int skirt_category =
      synthetic.truth.item_category[static_cast<size_t>(skirt)];
  int added = 0;
  for (data::ItemId item = 0; item < dataset.num_items() && added < 4;
       ++item) {
    if (synthetic.truth.item_category[static_cast<size_t>(item)] ==
        skirt_category) {
      items.push_back(item);
      ++added;
    }
  }
  items.push_back(skirt);
  trainer.RefreshUserInterests(chosen_user, items, /*span=*/1);

  std::printf("AFTER creating interest %lld and re-extraction (purple):\n",
              static_cast<long long>(k_before));
  std::printf("  %s\n",
              ProfileRow("skirt p(h_k|e):", profile(skirt)).c_str());
  const std::vector<double> skirt_after = profile(skirt);
  const size_t argmax = static_cast<size_t>(
      std::max_element(skirt_after.begin(), skirt_after.end()) -
      skirt_after.begin());
  std::printf("    now peaks at interest %zu (the new one: %s), KL = %.4f\n",
              argmax,
              argmax == static_cast<size_t>(k_before) ? "yes" : "no",
              kl(skirt));
  std::printf("  %s\n", ProfileRow("LEGO  p(h_k|e):", profile(lego)).c_str());
  std::printf("    KL = %.4f (still classified to its old interest)\n\n",
              kl(lego));

  std::printf(
      "Paper's shape: the unseen-category item has a flat profile over\n"
      "the existing interests (low KL, 'puzzled'; here %.4f vs the\n"
      "classified item's %.4f) and, once a new interest vector is\n"
      "provided, peaks at the new interest while the classified item's\n"
      "profile is unchanged.\n",
      skirt_kl_before, lego_kl_before);
  return 0;
}
