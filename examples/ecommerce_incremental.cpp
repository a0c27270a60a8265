// E-commerce scenario: a Taobao-like click stream arrives in time spans;
// the platform fine-tunes its multi-interest recommender with IMSR after
// each span and serves top-N recommendations from the stored interests.
// Demonstrates the full production loop: pretrain -> per-span update ->
// checkpoint -> serve.
//
//   ./examples/ecommerce_incremental [--scale=0.3] [--top_n=10]
#include <cstdio>

#include "core/imsr_trainer.h"
#include "data/synthetic.h"
#include "eval/evaluator.h"
#include "eval/ranker.h"
#include "models/diversity.h"
#include "util/flags.h"

int main(int argc, char** argv) {
  using namespace imsr;  // NOLINT(build/namespaces)
  util::FlagSet flags("ecommerce_incremental",
                      "pretrain, per-span IMSR update and serving loop");
  flags.AddDouble("scale", 0.3, "fraction of the Taobao preset's size");
  flags.AddInt("top_n", 10, "items recommended to the sample user",
               /*min=*/1);
  flags.ParseOrExit(argc - 1, argv + 1);
  const double scale = flags.GetDouble("scale");
  const int top_n = static_cast<int>(flags.GetInt("top_n"));

  // The platform's historical click log.
  const data::SyntheticDataset synthetic =
      data::GenerateSynthetic(data::SyntheticConfig::Taobao(scale));
  const data::Dataset& dataset = *synthetic.dataset;
  std::printf("click log: %lld users, %d items, %d incremental spans\n\n",
              static_cast<long long>(dataset.num_kept_users()),
              dataset.num_items(), dataset.num_incremental_spans());

  // Base recommender: ComiRec-DR with IMSR's incremental machinery.
  models::ModelConfig model_config;
  model_config.kind = models::ExtractorKind::kComiRecDr;
  model_config.embedding_dim = 32;
  models::MsrModel model(model_config, dataset.num_items(), /*seed=*/7);
  core::InterestStore store;
  core::TrainConfig train_config;
  train_config.epochs = 3;
  core::ImsrTrainer trainer(&model, &store, train_config);

  // Night 0: pretrain on everything collected so far.
  std::printf("[night 0] pretraining on the historical log...\n");
  trainer.Pretrain(dataset);

  eval::EvalConfig eval_config;
  eval_config.top_n = 20;
  for (int span = 1; span < dataset.num_incremental_spans(); ++span) {
    // A new day/span of interactions arrived: incremental update only.
    trainer.TrainSpan(dataset, span);

    // Persist a checkpoint exactly as a serving stack would.
    util::BinaryWriter writer;
    model.Save(&writer);
    store.Save(&writer);
    std::printf(
        "[night %d] incremental update done; checkpoint %.1f KiB; "
        "avg interests/user %.2f\n",
        span, static_cast<double>(writer.buffer().size()) / 1024.0,
        store.AverageInterests());

    // Online metric on the next span's held-out purchases.
    const eval::EvalResult result = eval::EvaluateSpan(
        model.embeddings().parameter().value(), store, dataset, span + 1,
        eval_config);
    std::printf("          next-span HR@20 %.4f over %lld users\n",
                result.metrics.hit_ratio,
                static_cast<long long>(result.metrics.users));
  }

  // Serve: top-N recommendations for one user from the stored interests.
  const data::UserId user = dataset.active_users(1)[0];
  std::printf("\nserving user %d (K=%lld interests):\n", user,
              static_cast<long long>(store.NumInterests(user)));
  const auto top = eval::TopNItems(
      store.Interests(user), model.embeddings().parameter().value(),
      top_n, eval::ScoreRule::kAttentive);
  for (size_t i = 0; i < top.size(); ++i) {
    std::printf("  %2zu. item %-6d (category %d, score %.3f)\n", i + 1,
                top[i].first,
                synthetic.truth
                    .item_category[static_cast<size_t>(top[i].first)],
                top[i].second);
  }
  std::printf(
      "\nrecommendations span the user's ground-truth interests: {");
  for (int category :
       synthetic.truth.user_interests[static_cast<size_t>(user)]) {
    std::printf(" %d", category);
  }
  std::printf(" }\n");

  // Controllable diversity (ComiRec's aggregation module): re-rank a
  // larger candidate pool with a category-coverage bonus.
  const auto pool = eval::TopNItems(
      store.Interests(user), model.embeddings().parameter().value(),
      top_n * 4, eval::ScoreRule::kAttentive);
  models::DiversityConfig diversity;
  diversity.top_n = top_n;
  diversity.lambda = 0.2;
  const auto diverse = models::ControllableRerank(
      pool, synthetic.truth.item_category, diversity);
  std::printf(
      "diversity@%d: plain %.2f -> controllable (lambda=%.1f) %.2f\n",
      top_n, models::ListDiversity(top, synthetic.truth.item_category),
      diversity.lambda,
      models::ListDiversity(diverse, synthetic.truth.item_category));
  return 0;
}
