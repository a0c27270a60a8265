// Interest-evolution walkthrough: follows a single user across time spans
// and narrates what IMSR's components decide — the puzzlement score (NID),
// whether new interest vectors are created, what the trimmer removes
// (PIT), and how far the inherited interests drift (EIR's effect).
//
//   ./examples/interest_evolution [--scale=0.3] [--user=-1]
#include <algorithm>
#include <cstdio>

#include "core/imsr_trainer.h"
#include "core/nid.h"
#include "data/synthetic.h"
#include "eval/interest_analysis.h"
#include "util/csv.h"
#include "util/flags.h"

int main(int argc, char** argv) {
  using namespace imsr;  // NOLINT(build/namespaces)
  util::Flags flags(argc, argv);
  const double scale = flags.GetDouble("scale", 0.3);

  const data::SyntheticDataset synthetic =
      data::GenerateSynthetic(data::SyntheticConfig::Taobao(scale));
  const data::Dataset& dataset = *synthetic.dataset;

  models::ModelConfig model_config;
  model_config.kind = models::ExtractorKind::kComiRecDr;
  model_config.embedding_dim = 32;
  models::MsrModel model(model_config, dataset.num_items(), 7);
  core::InterestStore store;
  core::TrainConfig train_config;
  core::ImsrTrainer trainer(&model, &store, train_config);
  trainer.Pretrain(dataset);

  // Pick a user who develops a new ground-truth interest mid-stream (or
  // honour --user=).
  data::UserId user = static_cast<data::UserId>(flags.GetInt("user", -1));
  if (user < 0) {
    for (data::UserId candidate : dataset.active_users(1)) {
      if (!store.Has(candidate)) continue;
      const auto& births =
          synthetic.truth
              .interest_birth_span[static_cast<size_t>(candidate)];
      const bool gains_new =
          std::any_of(births.begin(), births.end(),
                      [](int birth) { return birth >= 1; });
      int active_spans = 0;
      for (int span = 1; span <= dataset.num_incremental_spans(); ++span) {
        active_spans += dataset.user_span(candidate, span).active();
      }
      if (gains_new && active_spans >= dataset.num_incremental_spans() - 1) {
        user = candidate;
        break;
      }
    }
  }
  IMSR_CHECK(user >= 0 && store.Has(user)) << "no suitable user found";

  std::printf("following user %d\n", user);
  std::printf("ground-truth interests (category@birth-span):");
  const auto& interests =
      synthetic.truth.user_interests[static_cast<size_t>(user)];
  const auto& births =
      synthetic.truth.interest_birth_span[static_cast<size_t>(user)];
  for (size_t i = 0; i < interests.size(); ++i) {
    std::printf(" %d@%d", interests[i], births[i]);
  }
  std::printf("\n\n");

  for (int span = 1; span <= dataset.num_incremental_spans() - 1; ++span) {
    const data::UserSpanData& span_data = dataset.user_span(user, span);
    const int64_t k_before = store.NumInterests(user);
    const nn::Tensor interests_before = store.Interests(user);

    double kl = -1.0;
    if (span_data.active()) {
      kl = core::MeanAssignmentKl(
          model.embeddings().LookupNoGrad(span_data.all),
          store.Interests(user));
    }

    trainer.TrainSpan(dataset, span);

    const int64_t k_after = store.NumInterests(user);
    // Drift of the inherited interests across the span.
    const double drift =
        eval::InheritedDrift(interests_before, store.Interests(user));

    std::printf("span %d: %2zu interactions | mean KL %s%s | K %lld -> "
                "%lld | inherited drift %.3f\n",
                span, span_data.all.size(),
                kl >= 0 ? util::FormatDouble(kl, 4).c_str() : "n/a",
                kl >= 0 && kl < train_config.expansion.nid.c1
                    ? " (puzzled!)"
                    : "",
                static_cast<long long>(k_before),
                static_cast<long long>(k_after), drift);

    if (k_after > k_before) {
      std::printf("        -> NID fired; PIT kept %lld of %d candidate "
                  "vectors\n",
                  static_cast<long long>(k_after - k_before),
                  train_config.expansion.delta_k);
    }
  }

  std::printf("\nbirth spans of the final interest set:");
  for (int birth : store.BirthSpans(user)) std::printf(" %d", birth);
  std::printf("\ntotal expansion across all users: +%d interests "
              "(%d users, %d trimmed)\n",
              trainer.expansion_totals().interests_added,
              trainer.expansion_totals().users_expanded,
              trainer.expansion_totals().interests_trimmed);
  return 0;
}
