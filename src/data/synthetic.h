// Synthetic multi-interest interaction stream generator — the stand-in for
// the Amazon review and Taobao click logs (see DESIGN.md §1). The
// generator reproduces the phenomena the paper's evaluation depends on:
//
//  * items are organised into latent interest categories with a long-tailed
//    within-category popularity (Zipf);
//  * each user owns several interests; per span only a (recency-biased)
//    subset is active, so old interests *reappear* later — the paper's
//    motivation for retaining every existing interest;
//  * users develop brand-new interests over time at a dataset-specific
//    rate (Taobao fastest, Books slowest), driving NID/PIT;
//  * within-category popularity drifts slowly across spans.
#ifndef IMSR_DATA_SYNTHETIC_H_
#define IMSR_DATA_SYNTHETIC_H_

#include <memory>
#include <string>
#include <vector>

#include "data/dataset.h"
#include "util/rng.h"

namespace imsr::data {

struct SyntheticConfig {
  std::string name = "custom";
  int32_t num_users = 300;
  int32_t num_items = 1500;
  int num_categories = 24;

  int num_incremental_spans = 6;  // T
  double alpha = 0.5;             // pre-training fraction of the timeline

  // Interaction volume. The pre-training window holds roughly
  // `pretrain_interactions_per_user` records per user and every incremental
  // span roughly `span_interactions_per_user` (both jittered +-30%).
  int pretrain_interactions_per_user = 40;
  int span_interactions_per_user = 12;

  // Interest dynamics.
  int initial_interests_per_user = 3;   // owned categories at time 0
  double new_interest_prob = 0.35;      // P[user gains a new interest]/span
  int new_interests_per_event = 1;      // categories added per event
  double interest_active_prob = 0.65;   // P[an owned interest is active]/span
  double new_interest_boost = 2.5;      // weight multiplier in birth span
  double recency_bias = 0.3;            // extra weight for newest interests

  // Popularity model.
  double zipf_exponent = 1.1;
  double popularity_drift = 0.05;  // fraction of in-category rank swaps/span

  int min_interactions = 12;  // scaled-down analogue of the paper's 30

  uint64_t seed = 42;

  // Presets mirroring Table II's four datasets (scaled ~1000x down).
  // `scale` multiplies user/item counts for the speed-up experiments.
  static SyntheticConfig Electronics(double scale = 1.0);
  static SyntheticConfig Clothing(double scale = 1.0);
  static SyntheticConfig Books(double scale = 1.0);
  static SyntheticConfig Taobao(double scale = 1.0);
  // Fallible preset lookup by lowercase name ("electronics" | "clothing"
  // | "books" | "taobao"); on an unknown name returns false and fills
  // `error` with the valid names.
  static bool PresetFromName(const std::string& name, double scale,
                             SyntheticConfig* config, std::string* error);
};

// Generation-time ground truth, exposed for the diagnostic benches
// (Fig. 2 needs to plant an unseen category; Fig. 7a needs item origins).
struct SyntheticGroundTruth {
  std::vector<int> item_category;                 // item -> category
  std::vector<std::vector<int>> user_interests;   // user -> owned categories
  // user -> span at which each owned interest was acquired (parallel to
  // user_interests).
  std::vector<std::vector<int>> interest_birth_span;
};

struct SyntheticDataset {
  std::unique_ptr<Dataset> dataset;
  SyntheticGroundTruth truth;
  SyntheticConfig config;
};

// Generates a dataset from `config`. Deterministic given config.seed.
SyntheticDataset GenerateSynthetic(const SyntheticConfig& config);

// Flattens a span-structured dataset back into a timestamped interaction
// log. Timestamps are laid out so that re-splitting with alpha = 0.5 and
// the same span count reproduces the span structure: the pre-training
// window occupies the first half of the timeline ([0, T*slice)) and each
// incremental span an equal slice of the second half. In-span order per
// user is preserved; users are de-synchronised within a window by a small
// per-user offset. Shared by `imsr_cli generate` and the streaming replay
// path, which must agree on the timeline convention.
std::vector<Interaction> FlattenDatasetToLog(const Dataset& dataset);

}  // namespace imsr::data

#endif  // IMSR_DATA_SYNTHETIC_H_
