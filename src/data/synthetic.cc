#include "data/synthetic.h"

#include <algorithm>
#include <cmath>

#include "util/check.h"

namespace imsr::data {
namespace {

// Timeline length; only relative positions matter.
constexpr int64_t kTimelineLength = 1'000'000;

int JitteredCount(int mean, util::Rng& rng) {
  const double jitter = rng.Uniform(0.7, 1.3);
  return std::max(1, static_cast<int>(std::lround(mean * jitter)));
}

}  // namespace

SyntheticConfig SyntheticConfig::Electronics(double scale) {
  SyntheticConfig c;
  c.name = "Electronics";
  c.num_users = std::max(20, static_cast<int>(250 * scale));
  c.num_items = std::max(100, static_cast<int>(900 * scale));
  c.num_categories = 20;
  c.pretrain_interactions_per_user = 36;
  c.span_interactions_per_user = 10;
  c.initial_interests_per_user = 3;
  c.new_interest_prob = 0.30;
  c.interest_active_prob = 0.65;
  c.seed = 101;
  return c;
}

SyntheticConfig SyntheticConfig::Clothing(double scale) {
  SyntheticConfig c;
  c.name = "Clothing";
  c.num_users = std::max(20, static_cast<int>(400 * scale));
  c.num_items = std::max(100, static_cast<int>(1100 * scale));
  c.num_categories = 24;
  c.pretrain_interactions_per_user = 40;
  c.span_interactions_per_user = 11;
  c.initial_interests_per_user = 3;
  c.new_interest_prob = 0.35;
  c.interest_active_prob = 0.65;
  c.seed = 102;
  return c;
}

SyntheticConfig SyntheticConfig::Books(double scale) {
  SyntheticConfig c;
  c.name = "Books";
  c.num_users = std::max(20, static_cast<int>(500 * scale));
  c.num_items = std::max(100, static_cast<int>(1000 * scale));
  c.num_categories = 18;
  c.pretrain_interactions_per_user = 44;
  c.span_interactions_per_user = 12;
  c.initial_interests_per_user = 3;
  // Book tastes are stable: few new interests, existing interests stay
  // active — retention (EIR) dominates (paper §V-C).
  c.new_interest_prob = 0.15;
  c.interest_active_prob = 0.78;
  c.seed = 103;
  return c;
}

SyntheticConfig SyntheticConfig::Taobao(double scale) {
  SyntheticConfig c;
  c.name = "Taobao";
  c.num_users = std::max(20, static_cast<int>(600 * scale));
  c.num_items = std::max(100, static_cast<int>(2000 * scale));
  c.num_categories = 36;
  c.pretrain_interactions_per_user = 50;
  c.span_interactions_per_user = 14;
  c.initial_interests_per_user = 4;
  // Rich catalogue, fast-moving interests — expansion (NID/PIT) dominates.
  c.new_interest_prob = 0.55;
  c.interest_active_prob = 0.55;
  c.new_interest_boost = 3.0;
  c.seed = 104;
  return c;
}

bool SyntheticConfig::PresetFromName(const std::string& name, double scale,
                                     SyntheticConfig* config,
                                     std::string* error) {
  IMSR_CHECK(config != nullptr);
  if (name == "electronics") {
    *config = Electronics(scale);
  } else if (name == "clothing") {
    *config = Clothing(scale);
  } else if (name == "books") {
    *config = Books(scale);
  } else if (name == "taobao") {
    *config = Taobao(scale);
  } else {
    if (error != nullptr) {
      *error = "unknown dataset preset '" + name +
               "' (valid: electronics, clothing, books, taobao)";
    }
    return false;
  }
  return true;
}

SyntheticDataset GenerateSynthetic(const SyntheticConfig& config) {
  IMSR_CHECK_GT(config.num_users, 0);
  IMSR_CHECK_GT(config.num_items, 0);
  IMSR_CHECK_GT(config.num_categories, 0);
  IMSR_CHECK_LE(config.num_categories, config.num_items);
  IMSR_CHECK_GE(config.initial_interests_per_user, 1);
  IMSR_CHECK_LE(config.initial_interests_per_user, config.num_categories);

  util::Rng rng(config.seed);

  // --- Item catalogue: category membership + Zipf popularity order ---
  SyntheticGroundTruth truth;
  truth.item_category.resize(static_cast<size_t>(config.num_items));
  std::vector<std::vector<ItemId>> category_items(
      static_cast<size_t>(config.num_categories));
  for (ItemId item = 0; item < config.num_items; ++item) {
    const int category =
        static_cast<int>(rng.NextBelow(config.num_categories));
    truth.item_category[static_cast<size_t>(item)] = category;
    category_items[static_cast<size_t>(category)].push_back(item);
  }
  // Guarantee non-empty categories by reassigning from the largest.
  for (int c = 0; c < config.num_categories; ++c) {
    auto& items = category_items[static_cast<size_t>(c)];
    if (!items.empty()) continue;
    auto largest = std::max_element(
        category_items.begin(), category_items.end(),
        [](const auto& a, const auto& b) { return a.size() < b.size(); });
    const ItemId moved = largest->back();
    largest->pop_back();
    items.push_back(moved);
    truth.item_category[static_cast<size_t>(moved)] = c;
  }
  for (auto& items : category_items) rng.Shuffle(items);

  auto zipf_weights = [&](size_t n) {
    std::vector<double> weights(n);
    for (size_t r = 0; r < n; ++r) {
      weights[r] = 1.0 / std::pow(static_cast<double>(r + 1),
                                  config.zipf_exponent);
    }
    return weights;
  };
  std::vector<std::vector<double>> category_weights(
      static_cast<size_t>(config.num_categories));
  for (int c = 0; c < config.num_categories; ++c) {
    category_weights[static_cast<size_t>(c)] =
        zipf_weights(category_items[static_cast<size_t>(c)].size());
  }

  // --- Users: owned interests with birth spans ---
  truth.user_interests.resize(static_cast<size_t>(config.num_users));
  truth.interest_birth_span.resize(static_cast<size_t>(config.num_users));
  for (UserId u = 0; u < config.num_users; ++u) {
    std::vector<int> all_categories(
        static_cast<size_t>(config.num_categories));
    for (int c = 0; c < config.num_categories; ++c) {
      all_categories[static_cast<size_t>(c)] = c;
    }
    rng.Shuffle(all_categories);
    const int base = config.initial_interests_per_user;
    const int count = std::max(
        1, std::min(config.num_categories,
                    static_cast<int>(rng.IntInRange(base - 1, base + 1))));
    for (int k = 0; k < count; ++k) {
      truth.user_interests[static_cast<size_t>(u)].push_back(
          all_categories[static_cast<size_t>(k)]);
      truth.interest_birth_span[static_cast<size_t>(u)].push_back(0);
    }
  }

  // --- Span time windows ---
  const int num_spans = config.num_incremental_spans + 1;
  const auto pretrain_end =
      static_cast<int64_t>(config.alpha * kTimelineLength);
  const double slice =
      (1.0 - config.alpha) * kTimelineLength / config.num_incremental_spans;
  auto span_window = [&](int span) -> std::pair<int64_t, int64_t> {
    if (span == 0) return {0, pretrain_end};
    const auto begin =
        pretrain_end + static_cast<int64_t>((span - 1) * slice);
    const auto end = pretrain_end + static_cast<int64_t>(span * slice);
    return {begin, end};
  };

  // --- Interaction generation ---
  std::vector<Interaction> log;
  log.reserve(static_cast<size_t>(config.num_users) *
              static_cast<size_t>(config.pretrain_interactions_per_user +
                                  config.num_incremental_spans *
                                      config.span_interactions_per_user));

  for (int span = 0; span < num_spans; ++span) {
    // Popularity drift: swap a fraction of adjacent in-category ranks.
    if (span > 0 && config.popularity_drift > 0.0) {
      for (auto& items : category_items) {
        if (items.size() < 2) continue;
        const auto swaps = static_cast<size_t>(
            config.popularity_drift * static_cast<double>(items.size()));
        for (size_t s = 0; s < swaps; ++s) {
          const size_t i = static_cast<size_t>(
              rng.NextBelow(items.size() - 1));
          std::swap(items[i], items[i + 1]);
        }
      }
    }

    const auto [window_begin, window_end] = span_window(span);
    for (UserId u = 0; u < config.num_users; ++u) {
      auto& interests = truth.user_interests[static_cast<size_t>(u)];
      auto& births = truth.interest_birth_span[static_cast<size_t>(u)];

      // New-interest arrival (incremental spans only).
      if (span > 0 && rng.Bernoulli(config.new_interest_prob)) {
        for (int add = 0; add < config.new_interests_per_event; ++add) {
          if (static_cast<int>(interests.size()) >= config.num_categories) {
            break;
          }
          int category;
          do {
            category = static_cast<int>(rng.NextBelow(config.num_categories));
          } while (std::find(interests.begin(), interests.end(), category) !=
                   interests.end());
          interests.push_back(category);
          births.push_back(span);
        }
      }

      // Active subset for this span: each owned interest flips a coin;
      // interests born this span are always active.
      std::vector<size_t> active;
      for (size_t k = 0; k < interests.size(); ++k) {
        if (births[k] == span || rng.Bernoulli(config.interest_active_prob)) {
          active.push_back(k);
        }
      }
      if (active.empty()) {
        active.push_back(static_cast<size_t>(rng.NextBelow(
            interests.size())));
      }
      std::vector<double> interest_weights(active.size());
      for (size_t a = 0; a < active.size(); ++a) {
        const int birth = births[active[a]];
        double weight = 1.0 + config.recency_bias *
                                  static_cast<double>(birth) /
                                  static_cast<double>(num_spans);
        if (birth == span && span > 0) weight *= config.new_interest_boost;
        interest_weights[a] = weight;
      }

      const int count = JitteredCount(
          span == 0 ? config.pretrain_interactions_per_user
                    : config.span_interactions_per_user,
          rng);
      for (int i = 0; i < count; ++i) {
        const size_t pick = rng.Categorical(interest_weights);
        const int category = interests[active[pick]];
        const auto& items = category_items[static_cast<size_t>(category)];
        const auto& weights = category_weights[static_cast<size_t>(category)];
        const ItemId item = items[rng.Categorical(weights)];
        const int64_t timestamp =
            rng.IntInRange(window_begin, std::max(window_begin,
                                                  window_end - 1));
        log.push_back({u, item, timestamp});
      }
    }
  }

  SyntheticDataset result;
  result.truth = std::move(truth);
  result.config = config;
  result.dataset = std::make_unique<Dataset>(
      config.num_users, config.num_items, std::move(log),
      config.num_incremental_spans, config.alpha, config.min_interactions);
  return result;
}

std::vector<Interaction> FlattenDatasetToLog(const Dataset& dataset) {
  std::vector<Interaction> interactions;
  const int num_spans = dataset.num_incremental_spans();
  const int64_t slice = 1'000'000;
  for (int span = 0; span < dataset.num_spans(); ++span) {
    const int64_t window_begin =
        span == 0 ? 0
                  : static_cast<int64_t>(num_spans + span - 1) * slice;
    const int64_t window_size =
        span == 0 ? static_cast<int64_t>(num_spans) * slice : slice;
    for (UserId user : dataset.active_users(span)) {
      const auto& items = dataset.user_span(user, span).all;
      for (size_t i = 0; i < items.size(); ++i) {
        // Spread the user's in-span items evenly so order is preserved.
        const int64_t timestamp =
            window_begin +
            static_cast<int64_t>(i) * window_size /
                static_cast<int64_t>(items.size() + 1) +
            user % 97;  // de-synchronise users within the window
        interactions.push_back({user, items[i], timestamp});
      }
    }
  }
  return interactions;
}

}  // namespace imsr::data
