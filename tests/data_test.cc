// Tests for the dataset substrate: span splitting, leave-one-out rule,
// synthetic generator invariants, samplers and statistics.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>

#include "data/dataset.h"
#include "data/sampler.h"
#include "data/stats.h"
#include "data/synthetic.h"

namespace imsr::data {
namespace {

// A tiny handcrafted log: 2 users, 6 items, timeline [0, 100).
std::vector<Interaction> TinyLog() {
  std::vector<Interaction> log;
  // User 0: pretrain 0..49 has items 0,1,2; span data afterwards.
  log.push_back({0, 0, 5});
  log.push_back({0, 1, 20});
  log.push_back({0, 2, 45});
  // Incremental half [50, 100) in 2 spans: [50,75), [75,100).
  log.push_back({0, 3, 55});
  log.push_back({0, 4, 60});
  log.push_back({0, 5, 70});
  log.push_back({0, 1, 80});
  log.push_back({0, 2, 95});
  // User 1: only pretrain interactions.
  log.push_back({1, 0, 10});
  log.push_back({1, 3, 30});
  log.push_back({1, 4, 40});
  return log;
}

TEST(DatasetTest, SpanAssignmentAndSplit) {
  Dataset dataset(2, 6, TinyLog(), /*num_incremental_spans=*/2,
                  /*alpha=*/0.5, /*min_interactions=*/1);
  EXPECT_EQ(dataset.num_spans(), 3);

  const UserSpanData& u0_pre = dataset.user_span(0, 0);
  EXPECT_EQ(u0_pre.all.size(), 3u);
  // Leave-one-out inside the span: train=[0], valid=1, test=2.
  EXPECT_EQ(u0_pre.train.size(), 1u);
  EXPECT_EQ(u0_pre.valid, 1);
  EXPECT_EQ(u0_pre.test, 2);

  const UserSpanData& u0_s1 = dataset.user_span(0, 1);
  EXPECT_EQ(u0_s1.all, (std::vector<ItemId>{3, 4, 5}));

  const UserSpanData& u0_s2 = dataset.user_span(0, 2);
  EXPECT_EQ(u0_s2.all, (std::vector<ItemId>{1, 2}));
  // Two-item span: no validation item, last is test.
  EXPECT_EQ(u0_s2.valid, -1);
  EXPECT_EQ(u0_s2.test, 2);
  EXPECT_EQ(u0_s2.train, (std::vector<ItemId>{1}));

  // User 1 inactive after pretraining.
  EXPECT_FALSE(dataset.user_span(1, 1).active());
  const auto& active1 = dataset.active_users(1);
  EXPECT_EQ(active1.size(), 1u);
  EXPECT_EQ(active1[0], 0);
}

TEST(DatasetTest, MinInteractionsFilter) {
  Dataset dataset(2, 6, TinyLog(), 2, 0.5, /*min_interactions=*/4);
  EXPECT_TRUE(dataset.user_kept(0));   // 8 interactions
  EXPECT_FALSE(dataset.user_kept(1));  // 3 interactions
  EXPECT_EQ(dataset.num_kept_users(), 1);
  EXPECT_FALSE(dataset.user_span(1, 0).active());
}

TEST(DatasetTest, ChronologicalOrderWithinSpan) {
  // Deliberately unsorted input must be sorted by timestamp.
  std::vector<Interaction> log = {{0, 2, 30}, {0, 0, 10}, {0, 1, 20},
                                  {0, 3, 60}, {0, 4, 55}, {0, 5, 70}};
  Dataset dataset(1, 6, log, 1, 0.5, 1);
  EXPECT_EQ(dataset.user_span(0, 0).all, (std::vector<ItemId>{0, 1, 2}));
  EXPECT_EQ(dataset.user_span(0, 1).all, (std::vector<ItemId>{4, 3, 5}));
}

TEST(DatasetTest, SpanInteractionCountsSumToKeptLog) {
  Dataset dataset(2, 6, TinyLog(), 2, 0.5, 1);
  int64_t total = 0;
  for (int span = 0; span < dataset.num_spans(); ++span) {
    total += dataset.span_interactions(span);
  }
  EXPECT_EQ(total, 11);
}

TEST(DatasetTest, UserHistoryUpTo) {
  Dataset dataset(2, 6, TinyLog(), 2, 0.5, 1);
  const std::vector<ItemId> h0 = dataset.UserHistoryUpTo(0, 0);
  EXPECT_EQ(h0, (std::vector<ItemId>{0, 1, 2}));
  const std::vector<ItemId> h1 = dataset.UserHistoryUpTo(0, 1);
  EXPECT_EQ(h1, (std::vector<ItemId>{0, 1, 2, 3, 4, 5}));
}

TEST(SyntheticTest, DeterministicGivenSeed) {
  SyntheticConfig config = SyntheticConfig::Electronics(0.1);
  const SyntheticDataset a = GenerateSynthetic(config);
  const SyntheticDataset b = GenerateSynthetic(config);
  EXPECT_EQ(a.dataset->num_kept_users(), b.dataset->num_kept_users());
  for (int span = 0; span < a.dataset->num_spans(); ++span) {
    EXPECT_EQ(a.dataset->span_interactions(span),
              b.dataset->span_interactions(span));
  }
  EXPECT_EQ(a.truth.item_category, b.truth.item_category);
}

TEST(SyntheticTest, AllPresetsGenerate) {
  for (const char* name : {"electronics", "clothing", "books", "taobao"}) {
    SyntheticConfig config;
    std::string error;
    ASSERT_TRUE(SyntheticConfig::PresetFromName(name, 0.05, &config, &error))
        << error;
    const SyntheticDataset synthetic = GenerateSynthetic(config);
    EXPECT_GT(synthetic.dataset->num_kept_users(), 0) << name;
    EXPECT_EQ(synthetic.dataset->num_incremental_spans(), 6) << name;
  }
}

TEST(SyntheticTest, UnknownPresetListsTheValidNames) {
  SyntheticConfig config;
  std::string error;
  EXPECT_FALSE(SyntheticConfig::PresetFromName("taobo", 1.0, &config, &error));
  EXPECT_NE(error.find("'taobo'"), std::string::npos) << error;
  EXPECT_NE(error.find("electronics, clothing, books, taobao"),
            std::string::npos)
      << error;
}

TEST(SyntheticTest, GroundTruthConsistency) {
  const SyntheticDataset synthetic =
      GenerateSynthetic(SyntheticConfig::Books(0.08));
  const SyntheticConfig& config = synthetic.config;
  EXPECT_EQ(synthetic.truth.item_category.size(),
            static_cast<size_t>(config.num_items));
  for (int category : synthetic.truth.item_category) {
    EXPECT_GE(category, 0);
    EXPECT_LT(category, config.num_categories);
  }
  for (int32_t u = 0; u < config.num_users; ++u) {
    const auto& interests = synthetic.truth.user_interests[u];
    const auto& births = synthetic.truth.interest_birth_span[u];
    ASSERT_EQ(interests.size(), births.size());
    EXPECT_GE(interests.size(), 1u);
    // Owned interests are distinct.
    std::set<int> unique(interests.begin(), interests.end());
    EXPECT_EQ(unique.size(), interests.size());
    for (int birth : births) {
      EXPECT_GE(birth, 0);
      EXPECT_LE(birth, config.num_incremental_spans);
    }
  }
}

TEST(SyntheticTest, InterestsReappearAcrossSpans) {
  // The paper's motivation: most interests reappear in several spans.
  const SyntheticDataset synthetic =
      GenerateSynthetic(SyntheticConfig::Taobao(0.1));
  const double fraction =
      InterestReappearFraction(*synthetic.dataset, synthetic.truth, 3);
  EXPECT_GT(fraction, 0.4);
}

TEST(SyntheticTest, NewInterestRatesOrderAcrossPresets) {
  // Taobao users develop new interests faster than Books users (drives
  // the paper's §V-C contrast).
  auto new_interest_count = [](const SyntheticDataset& synthetic) {
    int64_t count = 0;
    for (const auto& births : synthetic.truth.interest_birth_span) {
      for (int birth : births) count += birth > 0 ? 1 : 0;
    }
    return count;
  };
  SyntheticConfig books = SyntheticConfig::Books(0.2);
  SyntheticConfig taobao = SyntheticConfig::Taobao(0.2);
  // Equalise user counts for a fair comparison.
  taobao.num_users = books.num_users;
  const auto books_count = new_interest_count(GenerateSynthetic(books));
  const auto taobao_count = new_interest_count(GenerateSynthetic(taobao));
  EXPECT_GT(taobao_count, books_count * 2);
}

TEST(SyntheticTest, ItemsMostlyFromOwnedInterests) {
  const SyntheticDataset synthetic =
      GenerateSynthetic(SyntheticConfig::Electronics(0.1));
  const Dataset& dataset = *synthetic.dataset;
  int64_t matched = 0;
  int64_t total = 0;
  for (UserId u = 0; u < dataset.num_users(); ++u) {
    if (!dataset.user_kept(u)) continue;
    const auto& interests = synthetic.truth.user_interests[u];
    for (int span = 0; span < dataset.num_spans(); ++span) {
      for (ItemId item : dataset.user_span(u, span).all) {
        ++total;
        const int category = synthetic.truth.item_category[item];
        if (std::find(interests.begin(), interests.end(), category) !=
            interests.end()) {
          ++matched;
        }
      }
    }
  }
  ASSERT_GT(total, 0);
  // Every interaction is drawn from an owned interest by construction.
  EXPECT_EQ(matched, total);
}

TEST(SamplerTest, SpanSamplesAreNextItemPrediction) {
  Dataset dataset(2, 6, TinyLog(), 2, 0.5, 1);
  const std::vector<TrainingSample> samples =
      BuildSpanSamples(dataset, 1, /*max_history=*/10);
  // User 0's span-1 train sequence is {3}; a single item yields no sample.
  EXPECT_TRUE(samples.empty());

  const std::vector<TrainingSample> pretrain_samples =
      BuildSpanSamples(dataset, 0, 10);
  // User 0 train={0} (no sample); user 1 train={0} (n=3: train has 1 item).
  EXPECT_TRUE(pretrain_samples.empty());
}

TEST(SamplerTest, HistoryTruncation) {
  std::vector<Interaction> log;
  for (int i = 0; i < 20; ++i) {
    log.push_back({0, i % 8, i});  // all pretrain if alpha big enough
  }
  log.push_back({0, 0, 100});  // force timeline end
  Dataset dataset(1, 8, log, 1, 0.9, 1);
  const std::vector<TrainingSample> samples =
      BuildSpanSamples(dataset, 0, /*max_history=*/4);
  ASSERT_FALSE(samples.empty());
  for (const TrainingSample& sample : samples) {
    EXPECT_LE(sample.history.size(), 4u);
    EXPECT_GE(sample.history.size(), 1u);
  }
}

TEST(SamplerTest, CumulativeSamplesSpanBoundary) {
  Dataset dataset(2, 6, TinyLog(), 2, 0.5, 1);
  const std::vector<TrainingSample> samples =
      BuildCumulativeSamples(dataset, 2, 10);
  // User 0 cumulative train = {0} + {3} + {1} = 3 items -> 2 samples.
  int user0_samples = 0;
  for (const TrainingSample& sample : samples) {
    if (sample.user == 0) ++user0_samples;
  }
  EXPECT_EQ(user0_samples, 2);
}

TEST(SamplerTest, NegativeSamplerExcludesTarget) {
  NegativeSampler sampler(10);
  util::Rng rng(1);
  for (int trial = 0; trial < 50; ++trial) {
    const std::vector<ItemId> negatives = sampler.Sample(5, 3, rng);
    EXPECT_EQ(negatives.size(), 5u);
    for (ItemId item : negatives) {
      EXPECT_NE(item, 3);
      EXPECT_GE(item, 0);
      EXPECT_LT(item, 10);
    }
  }
}

TEST(StatsTest, ComputeStatsBasics) {
  Dataset dataset(2, 6, TinyLog(), 2, 0.5, 1);
  const DatasetStats stats = ComputeStats(dataset);
  EXPECT_EQ(stats.num_users, 2);
  EXPECT_EQ(stats.span_interactions.size(), 3u);
  EXPECT_EQ(stats.span_interactions[0], 6);
  EXPECT_EQ(stats.span_interactions[1], 3);
  EXPECT_EQ(stats.span_interactions[2], 2);
  EXPECT_EQ(stats.num_items_seen, 6);
  EXPECT_NEAR(stats.mean_sequence_length, 5.5, 1e-9);
}

}  // namespace
}  // namespace imsr::data
