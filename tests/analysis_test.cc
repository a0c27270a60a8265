// Tests for the interest-analysis toolkit and the multi-cutoff metrics.
#include <gtest/gtest.h>

#include "eval/interest_analysis.h"
#include "eval/metrics.h"

namespace imsr {
namespace {

// ---- Multi-cutoff metrics ----

TEST(MultiCutoffTest, TracksEveryCutoffAndMrr) {
  eval::MultiCutoffAccumulator accumulator({5, 10, 20});
  accumulator.AddRank(1);   // inside all cutoffs
  accumulator.AddRank(7);   // inside 10, 20
  accumulator.AddRank(50);  // outside all
  const eval::MultiCutoffMetrics metrics = accumulator.Finalize();
  ASSERT_EQ(metrics.cutoffs, (std::vector<int>{5, 10, 20}));
  EXPECT_NEAR(metrics.hit_ratio[0], 1.0 / 3.0, 1e-12);
  EXPECT_NEAR(metrics.hit_ratio[1], 2.0 / 3.0, 1e-12);
  EXPECT_NEAR(metrics.hit_ratio[2], 2.0 / 3.0, 1e-12);
  EXPECT_NEAR(metrics.mrr, (1.0 + 1.0 / 7.0 + 1.0 / 50.0) / 3.0, 1e-12);
  EXPECT_EQ(metrics.users, 3);
  // NDCG at larger cutoffs dominates smaller ones.
  EXPECT_GE(metrics.ndcg[2], metrics.ndcg[0]);
}

TEST(MultiCutoffTest, ConsistentWithSingleCutoffAccumulator) {
  eval::MetricsAccumulator single(20);
  eval::MultiCutoffAccumulator multi({20});
  for (int64_t rank : {1, 3, 8, 25, 100, 2}) {
    single.AddRank(rank);
    multi.AddRank(rank);
  }
  const eval::TopNMetrics a = single.Finalize();
  const eval::MultiCutoffMetrics b = multi.Finalize();
  EXPECT_NEAR(a.hit_ratio, b.hit_ratio[0], 1e-12);
  EXPECT_NEAR(a.ndcg, b.ndcg[0], 1e-12);
}

TEST(MultiCutoffTest, EmptyIsZero) {
  eval::MultiCutoffAccumulator accumulator({10});
  const eval::MultiCutoffMetrics metrics = accumulator.Finalize();
  EXPECT_EQ(metrics.users, 0);
  EXPECT_EQ(metrics.mrr, 0.0);
}

// ---- Interest analysis ----

struct AnalysisFixture {
  AnalysisFixture() : items({6, 4}), interests({3, 4}) {
    // Items on two axes.
    for (int64_t i = 0; i < 3; ++i) items.at(i, 0) = 1.0f + 0.1f * i;
    for (int64_t i = 3; i < 6; ++i) items.at(i, 1) = 1.0f + 0.1f * i;
    interests.at(0, 0) = 1.0f;   // axis-0 interest
    interests.at(1, 1) = 1.0f;   // axis-1 interest
    interests.at(2, 0) = 0.9f;   // redundant copy of interest 0
  }
  nn::Tensor items;
  nn::Tensor interests;
};

TEST(InterestAnalysisTest, MaxCorrelationFlagsRedundantNewInterest) {
  AnalysisFixture f;
  const std::vector<eval::MaxCorrelation> corr =
      eval::MaxCorrelationAgainstExisting(f.interests, f.items, 2);
  ASSERT_EQ(corr.size(), 1u);  // one "new" interest (row 2)
  EXPECT_NEAR(corr[0].correlation, 1.0, 1e-9);
  EXPECT_EQ(corr[0].existing, 0);  // the interest it copies
  // With the copied interest second, the argmax names row 1.
  const nn::Tensor reordered =
      nn::ConcatRows({f.interests.RowSlice(1, 2), f.interests.RowSlice(0, 1),
                      f.interests.RowSlice(2, 3)});
  const std::vector<eval::MaxCorrelation> second =
      eval::MaxCorrelationAgainstExisting(reordered, f.items, 2);
  ASSERT_EQ(second.size(), 1u);
  EXPECT_NEAR(second[0].correlation, 1.0, 1e-9);
  EXPECT_EQ(second[0].existing, 1);
}

TEST(InterestAnalysisTest, NormsAndDrift) {
  AnalysisFixture f;
  const std::vector<double> norms = eval::InterestNorms(f.interests);
  EXPECT_NEAR(norms[0], 1.0, 1e-6);
  EXPECT_NEAR(norms[2], 0.9, 1e-6);

  nn::Tensor moved = f.interests;
  moved.at(0, 2) += 0.5f;  // move interest 0 only
  EXPECT_NEAR(eval::InheritedDrift(f.interests, moved), 0.5 / 3.0, 1e-6);
  // Snapshots of different K compare the shared prefix.
  const nn::Tensor grown =
      nn::ConcatRows({f.interests, nn::Tensor::Full({1, 4}, 2.0f)});
  EXPECT_NEAR(eval::InheritedDrift(f.interests, grown), 0.0, 1e-9);
}

TEST(InterestAnalysisTest, DistanceToNearestExisting) {
  AnalysisFixture f;
  const std::vector<double> distances =
      eval::DistanceToNearestExisting(f.interests, 2);
  ASSERT_EQ(distances.size(), 1u);
  // Row 2 = 0.9 * row 0 -> distance 0.1 to row 0.
  EXPECT_NEAR(distances[0], 0.1, 1e-6);
}

// Fig. 7c over a hand-built span: identity item embeddings, so each
// interest scores only the item on its axis.
TEST(InterestAnalysisTest, InterestAgeServingShareCountsBirthSpans) {
  // pretrain [0,50), span 1 [50,75), span 2 [75,100).
  const std::vector<data::Interaction> log = {
      {4, 0, 0},                            // sets the timeline start
      {0, 1, 80}, {0, 0, 90},               // user 0: test item 0
      {1, 3, 76}, {1, 2, 77}, {1, 2, 78},   // user 1: test item 2
      {2, 1, 81}, {2, 3, 82},               // user 2: test item 3
      {3, 0, 85},                           // user 3: no test item
      {4, 0, 86}, {4, 1, 99},               // user 4: not in the store
  };
  const data::Dataset dataset(5, 4, log, 2, 0.5, 1);
  nn::Tensor items({4, 4});
  for (int64_t i = 0; i < 4; ++i) items.at(i, i) = 1.0f;
  auto axis = [](int64_t a, float scale) {
    nn::Tensor row({1, 4});
    row.at(0, a) = scale;
    return row;
  };

  core::InterestStore store;
  util::Rng rng(1);
  for (data::UserId user : {0, 1, 2, 3}) {
    store.Initialize(user, 1, 4, 0, rng);
  }
  // User 0: axis 1 @ span 0, axis 0 @ span 1 -> served by span 1.
  store.SetInterests(0, axis(1, 1.0f));
  store.Append(0, axis(0, 1.0f), 1);
  // User 1: axis 2 @ span 0 and @ span 1 tie -> the first (span 0) wins.
  store.SetInterests(1, axis(2, 1.0f));
  store.Append(1, axis(2, 1.0f), 1);
  // User 2: axis 3 @ span 0, a longer axis 3 @ span 2 -> span 2.
  store.SetInterests(2, axis(3, 1.0f));
  store.Append(2, axis(3, 2.0f), 2);

  const eval::InterestAgeShares shares =
      eval::InterestAgeServingShare(items, store, dataset, 2, 2);
  EXPECT_EQ(shares.users, 3);
  EXPECT_EQ(shares.shares, (std::vector<double>{1.0 / 3.0, 1.0 / 3.0,
                                                1.0 / 3.0}));
  // Births past max_span count as max_span.
  const eval::InterestAgeShares clamped =
      eval::InterestAgeServingShare(items, store, dataset, 2, 1);
  EXPECT_EQ(clamped.users, 3);
  EXPECT_EQ(clamped.shares, (std::vector<double>{1.0 / 3.0, 2.0 / 3.0}));
  // A span nobody with interests is active in counts no one.
  const eval::InterestAgeShares empty =
      eval::InterestAgeServingShare(items, core::InterestStore(), dataset,
                                    2, 1);
  EXPECT_EQ(empty.users, 0);
  EXPECT_EQ(empty.shares, (std::vector<double>{0.0, 0.0}));
}

}  // namespace
}  // namespace imsr
