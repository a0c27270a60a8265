// End-to-end integration tests for the experiment runner.
#include <gtest/gtest.h>

#include "core/experiment.h"
#include "data/synthetic.h"

namespace imsr::core {
namespace {

data::SyntheticDataset SmallData() {
  data::SyntheticConfig config;
  config.name = "tiny";
  config.num_users = 35;
  config.num_items = 180;
  config.num_categories = 9;
  config.num_incremental_spans = 4;
  config.pretrain_interactions_per_user = 24;
  config.span_interactions_per_user = 9;
  config.min_interactions = 5;
  config.seed = 99;
  return data::GenerateSynthetic(config);
}

ExperimentConfig SmallExperiment(StrategyKind kind) {
  ExperimentConfig config;
  config.model.kind = models::ExtractorKind::kComiRecDr;
  config.model.embedding_dim = 16;
  config.strategy.kind = kind;
  config.strategy.train.pretrain_epochs = 3;
  config.strategy.train.epochs = 1;
  config.strategy.train.batch_size = 32;
  config.strategy.train.negatives = 5;
  config.strategy.train.initial_interests = 3;
  config.seed = 4;
  return config;
}

TEST(ExperimentTest, SpanStructureAndAverages) {
  const data::SyntheticDataset synthetic = SmallData();
  const ExperimentResult result = RunExperiment(
      *synthetic.dataset, SmallExperiment(StrategyKind::kFineTune));
  // Entry 0 = pretraining eval; entries 1..T-1 = incremental spans.
  ASSERT_EQ(result.spans.size(), 4u);  // pretrain + spans 1..3
  EXPECT_EQ(result.spans[0].trained_through_span, 0);
  EXPECT_EQ(result.spans[0].test_span, 1);
  EXPECT_EQ(result.spans.back().trained_through_span, 3);
  EXPECT_EQ(result.spans.back().test_span, 4);

  // The reported averages exclude the pretraining entry.
  double hr = 0.0;
  for (size_t i = 1; i < result.spans.size(); ++i) {
    hr += result.spans[i].hit_ratio;
  }
  EXPECT_NEAR(result.avg_hit_ratio, hr / 3.0, 1e-12);
}

TEST(ExperimentTest, LearnsBeyondChance) {
  const data::SyntheticDataset synthetic = SmallData();
  const ExperimentResult result = RunExperiment(
      *synthetic.dataset, SmallExperiment(StrategyKind::kImsr));
  // Chance HR@20 over 180 items is ~0.11; learned interests must beat it.
  EXPECT_GT(result.avg_hit_ratio, 0.15);
  for (const SpanMetrics& span : result.spans) {
    EXPECT_GT(span.evaluated_users, 0);
    EXPECT_GT(span.avg_interests, 0.0);
  }
}

TEST(ExperimentTest, DeterministicGivenSeed) {
  const data::SyntheticDataset synthetic = SmallData();
  const ExperimentConfig config = SmallExperiment(StrategyKind::kImsr);
  const ExperimentResult a = RunExperiment(*synthetic.dataset, config);
  const ExperimentResult b = RunExperiment(*synthetic.dataset, config);
  ASSERT_EQ(a.spans.size(), b.spans.size());
  for (size_t i = 0; i < a.spans.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.spans[i].hit_ratio, b.spans[i].hit_ratio);
    EXPECT_DOUBLE_EQ(a.spans[i].ndcg, b.spans[i].ndcg);
  }
  EXPECT_EQ(a.expansion.interests_added, b.expansion.interests_added);
}

TEST(ExperimentTest, SeedChangesRun) {
  const data::SyntheticDataset synthetic = SmallData();
  ExperimentConfig config = SmallExperiment(StrategyKind::kFineTune);
  const ExperimentResult a = RunExperiment(*synthetic.dataset, config);
  config.seed += 1;
  const ExperimentResult b = RunExperiment(*synthetic.dataset, config);
  bool any_difference = false;
  for (size_t i = 0; i < a.spans.size(); ++i) {
    any_difference |= a.spans[i].hit_ratio != b.spans[i].hit_ratio;
  }
  EXPECT_TRUE(any_difference);
}

TEST(ExperimentTest, RepeatedRunAveragesSpanMetrics) {
  const data::SyntheticDataset synthetic = SmallData();
  const ExperimentConfig config = SmallExperiment(StrategyKind::kFineTune);
  const ExperimentResult single = RunExperiment(*synthetic.dataset, config);
  const ExperimentResult repeated =
      RunRepeatedExperiment(*synthetic.dataset, config, 2);
  ASSERT_EQ(repeated.spans.size(), single.spans.size());
  // The first repeat uses the same seed, so the average differs from the
  // single run only through the second repeat.
  ExperimentConfig second = config;
  second.seed = config.seed + 104729ULL;
  const ExperimentResult other = RunExperiment(*synthetic.dataset, second);
  EXPECT_NEAR(repeated.avg_hit_ratio,
              (single.avg_hit_ratio + other.avg_hit_ratio) / 2.0, 1e-9);
}

TEST(ExperimentTest, ImsrReportsExpansionWhileFtDoesNot) {
  const data::SyntheticDataset synthetic = SmallData();
  ExperimentConfig imsr = SmallExperiment(StrategyKind::kImsr);
  imsr.strategy.train.expansion.nid.c1 = 1e9;  // force expansion
  const ExperimentResult imsr_result =
      RunExperiment(*synthetic.dataset, imsr);
  EXPECT_GT(imsr_result.expansion.users_expanded, 0);

  const ExperimentResult ft_result = RunExperiment(
      *synthetic.dataset, SmallExperiment(StrategyKind::kFineTune));
  EXPECT_EQ(ft_result.expansion.users_expanded, 0);
}

TEST(ExperimentTest, TrainSecondsPopulated) {
  const data::SyntheticDataset synthetic = SmallData();
  const ExperimentResult result = RunExperiment(
      *synthetic.dataset, SmallExperiment(StrategyKind::kFineTune));
  for (const SpanMetrics& span : result.spans) {
    EXPECT_GT(span.train_seconds, 0.0);
  }
}

}  // namespace
}  // namespace imsr::core
