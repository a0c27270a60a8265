// Tests for full-state checkpointing: stop after span t, resume at t+1.
#include <gtest/gtest.h>

#include <cstdio>

#include "core/checkpoint.h"
#include "core/imsr_trainer.h"
#include "data/synthetic.h"
#include "eval/evaluator.h"

namespace imsr::core {
namespace {

data::SyntheticDataset SmallData() {
  data::SyntheticConfig config;
  config.num_users = 30;
  config.num_items = 150;
  config.num_categories = 8;
  config.num_incremental_spans = 3;
  config.pretrain_interactions_per_user = 20;
  config.span_interactions_per_user = 8;
  config.min_interactions = 5;
  config.seed = 31;
  return data::GenerateSynthetic(config);
}

models::ModelConfig SmallModel() {
  models::ModelConfig config;
  config.kind = models::ExtractorKind::kComiRecDr;
  config.embedding_dim = 16;
  return config;
}

TEST(CheckpointTest, SaveLoadRoundTrip) {
  const data::SyntheticDataset synthetic = SmallData();
  const data::Dataset& dataset = *synthetic.dataset;

  models::MsrModel model(SmallModel(), dataset.num_items(), 1);
  InterestStore store;
  TrainConfig train;
  train.pretrain_epochs = 2;
  train.epochs = 1;
  ImsrTrainer trainer(&model, &store, train);
  trainer.Pretrain(dataset);
  trainer.TrainSpan(dataset, 1);

  const std::string path = "/tmp/imsr_checkpoint_test.bin";
  CheckpointMetadata metadata;
  metadata.trained_through_span = 1;
  metadata.note = "unit test";
  ASSERT_TRUE(SaveCheckpoint(path, model, store, metadata));

  models::MsrModel restored_model(SmallModel(), dataset.num_items(), 999);
  InterestStore restored_store;
  CheckpointMetadata restored_metadata;
  std::string error;
  ASSERT_TRUE(LoadCheckpoint(path, &restored_model, &restored_store,
                             &restored_metadata, &error))
      << error;
  EXPECT_EQ(restored_metadata.trained_through_span, 1);
  EXPECT_EQ(restored_metadata.note, "unit test");
  EXPECT_EQ(restored_store.num_users(), store.num_users());
  EXPECT_LT(nn::MaxAbsDiff(model.embeddings().parameter().value(),
                           restored_model.embeddings().parameter().value()),
            1e-12f);
  for (data::UserId user : store.Users()) {
    EXPECT_LT(nn::MaxAbsDiff(store.Interests(user),
                             restored_store.Interests(user)),
              1e-12f);
    EXPECT_EQ(store.BirthSpans(user), restored_store.BirthSpans(user));
  }
  std::remove(path.c_str());
}

TEST(CheckpointTest, ResumedTrainingMatchesEvaluation) {
  // Evaluation from the restored state equals evaluation from the live
  // state.
  const data::SyntheticDataset synthetic = SmallData();
  const data::Dataset& dataset = *synthetic.dataset;

  models::MsrModel model(SmallModel(), dataset.num_items(), 2);
  InterestStore store;
  TrainConfig train;
  train.pretrain_epochs = 2;
  train.epochs = 1;
  ImsrTrainer trainer(&model, &store, train);
  trainer.Pretrain(dataset);

  const std::string path = "/tmp/imsr_checkpoint_resume_test.bin";
  ASSERT_TRUE(SaveCheckpoint(path, model, store, {0, ""}));

  eval::EvalConfig eval_config;
  const eval::EvalResult live = eval::EvaluateSpan(
      model.embeddings().parameter().value(), store, dataset, 1,
      eval_config);

  models::MsrModel restored(SmallModel(), dataset.num_items(), 77);
  InterestStore restored_store;
  ASSERT_TRUE(
      LoadCheckpoint(path, &restored, &restored_store, nullptr, nullptr));
  const eval::EvalResult resumed = eval::EvaluateSpan(
      restored.embeddings().parameter().value(), restored_store, dataset,
      1, eval_config);
  EXPECT_DOUBLE_EQ(live.metrics.hit_ratio, resumed.metrics.hit_ratio);
  EXPECT_DOUBLE_EQ(live.metrics.ndcg, resumed.metrics.ndcg);
  std::remove(path.c_str());
}

TEST(CheckpointTest, RejectsMissingAndForeignFiles) {
  const data::SyntheticDataset synthetic = SmallData();
  models::MsrModel model(SmallModel(), synthetic.dataset->num_items(), 3);
  InterestStore store;
  std::string error;
  EXPECT_FALSE(LoadCheckpoint("/nonexistent/ckpt.bin", &model, &store,
                              nullptr, &error));
  EXPECT_FALSE(error.empty());

  const std::string path = "/tmp/imsr_checkpoint_foreign_test.bin";
  util::BinaryWriter writer;
  writer.WriteString("not-a-checkpoint");
  ASSERT_TRUE(writer.WriteToFileAtomic(path));
  error.clear();
  EXPECT_FALSE(LoadCheckpoint(path, &model, &store, nullptr, &error));
  EXPECT_NE(error.find("not an IMSR checkpoint"), std::string::npos);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace imsr::core
