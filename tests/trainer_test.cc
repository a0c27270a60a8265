// Integration tests for the training engine: interests expansion
// (Algorithm 1), the IMSR trainer (Algorithm 2), pretraining convergence
// and interest refreshing.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <numeric>

#include "core/imsr_trainer.h"
#include "core/interests_expansion.h"
#include "data/synthetic.h"
#include "models/aggregator.h"
#include "models/comirec_sa.h"
#include "models/msr_model.h"
#include "models/sampled_softmax.h"
#include "nn/ops.h"
#include "obs/metrics.h"
#include "obs/obs.h"

namespace imsr::core {
namespace {

data::SyntheticDataset SmallData() {
  data::SyntheticConfig config;
  config.name = "tiny";
  config.num_users = 40;
  config.num_items = 200;
  config.num_categories = 10;
  config.pretrain_interactions_per_user = 30;
  config.span_interactions_per_user = 10;
  config.min_interactions = 5;
  config.seed = 77;
  return data::GenerateSynthetic(config);
}

TrainConfig SmallTrainConfig() {
  TrainConfig config;
  config.pretrain_epochs = 2;
  config.epochs = 1;
  config.batch_size = 32;
  config.negatives = 5;
  config.initial_interests = 3;
  config.seed = 5;
  return config;
}

models::ModelConfig SmallModelConfig(models::ExtractorKind kind) {
  models::ModelConfig config;
  config.kind = kind;
  config.embedding_dim = 16;
  config.attention_dim = 12;
  return config;
}

TEST(TrainerTest, PretrainInitialisesInterestsForActiveUsers) {
  const data::SyntheticDataset synthetic = SmallData();
  const data::Dataset& dataset = *synthetic.dataset;
  models::MsrModel model(
      SmallModelConfig(models::ExtractorKind::kComiRecDr),
      dataset.num_items(), 1);
  InterestStore store;
  ImsrTrainer trainer(&model, &store, SmallTrainConfig());
  trainer.Pretrain(dataset);
  for (data::UserId user : dataset.active_users(0)) {
    EXPECT_TRUE(store.Has(user));
    EXPECT_EQ(store.NumInterests(user), 3);
  }
}

TEST(TrainerTest, PretrainingReducesLoss) {
  const data::SyntheticDataset synthetic = SmallData();
  const data::Dataset& dataset = *synthetic.dataset;
  models::MsrModel model(
      SmallModelConfig(models::ExtractorKind::kComiRecDr),
      dataset.num_items(), 2);
  InterestStore store;
  TrainConfig config = SmallTrainConfig();
  ImsrTrainer trainer(&model, &store, config);
  trainer.EnsureUserState(dataset, 0);

  const std::vector<data::TrainingSample> samples =
      data::BuildSpanSamples(dataset, 0, config.max_history);
  ASSERT_FALSE(samples.empty());
  auto total_loss = [&] {
    double total = 0.0;
    for (size_t i = 0; i < std::min<size_t>(samples.size(), 50); ++i) {
      total += trainer.SampleLoss(samples[i], nullptr).value().item();
    }
    return total;
  };
  const double before = total_loss();
  for (int epoch = 0; epoch < 3; ++epoch) {
    trainer.TrainEpoch(samples, nullptr);
  }
  const double after = total_loss();
  EXPECT_LT(after, before * 0.9);
}

TEST(TrainerTest, TrainSpanRunsForAllExtractors) {
  const data::SyntheticDataset synthetic = SmallData();
  const data::Dataset& dataset = *synthetic.dataset;
  for (models::ExtractorKind kind :
       {models::ExtractorKind::kMind, models::ExtractorKind::kComiRecDr,
        models::ExtractorKind::kComiRecSa}) {
    models::MsrModel model(SmallModelConfig(kind), dataset.num_items(), 3);
    InterestStore store;
    ImsrTrainer trainer(&model, &store, SmallTrainConfig());
    trainer.Pretrain(dataset);
    trainer.TrainSpan(dataset, 1);
    trainer.TrainSpan(dataset, 2);
    // Every span-2-active user has interests.
    for (data::UserId user : dataset.active_users(2)) {
      EXPECT_TRUE(store.Has(user));
      EXPECT_GE(store.NumInterests(user), 3);
    }
  }
}

TEST(TrainerTest, ExpansionGrowsInterestsAndRespectsCap) {
  const data::SyntheticDataset synthetic = SmallData();
  const data::Dataset& dataset = *synthetic.dataset;
  models::MsrModel model(
      SmallModelConfig(models::ExtractorKind::kComiRecDr),
      dataset.num_items(), 4);
  InterestStore store;
  TrainConfig config = SmallTrainConfig();
  config.expansion.nid.c1 = 10.0;  // detector always fires
  config.expansion.pit.c2 = 0.0;   // nothing trimmed
  config.expansion.delta_k = 2;
  config.expansion.max_interests = 6;
  ImsrTrainer trainer(&model, &store, config);
  trainer.Pretrain(dataset);
  trainer.TrainSpan(dataset, 1);
  trainer.TrainSpan(dataset, 2);  // second expansion would exceed 6? no: 3+2=5, 5+2=7>6 -> skipped
  for (data::UserId user : dataset.active_users(1)) {
    EXPECT_LE(store.NumInterests(user), 6);
  }
  EXPECT_GT(trainer.expansion_totals().users_expanded, 0);
  EXPECT_GT(trainer.expansion_totals().interests_added, 0);
}

TEST(TrainerTest, StrictDetectorNeverExpands) {
  const data::SyntheticDataset synthetic = SmallData();
  const data::Dataset& dataset = *synthetic.dataset;
  models::MsrModel model(
      SmallModelConfig(models::ExtractorKind::kComiRecDr),
      dataset.num_items(), 5);
  InterestStore store;
  TrainConfig config = SmallTrainConfig();
  config.expansion.nid.c1 = 0.0;  // mean KL < 0 impossible
  ImsrTrainer trainer(&model, &store, config);
  trainer.Pretrain(dataset);
  trainer.TrainSpan(dataset, 1);
  EXPECT_EQ(trainer.expansion_totals().users_expanded, 0);
  for (data::UserId user : dataset.active_users(1)) {
    EXPECT_EQ(store.NumInterests(user), 3);
  }
}

TEST(TrainerTest, ExpansionKeepsExistingBirthSpansAndAddsNew) {
  const data::SyntheticDataset synthetic = SmallData();
  const data::Dataset& dataset = *synthetic.dataset;
  models::MsrModel model(
      SmallModelConfig(models::ExtractorKind::kComiRecDr),
      dataset.num_items(), 6);
  InterestStore store;
  TrainConfig config = SmallTrainConfig();
  config.expansion.nid.c1 = 10.0;
  config.expansion.pit.c2 = 0.0;
  ImsrTrainer trainer(&model, &store, config);
  trainer.Pretrain(dataset);
  trainer.TrainSpan(dataset, 1);
  bool saw_expanded_user = false;
  for (data::UserId user : dataset.active_users(1)) {
    const std::vector<int>& births = store.BirthSpans(user);
    for (size_t k = 0; k < 3 && k < births.size(); ++k) {
      EXPECT_EQ(births[k], 0);
    }
    if (births.size() > 3) {
      saw_expanded_user = true;
      for (size_t k = 3; k < births.size(); ++k) EXPECT_EQ(births[k], 1);
    }
  }
  EXPECT_TRUE(saw_expanded_user);
}

TEST(TrainerTest, SelfAttentionCapacityTracksStore) {
  const data::SyntheticDataset synthetic = SmallData();
  const data::Dataset& dataset = *synthetic.dataset;
  models::MsrModel model(
      SmallModelConfig(models::ExtractorKind::kComiRecSa),
      dataset.num_items(), 7);
  InterestStore store;
  TrainConfig config = SmallTrainConfig();
  config.expansion.nid.c1 = 10.0;
  config.expansion.pit.c2 = 0.2;
  ImsrTrainer trainer(&model, &store, config);
  trainer.Pretrain(dataset);
  trainer.TrainSpan(dataset, 1);
  auto& extractor =
      dynamic_cast<models::SelfAttentionExtractor&>(model.extractor());
  for (data::UserId user : dataset.active_users(1)) {
    EXPECT_EQ(extractor.UserCapacity(user), store.NumInterests(user));
  }
}

TEST(TrainerTest, PersistInterestsKeepsDormantInterestVectors) {
  const data::SyntheticDataset synthetic = SmallData();
  const data::Dataset& dataset = *synthetic.dataset;
  models::MsrModel model(
      SmallModelConfig(models::ExtractorKind::kComiRecDr),
      dataset.num_items(), 8);
  InterestStore store;
  TrainConfig config = SmallTrainConfig();
  config.enable_expansion = false;
  config.eir.kind = RetentionKind::kNone;
  config.persist_interests = true;
  config.min_evidence_items = 1000000;  // nothing ever overwritten
  ImsrTrainer trainer(&model, &store, config);
  trainer.Pretrain(dataset);
  data::UserId user = dataset.active_users(1)[0];
  const nn::Tensor before = store.Interests(user);
  trainer.TrainSpan(dataset, 1);
  // With an impossible evidence threshold all rows must stay identical.
  EXPECT_LT(nn::MaxAbsDiff(before, store.Interests(user)), 1e-12f);
}

TEST(TrainerTest, NonPersistentRefreshOverwritesInterests) {
  const data::SyntheticDataset synthetic = SmallData();
  const data::Dataset& dataset = *synthetic.dataset;
  models::MsrModel model(
      SmallModelConfig(models::ExtractorKind::kComiRecDr),
      dataset.num_items(), 9);
  InterestStore store;
  TrainConfig config = SmallTrainConfig();
  config.enable_expansion = false;
  config.eir.kind = RetentionKind::kNone;
  config.persist_interests = false;
  ImsrTrainer trainer(&model, &store, config);
  trainer.Pretrain(dataset);
  data::UserId user = dataset.active_users(1)[0];
  const nn::Tensor before = store.Interests(user);
  trainer.TrainSpan(dataset, 1);
  EXPECT_GT(nn::MaxAbsDiff(before, store.Interests(user)), 1e-6f);
}

TEST(TrainerTest, RefreshUserInterestsUsesGivenItems) {
  const data::SyntheticDataset synthetic = SmallData();
  const data::Dataset& dataset = *synthetic.dataset;
  models::MsrModel model(
      SmallModelConfig(models::ExtractorKind::kComiRecDr),
      dataset.num_items(), 10);
  InterestStore store;
  ImsrTrainer trainer(&model, &store, SmallTrainConfig());
  trainer.Pretrain(dataset);
  data::UserId user = dataset.active_users(0)[0];
  const nn::Tensor before = store.Interests(user);
  trainer.RefreshUserInterests(user, {1, 2, 3, 4, 5});
  EXPECT_EQ(store.NumInterests(user), before.size(0));
}

TEST(TrainerTest, ValidationLossIsFiniteAndImprovesWithTraining) {
  const data::SyntheticDataset synthetic = SmallData();
  const data::Dataset& dataset = *synthetic.dataset;
  models::MsrModel model(
      SmallModelConfig(models::ExtractorKind::kComiRecDr),
      dataset.num_items(), 12);
  InterestStore store;
  TrainConfig config = SmallTrainConfig();
  ImsrTrainer trainer(&model, &store, config);
  trainer.EnsureUserState(dataset, 0);
  const double before = trainer.ValidationLoss(dataset, 0);
  EXPECT_TRUE(std::isfinite(before));
  const std::vector<data::TrainingSample> samples =
      data::BuildSpanSamples(dataset, 0, config.max_history);
  for (int epoch = 0; epoch < 4; ++epoch) {
    trainer.TrainEpoch(samples, nullptr);
  }
  EXPECT_LT(trainer.ValidationLoss(dataset, 0), before);
}

TEST(TrainerTest, EarlyStoppingDoesNotBreakPipeline) {
  const data::SyntheticDataset synthetic = SmallData();
  const data::Dataset& dataset = *synthetic.dataset;
  models::MsrModel model(
      SmallModelConfig(models::ExtractorKind::kComiRecDr),
      dataset.num_items(), 13);
  InterestStore store;
  TrainConfig config = SmallTrainConfig();
  config.pretrain_epochs = 10;
  config.epochs = 6;
  config.early_stopping = true;
  config.early_stopping_patience = 1;
  ImsrTrainer trainer(&model, &store, config);
  trainer.Pretrain(dataset);
  trainer.TrainSpan(dataset, 1);
  for (data::UserId user : dataset.active_users(1)) {
    EXPECT_TRUE(store.Has(user));
  }
}

TEST(TrainerTest, TrainEpochReturnsMeanLoss) {
  const data::SyntheticDataset synthetic = SmallData();
  const data::Dataset& dataset = *synthetic.dataset;
  models::MsrModel model(
      SmallModelConfig(models::ExtractorKind::kComiRecDr),
      dataset.num_items(), 14);
  InterestStore store;
  TrainConfig config = SmallTrainConfig();
  ImsrTrainer trainer(&model, &store, config);
  trainer.EnsureUserState(dataset, 0);
  const std::vector<data::TrainingSample> samples =
      data::BuildSpanSamples(dataset, 0, config.max_history);
  ASSERT_FALSE(samples.empty());
  const double first = trainer.TrainEpoch(samples, nullptr);
  EXPECT_TRUE(std::isfinite(first));
  EXPECT_GT(first, 0.0);  // -log softmax over 6 candidates starts near ln 6
  double last = first;
  for (int epoch = 0; epoch < 3; ++epoch) {
    last = trainer.TrainEpoch(samples, nullptr);
  }
  EXPECT_LT(last, first);
  EXPECT_EQ(trainer.TrainEpoch({}, nullptr), 0.0);
}

#if !defined(IMSR_OBS_DISABLED)
// Integration: a 2-span run must leave the paper's diagnostic series in
// the obs registry — per-span loss, puzzlement distribution, PIT
// trim/add counts, and step counters consistent with expansion_totals().
TEST(TrainerTest, ObsMetricsRecordedAcrossTrainingAndExpansion) {
  obs::Registry().Reset();
  const data::SyntheticDataset synthetic = SmallData();
  const data::Dataset& dataset = *synthetic.dataset;
  models::MsrModel model(
      SmallModelConfig(models::ExtractorKind::kComiRecDr),
      dataset.num_items(), 15);
  InterestStore store;
  TrainConfig config = SmallTrainConfig();
  config.expansion.nid.c1 = 10.0;  // detector always fires
  config.eir.kind = RetentionKind::kSigmoidKd;
  ImsrTrainer trainer(&model, &store, config);
  trainer.Pretrain(dataset);
  trainer.TrainSpan(dataset, 1);
  trainer.TrainSpan(dataset, 2);

  const obs::MetricsSnapshot snapshot = obs::Registry().Snapshot();
  auto counter = [&](const std::string& name) -> int64_t {
    for (const obs::CounterSnapshot& c : snapshot.counters) {
      if (c.name == name) return c.value;
    }
    ADD_FAILURE() << "missing counter " << name;
    return -1;
  };
  auto has_gauge = [&](const std::string& name) {
    for (const obs::GaugeSnapshot& g : snapshot.gauges) {
      if (g.name == name) return true;
    }
    return false;
  };
  const obs::HistogramSnapshot* puzzlement = nullptr;
  const obs::HistogramSnapshot* step_latency = nullptr;
  for (const obs::HistogramSnapshot& h : snapshot.histograms) {
    if (h.name == "nid/puzzlement") puzzlement = &h;
    if (h.name == "trainer/step_latency_ms") step_latency = &h;
  }

  EXPECT_GT(counter("trainer/steps"), 0);
  EXPECT_GT(counter("trainer/kd_samples"), 0);
  EXPECT_TRUE(has_gauge("trainer/span_loss"));
  EXPECT_TRUE(has_gauge("trainer/pretrain_loss"));
  ASSERT_NE(puzzlement, nullptr);
  EXPECT_GT(puzzlement->count, 0);
  ASSERT_NE(step_latency, nullptr);
  EXPECT_EQ(step_latency->count, counter("trainer/steps"));
  // PIT counters agree with the trainer's own expansion bookkeeping.
  EXPECT_EQ(counter("pit/interests_added"),
            trainer.expansion_totals().interests_added);
  EXPECT_EQ(counter("pit/interests_trimmed"),
            trainer.expansion_totals().interests_trimmed);
  EXPECT_EQ(counter("nid/users_expanded"),
            trainer.expansion_totals().users_expanded);
}
#endif  // !IMSR_OBS_DISABLED

// Exact float-for-float equality (memcmp, so even -0.0 vs +0.0 or NaN
// payload differences would fail): equivalent paths must agree bit for
// bit, not merely closely.
bool BitwiseEqual(const nn::Tensor& a, const nn::Tensor& b) {
  if (a.numel() != b.numel()) return false;
  return std::memcmp(a.data(), b.data(),
                     static_cast<size_t>(a.numel()) * sizeof(float)) == 0;
}

// ---- Minibatched path vs per-sample reference path ----

// At batch_size == 1 the batched path must reproduce the per-sample path
// bit for bit: same RNG sequence, same graph arithmetic, same gradient
// accumulation order (see SampledSoftmaxBatchLoss).
TEST(TrainerTest, BatchedPathBitwiseIdenticalAtBatchSizeOne) {
  const data::SyntheticDataset synthetic = SmallData();
  const data::Dataset& dataset = *synthetic.dataset;
  auto run = [&](bool batched) {
    models::MsrModel model(
        SmallModelConfig(models::ExtractorKind::kComiRecDr),
        dataset.num_items(), 9);
    InterestStore store;
    TrainConfig config = SmallTrainConfig();
    config.batch_size = 1;
    config.batched = batched;
    ImsrTrainer trainer(&model, &store, config);
    trainer.EnsureUserState(dataset, 0);
    const std::vector<data::TrainingSample> samples =
        data::BuildSpanSamples(dataset, 0, config.max_history);
    std::vector<double> losses;
    for (int epoch = 0; epoch < 2; ++epoch) {
      losses.push_back(trainer.TrainEpoch(samples, nullptr));
    }
    std::vector<nn::Tensor> parameters;
    for (const nn::Var& p : model.SharedParameters()) {
      parameters.push_back(p.value());
    }
    return std::make_pair(losses, parameters);
  };
  const auto batched = run(true);
  const auto reference = run(false);
  ASSERT_EQ(batched.first.size(), reference.first.size());
  for (size_t i = 0; i < batched.first.size(); ++i) {
    EXPECT_EQ(batched.first[i], reference.first[i]) << "epoch " << i;
  }
  ASSERT_EQ(batched.second.size(), reference.second.size());
  for (size_t i = 0; i < batched.second.size(); ++i) {
    EXPECT_TRUE(BitwiseEqual(batched.second[i], reference.second[i]))
        << "parameter " << i;
  }
}

// Same property with the retention loss active: the batched path routes
// each sample's distillation term through its block of the shared
// candidate gather, which must merge gradients in the per-sample order.
// Every shared parameter (embedding table and extractor transform) is
// compared after each of two epochs' worth of steps.
TEST(TrainerTest, BatchedPathBitwiseIdenticalAtBatchSizeOneWithTeacher) {
  const data::SyntheticDataset synthetic = SmallData();
  const data::Dataset& dataset = *synthetic.dataset;
  auto run = [&](bool batched) {
    models::MsrModel model(
        SmallModelConfig(models::ExtractorKind::kComiRecDr),
        dataset.num_items(), 9);
    InterestStore store;
    TrainConfig config = SmallTrainConfig();
    config.batch_size = 1;
    config.batched = batched;
    ImsrTrainer trainer(&model, &store, config);
    trainer.EnsureUserState(dataset, 0);
    const TeacherSnapshot teacher = trainer.SnapshotTeacher(dataset, 0);
    const std::vector<data::TrainingSample> samples =
        data::BuildSpanSamples(dataset, 0, config.max_history);
    std::vector<double> losses;
    for (int epoch = 0; epoch < 2; ++epoch) {
      losses.push_back(trainer.TrainEpoch(samples, &teacher));
    }
    std::vector<nn::Tensor> parameters;
    for (const nn::Var& p : model.SharedParameters()) {
      parameters.push_back(p.value());
    }
    return std::make_pair(losses, parameters);
  };
  const auto batched = run(true);
  const auto reference = run(false);
  ASSERT_EQ(batched.first.size(), reference.first.size());
  for (size_t i = 0; i < batched.first.size(); ++i) {
    EXPECT_EQ(batched.first[i], reference.first[i]) << "epoch " << i;
  }
  ASSERT_EQ(batched.second.size(), 2u);
  ASSERT_EQ(batched.second.size(), reference.second.size());
  for (size_t i = 0; i < batched.second.size(); ++i) {
    EXPECT_TRUE(BitwiseEqual(batched.second[i], reference.second[i]))
        << "parameter " << i;
  }
}

// Test-local copy of the batched trainer as it stood before EIR had a
// fused form: every teacher batch runs the reference chain
// (ForwardInterestsBatch + AttentiveAggregate, then per covered sample
// RowSlice -> RetentionLoss -> Scale -> Add on the summed loss). It
// drives its own rng, negative sampler and optimizer in ImsrTrainer's
// exact call order, so an identically seeded ImsrTrainer must match it
// bit for bit.
class ReferenceChainTrainer {
 public:
  ReferenceChainTrainer(models::MsrModel* model, InterestStore* store,
                        const TrainConfig& config)
      : model_(model),
        store_(store),
        config_(config),
        optimizer_(config.learning_rate),
        rng_(config.seed),
        sampler_(static_cast<int32_t>(model->num_items())) {
    for (const nn::Var& parameter : model_->SharedParameters()) {
      optimizer_.Register(parameter);
    }
  }

  void EnsureUserState(const data::Dataset& dataset, int span) {
    const int64_t dim = model_->config().embedding_dim;
    for (data::UserId user : dataset.active_users(span)) {
      if (!store_->Has(user)) {
        store_->Initialize(user, config_.initial_interests, dim, span, rng_);
      }
      model_->extractor().EnsureUserCapacity(
          user, store_->NumInterests(user), rng_, &optimizer_);
    }
  }

  double TrainEpoch(const std::vector<data::TrainingSample>& samples,
                    const TeacherSnapshot* teacher) {
    std::vector<size_t> order(samples.size());
    std::iota(order.begin(), order.end(), 0);
    rng_.Shuffle(order);
    double epoch_loss = 0.0;
    const auto batch = static_cast<size_t>(config_.batch_size);
    for (size_t begin = 0; begin < order.size(); begin += batch) {
      const size_t end = std::min(order.size(), begin + batch);
      nn::Var loss = nn::ops::Scale(
          BatchLoss(samples, order.data() + begin, end - begin, teacher),
          1.0f / static_cast<float>(end - begin));
      loss.Backward();
      epoch_loss += static_cast<double>(loss.value().item()) *
                    static_cast<double>(end - begin);
      optimizer_.Step();
      optimizer_.ZeroGradAll();
    }
    return epoch_loss / static_cast<double>(samples.size());
  }

 private:
  nn::Var BatchLoss(const std::vector<data::TrainingSample>& samples,
                    const size_t* indices, size_t count,
                    const TeacherSnapshot* teacher) {
    const auto block = static_cast<size_t>(1 + config_.negatives);
    std::vector<data::ItemId> flat_history;
    std::vector<int64_t> offsets = {0};
    std::vector<const nn::Tensor*> inits;
    std::vector<data::UserId> users;
    std::vector<data::ItemId> targets;
    std::vector<data::ItemId> flat;
    for (size_t i = 0; i < count; ++i) {
      const data::TrainingSample& sample = samples[indices[i]];
      flat_history.insert(flat_history.end(), sample.history.begin(),
                          sample.history.end());
      offsets.push_back(static_cast<int64_t>(flat_history.size()));
      inits.push_back(&store_->Interests(sample.user));
      users.push_back(sample.user);
      targets.push_back(sample.target);
      flat.push_back(sample.target);
      sampler_.SampleInto(config_.negatives, sample.target, rng_, &flat);
    }
    nn::Var target_embeddings = model_->embeddings().Lookup(targets);
    std::vector<nn::Var> interests;
    model_->ForwardInterestsBatch(flat_history, offsets, inits, users,
                                  &interests);
    std::vector<nn::Var> reprs;
    for (size_t b = 0; b < count; ++b) {
      reprs.push_back(models::AttentiveAggregate(
          interests[b],
          nn::ops::RowVector(target_embeddings, static_cast<int64_t>(b))));
    }
    nn::Var candidates = model_->embeddings().Lookup(flat);
    nn::Var loss = models::SampledSoftmaxBatchLoss(
        reprs, candidates, static_cast<int64_t>(block));
    if (teacher == nullptr) return loss;
    for (size_t b = 0; b < count; ++b) {
      auto it = teacher->interests.find(users[b]);
      if (it == teacher->interests.end() ||
          it->second.size(0) > interests[b].value().size(0)) {
        continue;
      }
      const auto row = static_cast<int64_t>(b * block);
      const std::vector<int64_t> rows(flat.begin() + row,
                                      flat.begin() + row + block);
      nn::Var retention = RetentionLoss(
          config_.eir, interests[b], it->second,
          nn::ops::RowSlice(candidates, row,
                            row + static_cast<int64_t>(block)),
          nn::GatherRows(teacher->embeddings, rows));
      loss = nn::ops::Add(
          loss, nn::ops::Scale(retention, config_.eir.coefficient));
    }
    return loss;
  }

  models::MsrModel* model_;
  InterestStore* store_;
  TrainConfig config_;
  nn::Adam optimizer_;
  util::Rng rng_;
  data::NegativeSampler sampler_;
};

// The fused EIR path (one retention node per batch on top of the fused
// readout) against the reference chain at a real batch size: epoch
// losses, every shared parameter and the refreshed interests must agree
// bit for bit. The teacher covers users with fewer interests than the
// student and skips one with more and one it lacks.
TEST(TrainerTest, TeacherBatchesMatchReferenceChainAtBatchSize64) {
  const data::SyntheticDataset synthetic = SmallData();
  const data::Dataset& dataset = *synthetic.dataset;
  TrainConfig config = SmallTrainConfig();
  config.batch_size = 64;
  config.eir.kind = RetentionKind::kSigmoidKd;
  const models::ModelConfig model_config =
      SmallModelConfig(models::ExtractorKind::kComiRecDr);
  models::MsrModel fused_model(model_config, dataset.num_items(), 9);
  models::MsrModel reference_model(model_config, dataset.num_items(), 9);
  InterestStore fused_store;
  InterestStore reference_store;
  ImsrTrainer trainer(&fused_model, &fused_store, config);
  ReferenceChainTrainer reference(&reference_model, &reference_store,
                                  config);
  trainer.EnsureUserState(dataset, 0);
  reference.EnsureUserState(dataset, 0);
  const std::vector<data::TrainingSample> samples =
      data::BuildSpanSamples(dataset, 0, config.max_history);
  ASSERT_GT(samples.size(), 2u * 64u);

  // One plain epoch first, so the teacher is not the student's start.
  std::vector<double> fused_losses = {trainer.TrainEpoch(samples, nullptr)};
  std::vector<double> reference_losses = {
      reference.TrainEpoch(samples, nullptr)};
  TeacherSnapshot teacher = trainer.SnapshotTeacher(dataset, 0);
  const std::vector<data::UserId>& users = dataset.active_users(0);
  ASSERT_GE(users.size(), 4u);
  nn::Tensor& shrunk_one = teacher.interests.at(users[0]);
  shrunk_one = shrunk_one.RowSlice(0, 1);
  nn::Tensor& shrunk_two = teacher.interests.at(users[1]);
  shrunk_two = shrunk_two.RowSlice(0, 2);
  nn::Tensor& grown = teacher.interests.at(users[2]);
  grown = nn::ConcatRows({grown, grown.RowSlice(0, 1)});
  teacher.interests.erase(users[3]);
  for (int epoch = 0; epoch < 2; ++epoch) {
    fused_losses.push_back(trainer.TrainEpoch(samples, &teacher));
    reference_losses.push_back(reference.TrainEpoch(samples, &teacher));
  }
  ASSERT_EQ(fused_losses.size(), reference_losses.size());
  for (size_t i = 0; i < fused_losses.size(); ++i) {
    EXPECT_EQ(std::memcmp(&fused_losses[i], &reference_losses[i],
                          sizeof(double)),
              0)
        << "epoch " << i << ": " << fused_losses[i] << " vs "
        << reference_losses[i];
  }
  const std::vector<nn::Var> fused_parameters =
      fused_model.SharedParameters();
  const std::vector<nn::Var> reference_parameters =
      reference_model.SharedParameters();
  ASSERT_EQ(fused_parameters.size(), 2u);
  ASSERT_EQ(fused_parameters.size(), reference_parameters.size());
  for (size_t i = 0; i < fused_parameters.size(); ++i) {
    EXPECT_TRUE(BitwiseEqual(fused_parameters[i].value(),
                             reference_parameters[i].value()))
        << "parameter " << i;
  }
  trainer.RefreshInterests(dataset, 0);
  ImsrTrainer(&reference_model, &reference_store, config)
      .RefreshInterests(dataset, 0);
  for (data::UserId user : users) {
    EXPECT_TRUE(BitwiseEqual(fused_store.Interests(user),
                             reference_store.Interests(user)))
        << "user " << user;
  }
}

// For larger batches the fused node's ascending-sample sum reproduces the
// per-sample path's left-fold Add chain over identical per-sample values.
TEST(TrainerTest, BatchLossSumsPerSampleLosses) {
  const data::SyntheticDataset synthetic = SmallData();
  const data::Dataset& dataset = *synthetic.dataset;
  constexpr size_t kBatch = 16;
  auto make = [&](auto&& body) {
    models::MsrModel model(
        SmallModelConfig(models::ExtractorKind::kComiRecDr),
        dataset.num_items(), 9);
    InterestStore store;
    ImsrTrainer trainer(&model, &store, SmallTrainConfig());
    trainer.EnsureUserState(dataset, 0);
    const std::vector<data::TrainingSample> samples =
        data::BuildSpanSamples(dataset, 0,
                               trainer.config().max_history);
    return body(trainer, samples);
  };
  const float fused = make([&](ImsrTrainer& trainer,
                               const std::vector<data::TrainingSample>&
                                   samples) {
    std::vector<size_t> indices(kBatch);
    std::iota(indices.begin(), indices.end(), 0);
    return trainer.BatchLoss(samples, indices.data(), kBatch, nullptr)
        .value()
        .item();
  });
  const float summed = make([&](ImsrTrainer& trainer,
                                const std::vector<data::TrainingSample>&
                                    samples) {
    float total = 0.0f;
    for (size_t i = 0; i < kBatch; ++i) {
      total += trainer.SampleLoss(samples[i], nullptr).value().item();
    }
    return total;
  });
  EXPECT_FLOAT_EQ(fused, summed);
}

TEST(TrainerTest, DeterministicGivenSeeds) {
  const data::SyntheticDataset synthetic = SmallData();
  const data::Dataset& dataset = *synthetic.dataset;
  auto run = [&] {
    models::MsrModel model(
        SmallModelConfig(models::ExtractorKind::kComiRecDr),
        dataset.num_items(), 11);
    InterestStore store;
    ImsrTrainer trainer(&model, &store, SmallTrainConfig());
    trainer.Pretrain(dataset);
    trainer.TrainSpan(dataset, 1);
    return store.Interests(dataset.active_users(1)[0]);
  };
  EXPECT_LT(nn::MaxAbsDiff(run(), run()), 1e-12f);
}

}  // namespace
}  // namespace imsr::core
