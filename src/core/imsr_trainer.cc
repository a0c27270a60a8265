#include "core/imsr_trainer.h"

#include <algorithm>
#include <numeric>

#include "models/aggregator.h"
#include "models/sampled_softmax.h"
#include "nn/ops.h"
#include "obs/obs.h"
#include "serve/registry.h"
#include "util/logging.h"
#include "util/stopwatch.h"

namespace imsr::core {

ImsrTrainer::ImsrTrainer(models::MsrModel* model, InterestStore* store,
                         const TrainConfig& config)
    : model_(model),
      store_(store),
      config_(config),
      optimizer_(config.learning_rate),
      rng_(config.seed),
      negative_sampler_(static_cast<int32_t>(model->num_items())) {
  IMSR_CHECK(model != nullptr);
  IMSR_CHECK(store != nullptr);
  IMSR_CHECK_GT(config.batch_size, 0);
  IMSR_CHECK_GT(config.negatives, 0);
  for (const nn::Var& parameter : model_->SharedParameters()) {
    optimizer_.Register(parameter);
  }
}

void ImsrTrainer::EnsureUser(data::UserId user, int span) {
  if (!store_->Has(user)) {
    store_->Initialize(user, config_.initial_interests,
                       model_->config().embedding_dim, span, rng_);
  }
  model_->extractor().EnsureUserCapacity(user, store_->NumInterests(user),
                                         rng_, &optimizer_);
}

void ImsrTrainer::EnsureUserState(const data::Dataset& dataset, int span) {
  for (data::UserId user : dataset.active_users(span)) {
    EnsureUser(user, span);
  }
}

nn::Var ImsrTrainer::SampleLoss(const data::TrainingSample& sample,
                                const TeacherSnapshot* teacher) {
  IMSR_CHECK(store_->Has(sample.user));
  const nn::Tensor& interest_init = store_->Interests(sample.user);
  nn::Var interests =
      model_->ForwardInterests(sample.history, interest_init, sample.user);

  // Target embedding as a (d) vector.
  nn::Var target_embedding =
      model_->embeddings().LookupOne(sample.target);

  // Eq. 5 + Eq. 6. The candidate list is trainer-owned scratch: target
  // first, then the negatives drawn straight into the same buffer (same
  // RNG call sequence as the old Sample + insert).
  nn::Var user_repr =
      models::AttentiveAggregate(interests, target_embedding);
  std::vector<data::ItemId>& candidates = scratch_.candidates;
  candidates.clear();
  candidates.push_back(sample.target);
  negative_sampler_.SampleInto(config_.negatives, sample.target, rng_,
                               &candidates);
  nn::Var candidate_embeddings = model_->embeddings().Lookup(candidates);
  nn::Var loss = models::SampledSoftmaxLoss(user_repr,
                                            candidate_embeddings);

  // Eq. 10, when a teacher snapshot covers this user. Distillation runs
  // over the whole candidate set so the scores of dormant interests stay
  // stable under negative sampling.
  if (teacher != nullptr && config_.eir.kind != RetentionKind::kNone) {
    auto it = teacher->interests.find(sample.user);
    if (it != teacher->interests.end() &&
        it->second.size(0) <= interests.value().size(0)) {
      std::vector<int64_t>& candidate_indices =
          scratch_.candidate_indices;
      candidate_indices.assign(candidates.begin(), candidates.end());
      const nn::Tensor teacher_candidates =
          nn::GatherRows(teacher->embeddings, candidate_indices);
      nn::Var retention =
          RetentionLoss(config_.eir, interests, it->second,
                        candidate_embeddings, teacher_candidates);
      IMSR_HISTOGRAM_RECORD_WITH("trainer/kd_loss",
                                 obs::Histogram::LossBounds(),
                                 retention.value().item());
      IMSR_COUNTER_ADD("trainer/kd_samples", 1);
      loss = nn::ops::Add(
          loss, nn::ops::Scale(retention, config_.eir.coefficient));
    }
  }
  return loss;
}

nn::Var ImsrTrainer::BatchLoss(
    const std::vector<data::TrainingSample>& samples,
    const size_t* indices, size_t count, const TeacherSnapshot* teacher) {
  IMSR_CHECK_GT(count, 0u);
  const auto block = static_cast<size_t>(1 + config_.negatives);
  std::vector<nn::Var>& interests = scratch_.interests;
  std::vector<nn::Var>& reprs = scratch_.reprs;
  std::vector<data::ItemId>& targets = scratch_.batch_targets;
  std::vector<data::ItemId>& flat = scratch_.flat_candidates;
  std::vector<data::ItemId>& flat_history = scratch_.flat_history;
  std::vector<int64_t>& history_offsets = scratch_.history_offsets;
  std::vector<const nn::Tensor*>& interest_inits = scratch_.interest_inits;
  std::vector<data::UserId>& batch_users = scratch_.batch_users;
  interests.clear();
  reprs.clear();
  targets.clear();
  flat.clear();
  flat_history.clear();
  history_offsets.clear();
  interest_inits.clear();
  batch_users.clear();

  // Pass 1, per sample in order: concatenate the history and draw the
  // sample's negatives. The trainer rng_ sees the exact draw sequence
  // of the per-sample path; the extractor's own rng stream runs inside
  // the batched forward below, also in ascending sample order.
  history_offsets.push_back(0);
  for (size_t i = 0; i < count; ++i) {
    const data::TrainingSample& sample = samples[indices[i]];
    IMSR_CHECK(store_->Has(sample.user));
    flat_history.insert(flat_history.end(), sample.history.begin(),
                        sample.history.end());
    history_offsets.push_back(static_cast<int64_t>(flat_history.size()));
    interest_inits.push_back(&store_->Interests(sample.user));
    batch_users.push_back(sample.user);
    targets.push_back(sample.target);
    flat.push_back(sample.target);
    negative_sampler_.SampleInto(config_.negatives, sample.target, rng_,
                                 &flat);
  }
  // Pass 2: one (B x d) target gather — created before the interest
  // forward so the fused readout nodes can take it as a parent — then
  // the per-sample representations, one (B*C x d) candidate gather and
  // one fused loss node (Eq. 6). A teacher batch also takes the
  // per-sample interest Vars for the retention term.
  const bool retain =
      teacher != nullptr && config_.eir.kind != RetentionKind::kNone;
  nn::Var target_embeddings = model_->embeddings().Lookup(targets);
  model_->ForwardReprsBatch(flat_history, history_offsets, interest_inits,
                            batch_users, target_embeddings, &reprs,
                            retain ? &interests : nullptr);
  nn::Var candidate_embeddings = model_->embeddings().Lookup(flat);
  nn::Var loss = models::SampledSoftmaxBatchLoss(
      reprs, candidate_embeddings, static_cast<int64_t>(block));

  // Eq. 10 for every sample the teacher covers, against its block of the
  // candidate gather and the same rows of the teacher's table.
  if (retain) {
    std::vector<RetainedSample>& retained = scratch_.retained;
    for (size_t b = 0; b < count; ++b) {
      auto it = teacher->interests.find(batch_users[b]);
      if (it != teacher->interests.end() &&
          it->second.size(0) <= interests[b].value().size(0)) {
        retained.push_back(
            {interests[b], &it->second, static_cast<int64_t>(b)});
      }
    }
    if (!retained.empty()) {
      std::vector<int64_t>& candidate_indices = scratch_.candidate_indices;
      candidate_indices.assign(flat.begin(), flat.end());
      nn::GatherRowsInto(teacher->embeddings, candidate_indices.data(),
                         static_cast<int64_t>(candidate_indices.size()),
                         &scratch_.teacher_candidates);
      std::vector<float>& values = scratch_.retention_values;
      values.clear();
      loss = AddRetentionLoss(config_.eir, loss, retained,
                              candidate_embeddings,
                              scratch_.teacher_candidates,
                              static_cast<int64_t>(block), &values);
      for ([[maybe_unused]] const float value : values) {
        IMSR_HISTOGRAM_RECORD_WITH("trainer/kd_loss",
                                   obs::Histogram::LossBounds(), value);
        IMSR_COUNTER_ADD("trainer/kd_samples", 1);
      }
      retained.clear();
    }
  }
  // Drop the graph handles so arena Reset() after the step is the only
  // owner teardown; capacities stay for the next batch.
  interests.clear();
  reprs.clear();
  return loss;
}

double ImsrTrainer::TrainEpoch(
    const std::vector<data::TrainingSample>& samples,
    const TeacherSnapshot* teacher) {
  if (samples.empty()) return 0.0;
  IMSR_TRACE_SPAN("trainer/epoch");
  std::vector<size_t>& order = scratch_.order;
  order.resize(samples.size());
  std::iota(order.begin(), order.end(), 0);
  rng_.Shuffle(order);

  // Every graph node this epoch builds is carved from the trainer's
  // arena and recycled at the end of each optimizer step.
  nn::GraphArenaScope arena_scope(&arena_);

  double epoch_loss = 0.0;
  for (size_t begin = 0; begin < order.size();
       begin += static_cast<size_t>(config_.batch_size)) {
    IMSR_OBS_ONLY(util::Stopwatch step_timer;)
    const size_t end = std::min(
        order.size(), begin + static_cast<size_t>(config_.batch_size));
    nn::Var batch_loss;
    if (config_.batched) {
      batch_loss =
          BatchLoss(samples, order.data() + begin, end - begin, teacher);
    } else {
      for (size_t i = begin; i < end; ++i) {
        nn::Var loss = SampleLoss(samples[order[i]], teacher);
        batch_loss =
            batch_loss.defined() ? nn::ops::Add(batch_loss, loss) : loss;
      }
    }
    batch_loss = nn::ops::Scale(batch_loss,
                                1.0f / static_cast<float>(end - begin));
    batch_loss.Backward();
    // Read the scalar before dropping the graph; Step() only touches
    // parameters, so the value is the same either side of it.
    epoch_loss += static_cast<double>(batch_loss.value().item()) *
                  static_cast<double>(end - begin);
    optimizer_.Step();
    optimizer_.ZeroGradAll();
    batch_loss = nn::Var();
    arena_.Reset();
    IMSR_COUNTER_ADD("trainer/steps", 1);
    IMSR_HISTOGRAM_RECORD("trainer/step_latency_ms",
                          step_timer.ElapsedMillis());
  }
  IMSR_GAUGE_SET("memory/arena_high_water_bytes",
                 static_cast<double>(arena_.high_water_bytes()));
  const double mean_loss =
      epoch_loss / static_cast<double>(samples.size());
  IMSR_GAUGE_SET("trainer/epoch_loss", mean_loss);
  return mean_loss;
}

double ImsrTrainer::ValidationLoss(const data::Dataset& dataset,
                                   int span) {
  // Evaluation only: skip tape construction entirely.
  nn::NoGradGuard no_grad;
  double total = 0.0;
  int64_t count = 0;
  for (data::UserId user : dataset.active_users(span)) {
    const data::UserSpanData& span_data = dataset.user_span(user, span);
    if (span_data.valid < 0 || span_data.train.empty()) continue;
    if (!store_->Has(user)) continue;
    data::TrainingSample sample;
    sample.user = user;
    sample.target = span_data.valid;
    sample.history = span_data.train;
    if (static_cast<int>(sample.history.size()) > config_.max_history) {
      sample.history.erase(
          sample.history.begin(),
          sample.history.end() - config_.max_history);
    }
    total += SampleLoss(sample, /*teacher=*/nullptr).value().item();
    ++count;
  }
  return count > 0 ? total / static_cast<double>(count) : 0.0;
}

namespace {

// The users active in `span`, each with their span-`span` items.
std::vector<SpanUser> ActiveSpanUsers(const data::Dataset& dataset,
                                      int span) {
  std::vector<SpanUser> users;
  users.reserve(dataset.active_users(span).size());
  for (data::UserId user : dataset.active_users(span)) {
    users.push_back({user, &dataset.user_span(user, span).all});
  }
  return users;
}

// Tracks the best validation loss; returns true when training should stop.
class EarlyStopper {
 public:
  EarlyStopper(bool enabled, int patience)
      : enabled_(enabled), patience_(patience) {}

  bool ShouldStop(double validation_loss) {
    if (!enabled_) return false;
    if (validation_loss < best_ - 1e-6) {
      best_ = validation_loss;
      stale_ = 0;
      return false;
    }
    return ++stale_ >= patience_;
  }

 private:
  bool enabled_;
  int patience_;
  double best_ = 1e300;
  int stale_ = 0;
};

}  // namespace

void ImsrTrainer::Pretrain(const data::Dataset& dataset) {
  IMSR_TRACE_SPAN("trainer/pretrain");
  EnsureUserState(dataset, /*span=*/0);
  const std::vector<data::TrainingSample> samples =
      data::BuildSpanSamples(dataset, /*span=*/0, config_.max_history);
  EarlyStopper stopper(config_.early_stopping,
                       config_.early_stopping_patience);
  for (int epoch = 0; epoch < config_.pretrain_epochs; ++epoch) {
    // Train unconditionally; obs macros must never carry side effects
    // (they compile out under -DIMSR_OBS=OFF).
    [[maybe_unused]] const double epoch_loss =
        TrainEpoch(samples, /*teacher=*/nullptr);
    IMSR_GAUGE_SET("trainer/pretrain_loss", epoch_loss);
    if (config_.early_stopping &&
        stopper.ShouldStop(ValidationLoss(dataset, 0))) {
      break;
    }
  }
  RefreshInterests(dataset, /*span=*/0);
  MaybePublishSnapshot(/*span=*/0);
}

void ImsrTrainer::MaybePublishSnapshot(int span) {
  if (registry_ == nullptr) return;
  registry_->Publish(serve::BuildSnapshot(*model_, *store_, span));
}

void ImsrTrainer::TrainSpan(
    const data::Dataset& dataset, int span,
    const std::vector<data::TrainingSample>* extra_samples) {
  IMSR_CHECK_GE(span, 1);
  std::vector<data::TrainingSample> samples =
      data::BuildSpanSamples(dataset, span, config_.max_history);
  if (extra_samples != nullptr) {
    samples.insert(samples.end(), extra_samples->begin(),
                   extra_samples->end());
  }
  TrainSpanStep(span, ActiveSpanUsers(dataset, span), samples,
                config_.epochs, config_.enable_expansion, &dataset);
  MaybePublishSnapshot(span);
}

void ImsrTrainer::TrainSpanStep(
    int span, const std::vector<SpanUser>& users,
    const std::vector<data::TrainingSample>& samples, int epochs,
    bool expand, const data::Dataset* validation) {
  IMSR_TRACE_SPAN("trainer/span");
  IMSR_GAUGE_SET("trainer/current_span", static_cast<double>(span));
  // Snapshot the teacher before creating state for first-seen users, so
  // their interests (still random) are not anchored to noise.
  const bool retain = config_.eir.kind != RetentionKind::kNone;
  TeacherSnapshot teacher;
  if (retain) teacher = SnapshotTeacher(users);
  for (const SpanUser& entry : users) EnsureUser(entry.user, span);

  EarlyStopper stopper(config_.early_stopping,
                       config_.early_stopping_patience);
  for (int epoch = 0; epoch < epochs; ++epoch) {
    if (expand && (epoch == 0 || config_.expansion_every_epoch)) {
      IMSR_TRACE_SPAN("trainer/expansion");
      for (const SpanUser& entry : users) {
        ExpandUserInterests(model_, store_, entry.user, *entry.items, span,
                            config_.expansion, rng_, &optimizer_,
                            &expansion_totals_);
      }
    }
    [[maybe_unused]] const double epoch_loss =
        TrainEpoch(samples, retain ? &teacher : nullptr);
    IMSR_GAUGE_SET("trainer/span_loss", epoch_loss);
    if (config_.early_stopping && validation != nullptr &&
        stopper.ShouldStop(ValidationLoss(*validation, span))) {
      break;
    }
  }
  IMSR_TRACE_SPAN("trainer/refresh_interests");
  for (const SpanUser& entry : users) {
    RefreshUserInterests(entry.user, *entry.items, span);
  }
}

void ImsrTrainer::RefreshInterests(const data::Dataset& dataset, int span) {
  IMSR_TRACE_SPAN("trainer/refresh_interests");
  for (data::UserId user : dataset.active_users(span)) {
    RefreshUserInterests(user, dataset.user_span(user, span).all, span);
  }
}

void ImsrTrainer::RefreshUserInterests(data::UserId user,
                                       std::vector<data::ItemId> items,
                                       int span) {
  IMSR_CHECK(!items.empty());
  if (static_cast<int>(items.size()) > config_.max_history) {
    items.erase(items.begin(), items.end() - config_.max_history);
  }
  const nn::Tensor& stored = store_->Interests(user);
  if (!config_.persist_interests && span > 0) {
    // Baseline behaviour (§III): interests are whatever the extractor
    // finds in the *current* span, routed from a fresh random seed —
    // interests the user did not express this span are forgotten.
    const nn::Tensor fresh_seed = nn::Tensor::Randn(
        {stored.size(0), stored.size(1)}, rng_);
    store_->SetInterests(
        user, model_->ForwardInterestsNoGrad(items, fresh_seed, user));
    return;
  }
  nn::Tensor refreshed = model_->ForwardInterestsNoGrad(items, stored, user);
  // Evidence gating: an interest none of the span's items are assigned
  // to (cosine argmax) keeps its stored vector — existing interests are
  // preserved, not overwritten by unrelated interactions (§IV-B's
  // premise). Interests with assigned items absorb them and drift
  // modestly. Interests born this span are always taken from the fresh
  // extraction.
  if (span > 0 && config_.min_evidence_items > 0) {
    const std::vector<int> assigned = CountAssignedItems(
        model_->embeddings().LookupNoGrad(items), stored);
    const std::vector<int>& births = store_->BirthSpans(user);
    const int64_t d = refreshed.size(1);
    for (int64_t k = 0; k < refreshed.size(0); ++k) {
      const bool born_this_span = births[static_cast<size_t>(k)] == span;
      if (!born_this_span &&
          assigned[static_cast<size_t>(k)] < config_.min_evidence_items) {
        std::copy_n(stored.data() + k * d, d, refreshed.data() + k * d);
      }
    }
  }
  store_->SetInterests(user, std::move(refreshed));
}

TeacherSnapshot ImsrTrainer::SnapshotTeacher(const data::Dataset& dataset,
                                             int span) const {
  return SnapshotTeacher(ActiveSpanUsers(dataset, span));
}

TeacherSnapshot ImsrTrainer::SnapshotTeacher(
    const std::vector<SpanUser>& users) const {
  TeacherSnapshot teacher;
  teacher.embeddings = model_->embeddings().parameter().value();
  for (const SpanUser& entry : users) {
    if (store_->Has(entry.user)) {
      teacher.interests.emplace(entry.user, store_->Interests(entry.user));
    }
  }
  return teacher;
}

}  // namespace imsr::core
