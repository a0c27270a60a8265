// The IMSR training engine (Algorithm 2): pretraining, per-span
// incremental training with interests expansion (Alg. 1) and the
// retention loss (Eq. 10), and interest refreshing. Its span step is also
// the stream's micro-span (stream/stream_trainer.h), and the trainer is
// the shared inner loop for the FT/FR/SML/ADER strategies, which
// configure away the IMSR-specific parts.
#ifndef IMSR_CORE_IMSR_TRAINER_H_
#define IMSR_CORE_IMSR_TRAINER_H_

#include <unordered_map>
#include <vector>

#include "core/eir.h"
#include "core/interest_store.h"
#include "core/interests_expansion.h"
#include "data/sampler.h"
#include "models/msr_model.h"
#include "nn/arena.h"
#include "nn/optim.h"

namespace imsr::serve {
class SnapshotRegistry;
}  // namespace imsr::serve

namespace imsr::core {

struct TrainConfig {
  int pretrain_epochs = 5;
  int epochs = 3;  // r in Algorithm 2
  int batch_size = 64;
  float learning_rate = 0.005f;
  int negatives = 10;     // |I'| in Eq. 6
  int max_history = 50;   // n cap on input sequences
  int initial_interests = 4;  // K^0

  // IMSR's interest-persistence rule (§IV-B: existing interests are
  // preserved and only *adjusted* by items that belong to them). When
  // true, the per-span re-extraction seeds routing from the stored
  // interest vectors and an existing interest is only overwritten when at
  // least `min_evidence_items` of the span's items are assigned to it
  // (cosine argmax) — extractor-agnostic evidence that the span actually
  // expressed that interest. When false — the FT/FR/SML/ADER baselines —
  // interests are re-extracted from the current span's items alone, so
  // interests the user did not express this span are structurally
  // forgotten (the paper's §III failure mode).
  bool persist_interests = true;
  int min_evidence_items = 1;  // 0 disables gating

  // Early stopping on the span's validation items (paper §IV-F): epochs
  // end once the validation loss fails to improve `patience` times.
  bool early_stopping = false;
  int early_stopping_patience = 2;

  // Minibatched training path: per optimizer step, one fused
  // sampled-softmax node over a (B*C x d) candidate gather instead of B
  // per-sample loss graphs. false selects the per-sample loop, kept only
  // as trainer_test's reference: at batch_size == 1 the two paths are
  // bitwise identical (see SampledSoftmaxBatchLoss).
  bool batched = true;

  EirConfig eir;              // set kind = kNone for plain fine-tuning
  ExpansionConfig expansion;  // NID + PIT parameters
  bool enable_expansion = true;
  // Algorithm 2 re-runs IntsEx every epoch; once per span is the cheaper
  // default (later runs are no-ops once puzzlement is absorbed).
  bool expansion_every_epoch = false;

  uint64_t seed = 1;
};

// Teacher snapshot for the retention loss: the relevant state of the
// previous span's model M^{t-1} — per-user interest vectors plus the
// embedding table as of the span start, so teacher scores stay fixed
// while the student drifts.
struct TeacherSnapshot {
  std::unordered_map<data::UserId, nn::Tensor> interests;
  nn::Tensor embeddings;  // (num_items x d) copy
};

// One user of a span step: the user and their in-span items (not owned;
// they must outlive the step).
struct SpanUser {
  data::UserId user;
  const std::vector<data::ItemId>* items;
};

class ImsrTrainer {
 public:
  ImsrTrainer(models::MsrModel* model, InterestStore* store,
              const TrainConfig& config);

  ImsrTrainer(const ImsrTrainer&) = delete;
  ImsrTrainer& operator=(const ImsrTrainer&) = delete;

  // Pretraining (Algorithm 2 lines 1-7): initialises K^0 interests per
  // user active in span 0 and trains the base model.
  void Pretrain(const data::Dataset& dataset);

  // One incremental span (Algorithm 2's Training procedure): the span
  // step over the span's active users and samples, then a publish.
  // Optional `extra_samples` join the span's own samples (exemplar
  // replay).
  void TrainSpan(const data::Dataset& dataset, int span,
                 const std::vector<data::TrainingSample>* extra_samples =
                     nullptr);

  // The span step TrainSpan and the stream's micro-span both run, in
  // Algorithm 2's order: snapshot the EIR teacher (Eq. 10) of the
  // `users` already in the store — first-seen users get none — create
  // state for first-seen users, expand interests (Alg. 1) when `expand`
  // (before epoch 0, or before every epoch under expansion_every_epoch),
  // train `epochs` epochs over `samples`, then refresh every user's H_u
  // from their items. `users` order fixes the RNG draw order. A non-null
  // `validation` enables early stopping on its span-`span` validation
  // items.
  void TrainSpanStep(int span, const std::vector<SpanUser>& users,
                     const std::vector<data::TrainingSample>& samples,
                     int epochs, bool expand,
                     const data::Dataset* validation = nullptr);

  // One supervised epoch over `samples`; `teacher` (nullable) enables the
  // retention loss for users it covers. Returns the mean per-sample
  // training loss over the epoch (0 when `samples` is empty).
  double TrainEpoch(const std::vector<data::TrainingSample>& samples,
                    const TeacherSnapshot* teacher);

  // Creates store entries (K^0 random interests) and per-user extractor
  // capacity for every user active in `span` that lacks them.
  void EnsureUserState(const data::Dataset& dataset, int span);

  // RefreshUserInterests for every user active in `span`, from their
  // span-`span` interactions.
  void RefreshInterests(const data::Dataset& dataset, int span);

  // Recomputes and stores one user's H_u from `items` (their span-`span`
  // interactions, plus any replayed ones; the last max_history are
  // used). At span 0 the extraction is seeded from the stored interests.
  // From span 1 on, the persistence rule of TrainConfig applies: without
  // persist_interests the seed is random; with it, an interest that fewer
  // than min_evidence_items of `items` are assigned to keeps its stored
  // row unless it was born in `span`.
  void RefreshUserInterests(data::UserId user,
                            std::vector<data::ItemId> items, int span);

  // Snapshot of the stored interests of every user active in `span`.
  TeacherSnapshot SnapshotTeacher(const data::Dataset& dataset,
                                  int span) const;

  // Mean sampled-softmax loss on the span's (train-sequence -> validation
  // item) instances; drives early stopping and is useful for monitoring.
  double ValidationLoss(const data::Dataset& dataset, int span);

  // Builds the training-loss graph for a single sample (exposed for
  // tests). `teacher` may be null.
  nn::Var SampleLoss(const data::TrainingSample& sample,
                     const TeacherSnapshot* teacher);

  // Builds the summed (not yet averaged) loss graph for the minibatch
  // `samples[indices[0..count)]` on the batched path: one batched target
  // gather, one flat (count * (1+negatives) x d) candidate gather and
  // one fused sampled-softmax node. Draws the same RNG sequence as
  // `count` consecutive SampleLoss calls. Exposed for tests; `teacher`
  // may be null.
  nn::Var BatchLoss(const std::vector<data::TrainingSample>& samples,
                    const size_t* indices, size_t count,
                    const TeacherSnapshot* teacher);

  nn::Adam& optimizer() { return optimizer_; }
  InterestStore& store() { return *store_; }
  models::MsrModel& model() { return *model_; }
  const TrainConfig& config() const { return config_; }

  // Cumulative outcome of all expansion runs (diagnostics).
  const ExpansionOutcome& expansion_totals() const {
    return expansion_totals_;
  }

  // Attaches a serving registry (not owned, may be null). When set, a
  // fresh ServingSnapshot is built and published after Pretrain and after
  // every TrainSpan — the publish points of Algorithm 2's train-then-serve
  // loop — so readers always serve the last completed span. (See
  // serve/registry.h for the swap's memory model.)
  void set_snapshot_registry(serve::SnapshotRegistry* registry) {
    registry_ = registry;
  }

 private:
  // Publishes the current model/store state as span `span` when a
  // registry is attached.
  void MaybePublishSnapshot(int span);

  // Creates the user's store entry (K^0 random interests born at `span`)
  // when absent, and per-user extractor capacity.
  void EnsureUser(data::UserId user, int span);

  // The embedding table plus the stored interests of those `users` the
  // store holds.
  TeacherSnapshot SnapshotTeacher(const std::vector<SpanUser>& users) const;

  // Reusable buffers for the steady-state training step. Capacities grow
  // to the high-water mark once and are then recycled, so SampleLoss and
  // TrainEpoch allocate nothing per step.
  struct TrainScratch {
    std::vector<data::ItemId> candidates;
    std::vector<size_t> order;
    std::vector<int64_t> candidate_indices;
    // Batched-path buffers: per-batch targets, the flat candidate list
    // (target first per sample block) and the per-sample interest /
    // representation graph handles. The Var vectors are cleared before
    // BatchLoss returns so they never outlive the step's arena graph.
    std::vector<data::ItemId> batch_targets;
    std::vector<data::ItemId> flat_candidates;
    std::vector<nn::Var> interests;
    std::vector<nn::Var> reprs;
    // Concatenated-history buffers for the batched interest forward:
    // sample b's history occupies flat_history rows [history_offsets[b],
    // history_offsets[b+1]). The interest-init pointers borrow from the
    // InterestStore, which is not mutated while a batch is in flight.
    std::vector<data::ItemId> flat_history;
    std::vector<int64_t> history_offsets;
    std::vector<const nn::Tensor*> interest_inits;
    std::vector<data::UserId> batch_users;
    // Retention-term buffers: the covered samples (cleared before
    // BatchLoss returns, like the Var vectors above), the teacher's rows
    // for the batch's candidates and the per-sample retention values.
    std::vector<RetainedSample> retained;
    nn::Tensor teacher_candidates;
    std::vector<float> retention_values;
  };

  models::MsrModel* model_;
  InterestStore* store_;
  TrainConfig config_;
  nn::Adam optimizer_;
  util::Rng rng_;
  data::NegativeSampler negative_sampler_;
  ExpansionOutcome expansion_totals_;
  serve::SnapshotRegistry* registry_ = nullptr;  // not owned
  nn::GraphArena arena_;  // backs autograd nodes built by TrainEpoch
  TrainScratch scratch_;
};

}  // namespace imsr::core

#endif  // IMSR_CORE_IMSR_TRAINER_H_
