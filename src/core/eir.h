// Existing-interests retainer (§IV-B): a knowledge-distillation loss that
// pins the matching scores of inherited interests to the scores produced
// by the previous span's interest vectors (Eq. 10). Includes the ablation
// variants of §V-C: DIR (Euclidean regularisation) and three softmax-based
// distillation losses (KD1/KD2/KD3).
#ifndef IMSR_CORE_EIR_H_
#define IMSR_CORE_EIR_H_

#include <string>
#include <vector>

#include "nn/variable.h"

namespace imsr::core {

enum class RetentionKind {
  kNone,        // plain fine-tuning
  kSigmoidKd,   // EIR — Eq. 10 with the sigmoid form of [Wang et al. 2020]
  kEuclidean,   // DIR — distance-based regularisation ablation
  kSoftmaxKd1,  // LwF-style softmax KD, tau = 2
  kSoftmaxKd2,  // cosine-normalised softmax KD, tau = 1
  kSoftmaxKd3,  // low-temperature softmax KD, tau = 0.5
};

const char* RetentionKindName(RetentionKind kind);
RetentionKind RetentionKindFromName(const std::string& name);

struct EirConfig {
  RetentionKind kind = RetentionKind::kSigmoidKd;
  float tau = 1.0f;         // temperature for the sigmoid form
  float coefficient = 0.1f; // weight of the retention term in the loss
};

// Builds the retention loss for one training sample. `student_interests`
// (K_t x d Var) are the live interests whose first `teacher.size(0)` rows
// correspond to the existing interests; `teacher_interests` (K_{t-1} x d)
// are the previous span's stored vectors (constants); `candidates`
// ((1+N) x d Var) stacks the sample's target and sampled negatives — the
// distillation anchors the matching scores of every existing interest
// against the whole candidate set, so negative sampling cannot silently
// demote items of dormant interests. `teacher_candidates` are the same
// candidate rows gathered from the *previous span's* embedding table: the
// teacher is the whole model M^{t-1} (interests and embeddings), so its
// scores stay fixed while the student drifts. Returns an *unweighted*
// scalar loss (the caller applies EirConfig::coefficient); undefined Var
// when kind == kNone.
nn::Var RetentionLoss(const EirConfig& config,
                      const nn::Var& student_interests,
                      const nn::Tensor& teacher_interests,
                      const nn::Var& candidates,
                      const nn::Tensor& teacher_candidates);

// One minibatch sample a teacher covers. `interests` (K_t x d Var) are
// the sample's live interests, with K_t >= teacher_interests->size(0);
// the sample's candidates are rows [block_index * block, (block_index +
// 1) * block) of the batch's candidate gather.
struct RetainedSample {
  nn::Var interests;
  const nn::Tensor* teacher_interests;
  int64_t block_index;
};

// Eq. 10 for a whole minibatch: returns `loss` plus
// coefficient * RetentionLoss(sample) for each entry of `samples`, added
// in order, and appends each unweighted retention value to
// `retention_values`. `candidates` is the batch's (B*block x d)
// candidate gather and `teacher_candidates` the same rows of the
// teacher's embedding table (a constant).
//
// EIR (kSigmoidKd) is ONE graph node for the batch: it reads each
// sample's interest rows and candidate block, takes the teacher
// probabilities from `teacher_candidates`, and in its backward hands
// `loss` its gradient, then merges dH and the candidate gradients with
// the same kernels and merge order as the per-sample chain
// (RowSlice -> MatMul -> Reshape -> KdSigmoidCrossEntropy -> Scale ->
// Add). Losses and gradients are bitwise identical to that chain. The
// ablation kinds build the per-sample chain itself. An empty `samples`
// returns `loss` unchanged.
nn::Var AddRetentionLoss(const EirConfig& config, const nn::Var& loss,
                         const std::vector<RetainedSample>& samples,
                         const nn::Var& candidates,
                         const nn::Tensor& teacher_candidates, int64_t block,
                         std::vector<float>* retention_values);

}  // namespace imsr::core

#endif  // IMSR_CORE_EIR_H_
