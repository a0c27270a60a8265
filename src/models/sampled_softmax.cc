#include "models/sampled_softmax.h"

#include <utility>
#include <vector>

#include "nn/ops.h"
#include "nn/simd.h"
#include "nn/tensor.h"
#include "obs/obs.h"
#include "util/hot.h"

namespace imsr::models {
namespace {

// Backward for the fused batch loss. Mirrors the NegLogSoftmax + MatVec
// closure pair per sample: the score gradient of candidate c is
// probs(b,c)*g (minus g on the positive), each candidate row receives
// its outer product with the sample's representation, and the
// representation gradient is the saxpy over the sample's block in
// ascending row order. Every loop keeps the scalar accumulation order,
// so the simd annotation is unconditional (see nn/simd.h).
IMSR_HOT_BEGIN
IMSR_SIMD_CLONES
void BatchLossBackward(nn::VarNode& node, const nn::Tensor& probs) {
  nn::VarNode* cands = node.parents[0];
  const int64_t batch = probs.size(0);
  const int64_t block = probs.size(1);
  const int64_t d = cands->value.size(1);
  const float g = node.grad.at(0);
  const float* __restrict__ pp = probs.data();
  const float* __restrict__ pc = cands->value.data();
  nn::Tensor gc;
  float* pgc = nullptr;
  if (cands->requires_grad) {
    gc = nn::Tensor::Uninitialized(cands->value.shape());
    pgc = gc.data();
  }
  for (int64_t b = 0; b < batch; ++b) {
    nn::VarNode* repr = node.parents[static_cast<size_t>(1 + b)];
    const float* __restrict__ pr = repr->value.data();
    if (pgc != nullptr) {
      for (int64_t c = 0; c < block; ++c) {
        float gs = pp[b * block + c] * g;
        if (c == 0) gs -= g;
        float* __restrict__ orow = pgc + (b * block + c) * d;
        IMSR_SIMD_PRAGMA()
        for (int64_t j = 0; j < d; ++j) orow[j] = gs * pr[j];
      }
    }
    if (repr->requires_grad) {
      nn::Tensor gr({d});
      float* __restrict__ po = gr.data();
      const float* __restrict__ cblock = pc + b * block * d;
      for (int64_t c = 0; c < block; ++c) {
        float gs = pp[b * block + c] * g;
        if (c == 0) gs -= g;
        const float* __restrict__ crow = cblock + c * d;
        IMSR_SIMD_PRAGMA()
        for (int64_t j = 0; j < d; ++j) po[j] += gs * crow[j];
      }
      repr->AccumulateGrad(std::move(gr));
    }
  }
  if (pgc != nullptr) cands->AccumulateGrad(std::move(gc));
}
IMSR_HOT_END

}  // namespace

nn::Var SampledSoftmaxLoss(const nn::Var& user_repr,
                           const nn::Var& candidates) {
  IMSR_TRACE_SPAN("model/sampled_softmax");
  nn::Var scores = nn::ops::MatVec(candidates, user_repr);
  return nn::ops::NegLogSoftmax(scores, /*target=*/0);
}

nn::Var SampledSoftmaxBatchLoss(const std::vector<nn::Var>& user_reprs,
                                const nn::Var& candidates,
                                int64_t candidates_per_sample) {
  IMSR_TRACE_SPAN("model/sampled_softmax_batch");
  const auto batch = static_cast<int64_t>(user_reprs.size());
  const int64_t block = candidates_per_sample;
  IMSR_CHECK_GT(batch, 0);
  IMSR_CHECK_GT(block, 0);
  const nn::Tensor& cands = candidates.value();
  IMSR_CHECK_EQ(cands.dim(), 2);
  IMSR_CHECK_EQ(cands.size(0), batch * block);
  const int64_t d = cands.size(1);

  // Scores per block, via the same per-row dot kernel as nn::MatVec: row
  // b of `scores` equals MatVec(block_b, v_b) bit for bit.
  nn::Tensor scores = nn::Tensor::Uninitialized({batch, block});
  float* ps = scores.data();
  for (int64_t b = 0; b < batch; ++b) {
    const nn::Tensor& repr = user_reprs[static_cast<size_t>(b)].value();
    IMSR_CHECK_EQ(repr.numel(), d);
    const float* base = cands.data() + b * block * d;
    for (int64_t c = 0; c < block; ++c) {
      ps[b * block + c] = nn::DotSpan(base + c * d, repr.data(), d);
    }
  }

  // Per-sample losses summed in ascending order — the same left-fold the
  // per-sample path's Add chain produces.
  const nn::Tensor lse = nn::LogSumExpRows(scores);
  nn::Tensor out({1});
  float total = 0.0f;
  for (int64_t b = 0; b < batch; ++b) {
    total += lse.at(b) - ps[b * block];
  }
  out.at(0) = total;

  // Probabilities feed only the backward pass; skip them when no tape
  // will be built (validation under NoGradGuard).
  bool wants_grad = candidates.requires_grad();
  for (const nn::Var& repr : user_reprs) {
    wants_grad = wants_grad || repr.requires_grad();
  }
  nn::Tensor probs;
  if (nn::GradEnabled() && wants_grad) probs = nn::Softmax(scores);

  // Parent scratch persists across calls (capacity only); cleared before
  // returning so the tensors it pins are freed with the graph.
  thread_local std::vector<nn::Var> parents;
  parents.clear();
  parents.reserve(static_cast<size_t>(1 + batch));
  parents.push_back(candidates);
  for (const nn::Var& repr : user_reprs) parents.push_back(repr);
  nn::Var result = nn::Var::MakeNode(
      std::move(out), parents,
      [probs = std::move(probs)](nn::VarNode& node) {
        BatchLossBackward(node, probs);
      });
  parents.clear();
  return result;
}

}  // namespace imsr::models
