#include "models/interest_readout.h"

#include <cmath>
#include <memory>
#include <utility>

#include "nn/arena.h"
#include "nn/simd.h"
#include "nn/tensor.h"
#include "util/check.h"
#include "util/hot.h"

namespace imsr::models {
namespace {

// Backward for the fused readout. Runs the seven unfused closures'
// arithmetic in their reverse-post-order execution order
// (MatVecTransA, Softmax, MatVec, RowVector, SquashRows, MatMulTransA,
// RowSlice), with each loop copied verbatim from nn/ops.cc so every
// output element sees the exact accumulation order of the reference
// chain. `raw` is C^T E (pre-squash), `interests` its squashed rows,
// `beta` the attention weights — all captured from the forward.
// `h_grad` is the gradient H's other consumers handed over (null or
// undefined when none); it is H's first gradient term, as in the
// reference chain.
IMSR_HOT_BEGIN
IMSR_SIMD_CLONES
void ReadoutBackward(nn::VarNode& node, const nn::Tensor& raw,
                     const nn::Tensor& interests, const nn::Tensor& beta,
                     const nn::Tensor& coupling, const nn::Tensor* h_grad,
                     int64_t begin, int64_t target_row) {
  nn::VarNode* e_hat_all = node.parents[0];
  nn::VarNode* targets = node.parents[1];
  const bool need_e = e_hat_all->requires_grad;
  const bool need_t = targets->requires_grad;
  if (!need_e && !need_t) return;
  const int64_t k = interests.size(0);
  const int64_t d = interests.size(1);
  const float* __restrict__ g = node.grad.data();
  const float* __restrict__ ph = interests.data();
  const float* __restrict__ pb = beta.data();

  // MatVecTransA: dH = beta g^T (outer product, order-preserving),
  // merged onto the handed-over gradient as AccumulateGrad would.
  nn::Tensor g_interests;
  float* pgh = nullptr;
  if (need_e) {
    g_interests = nn::Tensor::Uninitialized({k, d});
    pgh = g_interests.data();
    const float* __restrict__ ph_grad =
        h_grad != nullptr && h_grad->defined() ? h_grad->data() : nullptr;
    for (int64_t i = 0; i < k; ++i) {
      const float bi = pb[i];
      float* __restrict__ o = pgh + i * d;
      if (ph_grad != nullptr) {
        const float* __restrict__ prior = ph_grad + i * d;
        IMSR_SIMD_PRAGMA()
        for (int64_t j = 0; j < d; ++j) o[j] = prior[j] + bi * g[j];
      } else {
        IMSR_SIMD_PRAGMA()
        for (int64_t j = 0; j < d; ++j) o[j] = bi * g[j];
      }
    }
  }
  // MatVecTransA: dbeta = H g (row dots through the DotSpan reduction).
  nn::Tensor g_beta = nn::Tensor::Uninitialized({k});
  for (int64_t i = 0; i < k; ++i) {
    g_beta.at(i) = nn::DotSpan(ph + i * d, g, d);
  }
  // Softmax: dlogits = beta * (dbeta - <dbeta, beta>).
  nn::Tensor g_logits = nn::Tensor::Uninitialized({k});
  {
    const float* __restrict__ gb = g_beta.data();
    float* __restrict__ gl = g_logits.data();
    const float dot = nn::DotSpan(gb, pb, k);
    IMSR_SIMD_PRAGMA()
    for (int64_t i = 0; i < k; ++i) gl[i] = pb[i] * (gb[i] - dot);
  }
  const float* __restrict__ gl = g_logits.data();
  // MatVec: dH += dlogits e_t^T — the reference materialises this outer
  // product then merges it via AccumulateGrad; adding in place performs
  // the identical per-element addition.
  if (need_e) {
    const float* __restrict__ pt =
        targets->value.data() + target_row * d;
    for (int64_t i = 0; i < k; ++i) {
      const float gi = gl[i];
      float* __restrict__ o = pgh + i * d;
      IMSR_SIMD_PRAGMA()
      for (int64_t j = 0; j < d; ++j) o[j] += gi * pt[j];
    }
  }
  // MatVec: de_t = H^T dlogits (saxpy over ascending i), merged into the
  // target row exactly as the RowVector backward does.
  if (need_t) {
    nn::Tensor g_target({d});
    float* __restrict__ po = g_target.data();
    for (int64_t i = 0; i < k; ++i) {
      const float gi = gl[i];
      const float* __restrict__ hrow = ph + i * d;
      IMSR_SIMD_PRAGMA()
      for (int64_t j = 0; j < d; ++j) po[j] += gi * hrow[j];
    }
    targets->AccumulateGradRows(g_target, target_row);
  }
  if (!need_e) return;
  // SquashRows: dL/dv = c g + (c'(n)/n) (v . g) v per row of `raw`.
  nn::Tensor g_raw = nn::Tensor::Uninitialized({k, d});
  for (int64_t i = 0; i < k; ++i) {
    const float* __restrict__ v = raw.data() + i * d;
    const float* __restrict__ gr = pgh + i * d;
    float* __restrict__ o = g_raw.data() + i * d;
    const float ss = nn::DotSpan(v, v, d);
    const float vg = nn::DotSpan(v, gr, d);
    const float n = std::sqrt(ss);
    if (n < 1e-12f) {
      for (int64_t j = 0; j < d; ++j) o[j] = 0.0f;
      continue;
    }
    const float c = n / (1.0f + ss);
    const float c_prime = (1.0f - ss) / ((1.0f + ss) * (1.0f + ss));
    const float radial = c_prime / n * vg;
    IMSR_SIMD_PRAGMA()
    for (int64_t j = 0; j < d; ++j) o[j] = c * gr[j] + radial * v[j];
  }
  // MatMulTransA: dE = C draw; coupling is frozen so its branch is
  // skipped, matching the no-grad coupling Var of the reference chain.
  nn::Tensor g_e = nn::MatMul(coupling, g_raw);
  // RowSlice: merge into the shared-transform output's rows. A
  // full-range slice takes the reference path's batch==1 bypass (no
  // slice node), whose first-accumulation move it reproduces here.
  if (begin == 0 && g_e.size(0) == e_hat_all->value.size(0)) {
    e_hat_all->AccumulateGrad(std::move(g_e));
  } else {
    e_hat_all->AccumulateGradRows(g_e, begin);
  }
}
IMSR_HOT_END

}  // namespace

nn::Var RoutedAttentiveReadout(const nn::Var& e_hat_all, int64_t begin,
                               const nn::Tensor& e_hat_slice,
                               nn::Tensor coupling,
                               const nn::Var& target_embeddings,
                               int64_t target_row, nn::Var* interests) {
  IMSR_CHECK_EQ(e_hat_slice.dim(), 2);
  IMSR_CHECK_EQ(coupling.size(0), e_hat_slice.size(0));
  const int64_t d = e_hat_slice.size(1);
  const int64_t k = coupling.size(1);
  IMSR_CHECK_EQ(target_embeddings.value().size(1), d);
  IMSR_CHECK_LE(begin + e_hat_slice.size(0), e_hat_all.value().size(0));
  // Eq. 4 through the unfused path's kernels: H = squash_rows(C^T E).
  nn::Tensor raw = nn::MatMulTransA(coupling, e_hat_slice);
  nn::Tensor h = nn::SquashRows(raw);
  // Eq. 5: beta = softmax(H e_t), v = H^T beta. The logits read the
  // target row in place via the same per-row dot dispatch as nn::MatVec.
  const float* target = target_embeddings.value().data() + target_row * d;
  nn::Tensor logits = nn::Tensor::Uninitialized({k});
  for (int64_t i = 0; i < k; ++i) {
    logits.at(i) = nn::DotSpan(h.data() + i * d, target, d);
  }
  nn::Tensor beta = nn::Softmax(logits);
  nn::Tensor v = nn::MatVecTransA(h, beta);
  // The gradient H's other consumers hand over: arena-allocated (the
  // graph's allocator) and shared by this node's backward and the
  // interests node's, which fills it first.
  std::shared_ptr<nn::Tensor> h_grad;
  nn::Tensor h_value;
  if (interests != nullptr) {
    h_grad = std::allocate_shared<nn::Tensor>(
        nn::ArenaAllocator<nn::Tensor>(nn::CurrentGraphArena()));
    h_value = h;
  }
  nn::Var repr = nn::Var::MakeNode(
      std::move(v), {e_hat_all, target_embeddings},
      [raw = std::move(raw), h = std::move(h), beta = std::move(beta),
       coupling = std::move(coupling), h_grad, begin,
       target_row](nn::VarNode& node) {
        ReadoutBackward(node, raw, h, beta, coupling, h_grad.get(), begin,
                        target_row);
      });
  if (interests != nullptr) {
    *interests = nn::Var::MakeNode(
        std::move(h_value), {repr},
        [h_grad = std::move(h_grad)](nn::VarNode& node) {
          // The readout's backward runs only once its own output has a
          // gradient; give it a zero one if H alone reached the loss.
          nn::VarNode* readout = node.parents[0];
          if (!readout->grad.defined()) {
            readout->grad = nn::Tensor(readout->value.shape());
          }
          *h_grad = std::move(node.grad);
        });
  }
  return repr;
}

}  // namespace imsr::models
