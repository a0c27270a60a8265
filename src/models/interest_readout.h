// Fused per-sample readout for the batched training forward: one graph
// node covering Eq. 4 (squashed capsule readout) + Eq. 5 (attentive
// aggregation) per sample, in place of the seven-node reference chain
// RowSlice -> MatMulTransA -> SquashRows -> RowVector -> MatVec ->
// Softmax -> MatVecTransA. The per-sample graph tax (node construction,
// intermediate tensors, backward-closure dispatch) dominates the
// training step at paper-scale shapes (K=4, d=32), so collapsing the
// chain is worth far more than any kernel-level win inside it — see
// DESIGN.md section 11.
#ifndef IMSR_MODELS_INTEREST_READOUT_H_
#define IMSR_MODELS_INTEREST_READOUT_H_

#include "nn/variable.h"

namespace imsr::models {

// Computes the sample's user representation
//   H    = squash_rows(C^T E)     (K x d, Eq. 4)
//   beta = softmax(H e_t)         (K)
//   v    = H^T beta               (d, Eq. 5)
// where E = rows [begin, begin + e_hat_slice.rows) of `e_hat_all` (the
// batch's shared-transform output), C = `coupling` (the sample's frozen
// routing weights, no gradient) and e_t = row `target_row` of
// `target_embeddings`.
//
// Returns v as ONE node with parents {e_hat_all, target_embeddings}.
// Every forward kernel and every backward loop replicates the unfused
// chain's computation and accumulation order bit for bit (same
// reduction kernels, same outer-product/saxpy orders, same
// gradient-merge order into each parent), so losses and parameter
// updates are bitwise identical to the reference path — trainer_test
// asserts this for whole epochs and models_test per node.
//
// `e_hat_slice` must hold a copy of the value rows [begin, begin +
// slice.rows) of `e_hat_all`; the caller already materialised that copy
// to run B2I routing, so the forward reuses it instead of re-slicing.
//
// When `interests` is non-null it receives H itself as a Var whose only
// parent is the returned node, for consumers that read the interest
// matrix (EIR's retention term, Eq. 10). Whatever gradient those
// consumers accumulate into it is handed to the readout node, which
// starts its dH from it — the first term of H's gradient in the
// reference chain, where the retention slice sits downstream of the
// sampled-softmax loss and so runs before the aggregation's backward.
nn::Var RoutedAttentiveReadout(const nn::Var& e_hat_all, int64_t begin,
                               const nn::Tensor& e_hat_slice,
                               nn::Tensor coupling,
                               const nn::Var& target_embeddings,
                               int64_t target_row,
                               nn::Var* interests = nullptr);

}  // namespace imsr::models

#endif  // IMSR_MODELS_INTEREST_READOUT_H_
