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
// asserts this at batch_size = 1 and readout tests assert it per node.
//
// `e_hat_slice` must hold a copy of the value rows [begin, begin +
// slice.rows) of `e_hat_all`; the caller already materialised that copy
// to run B2I routing, so the forward reuses it instead of re-slicing.
nn::Var RoutedAttentiveReadout(const nn::Var& e_hat_all, int64_t begin,
                               const nn::Tensor& e_hat_slice,
                               nn::Tensor coupling,
                               const nn::Var& target_embeddings,
                               int64_t target_row);

}  // namespace imsr::models

#endif  // IMSR_MODELS_INTEREST_READOUT_H_
