// Autograd op library. Every function builds a graph node whose backward
// closure distributes gradients to its parents. Ops accept constants as
// Vars with requires_grad == false; gradient work for such parents is
// skipped.
#ifndef IMSR_NN_OPS_H_
#define IMSR_NN_OPS_H_

#include <vector>

#include "nn/variable.h"

namespace imsr::nn::ops {

// ---- Elementwise arithmetic (shapes must match) ----
Var Add(const Var& a, const Var& b);
Var Sub(const Var& a, const Var& b);
Var Mul(const Var& a, const Var& b);
// alpha * a
Var Scale(const Var& a, float alpha);
// a + alpha (elementwise)
Var AddScalar(const Var& a, float alpha);

// ---- Linear algebra ----
// (m x k) * (k x n) -> (m x n)
Var MatMul(const Var& a, const Var& b);
// (m x k) * (k) -> (m)
Var MatVec(const Var& a, const Var& x);
// a^T x for a (m x k) and x (m) -> (k). Fuses MatVec(Transpose(a), x):
// same accumulation order, so bitwise identical, with no materialised
// transpose in either the forward or the backward pass.
Var MatVecTransA(const Var& a, const Var& x);
// a^T b for a (r x m) and b (r x n) -> (m x n). Fuses
// MatMul(Transpose(a), b) the same way.
Var MatMulTransA(const Var& a, const Var& b);
// 2-D transpose.
Var Transpose(const Var& a);
// Flattened dot product -> scalar (1-element tensor).
Var Dot(const Var& a, const Var& b);
// Same data, new shape; gradient reshapes back.
Var Reshape(const Var& a, Shape shape);

// a / s where `s` is a 1-element Var (scalar division, used by the
// linear-attention baseline's normalisation).
Var DivByScalar(const Var& a, const Var& s);

// Scales each row i of `a` (m x d) by scale[i]; `scale` is (m) or (m x 1).
// Row-wise broadcast multiply (used by SML's per-row gating).
Var ScaleRows(const Var& a, const Var& scale);

// ---- Reductions ----
Var Sum(const Var& a);         // -> scalar
Var Mean(const Var& a);        // -> scalar
Var SumSquares(const Var& a);  // -> scalar, sum of squared entries

// ---- Nonlinearities ----
Var Sigmoid(const Var& a);
Var Tanh(const Var& a);
Var Exp(const Var& a);
// Row-wise softmax (2-D) or softmax of a vector (1-D).
Var Softmax(const Var& a);
// Capsule squash per row: (|v|^2 / (1+|v|^2)) v / |v|.
Var SquashRows(const Var& a);

// ---- Structural ----
// Gathers rows of a 2-D table; backward scatter-adds into the table.
Var GatherRows(const Var& table, const std::vector<int64_t>& indices);
// Concatenates 2-D (or 1-D, treated as single-row) Vars along rows.
Var ConcatRows(const std::vector<Var>& parts);
// Rows [begin, end) of a 2-D tensor.
Var RowSlice(const Var& a, int64_t begin, int64_t end);
// Row i of a 2-D tensor as a 1-D vector.
Var RowVector(const Var& a, int64_t i);

// ---- Losses ----
// -log softmax(scores)[target]; `scores` is 1-D. Used for the sampled
// softmax objective (Eq. 6) with the positive at `target`.
Var NegLogSoftmax(const Var& scores, int64_t target);

// Sigmoid knowledge-distillation loss (Eq. 10 with the sigmoid form of
// [Wang et al. 2020]): sum_k BCE(sigmoid(student_k / tau),
// sigmoid-teacher probability teacher_probs[k]). `teacher_probs` are
// constants already passed through sigmoid(: / tau).
Var KdSigmoidCrossEntropy(const Var& student_logits,
                          const Tensor& teacher_probs, float tau);

// Softmax knowledge-distillation loss: -sum_k p_k log softmax(s / tau)_k
// where p = softmax(teacher / tau) is precomputed by the caller. Used by
// the KD1/KD2/KD3 ablation variants.
Var KdSoftmaxCrossEntropy(const Var& student_logits,
                          const Tensor& teacher_probs, float tau);

}  // namespace imsr::nn::ops

#endif  // IMSR_NN_OPS_H_
