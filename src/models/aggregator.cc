#include "models/aggregator.h"

#include "nn/ops.h"

namespace imsr::models {

nn::Var AttentiveAggregate(const nn::Var& interests,
                           const nn::Var& target_embedding) {
  // beta = softmax(H e_a); v = H^T beta. The fused transposed-operand op
  // keeps the accumulation order of MatVec(Transpose(H), beta) — bitwise
  // identical — without materialising H^T in the forward or the backward
  // pass.
  nn::Var logits = nn::ops::MatVec(interests, target_embedding);  // (K)
  nn::Var beta = nn::ops::Softmax(logits);
  return nn::ops::MatVecTransA(interests, beta);                  // (d)
}

nn::Tensor AttentiveAggregateNoGrad(const nn::Tensor& interests,
                                    const nn::Tensor& target_embedding) {
  const nn::Tensor logits = nn::MatVec(interests, target_embedding);
  const nn::Tensor beta = nn::Softmax(logits);
  return nn::MatVecTransA(interests, beta);
}

}  // namespace imsr::models
