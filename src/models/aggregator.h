// Target-attentive interest aggregation (Eq. 5): the user representation
// v_u is the softmax-weighted combination of the interest vectors, with
// the target (or candidate) item embedding as the query.
#ifndef IMSR_MODELS_AGGREGATOR_H_
#define IMSR_MODELS_AGGREGATOR_H_

#include "nn/variable.h"

namespace imsr::models {

// Graph version used during training: `interests` (K x d),
// `target_embedding` (d) -> v_u (d).
nn::Var AttentiveAggregate(const nn::Var& interests,
                           const nn::Var& target_embedding);

// No-grad version used at inference.
nn::Tensor AttentiveAggregateNoGrad(const nn::Tensor& interests,
                                    const nn::Tensor& target_embedding);

}  // namespace imsr::models

#endif  // IMSR_MODELS_AGGREGATOR_H_
