// New-interests detector (§IV-C): the per-item *puzzlement* measures how
// uniformly an item's assignment distribution spreads over the user's
// interests (Eq. 11–13); users whose average puzzlement passes the c1
// threshold (Eq. 14) receive new interest vectors.
//
// Scale stabilisation: kernels are computed on L2-normalised embeddings
// and interest vectors (cosine logits), keeping KL values inside the
// paper's published c1 range regardless of embedding magnitude (see
// DESIGN.md §1).
#ifndef IMSR_CORE_NID_H_
#define IMSR_CORE_NID_H_

#include <vector>

#include "nn/tensor.h"

namespace imsr::core {

struct NidConfig {
  // Eq. 14's sensitivity threshold. The detector fires when the mean KL
  // divergence from the uniform assignment falls below c1 (equivalently,
  // mean puzzlement > -c1; see the sign-convention note in DESIGN.md).
  double c1 = 0.06;
};

// p(h_k | e_i) of Eq. 11 (softmax of cosine logits over interests).
std::vector<double> AssignmentDistribution(const nn::Tensor& item_embedding,
                                           const nn::Tensor& interests);

// KL(uniform || p) of Eq. 12, always >= 0.
double AssignmentKl(const nn::Tensor& item_embedding,
                    const nn::Tensor& interests);

// Puzzlement of Eq. 13 == -AssignmentKl: <= 0, equal to 0 when the item is
// maximally puzzled (uniform assignment).
double ItemPuzzlement(const nn::Tensor& item_embedding,
                      const nn::Tensor& interests);

// Mean KL over the rows of `item_embeddings` (n x d).
double MeanAssignmentKl(const nn::Tensor& item_embeddings,
                        const nn::Tensor& interests);

// Eq. 14: true when the user's new interactions are collectively puzzled
// and new interest capsules should be created.
bool DetectNewInterests(const nn::Tensor& item_embeddings,
                        const nn::Tensor& interests,
                        const NidConfig& config);

// Hard assignment census: how many rows of `item_embeddings` (n x d) have
// interest k as their cosine-argmax (the first k on ties), for every k.
// Used by the trainer's evidence-gated interest refresh.
std::vector<int> CountAssignedItems(const nn::Tensor& item_embeddings,
                                    const nn::Tensor& interests);

}  // namespace imsr::core

#endif  // IMSR_CORE_NID_H_
