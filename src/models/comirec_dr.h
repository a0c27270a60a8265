// Dynamic-routing multi-interest extractor (§III-1): a shared affine
// transform into the behaviour-capsule plane followed by B2I routing.
// Covers both ComiRec-DR (zero logit noise) and, via subclassing, MIND
// (random logit initialisation) — the two differ only in routing-logit
// initialisation (paper §V-A3).
#ifndef IMSR_MODELS_COMIREC_DR_H_
#define IMSR_MODELS_COMIREC_DR_H_

#include <vector>

#include "models/capsule_routing.h"
#include "models/extractor.h"

namespace imsr::models {

class DynamicRoutingExtractor : public MultiInterestExtractor {
 public:
  DynamicRoutingExtractor(int64_t embedding_dim, const RoutingConfig& config,
                          util::Rng& rng);

  ExtractorKind kind() const override { return ExtractorKind::kComiRecDr; }

  nn::Var Forward(const nn::Var& item_embeddings,
                  const nn::Tensor& interest_init,
                  data::UserId user) override;

  // One shared-transform MatMul for the whole batch (Eq. 3 is row-wise,
  // so stacked histories ride through it unchanged), then per-sample
  // routing over row slices of the result.
  void ForwardBatch(const nn::Var& flat_item_embeddings,
                    const std::vector<int64_t>& offsets,
                    const std::vector<const nn::Tensor*>& interest_inits,
                    const std::vector<data::UserId>& users,
                    std::vector<nn::Var>* out) override;

  // Always true. The unfused reference chain (ForwardBatch + readout)
  // stays as the bitwise oracle of the fused path (trainer_test).
  bool SupportsFusedRepr() const override { return true; }

  // Shared-transform MatMul once for the batch, then per sample: frozen
  // B2I routing over the slice values and ONE fused readout node
  // (models::RoutedAttentiveReadout) straight to the user
  // representation — the 7-nodes-per-sample reference chain collapsed
  // to 1. Routing consumes the extractor rng in ascending sample order,
  // the same stream order as per-sample Forward calls.
  void ForwardReprBatch(const nn::Var& flat_item_embeddings,
                        const std::vector<int64_t>& offsets,
                        const std::vector<const nn::Tensor*>& interest_inits,
                        const std::vector<data::UserId>& users,
                        const nn::Var& target_embeddings,
                        std::vector<nn::Var>* reprs,
                        std::vector<nn::Var>* interests) override;

  nn::Tensor ForwardNoGrad(const nn::Tensor& item_embeddings,
                           const nn::Tensor& interest_init,
                           data::UserId user) override;

  std::vector<nn::Var> SharedParameters() override { return {transform_}; }

  void Reset(util::Rng& rng) override;

  void Save(util::BinaryWriter* writer) const override;
  bool Load(util::BinaryReader* reader, std::string* error) override;
  void CopyStateFrom(const MultiInterestExtractor& other) override;

  const nn::Var& transform() const { return transform_; }

 private:
  int64_t embedding_dim_;
  RoutingConfig routing_config_;
  nn::Var transform_;  // W^t in Eq. 3, (d x d)
  util::Rng rng_;      // drives MIND's logit noise
};

}  // namespace imsr::models

#endif  // IMSR_MODELS_COMIREC_DR_H_
