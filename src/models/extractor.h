// Multi-interest extractor interface (Eq. 1): maps a user's interacted
// item embeddings to K interest vectors. Implementations: MIND,
// ComiRec-DR (dynamic routing) and ComiRec-SA (self-attention).
#ifndef IMSR_MODELS_EXTRACTOR_H_
#define IMSR_MODELS_EXTRACTOR_H_

#include <vector>

#include "data/interaction.h"
#include "nn/optim.h"
#include "nn/variable.h"
#include "util/rng.h"
#include "util/serialization.h"

namespace imsr::models {

enum class ExtractorKind { kMind, kComiRecDr, kComiRecSa };

const char* ExtractorKindName(ExtractorKind kind);
// Fallible parse of a kind name ("MIND"/"mind", "ComiRec-DR"/"dr",
// "ComiRec-SA"/"sa"). On an unknown name returns false and fills `error`
// (if non-null) with the valid spellings instead of aborting, so CLI /
// bench flag typos surface as clean usage errors.
bool ExtractorKindFromName(const std::string& name, ExtractorKind* kind,
                           std::string* error);

class MultiInterestExtractor {
 public:
  virtual ~MultiInterestExtractor() = default;

  virtual ExtractorKind kind() const = 0;

  // Graph-building forward. `item_embeddings` is the (n x d) Var of the
  // user's interacted items; `interest_init` the user's stored interest
  // vectors (K x d) that carry interests across spans (routing-logit seed
  // for DR models, interest count for SA). Returns the (K x d) interest
  // matrix Var.
  virtual nn::Var Forward(const nn::Var& item_embeddings,
                          const nn::Tensor& interest_init,
                          data::UserId user) = 0;

  // Batched graph-building forward over samples that share one
  // concatenated item-embedding gather: sample b's history embeddings
  // are rows [offsets[b], offsets[b+1]) of `flat_item_embeddings`.
  // Appends one (K x d) interest Var per sample to `out`. The default
  // peels a row slice per sample and delegates to Forward; extractors
  // whose forward opens with a shared row-wise transform (ComiRec-DR)
  // override it to run the whole batch through that op once. With a
  // single sample the flat Var is passed through untouched, so the
  // graph is node-for-node the one Forward builds — the batch_size=1
  // bitwise contract (DESIGN.md section 11) extends through this hook.
  virtual void ForwardBatch(
      const nn::Var& flat_item_embeddings,
      const std::vector<int64_t>& offsets,
      const std::vector<const nn::Tensor*>& interest_inits,
      const std::vector<data::UserId>& users, std::vector<nn::Var>* out);

  // True when the extractor implements ForwardReprBatch; the batched
  // trainer checks this to take the fused readout path.
  virtual bool SupportsFusedRepr() const { return false; }

  // Fused batched forward straight to the per-sample user representation
  // v_b = AttentiveAggregate(interests_b, target_b) (Eq. 5), one graph
  // node per sample instead of the interest-matrix chain — the fast path
  // of the batched trainer (DESIGN.md section 11). Sample b's history
  // embeddings are rows [offsets[b], offsets[b+1]) of
  // `flat_item_embeddings`; its target embedding is row b of
  // `target_embeddings`. Appends one (d) Var per sample to `reprs`, with
  // values and gradients bitwise identical to ForwardBatch +
  // AttentiveAggregate. When `interests` is non-null it also receives
  // one (K x d) interest Var per sample, for consumers of the interest
  // matrix itself (the EIR retention term); their gradients fold into
  // the fused node with the reference chain's merge order. Only
  // callable when SupportsFusedRepr(); the default aborts.
  virtual void ForwardReprBatch(
      const nn::Var& flat_item_embeddings,
      const std::vector<int64_t>& offsets,
      const std::vector<const nn::Tensor*>& interest_inits,
      const std::vector<data::UserId>& users,
      const nn::Var& target_embeddings, std::vector<nn::Var>* reprs,
      std::vector<nn::Var>* interests);

  // No-grad forward used by interests expansion / NID / PIT / evaluation.
  virtual nn::Tensor ForwardNoGrad(const nn::Tensor& item_embeddings,
                                   const nn::Tensor& interest_init,
                                   data::UserId user) = 0;

  // Shared (non-per-user) trainable parameters.
  virtual std::vector<nn::Var> SharedParameters() = 0;

  // Per-user capacity maintenance for extractors with per-user parameters
  // (ComiRec-SA's W_u). `optimizer` may be null; when set, newly created
  // parameters are registered and replaced ones unregistered.
  //
  // Grows (or creates) the user's capacity to `num_interests`. Default:
  // no-op (DR models carry interests in the InterestStore, not in
  // parameters).
  virtual void EnsureUserCapacity(data::UserId /*user*/,
                                  int64_t /*num_interests*/,
                                  util::Rng& /*rng*/,
                                  nn::Optimizer* /*optimizer*/) {}
  // Shrinks the user's capacity to the given kept interest indices.
  // Default: no-op.
  virtual void KeepUserInterests(data::UserId /*user*/,
                                 const std::vector<int64_t>& /*kept*/,
                                 nn::Optimizer* /*optimizer*/) {}

  // Re-initialises all parameters (full retraining).
  virtual void Reset(util::Rng& rng) = 0;

  virtual void Save(util::BinaryWriter* writer) const = 0;
  // Fallible restore: on corrupt input returns false with a description in
  // `error` (the extractor may be partially overwritten — callers wanting
  // all-or-nothing load into a staging extractor and CopyStateFrom it).
  virtual bool Load(util::BinaryReader* reader, std::string* error) = 0;
  // Copies all learned state from `other`, which must be the same kind and
  // dimensions (checked).
  virtual void CopyStateFrom(const MultiInterestExtractor& other) = 0;
};

}  // namespace imsr::models

#endif  // IMSR_MODELS_EXTRACTOR_H_
