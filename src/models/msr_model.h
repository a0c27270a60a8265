// MSR model facade: embedding table + multi-interest extractor, with
// construction from a declarative config, parameter enumeration for
// optimisers, reset (full retraining) and checkpointing.
#ifndef IMSR_MODELS_MSR_MODEL_H_
#define IMSR_MODELS_MSR_MODEL_H_

#include <memory>
#include <string>
#include <vector>

#include "models/embedding.h"
#include "models/extractor.h"

namespace imsr::models {

struct ModelConfig {
  ExtractorKind kind = ExtractorKind::kComiRecDr;
  int64_t embedding_dim = 32;   // d
  int64_t attention_dim = 32;   // d_a (ComiRec-SA)
};

class MsrModel {
 public:
  MsrModel(const ModelConfig& config, int64_t num_items, uint64_t seed);

  MsrModel(const MsrModel&) = delete;
  MsrModel& operator=(const MsrModel&) = delete;

  const ModelConfig& config() const { return config_; }
  int64_t num_items() const { return embeddings_.num_items(); }

  EmbeddingTable& embeddings() { return embeddings_; }
  const EmbeddingTable& embeddings() const { return embeddings_; }
  MultiInterestExtractor& extractor() { return *extractor_; }

  // Embedding + shared extractor parameters (per-user SA queries are
  // registered separately when created).
  std::vector<nn::Var> SharedParameters();

  // Deep copy of the (num_items x d) item-embedding values, detached from
  // the Var/autograd machinery — the frozen table a ServingSnapshot is
  // built from (see src/serve/snapshot.h).
  nn::Tensor ExportItemEmbeddings() const;

  // Graph-building interest extraction for one user history.
  nn::Var ForwardInterests(const std::vector<data::ItemId>& history,
                           const nn::Tensor& interest_init,
                           data::UserId user);
  // Batched counterpart over concatenated histories: one embedding
  // gather for all of `flat_history` (sample b owns rows [offsets[b],
  // offsets[b+1])), then the extractor's batched forward. Appends one
  // (K x d) Var per sample to `out`.
  void ForwardInterestsBatch(
      const std::vector<data::ItemId>& flat_history,
      const std::vector<int64_t>& offsets,
      const std::vector<const nn::Tensor*>& interest_inits,
      const std::vector<data::UserId>& users, std::vector<nn::Var>* out);
  // The trainer's entry point: one embedding gather for `flat_history`,
  // then the extractor's ForwardReprBatch straight to the per-sample
  // user representations, plus the per-sample interest Vars when
  // `interests` is non-null.
  void ForwardReprsBatch(
      const std::vector<data::ItemId>& flat_history,
      const std::vector<int64_t>& offsets,
      const std::vector<const nn::Tensor*>& interest_inits,
      const std::vector<data::UserId>& users,
      const nn::Var& target_embeddings, std::vector<nn::Var>* reprs,
      std::vector<nn::Var>* interests);
  // No-grad counterpart.
  nn::Tensor ForwardInterestsNoGrad(
      const std::vector<data::ItemId>& history,
      const nn::Tensor& interest_init, data::UserId user);

  // Re-initialises every parameter from `seed` (full retraining).
  void Reset(uint64_t seed);

  void Save(util::BinaryWriter* writer) const;
  // Fallible restore; returns false with a description on corrupt input or
  // configuration mismatch. The model may be partially overwritten on
  // failure — for all-or-nothing semantics load into a staging model and
  // CopyStateFrom it on success (what core::LoadCheckpoint does).
  bool Load(util::BinaryReader* reader, std::string* error);
  // Copies all learned state (embeddings + extractor) from `other`, which
  // must have the same configuration and item count (checked). Parameter
  // handles are preserved, so optimizer registrations stay valid.
  void CopyStateFrom(const MsrModel& other);

  util::Rng& rng() { return rng_; }

 private:
  ModelConfig config_;
  util::Rng rng_;
  EmbeddingTable embeddings_;
  std::unique_ptr<MultiInterestExtractor> extractor_;
};

}  // namespace imsr::models

#endif  // IMSR_MODELS_MSR_MODEL_H_
