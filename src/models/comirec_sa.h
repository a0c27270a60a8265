// Self-attention multi-interest extractor (§III-2, Eq. 7–9): a shared
// projection W1 plus a *per-user* query matrix W_u whose K columns are the
// user's interest heads. Interests expansion grows/shrinks W_u's columns.
#ifndef IMSR_MODELS_COMIREC_SA_H_
#define IMSR_MODELS_COMIREC_SA_H_

#include <unordered_map>
#include <vector>

#include "models/extractor.h"

namespace imsr::models {

class SelfAttentionExtractor : public MultiInterestExtractor {
 public:
  SelfAttentionExtractor(int64_t embedding_dim, int64_t attention_dim,
                         util::Rng& rng);

  ExtractorKind kind() const override { return ExtractorKind::kComiRecSa; }

  nn::Var Forward(const nn::Var& item_embeddings,
                  const nn::Tensor& interest_init,
                  data::UserId user) override;

  nn::Tensor ForwardNoGrad(const nn::Tensor& item_embeddings,
                           const nn::Tensor& interest_init,
                           data::UserId user) override;

  std::vector<nn::Var> SharedParameters() override { return {w1_}; }

  void EnsureUserCapacity(data::UserId user, int64_t num_interests,
                          util::Rng& rng, nn::Adam* optimizer) override;
  void KeepUserInterests(data::UserId user,
                         const std::vector<int64_t>& kept,
                         nn::Adam* optimizer) override;

  void Reset(util::Rng& rng) override;

  void Save(util::BinaryWriter* writer) const override;
  bool Load(util::BinaryReader* reader, std::string* error) override;
  void CopyStateFrom(const MultiInterestExtractor& other) override;

  // Interest-head count currently allocated for `user` (0 when absent).
  int64_t UserCapacity(data::UserId user) const;
  // The user's query parameter; aborts when absent.
  const nn::Var& UserQuery(data::UserId user) const;

 private:
  nn::Tensor RandomQueryColumns(int64_t columns, util::Rng& rng) const;

  int64_t embedding_dim_;
  int64_t attention_dim_;
  nn::Var w1_;  // (d x d_a), Eq. 7's W1 stored transposed for row-major E
  std::unordered_map<data::UserId, nn::Var> user_query_;  // (d_a x K_u)
};

}  // namespace imsr::models

#endif  // IMSR_MODELS_COMIREC_SA_H_
