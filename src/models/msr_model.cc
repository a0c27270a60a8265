#include "models/msr_model.h"

#include "models/comirec_dr.h"
#include "models/comirec_sa.h"
#include "models/mind.h"

namespace imsr::models {
namespace {

std::unique_ptr<MultiInterestExtractor> MakeExtractor(
    const ModelConfig& config, util::Rng& rng) {
  switch (config.kind) {
    case ExtractorKind::kMind:
      return std::make_unique<MindExtractor>(config.embedding_dim,
                                             config.routing_iterations,
                                             config.mind_logit_noise, rng);
    case ExtractorKind::kComiRecDr:
      return std::make_unique<DynamicRoutingExtractor>(
          config.embedding_dim,
          RoutingConfig{config.routing_iterations, 0.0f}, rng);
    case ExtractorKind::kComiRecSa:
      return std::make_unique<SelfAttentionExtractor>(
          config.embedding_dim, config.attention_dim, rng);
  }
  IMSR_CHECK(false) << "unreachable extractor kind";
}

}  // namespace

MsrModel::MsrModel(const ModelConfig& config, int64_t num_items,
                   uint64_t seed)
    : config_(config),
      rng_(seed),
      embeddings_(num_items, config.embedding_dim, rng_),
      extractor_(MakeExtractor(config, rng_)) {}

std::vector<nn::Var> MsrModel::SharedParameters() {
  std::vector<nn::Var> parameters = {embeddings_.parameter()};
  for (const nn::Var& p : extractor_->SharedParameters()) {
    parameters.push_back(p);
  }
  return parameters;
}

nn::Tensor MsrModel::ExportItemEmbeddings() const {
  return embeddings_.parameter().value().Clone();
}

nn::Var MsrModel::ForwardInterests(
    const std::vector<data::ItemId>& history,
    const nn::Tensor& interest_init, data::UserId user) {
  IMSR_CHECK(!history.empty());
  nn::Var item_embeddings = embeddings_.Lookup(history);
  return extractor_->Forward(item_embeddings, interest_init, user);
}

void MsrModel::ForwardInterestsBatch(
    const std::vector<data::ItemId>& flat_history,
    const std::vector<int64_t>& offsets,
    const std::vector<const nn::Tensor*>& interest_inits,
    const std::vector<data::UserId>& users, std::vector<nn::Var>* out) {
  IMSR_CHECK(!flat_history.empty());
  nn::Var flat_embeddings = embeddings_.Lookup(flat_history);
  extractor_->ForwardBatch(flat_embeddings, offsets, interest_inits, users,
                           out);
}

bool MsrModel::ForwardReprsBatch(
    const std::vector<data::ItemId>& flat_history,
    const std::vector<int64_t>& offsets,
    const std::vector<const nn::Tensor*>& interest_inits,
    const std::vector<data::UserId>& users,
    const nn::Var& target_embeddings, std::vector<nn::Var>* reprs,
    std::vector<nn::Var>* interests) {
  if (!extractor_->SupportsFusedRepr()) return false;
  IMSR_CHECK(!flat_history.empty());
  nn::Var flat_embeddings = embeddings_.Lookup(flat_history);
  extractor_->ForwardReprBatch(flat_embeddings, offsets, interest_inits,
                               users, target_embeddings, reprs, interests);
  return true;
}

nn::Tensor MsrModel::ForwardInterestsNoGrad(
    const std::vector<data::ItemId>& history,
    const nn::Tensor& interest_init, data::UserId user) {
  IMSR_CHECK(!history.empty());
  const nn::Tensor item_embeddings = embeddings_.LookupNoGrad(history);
  return extractor_->ForwardNoGrad(item_embeddings, interest_init, user);
}

void MsrModel::Reset(uint64_t seed) {
  rng_ = util::Rng(seed);
  embeddings_.Reset(rng_);
  extractor_->Reset(rng_);
}

void MsrModel::Save(util::BinaryWriter* writer) const {
  writer->WriteString("imsr-msr-model-v1");
  writer->WriteString(ExtractorKindName(config_.kind));
  embeddings_.Save(writer);
  extractor_->Save(writer);
}

bool MsrModel::Load(util::BinaryReader* reader, std::string* error) {
  std::string magic;
  std::string kind;
  if (!reader->TryReadString(&magic) || !reader->TryReadString(&kind)) {
    *error = reader->error();
    return false;
  }
  if (magic != "imsr-msr-model-v1") {
    *error = "bad model section magic '" + magic + "'";
    return false;
  }
  if (kind != ExtractorKindName(config_.kind)) {
    *error = "extractor kind mismatch: checkpoint has '" + kind +
             "', model expects '" + ExtractorKindName(config_.kind) + "'";
    return false;
  }
  return embeddings_.Load(reader, error) && extractor_->Load(reader, error);
}

void MsrModel::CopyStateFrom(const MsrModel& other) {
  IMSR_CHECK(other.config_.kind == config_.kind);
  IMSR_CHECK_EQ(other.config_.embedding_dim, config_.embedding_dim);
  embeddings_.CopyFrom(other.embeddings_);
  extractor_->CopyStateFrom(*other.extractor_);
}

}  // namespace imsr::models
