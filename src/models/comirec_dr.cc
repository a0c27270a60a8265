#include "models/comirec_dr.h"

#include "models/interest_readout.h"
#include "nn/init.h"
#include "nn/ops.h"
#include "util/check.h"

namespace imsr::models {

DynamicRoutingExtractor::DynamicRoutingExtractor(
    int64_t embedding_dim, const RoutingConfig& config, util::Rng& rng)
    : embedding_dim_(embedding_dim),
      routing_config_(config),
      transform_(nn::XavierUniform(embedding_dim, embedding_dim, rng),
                 /*requires_grad=*/true),
      rng_(rng.Fork()) {}

nn::Var DynamicRoutingExtractor::Forward(const nn::Var& item_embeddings,
                                         const nn::Tensor& interest_init,
                                         data::UserId /*user*/) {
  // Eq. 3: behaviour capsules via the shared affine transform.
  nn::Var e_hat = nn::ops::MatMul(item_embeddings, transform_);
  // Routing runs outside the graph; coefficients enter as constants.
  const nn::Var coupling(
      B2IRouting(e_hat.value(), interest_init, routing_config_, &rng_));
  // Eq. 4: h_k = squash(sum_i c_ik e_hat_i). The fused transposed-operand
  // op keeps MatMul(Transpose(C), e_hat)'s accumulation order — bitwise
  // identical — without materialising C^T.
  return nn::ops::SquashRows(nn::ops::MatMulTransA(coupling, e_hat));
}

void DynamicRoutingExtractor::ForwardBatch(
    const nn::Var& flat_item_embeddings, const std::vector<int64_t>& offsets,
    const std::vector<const nn::Tensor*>& interest_inits,
    const std::vector<data::UserId>& users, std::vector<nn::Var>* out) {
  IMSR_CHECK(out != nullptr);
  IMSR_CHECK_GE(offsets.size(), 2u);
  const size_t batch = offsets.size() - 1;
  IMSR_CHECK_EQ(interest_inits.size(), batch);
  IMSR_CHECK_EQ(users.size(), batch);
  // Eq. 3 once for the stacked histories; each row transforms
  // independently, so every sample's slice carries the exact bits its
  // own Forward would have produced.
  nn::Var e_hat_all = nn::ops::MatMul(flat_item_embeddings, transform_);
  for (size_t b = 0; b < batch; ++b) {
    nn::Var e_hat =
        batch == 1 ? e_hat_all
                   : nn::ops::RowSlice(e_hat_all, offsets[b], offsets[b + 1]);
    const nn::Var coupling(B2IRouting(e_hat.value(), *interest_inits[b],
                                      routing_config_, &rng_));
    out->push_back(
        nn::ops::SquashRows(nn::ops::MatMulTransA(coupling, e_hat)));
  }
}

void DynamicRoutingExtractor::ForwardReprBatch(
    const nn::Var& flat_item_embeddings, const std::vector<int64_t>& offsets,
    const std::vector<const nn::Tensor*>& interest_inits,
    const std::vector<data::UserId>& /*users*/,
    const nn::Var& target_embeddings, std::vector<nn::Var>* reprs,
    std::vector<nn::Var>* interests) {
  IMSR_CHECK(reprs != nullptr);
  IMSR_CHECK_GE(offsets.size(), 2u);
  const size_t batch = offsets.size() - 1;
  IMSR_CHECK_EQ(interest_inits.size(), batch);
  nn::Var e_hat_all = nn::ops::MatMul(flat_item_embeddings, transform_);
  for (size_t b = 0; b < batch; ++b) {
    // The slice values feed routing and the fused node's forward; the
    // backward reaches e_hat_all's rows directly, so no slice node (and
    // no slice gradient) ever exists.
    const nn::Tensor e_hat =
        e_hat_all.value().RowSlice(offsets[b], offsets[b + 1]);
    nn::Tensor coupling =
        B2IRouting(e_hat, *interest_inits[b], routing_config_, &rng_);
    nn::Var sample_interests;
    reprs->push_back(RoutedAttentiveReadout(
        e_hat_all, offsets[b], e_hat, std::move(coupling),
        target_embeddings, static_cast<int64_t>(b),
        interests != nullptr ? &sample_interests : nullptr));
    if (interests != nullptr) interests->push_back(sample_interests);
  }
}

nn::Tensor DynamicRoutingExtractor::ForwardNoGrad(
    const nn::Tensor& item_embeddings, const nn::Tensor& interest_init,
    data::UserId /*user*/) {
  const nn::Tensor e_hat = nn::MatMul(item_embeddings, transform_.value());
  const nn::Tensor coupling =
      B2IRouting(e_hat, interest_init, routing_config_, &rng_);
  return nn::SquashRows(nn::MatMulTransA(coupling, e_hat));
}

void DynamicRoutingExtractor::Reset(util::Rng& rng) {
  transform_.mutable_value() =
      nn::XavierUniform(embedding_dim_, embedding_dim_, rng);
  transform_.ZeroGrad();
}

void DynamicRoutingExtractor::Save(util::BinaryWriter* writer) const {
  writer->WriteInt64(embedding_dim_);
  writer->WriteFloatArray(transform_.value().data(),
                          static_cast<size_t>(transform_.value().numel()));
}

bool DynamicRoutingExtractor::Load(util::BinaryReader* reader,
                                   std::string* error) {
  int64_t dim = 0;
  if (!reader->TryReadInt64(&dim)) {
    *error = reader->error();
    return false;
  }
  if (dim != embedding_dim_) {
    *error = "extractor dim mismatch: checkpoint has " +
             std::to_string(dim) + ", model expects " +
             std::to_string(embedding_dim_);
    return false;
  }
  nn::Tensor transform({embedding_dim_, embedding_dim_});
  if (!reader->TryReadFloatArray(transform.data(),
                                 static_cast<size_t>(transform.numel()))) {
    *error = reader->error();
    return false;
  }
  transform_.mutable_value() = std::move(transform);
  return true;
}

void DynamicRoutingExtractor::CopyStateFrom(
    const MultiInterestExtractor& other) {
  const auto& source = dynamic_cast<const DynamicRoutingExtractor&>(other);
  IMSR_CHECK_EQ(source.embedding_dim_, embedding_dim_);
  transform_.mutable_value() = source.transform_.value();
}

}  // namespace imsr::models
