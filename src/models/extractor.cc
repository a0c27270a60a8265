#include "models/extractor.h"

#include "nn/ops.h"
#include "util/check.h"

namespace imsr::models {

void MultiInterestExtractor::ForwardBatch(
    const nn::Var& flat_item_embeddings, const std::vector<int64_t>& offsets,
    const std::vector<const nn::Tensor*>& interest_inits,
    const std::vector<data::UserId>& users, std::vector<nn::Var>* out) {
  IMSR_CHECK(out != nullptr);
  IMSR_CHECK_GE(offsets.size(), 2u);
  const size_t batch = offsets.size() - 1;
  IMSR_CHECK_EQ(interest_inits.size(), batch);
  IMSR_CHECK_EQ(users.size(), batch);
  for (size_t b = 0; b < batch; ++b) {
    const nn::Var item_embeddings =
        batch == 1 ? flat_item_embeddings
                   : nn::ops::RowSlice(flat_item_embeddings, offsets[b],
                                       offsets[b + 1]);
    out->push_back(Forward(item_embeddings, *interest_inits[b], users[b]));
  }
}

void MultiInterestExtractor::ForwardReprBatch(
    const nn::Var& /*flat_item_embeddings*/,
    const std::vector<int64_t>& /*offsets*/,
    const std::vector<const nn::Tensor*>& /*interest_inits*/,
    const std::vector<data::UserId>& /*users*/,
    const nn::Var& /*target_embeddings*/, std::vector<nn::Var>* /*reprs*/,
    std::vector<nn::Var>* /*interests*/) {
  IMSR_CHECK(false) << "ForwardReprBatch called on an extractor without a "
                       "fused path; check SupportsFusedRepr() first";
}

}  // namespace imsr::models
