#include "models/extractor.h"

#include "models/aggregator.h"
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
    const nn::Var& flat_item_embeddings, const std::vector<int64_t>& offsets,
    const std::vector<const nn::Tensor*>& interest_inits,
    const std::vector<data::UserId>& users,
    const nn::Var& target_embeddings, std::vector<nn::Var>* reprs,
    std::vector<nn::Var>* interests) {
  IMSR_CHECK(reprs != nullptr);
  std::vector<nn::Var> local;
  std::vector<nn::Var>* out = interests != nullptr ? interests : &local;
  const size_t first = out->size();
  ForwardBatch(flat_item_embeddings, offsets, interest_inits, users, out);
  for (size_t b = 0; b + 1 < offsets.size(); ++b) {
    nn::Var target =
        nn::ops::RowVector(target_embeddings, static_cast<int64_t>(b));
    reprs->push_back(AttentiveAggregate((*out)[first + b], target));
  }
}

}  // namespace imsr::models
