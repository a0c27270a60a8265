#include "models/comirec_sa.h"

#include <cmath>

#include "nn/init.h"
#include "nn/ops.h"

namespace imsr::models {

SelfAttentionExtractor::SelfAttentionExtractor(int64_t embedding_dim,
                                               int64_t attention_dim,
                                               util::Rng& rng)
    : embedding_dim_(embedding_dim),
      attention_dim_(attention_dim),
      w1_(nn::XavierUniform(embedding_dim, attention_dim, rng),
          /*requires_grad=*/true) {}

nn::Var SelfAttentionExtractor::Forward(const nn::Var& item_embeddings,
                                        const nn::Tensor& interest_init,
                                        data::UserId user) {
  auto it = user_query_.find(user);
  IMSR_CHECK(it != user_query_.end())
      << "EnsureUserCapacity must run before Forward for user " << user;
  const nn::Var& w_user = it->second;
  IMSR_CHECK_EQ(w_user.value().size(1), interest_init.size(0))
      << "user query width must match the stored interest count";
  // Eq. 8 in row-major orientation: A^T = softmax_over_items(
  //   (W_u^T tanh(E W1))^T ), H = A^T E.
  nn::Var hidden = nn::ops::Tanh(nn::ops::MatMul(item_embeddings, w1_));
  nn::Var logits = nn::ops::MatMul(hidden, w_user);        // (n x K)
  nn::Var attention = nn::ops::Softmax(nn::ops::Transpose(logits));
  return nn::ops::MatMul(attention, item_embeddings);      // (K x d)
}

nn::Tensor SelfAttentionExtractor::ForwardNoGrad(
    const nn::Tensor& item_embeddings, const nn::Tensor& interest_init,
    data::UserId user) {
  auto it = user_query_.find(user);
  IMSR_CHECK(it != user_query_.end())
      << "EnsureUserCapacity must run before ForwardNoGrad for user "
      << user;
  const nn::Tensor& w_user = it->second.value();
  IMSR_CHECK_EQ(w_user.size(1), interest_init.size(0));
  const nn::Tensor hidden =
      nn::Tanh(nn::MatMul(item_embeddings, w1_.value()));
  const nn::Tensor logits = nn::MatMul(hidden, w_user);
  const nn::Tensor attention = nn::Softmax(nn::Transpose(logits));
  return nn::MatMul(attention, item_embeddings);
}

nn::Tensor SelfAttentionExtractor::RandomQueryColumns(
    int64_t columns, util::Rng& rng) const {
  const float bound = std::sqrt(
      6.0f / static_cast<float>(attention_dim_ + columns));
  return nn::Tensor::RandUniform({attention_dim_, columns}, rng, -bound,
                                 bound);
}

void SelfAttentionExtractor::EnsureUserCapacity(data::UserId user,
                                                int64_t num_interests,
                                                util::Rng& rng,
                                                nn::Adam* optimizer) {
  IMSR_CHECK_GT(num_interests, 0);
  auto it = user_query_.find(user);
  if (it == user_query_.end()) {
    nn::Var query(RandomQueryColumns(num_interests, rng),
                  /*requires_grad=*/true);
    user_query_.emplace(user, query);
    if (optimizer != nullptr) optimizer->Register(query);
    return;
  }
  const int64_t current = it->second.value().size(1);
  if (current >= num_interests) return;
  // Grow: copy existing columns, append fresh random ones.
  nn::Tensor grown({attention_dim_, num_interests});
  const nn::Tensor fresh = RandomQueryColumns(num_interests - current, rng);
  for (int64_t r = 0; r < attention_dim_; ++r) {
    for (int64_t c = 0; c < current; ++c) {
      grown.at(r, c) = it->second.value().at(r, c);
    }
    for (int64_t c = current; c < num_interests; ++c) {
      grown.at(r, c) = fresh.at(r, c - current);
    }
  }
  nn::Var replacement(std::move(grown), /*requires_grad=*/true);
  if (optimizer != nullptr) {
    optimizer->Unregister(it->second);
    optimizer->Register(replacement);
  }
  it->second = replacement;
}

void SelfAttentionExtractor::KeepUserInterests(
    data::UserId user, const std::vector<int64_t>& kept,
    nn::Adam* optimizer) {
  auto it = user_query_.find(user);
  IMSR_CHECK(it != user_query_.end());
  IMSR_CHECK(!kept.empty()) << "a user must keep at least one interest";
  const nn::Tensor& current = it->second.value();
  nn::Tensor shrunk({attention_dim_, static_cast<int64_t>(kept.size())});
  for (size_t c = 0; c < kept.size(); ++c) {
    IMSR_CHECK(kept[c] >= 0 && kept[c] < current.size(1));
    for (int64_t r = 0; r < attention_dim_; ++r) {
      shrunk.at(r, static_cast<int64_t>(c)) = current.at(r, kept[c]);
    }
  }
  nn::Var replacement(std::move(shrunk), /*requires_grad=*/true);
  if (optimizer != nullptr) {
    optimizer->Unregister(it->second);
    optimizer->Register(replacement);
  }
  it->second = replacement;
}

void SelfAttentionExtractor::Reset(util::Rng& rng) {
  w1_.mutable_value() =
      nn::XavierUniform(embedding_dim_, attention_dim_, rng);
  w1_.ZeroGrad();
  user_query_.clear();
}

void SelfAttentionExtractor::Save(util::BinaryWriter* writer) const {
  writer->WriteInt64(embedding_dim_);
  writer->WriteInt64(attention_dim_);
  writer->WriteFloatArray(w1_.value().data(),
                          static_cast<size_t>(w1_.value().numel()));
  writer->WriteInt64(static_cast<int64_t>(user_query_.size()));
  for (const auto& [user, query] : user_query_) {
    writer->WriteInt64(user);
    writer->WriteInt64(query.value().size(1));
    writer->WriteFloatArray(query.value().data(),
                            static_cast<size_t>(query.value().numel()));
  }
}

bool SelfAttentionExtractor::Load(util::BinaryReader* reader,
                                  std::string* error) {
  auto propagate = [&] {
    *error = reader->error();
    return false;
  };
  int64_t embedding_dim = 0;
  int64_t attention_dim = 0;
  if (!reader->TryReadInt64(&embedding_dim) ||
      !reader->TryReadInt64(&attention_dim)) {
    return propagate();
  }
  if (embedding_dim != embedding_dim_ || attention_dim != attention_dim_) {
    *error = "extractor dims mismatch: checkpoint has (" +
             std::to_string(embedding_dim) + ", " +
             std::to_string(attention_dim) + "), model expects (" +
             std::to_string(embedding_dim_) + ", " +
             std::to_string(attention_dim_) + ")";
    return false;
  }
  nn::Tensor w1({embedding_dim_, attention_dim_});
  if (!reader->TryReadFloatArray(w1.data(),
                                 static_cast<size_t>(w1.numel()))) {
    return propagate();
  }
  int64_t count = 0;
  if (!reader->TryReadInt64(&count)) return propagate();
  if (count < 0 ||
      static_cast<uint64_t>(count) > reader->remaining() / sizeof(int64_t)) {
    *error = "corrupt user-query count " + std::to_string(count);
    return false;
  }
  std::unordered_map<data::UserId, nn::Var> queries;
  queries.reserve(static_cast<size_t>(count));
  for (int64_t i = 0; i < count; ++i) {
    int64_t user = 0;
    int64_t columns = 0;
    if (!reader->TryReadInt64(&user) || !reader->TryReadInt64(&columns)) {
      return propagate();
    }
    // Bound the width so the (attention_dim x columns) allocation cannot
    // exceed the bytes actually present in the buffer.
    if (columns <= 0 ||
        static_cast<uint64_t>(columns) >
            reader->remaining() / sizeof(float) /
                static_cast<uint64_t>(attention_dim_)) {
      *error = "corrupt query width " + std::to_string(columns) +
               " for user " + std::to_string(user);
      return false;
    }
    nn::Tensor query({attention_dim_, columns});
    if (!reader->TryReadFloatArray(query.data(),
                                   static_cast<size_t>(query.numel()))) {
      return propagate();
    }
    queries.emplace(static_cast<data::UserId>(user),
                    nn::Var(std::move(query), /*requires_grad=*/true));
  }
  w1_.mutable_value() = std::move(w1);
  user_query_ = std::move(queries);
  return true;
}

void SelfAttentionExtractor::CopyStateFrom(
    const MultiInterestExtractor& other) {
  const auto& source = dynamic_cast<const SelfAttentionExtractor&>(other);
  IMSR_CHECK_EQ(source.embedding_dim_, embedding_dim_);
  IMSR_CHECK_EQ(source.attention_dim_, attention_dim_);
  w1_.mutable_value() = source.w1_.value();
  user_query_.clear();
  for (const auto& [user, query] : source.user_query_) {
    user_query_.emplace(user, nn::Var(query.value().Clone(),
                                      /*requires_grad=*/true));
  }
}

int64_t SelfAttentionExtractor::UserCapacity(data::UserId user) const {
  auto it = user_query_.find(user);
  return it == user_query_.end() ? 0 : it->second.value().size(1);
}

const nn::Var& SelfAttentionExtractor::UserQuery(data::UserId user) const {
  auto it = user_query_.find(user);
  IMSR_CHECK(it != user_query_.end());
  return it->second;
}

}  // namespace imsr::models
