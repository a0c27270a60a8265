#include "baselines/ader.h"

#include <algorithm>
#include <cmath>
#include <unordered_map>
#include <vector>

#include "util/math_util.h"

namespace imsr::baselines {
namespace {

// Exemplar pool: truncated sequences of at most kMaxExemplarLength items,
// kExemplarsPerSpan new ones per active user and span. Replay: the
// kSelectFraction most similar of a user's exemplars, at most
// kMaxSelected per user and span. kKdCoefficient weighs the
// distillation term.
constexpr int kExemplarsPerSpan = 5;
constexpr int kMaxExemplarLength = 5;
constexpr double kSelectFraction = 0.5;
constexpr int kMaxSelected = 2;
constexpr float kKdCoefficient = 0.1f;

class AderStrategy : public core::LearningStrategy {
 public:
  AderStrategy(const core::StrategyConfig& config, models::MsrModel* model,
               core::InterestStore* store)
      : LearningStrategy(model, store),
        trainer_(model, store, AderTrainConfig(config)),
        rng_(config.train.seed ^ 0xADE2ULL) {}

  void Pretrain(const data::Dataset& dataset) override {
    trainer_.Pretrain(dataset);
    UpdatePool(dataset, /*span=*/0);
  }

  void TrainIncrementalSpan(const data::Dataset& dataset,
                            int span) override {
    const std::vector<data::TrainingSample> exemplars =
        SelectExemplars(dataset, span);
    trainer_.TrainSpan(dataset, span, &exemplars);
    // Replayed interactions count as span data: fold them into the
    // interest extraction so replayed (old) interests survive the span.
    std::unordered_map<data::UserId, std::vector<data::ItemId>> replay;
    for (const data::TrainingSample& exemplar : exemplars) {
      auto& items = replay[exemplar.user];
      items.insert(items.end(), exemplar.history.begin(),
                   exemplar.history.end());
      items.push_back(exemplar.target);
    }
    for (auto& [user, items] : replay) {
      const data::UserSpanData& span_data = dataset.user_span(user, span);
      items.insert(items.end(), span_data.all.begin(), span_data.all.end());
      trainer_.RefreshUserInterests(user, std::move(items), span);
    }
    UpdatePool(dataset, span);
  }

  size_t pool_size() const {
    size_t total = 0;
    for (const auto& [user, entries] : pool_) total += entries.size();
    return total;
  }

 private:
  static core::TrainConfig AderTrainConfig(
      const core::StrategyConfig& config) {
    core::TrainConfig train = config.train;
    // ADER's "adaptive distillation": the same sigmoid-KD machinery as
    // EIR, at ADER's own coefficient, but no capacity expansion.
    train.eir.kind = core::RetentionKind::kSigmoidKd;
    train.eir.coefficient = kKdCoefficient;
    train.enable_expansion = false;
    train.persist_interests = false;
    return train;
  }

  // Mean embedding of an item list.
  std::vector<double> MeanEmbedding(
      const std::vector<data::ItemId>& items) const {
    const int64_t dim = model_->config().embedding_dim;
    std::vector<double> mean(static_cast<size_t>(dim), 0.0);
    if (items.empty()) return mean;
    const nn::Tensor rows = model_->embeddings().LookupNoGrad(items);
    for (int64_t i = 0; i < rows.size(0); ++i) {
      for (int64_t j = 0; j < dim; ++j) {
        mean[static_cast<size_t>(j)] += rows.at(i, j);
      }
    }
    for (double& v : mean) v /= static_cast<double>(items.size());
    return mean;
  }

  std::vector<data::TrainingSample> SelectExemplars(
      const data::Dataset& dataset, int span) {
    std::vector<data::TrainingSample> selected;
    for (data::UserId user : dataset.active_users(span)) {
      auto it = pool_.find(user);
      if (it == pool_.end() || it->second.empty()) continue;
      const data::UserSpanData& span_data = dataset.user_span(user, span);
      const std::vector<double> span_mean = MeanEmbedding(span_data.all);

      // Rank pool entries by cosine similarity to the new interactions.
      std::vector<std::pair<double, size_t>> ranked;
      ranked.reserve(it->second.size());
      for (size_t i = 0; i < it->second.size(); ++i) {
        const std::vector<double> exemplar_mean =
            MeanEmbedding(it->second[i].history);
        ranked.emplace_back(
            util::CosineSimilarity(span_mean, exemplar_mean), i);
      }
      std::sort(ranked.begin(), ranked.end(),
                [](const auto& a, const auto& b) { return a.first > b.first; });
      const size_t keep = std::min(
          static_cast<size_t>(std::ceil(
              kSelectFraction * static_cast<double>(ranked.size()))),
          static_cast<size_t>(kMaxSelected));
      for (size_t i = 0; i < keep; ++i) {
        selected.push_back(it->second[ranked[i].second]);
      }
    }
    return selected;
  }

  void UpdatePool(const data::Dataset& dataset, int span) {
    for (data::UserId user : dataset.active_users(span)) {
      const data::UserSpanData& span_data = dataset.user_span(user, span);
      if (span_data.all.size() < 2) continue;
      auto& entries = pool_[user];
      for (int added = 0; added < kExemplarsPerSpan; ++added) {
        // Random truncation: a contiguous chunk ending at a random target.
        const auto end = static_cast<size_t>(rng_.IntInRange(
            1, static_cast<int64_t>(span_data.all.size()) - 1));
        const size_t begin =
            end > static_cast<size_t>(kMaxExemplarLength)
                ? end - kMaxExemplarLength
                : 0;
        data::TrainingSample exemplar;
        exemplar.user = user;
        exemplar.target = span_data.all[end];
        exemplar.history.assign(
            span_data.all.begin() + static_cast<int64_t>(begin),
            span_data.all.begin() + static_cast<int64_t>(end));
        entries.push_back(std::move(exemplar));
      }
    }
  }

  core::ImsrTrainer trainer_;
  util::Rng rng_;
  std::unordered_map<data::UserId, std::vector<data::TrainingSample>> pool_;
};

}  // namespace

std::unique_ptr<core::LearningStrategy> CreateAderStrategy(
    const core::StrategyConfig& config, models::MsrModel* model,
    core::InterestStore* store) {
  return std::make_unique<AderStrategy>(config, model, store);
}

}  // namespace imsr::baselines
