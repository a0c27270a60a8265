#include "baselines/sml.h"

#include <cmath>
#include <vector>

#include "models/aggregator.h"
#include "nn/init.h"
#include "nn/ops.h"
#include "util/math_util.h"

namespace imsr::baselines {
namespace {

// Gate-MLP input features per embedding row.
constexpr int64_t kGateFeatures = 4;
// Transfer-module training: hidden width of the gate MLP, its Adam
// learning rate, epochs over the span's validation items and the cap on
// how many of those items it trains on.
constexpr int kHidden = 8;
constexpr float kTransferLr = 0.05f;
constexpr int kTransferEpochs = 2;
constexpr int kMaxTransferSamples = 512;

class SmlStrategy : public core::LearningStrategy {
 public:
  SmlStrategy(const core::StrategyConfig& config, models::MsrModel* model,
              core::InterestStore* store)
      : LearningStrategy(model, store),
        config_(config),
        trainer_(model, store, FineTuneTrainConfig(config)),
        rng_(config.train.seed ^ 0x5351ULL) {}

  void Pretrain(const data::Dataset& dataset) override {
    trainer_.Pretrain(dataset);
  }

  void TrainIncrementalSpan(const data::Dataset& dataset,
                            int span) override {
    // Snapshot theta_{t-1}, fine-tune to theta_t, then blend.
    const nn::Tensor old_table = model_->embeddings().parameter().value();
    std::vector<nn::Tensor> old_shared;
    for (const nn::Var& p : model_->extractor().SharedParameters()) {
      old_shared.push_back(p.value());
    }

    trainer_.TrainSpan(dataset, span);

    const double mean_gate = TrainAndApplyGates(dataset, span, old_table);

    // Blend the shared extractor weights with the mean gate. The blend is
    // kept gentle (>= 0.5 toward the new weights) so the extractor stays
    // consistent with the freshly trained embeddings.
    const auto extractor_gate =
        static_cast<float>(std::max(mean_gate, 0.5));
    auto shared = model_->extractor().SharedParameters();
    for (size_t i = 0; i < shared.size(); ++i) {
      nn::Tensor blended = nn::Scale(shared[i].value(), extractor_gate);
      blended.AddScaledInPlace(old_shared[i], 1.0f - extractor_gate);
      shared[i].mutable_value() = blended;
    }

    trainer_.RefreshInterests(dataset, span);
  }

 private:
  static core::TrainConfig FineTuneTrainConfig(
      const core::StrategyConfig& config) {
    core::TrainConfig train = config.train;
    train.eir.kind = core::RetentionKind::kNone;
    train.enable_expansion = false;
    train.persist_interests = false;
    return train;
  }

  // Per-row features from the old/new embedding tables.
  nn::Tensor GateFeatures(const nn::Tensor& old_table,
                          const nn::Tensor& new_table) const {
    const int64_t rows = old_table.size(0);
    const int64_t dim = old_table.size(1);
    nn::Tensor features({rows, kGateFeatures});
    for (int64_t i = 0; i < rows; ++i) {
      double old_ss = 0.0;
      double new_ss = 0.0;
      double dot = 0.0;
      for (int64_t j = 0; j < dim; ++j) {
        const double o = old_table.at(i, j);
        const double n = new_table.at(i, j);
        old_ss += o * o;
        new_ss += n * n;
        dot += o * n;
      }
      const double denom = std::sqrt(old_ss * new_ss);
      features.at(i, 0) = static_cast<float>(std::sqrt(old_ss));
      features.at(i, 1) = static_cast<float>(std::sqrt(new_ss));
      features.at(i, 2) =
          static_cast<float>(denom > 1e-12 ? dot / denom : 0.0);
      features.at(i, 3) = 1.0f;  // bias
    }
    return features;
  }

  // Trains the gate MLP on the span's validation items and writes the
  // blended table into the model. Returns the mean gate value.
  double TrainAndApplyGates(const data::Dataset& dataset, int span,
                            const nn::Tensor& old_table) {
    const nn::Tensor new_table = model_->embeddings().parameter().value();
    const nn::Tensor features = GateFeatures(old_table, new_table);
    const nn::Var features_const(features);
    const nn::Var old_const(old_table);
    const nn::Var new_const(new_table);

    // Shared gate MLP: features (I x 4) -> tanh hidden -> sigmoid gate.
    const int64_t hidden = kHidden;
    nn::Var w1(nn::XavierUniform(kGateFeatures, hidden, rng_),
               /*requires_grad=*/true);
    nn::Var w2(nn::XavierUniform(hidden, 1, rng_), /*requires_grad=*/true);
    nn::Adam adam(kTransferLr);
    adam.Register(w1);
    adam.Register(w2);

    // Validation instances: (user, validation item) of this span.
    struct ValidationSample {
      data::UserId user;
      data::ItemId item;
    };
    std::vector<ValidationSample> samples;
    for (data::UserId user : dataset.active_users(span)) {
      const data::UserSpanData& span_data = dataset.user_span(user, span);
      if (span_data.valid >= 0 && store_->Has(user)) {
        samples.push_back({user, span_data.valid});
      }
      if (static_cast<int>(samples.size()) >= kMaxTransferSamples) {
        break;
      }
    }

    data::NegativeSampler negatives(
        static_cast<int32_t>(model_->num_items()));
    const int kNegatives = config_.train.negatives;

    auto gates_graph = [&]() {
      nn::Var hidden_act =
          nn::ops::Tanh(nn::ops::MatMul(features_const, w1));
      // Bias +1.2 starts the gates near sigma(1.2) ~ 0.77: mostly the new
      // parameters, with the transfer module learning where to pull
      // toward the old ones.
      return nn::ops::Sigmoid(nn::ops::AddScalar(
          nn::ops::MatMul(hidden_act, w2), 1.2f));  // (I x 1)
    };

    for (int epoch = 0; epoch < kTransferEpochs; ++epoch) {
      if (samples.empty()) break;
      nn::Var gates = gates_graph();
      nn::Var loss;
      for (const ValidationSample& sample : samples) {
        std::vector<data::ItemId> candidates = {sample.item};
        const std::vector<data::ItemId> negs =
            negatives.Sample(kNegatives, sample.item, rng_);
        candidates.insert(candidates.end(), negs.begin(), negs.end());
        std::vector<int64_t> indices(candidates.begin(), candidates.end());

        // Blended candidate embeddings: g * new + (1 - g) * old.
        nn::Var g_cand = nn::ops::Reshape(
            nn::ops::GatherRows(gates, indices),
            {static_cast<int64_t>(indices.size())});
        nn::Var cand_new = nn::ops::GatherRows(new_const, indices);
        nn::Var cand_old = nn::ops::GatherRows(old_const, indices);
        nn::Var blended = nn::ops::Add(
            nn::ops::ScaleRows(cand_new, g_cand),
            nn::ops::Sub(cand_old,
                         nn::ops::ScaleRows(cand_old, g_cand)));

        // Score candidates against the user's stored interests.
        const nn::Tensor v = models::AttentiveAggregateNoGrad(
            store_->Interests(sample.user),
            new_table.Row(sample.item));
        nn::Var scores = nn::ops::MatVec(blended, nn::Var(v));
        nn::Var sample_loss = nn::ops::NegLogSoftmax(scores, 0);
        loss = loss.defined() ? nn::ops::Add(loss, sample_loss)
                              : sample_loss;
      }
      loss = nn::ops::Scale(loss,
                            1.0f / static_cast<float>(samples.size()));
      loss.Backward();
      adam.Step();
      adam.ZeroGradAll();
    }

    // Apply the learned gates to the embedding table.
    const nn::Tensor gates = gates_graph().value();
    nn::Tensor blended = new_table;
    double gate_total = 0.0;
    const int64_t dim = blended.size(1);
    for (int64_t i = 0; i < blended.size(0); ++i) {
      const float g = gates.at(i, 0);
      gate_total += g;
      for (int64_t j = 0; j < dim; ++j) {
        blended.at(i, j) =
            g * new_table.at(i, j) + (1.0f - g) * old_table.at(i, j);
      }
    }
    model_->embeddings().parameter().mutable_value() = blended;
    return gate_total / static_cast<double>(blended.size(0));
  }

  core::StrategyConfig config_;
  core::ImsrTrainer trainer_;
  util::Rng rng_;
};

}  // namespace

std::unique_ptr<core::LearningStrategy> CreateSmlStrategy(
    const core::StrategyConfig& config, models::MsrModel* model,
    core::InterestStore* store) {
  return std::make_unique<SmlStrategy>(config, model, store);
}

}  // namespace imsr::baselines
