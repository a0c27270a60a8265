#include "core/strategies.h"

#include "baselines/ader.h"
#include "baselines/sml.h"

namespace imsr::core {

const char* StrategyKindName(StrategyKind kind) {
  switch (kind) {
    case StrategyKind::kFullRetrain:
      return "FR";
    case StrategyKind::kFineTune:
      return "FT";
    case StrategyKind::kImsr:
      return "IMSR";
    case StrategyKind::kImsrNoExpansion:
      return "IMSR w/o NID&PIT";
    case StrategyKind::kImsrNoEir:
      return "IMSR w/o EIR";
    case StrategyKind::kSml:
      return "SML";
    case StrategyKind::kAder:
      return "ADER";
  }
  return "?";
}

StrategyKind StrategyKindFromName(const std::string& name) {
  if (name == "FR" || name == "fr") return StrategyKind::kFullRetrain;
  if (name == "FT" || name == "ft") return StrategyKind::kFineTune;
  if (name == "IMSR" || name == "imsr") return StrategyKind::kImsr;
  if (name == "SML" || name == "sml") return StrategyKind::kSml;
  if (name == "ADER" || name == "ader") return StrategyKind::kAder;
  IMSR_CHECK(false) << "unknown strategy '" << name << "'";
  std::abort();
}

std::unique_ptr<LearningStrategy> LearningStrategy::Create(
    const StrategyConfig& config, models::MsrModel* model,
    InterestStore* store) {
  switch (config.kind) {
    case StrategyKind::kFineTune: {
      TrainConfig train = config.train;
      train.eir.kind = RetentionKind::kNone;
      train.enable_expansion = false;
      train.persist_interests = false;
      return std::make_unique<FineTuneFamilyStrategy>(train, model, store);
    }
    case StrategyKind::kImsr:
      return std::make_unique<FineTuneFamilyStrategy>(config.train, model,
                                                      store);
    case StrategyKind::kImsrNoExpansion: {
      TrainConfig train = config.train;
      train.enable_expansion = false;
      return std::make_unique<FineTuneFamilyStrategy>(train, model, store);
    }
    case StrategyKind::kImsrNoEir: {
      // The existing-interests retainer comprises the distillation loss
      // *and* the evidence-gated refresh (both implement §IV-B's
      // retention); removing EIR removes both. The DIR/KD1-3 ablations
      // replace only the loss.
      TrainConfig train = config.train;
      train.eir.kind = RetentionKind::kNone;
      train.min_evidence_items = 0;
      return std::make_unique<FineTuneFamilyStrategy>(train, model, store);
    }
    case StrategyKind::kFullRetrain:
      return std::make_unique<FullRetrainStrategy>(config, model, store);
    case StrategyKind::kSml:
      return baselines::CreateSmlStrategy(config, model, store);
    case StrategyKind::kAder:
      return baselines::CreateAderStrategy(config, model, store);
  }
  IMSR_CHECK(false) << "unreachable strategy kind";
  std::abort();
}

FineTuneFamilyStrategy::FineTuneFamilyStrategy(const TrainConfig& config,
                                               models::MsrModel* model,
                                               InterestStore* store)
    : LearningStrategy(model, store), trainer_(model, store, config) {}

void FineTuneFamilyStrategy::Pretrain(const data::Dataset& dataset) {
  trainer_.Pretrain(dataset);
}

void FineTuneFamilyStrategy::TrainIncrementalSpan(
    const data::Dataset& dataset, int span) {
  trainer_.TrainSpan(dataset, span);
}

FullRetrainStrategy::FullRetrainStrategy(const StrategyConfig& config,
                                         models::MsrModel* model,
                                         InterestStore* store)
    : LearningStrategy(model, store), config_(config) {
  // FR never expands or distils; it simply has more capacity and data.
  config_.train.eir.kind = RetentionKind::kNone;
  config_.train.enable_expansion = false;
  config_.train.persist_interests = false;
  config_.train.initial_interests = config.fr_initial_interests;
}

void FullRetrainStrategy::Pretrain(const data::Dataset& dataset) {
  RetrainFromScratch(dataset, /*up_to_span=*/0);
}

void FullRetrainStrategy::TrainIncrementalSpan(const data::Dataset& dataset,
                                               int span) {
  RetrainFromScratch(dataset, span);
}

void FullRetrainStrategy::RetrainFromScratch(const data::Dataset& dataset,
                                             int up_to_span) {
  ++generation_;
  model_->Reset(config_.train.seed + static_cast<uint64_t>(generation_) *
                                         7919ULL);
  store_->Clear();

  ImsrTrainer trainer(model_, store_, config_.train);
  for (int span = 0; span <= up_to_span; ++span) {
    trainer.EnsureUserState(dataset, span);
  }

  const std::vector<data::TrainingSample> samples =
      data::BuildCumulativeSamples(dataset, up_to_span,
                                   config_.train.max_history);
  for (int epoch = 0; epoch < config_.train.pretrain_epochs; ++epoch) {
    trainer.TrainEpoch(samples, /*teacher=*/nullptr);
  }

  // Interests from the full history up to `up_to_span`.
  for (data::UserId user = 0; user < dataset.num_users(); ++user) {
    if (!store_->Has(user)) continue;
    std::vector<data::ItemId> items;
    for (int span = 0; span <= up_to_span; ++span) {
      const data::UserSpanData& span_data = dataset.user_span(user, span);
      items.insert(items.end(), span_data.all.begin(), span_data.all.end());
    }
    if (items.empty()) continue;
    // A retrain from scratch refreshes like pretraining (span 0): seeded
    // from the stored initial interests, with no evidence gating.
    trainer.RefreshUserInterests(user, std::move(items), /*span=*/0);
  }
}

}  // namespace imsr::core
