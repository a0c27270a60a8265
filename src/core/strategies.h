// Learning strategies compared in the paper (§V-A4): full retraining
// (FR), fine-tuning (FT), the proposed IMSR (with ablation switches), and
// the SML/ADER baselines implemented under src/baselines/.
#ifndef IMSR_CORE_STRATEGIES_H_
#define IMSR_CORE_STRATEGIES_H_

#include <memory>
#include <string>

#include "core/imsr_trainer.h"

namespace imsr::core {

enum class StrategyKind {
  kFullRetrain,       // FR
  kFineTune,          // FT
  kImsr,              // IMSR (EIR + NID + PIT)
  kImsrNoExpansion,   // IMSR w/o NID & PIT (ablation)
  kImsrNoEir,         // IMSR w/o EIR (ablation)
  kSml,               // SML baseline
  kAder,              // ADER baseline
};

const char* StrategyKindName(StrategyKind kind);
StrategyKind StrategyKindFromName(const std::string& name);

struct StrategyConfig {
  StrategyKind kind = StrategyKind::kImsr;
  TrainConfig train;
  // FR keeps the interest count comparable to IMSR's expanded models
  // (paper: "the interests number will be kept same as IMSR").
  int fr_initial_interests = 6;
};

// A strategy drives one (model, interest store) pair through pretraining
// and the incremental spans.
class LearningStrategy {
 public:
  virtual ~LearningStrategy() = default;

  virtual void Pretrain(const data::Dataset& dataset) = 0;
  virtual void TrainIncrementalSpan(const data::Dataset& dataset,
                                    int span) = 0;

  models::MsrModel& model() { return *model_; }
  InterestStore& store() { return *store_; }

  static std::unique_ptr<LearningStrategy> Create(
      const StrategyConfig& config, models::MsrModel* model,
      InterestStore* store);

 protected:
  LearningStrategy(models::MsrModel* model, InterestStore* store)
      : model_(model), store_(store) {}

  models::MsrModel* model_;
  InterestStore* store_;
};

// FT / IMSR / ablations: one persistent trainer, per-span fine-tuning.
class FineTuneFamilyStrategy : public LearningStrategy {
 public:
  FineTuneFamilyStrategy(const TrainConfig& config,
                         models::MsrModel* model, InterestStore* store);

  void Pretrain(const data::Dataset& dataset) override;
  void TrainIncrementalSpan(const data::Dataset& dataset,
                            int span) override;

  ImsrTrainer& trainer() { return trainer_; }

 private:
  ImsrTrainer trainer_;
};

// FR: reinitialises the model each span and retrains on spans [0, t].
class FullRetrainStrategy : public LearningStrategy {
 public:
  FullRetrainStrategy(const StrategyConfig& config,
                      models::MsrModel* model, InterestStore* store);

  void Pretrain(const data::Dataset& dataset) override;
  void TrainIncrementalSpan(const data::Dataset& dataset,
                            int span) override;

 private:
  void RetrainFromScratch(const data::Dataset& dataset, int up_to_span);

  StrategyConfig config_;
  int generation_ = 0;  // varies the reinitialisation seed per span
};

}  // namespace imsr::core

#endif  // IMSR_CORE_STRATEGIES_H_
