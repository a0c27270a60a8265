// End-to-end experiment runner: pretrain, loop over incremental spans,
// evaluate on the next span after each, time everything. Every bench and
// example drives experiments through this interface.
#ifndef IMSR_CORE_EXPERIMENT_H_
#define IMSR_CORE_EXPERIMENT_H_

#include <vector>

#include "core/strategies.h"
#include "data/synthetic.h"
#include "eval/evaluator.h"

namespace imsr::core {

struct ExperimentConfig {
  models::ModelConfig model;
  StrategyConfig strategy;
  eval::EvalConfig eval;
  uint64_t seed = 7;
};

struct SpanMetrics {
  int trained_through_span = 0;  // 0 = pretraining only
  int test_span = 1;
  double hit_ratio = 0.0;
  double ndcg = 0.0;
  int64_t evaluated_users = 0;
  double train_seconds = 0.0;     // time spent training this span
  double infer_ms_per_user = 0.0;
  double avg_interests = 0.0;     // store average after training
};

struct ExperimentResult {
  std::vector<SpanMetrics> spans;  // index 0 = pretraining eval
  // Paper protocol: averages over the incremental spans 1..T-1 (the
  // pretraining-only entry is excluded).
  double avg_hit_ratio = 0.0;
  double avg_ndcg = 0.0;
  ExpansionOutcome expansion;  // IMSR-family diagnostics (zeros otherwise)
};

// Runs one strategy over `dataset`. Deterministic given config seeds.
ExperimentResult RunExperiment(const data::Dataset& dataset,
                               const ExperimentConfig& config);

// Convenience: averages HR/NDCG of repeated runs with distinct seeds.
ExperimentResult RunRepeatedExperiment(const data::Dataset& dataset,
                                       const ExperimentConfig& config,
                                       int repeats);

}  // namespace imsr::core

#endif  // IMSR_CORE_EXPERIMENT_H_
