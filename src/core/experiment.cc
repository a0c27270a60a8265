#include "core/experiment.h"

#include "util/logging.h"
#include "util/stopwatch.h"

namespace imsr::core {
namespace {

SpanMetrics EvaluateAfterSpan(const models::MsrModel& model,
                              const InterestStore& store,
                              const data::Dataset& dataset,
                              int trained_through_span,
                              const eval::EvalConfig& eval_config) {
  SpanMetrics metrics;
  metrics.trained_through_span = trained_through_span;
  metrics.test_span = trained_through_span + 1;
  const eval::EvalResult result = eval::EvaluateSpan(
      model.embeddings().parameter().value(), store, dataset,
      metrics.test_span, eval_config);
  metrics.hit_ratio = result.metrics.hit_ratio;
  metrics.ndcg = result.metrics.ndcg;
  metrics.evaluated_users = result.metrics.users;
  metrics.infer_ms_per_user =
      result.metrics.users > 0
          ? result.total_seconds * 1e3 /
                static_cast<double>(result.metrics.users)
          : 0.0;
  metrics.avg_interests = store.AverageInterests();
  return metrics;
}

}  // namespace

ExperimentResult RunExperiment(const data::Dataset& dataset,
                               const ExperimentConfig& config) {
  models::MsrModel model(config.model, dataset.num_items(), config.seed);
  InterestStore store;

  StrategyConfig strategy_config = config.strategy;
  strategy_config.train.seed = config.seed;
  std::unique_ptr<LearningStrategy> strategy =
      LearningStrategy::Create(strategy_config, &model, &store);

  ExperimentResult result;
  util::Stopwatch stopwatch;

  // Pretraining, evaluated on span 1 (reported but excluded from averages).
  stopwatch.Restart();
  strategy->Pretrain(dataset);
  SpanMetrics pretrain_metrics = EvaluateAfterSpan(
      model, store, dataset, /*trained_through_span=*/0, config.eval);
  pretrain_metrics.train_seconds = stopwatch.ElapsedSeconds();
  result.spans.push_back(pretrain_metrics);

  // Incremental spans 1..T-1, each tested on the following span.
  const int last_trained_span = dataset.num_incremental_spans() - 1;
  double hr_total = 0.0;
  double ndcg_total = 0.0;
  for (int span = 1; span <= last_trained_span; ++span) {
    stopwatch.Restart();
    strategy->TrainIncrementalSpan(dataset, span);
    const double train_seconds = stopwatch.ElapsedSeconds();
    SpanMetrics metrics =
        EvaluateAfterSpan(model, store, dataset, span, config.eval);
    metrics.train_seconds = train_seconds;
    result.spans.push_back(metrics);
    hr_total += metrics.hit_ratio;
    ndcg_total += metrics.ndcg;
  }
  if (last_trained_span >= 1) {
    result.avg_hit_ratio = hr_total / last_trained_span;
    result.avg_ndcg = ndcg_total / last_trained_span;
  }

  // Expansion diagnostics, when the strategy is IMSR-family.
  if (auto* ft = dynamic_cast<FineTuneFamilyStrategy*>(strategy.get())) {
    result.expansion = ft->trainer().expansion_totals();
  }
  return result;
}

ExperimentResult RunRepeatedExperiment(const data::Dataset& dataset,
                                       const ExperimentConfig& config,
                                       int repeats) {
  IMSR_CHECK_GE(repeats, 1);
  ExperimentResult aggregate;
  for (int repeat = 0; repeat < repeats; ++repeat) {
    ExperimentConfig run = config;
    run.seed = config.seed + static_cast<uint64_t>(repeat) * 104729ULL;
    ExperimentResult result = RunExperiment(dataset, run);
    if (repeat == 0) {
      aggregate = result;
    } else {
      IMSR_CHECK_EQ(aggregate.spans.size(), result.spans.size());
      for (size_t i = 0; i < result.spans.size(); ++i) {
        aggregate.spans[i].hit_ratio += result.spans[i].hit_ratio;
        aggregate.spans[i].ndcg += result.spans[i].ndcg;
        aggregate.spans[i].train_seconds += result.spans[i].train_seconds;
        aggregate.spans[i].infer_ms_per_user +=
            result.spans[i].infer_ms_per_user;
        aggregate.spans[i].avg_interests += result.spans[i].avg_interests;
      }
      aggregate.avg_hit_ratio += result.avg_hit_ratio;
      aggregate.avg_ndcg += result.avg_ndcg;
    }
  }
  const double inv = 1.0 / static_cast<double>(repeats);
  for (SpanMetrics& metrics : aggregate.spans) {
    metrics.hit_ratio *= inv;
    metrics.ndcg *= inv;
    metrics.train_seconds *= inv;
    metrics.infer_ms_per_user *= inv;
    metrics.avg_interests *= inv;
  }
  aggregate.avg_hit_ratio *= inv;
  aggregate.avg_ndcg *= inv;
  return aggregate;
}

}  // namespace imsr::core
