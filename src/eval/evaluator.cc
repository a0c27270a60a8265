#include "eval/evaluator.h"

#include <algorithm>

#include "obs/obs.h"
#include "serve/recommend.h"
#include "util/check.h"
#include "util/parallel.h"
#include "util/stopwatch.h"

namespace imsr::eval {

EvalResult EvaluateSpan(const serve::ServingSnapshot& snapshot,
                        const data::Dataset& dataset, int test_span,
                        const EvalConfig& config, ItemFilter filter,
                        int history_span) {
  IMSR_TRACE_SPAN("eval/span");
  IMSR_CHECK(test_span >= 0 && test_span < dataset.num_spans());
  if (filter != ItemFilter::kAll) {
    IMSR_CHECK_GE(history_span, 0)
        << "item filters need a history horizon";
  }

  // Collect the evaluable (user, target) pairs first; ranking then runs
  // data-parallel over them.
  struct Instance {
    data::UserId user;
    data::ItemId target;
  };
  std::vector<Instance> instances;
  for (data::UserId user : dataset.active_users(test_span)) {
    const data::UserSpanData& span_data =
        dataset.user_span(user, test_span);
    if (span_data.test < 0) continue;
    if (!snapshot.HasUser(user)) continue;

    if (filter != ItemFilter::kAll) {
      const std::vector<data::ItemId> history =
          dataset.UserHistoryUpTo(user, history_span);
      const bool existing = std::binary_search(
          history.begin(), history.end(), span_data.test);
      if (filter == ItemFilter::kExistingOnly && !existing) continue;
      if (filter == ItemFilter::kNewOnly && existing) continue;
    }
    IMSR_CHECK_LT(span_data.test, snapshot.num_items());
    instances.push_back({user, span_data.test});
  }

  const bool ivf = config.retrieval == serve::RetrievalMode::kIVF &&
                   snapshot.index() != nullptr;
  IMSR_OBS_ONLY({
    if (config.retrieval == serve::RetrievalMode::kIVF && !ivf) {
      IMSR_COUNTER_ADD("eval/ivf_fallback_exact",
                       static_cast<int64_t>(instances.size()));
    }
  })
  // Serving-accurate protocol under IVF: rank within the retrieved
  // top-N, so a miss ranks top_n + 1 (contributes 0). Exact asks for
  // top-(N+1): the tail entry shows a tie at the N-th place.
  serve::ServeConfig serve_config;
  serve_config.rule = config.rule;
  serve_config.retrieval =
      ivf ? serve::RetrievalMode::kIVF : serve::RetrievalMode::kExact;
  serve_config.nprobe = config.nprobe;
  const int request_top_n = ivf ? config.top_n : config.top_n + 1;

  util::Stopwatch stopwatch;
  std::vector<int64_t> ranks(instances.size(), 0);
  std::vector<serve::IvfSearchStats> search_stats(
      ivf ? instances.size() : 0);
  // Users are independent; chunks run on the persistent pool, each
  // reusing one RecommendScratch. Ranks land in disjoint slots, so
  // metrics are bitwise identical for any thread count.
  util::ParallelChunks(
      static_cast<int64_t>(instances.size()), config.threads,
      [&](int64_t begin, int64_t end) {
        IMSR_TRACE_SPAN("eval/rank_chunk");
        IMSR_OBS_ONLY(util::Stopwatch chunk_timer;)
        serve::RecommendScratch scratch;
        serve::RecommendResponse response;
        for (int64_t i = begin; i < end; ++i) {
          const Instance& instance =
              instances[static_cast<size_t>(i)];
          serve::RecommendOne(
              snapshot, {instance.user, request_top_n}, serve_config,
              &scratch, &response,
              ivf ? &search_stats[static_cast<size_t>(i)] : nullptr);
          IMSR_CHECK(response.ok) << response.error;
          ranks[static_cast<size_t>(i)] = RankInServedList(
              response.items, instance.target, config.top_n);
        }
        IMSR_HISTOGRAM_RECORD("eval/rank_latency_ms",
                              chunk_timer.ElapsedMillis());
        IMSR_COUNTER_ADD("eval/users_ranked", end - begin);
      });
  const double scoring_seconds = stopwatch.ElapsedSeconds();

  MetricsAccumulator accumulator(config.top_n);
  for (int64_t rank : ranks) accumulator.AddRank(rank);

  EvalResult result;
  result.metrics = accumulator.Finalize();
  result.total_seconds = scoring_seconds;
  for (const serve::IvfSearchStats& stats : search_stats) {
    result.ivf.Add(stats);
  }
  return result;
}

EvalResult EvaluateSpan(const nn::Tensor& item_embeddings,
                        const core::InterestStore& store,
                        const data::Dataset& dataset, int test_span,
                        const EvalConfig& config, ItemFilter filter,
                        int history_span) {
  const serve::ServingSnapshot snapshot(item_embeddings, store.ExportPacked(),
                                        /*trained_through_span=*/-1);
  return EvaluateSpan(snapshot, dataset, test_span, config, filter,
                      history_span);
}

}  // namespace imsr::eval
