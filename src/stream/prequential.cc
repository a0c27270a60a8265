#include "stream/prequential.h"

#include "obs/obs.h"
#include "util/check.h"

namespace imsr::stream {

PrequentialEvaluator::PrequentialEvaluator(const PrequentialConfig& config)
    : config_(config), window_(config.top_n, config.window) {}

bool PrequentialEvaluator::ScoreEvent(
    const serve::ServingSnapshot& snapshot, const StreamEvent& event,
    uint64_t trained_through_sequence) {
  IMSR_CHECK_GE(event.sequence, 1u);
  // The prequential contract: the serving state must predate the event.
  IMSR_CHECK_LT(trained_through_sequence, event.sequence)
      << "prequential ordering violated: snapshot v" << snapshot.version()
      << " already trained through event " << event.sequence;

  if (!snapshot.HasUser(event.user)) {
    ++skipped_;
    IMSR_COUNTER_ADD("stream/events_skipped", 1);
    return false;
  }
  IMSR_CHECK_LT(event.item, snapshot.num_items());

  if (config_.retrieval == serve::RetrievalMode::kIVF &&
      snapshot.index() != nullptr) {
    // Serving-accurate protocol: rank is the event item's position in
    // the retrieved top-N; a miss ranks top_n + 1 (contributes 0).
    serve::IvfSearchStats stats;
    snapshot.index()->SearchTopN(
        snapshot.Interests(event.user), snapshot.item_embeddings(),
        config_.rule, config_.top_n, config_.nprobe, &scratch_.ivf,
        &response_.items, &stats);
    ivf_totals_.Add(stats);
  } else {
    IMSR_OBS_ONLY({
      if (config_.retrieval == serve::RetrievalMode::kIVF) {
        IMSR_COUNTER_ADD("stream/ivf_fallback_exact", 1);
      }
    })
    // The served exact top-(N+1), ranked like the offline evaluator.
    serve::ServeConfig exact;
    exact.rule = config_.rule;
    serve::RecommendOne(snapshot, {event.user, config_.top_n + 1}, exact,
                        &scratch_, &response_);
    IMSR_CHECK(response_.ok) << response_.error;
  }
  const int64_t rank =
      eval::RankInServedList(response_.items, event.item, config_.top_n);
  window_.AddRank(rank);
  ++scored_;
  IMSR_COUNTER_ADD("stream/events_scored", 1);

  const uint64_t staleness = event.sequence - 1 - trained_through_sequence;
  IMSR_HISTOGRAM_RECORD("stream/staleness_events",
                        static_cast<double>(staleness));

  if (config_.record_audit) {
    audits_.push_back(
        {event.sequence, snapshot.version(), trained_through_sequence});
  }
  if (config_.curve_every > 0 && scored_ % config_.curve_every == 0) {
    const eval::WindowMetrics window = window_.Current();
    curve_.push_back({event.sequence, scored_, window.hit_ratio,
                      window.ndcg, window.count, snapshot.version(),
                      staleness});
    IMSR_GAUGE_SET("stream/window_recall", window.hit_ratio);
    IMSR_GAUGE_SET("stream/window_ndcg", window.ndcg);
  }
  return true;
}

}  // namespace imsr::stream
