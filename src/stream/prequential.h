// Prequential (test-then-learn) evaluation: every event is scored against
// the currently *served* snapshot before the trainer is allowed to learn
// from it, so the sliding-window metrics measure genuine next-item
// prediction on data the model has never seen — the online analogue of
// the paper's per-span test split, with zero train/test leakage by
// construction.
//
// Ordering contract: callers pass `trained_through_sequence`, the highest
// event sequence the scoring snapshot's training consumed; it must be
// strictly less than the event's own sequence. The optional audit trail
// records (event sequence, snapshot version, trained-through) triples so
// tests can prove the contract held for every scored event.
#ifndef IMSR_STREAM_PREQUENTIAL_H_
#define IMSR_STREAM_PREQUENTIAL_H_

#include <cstdint>
#include <vector>

#include "eval/metrics.h"
#include "eval/ranker.h"
#include "serve/recommend.h"
#include "serve/snapshot.h"
#include "stream/event.h"

namespace imsr::stream {

struct PrequentialConfig {
  int top_n = 20;
  int64_t window = 500;      // sliding-window size, in scored events
  int64_t curve_every = 0;   // emit a curve point every N scored events
                             // (0 disables curve recording)
  eval::ScoreRule rule = eval::ScoreRule::kAttentive;
  bool record_audit = false;  // keep the per-event ordering audit (tests)
  // kIVF ranks each event within the snapshot index's retrieved top-N
  // (eval::RankInServedList: a miss ranks top_n + 1); snapshots without
  // an index fall back to exact.
  serve::RetrievalMode retrieval = serve::RetrievalMode::kExact;
  int nprobe = 0;  // <= 0 uses the index default under kIVF
};

// One sample of the sliding-window metrics as the stream flowed.
struct CurvePoint {
  uint64_t last_sequence = 0;  // sequence of the event that closed it
  int64_t scored = 0;          // events scored so far
  double window_recall = 0.0;
  double window_ndcg = 0.0;
  int64_t window_count = 0;
  uint64_t snapshot_version = 0;    // version serving at that moment
  uint64_t staleness_events = 0;    // events the snapshot had not seen
};

// Per-event proof record for the ordering invariant.
struct ScoreAudit {
  uint64_t sequence = 0;
  uint64_t snapshot_version = 0;
  uint64_t trained_through_sequence = 0;
};

class PrequentialEvaluator {
 public:
  explicit PrequentialEvaluator(const PrequentialConfig& config);

  PrequentialEvaluator(const PrequentialEvaluator&) = delete;
  PrequentialEvaluator& operator=(const PrequentialEvaluator&) = delete;

  // Ranks the event's true item within the snapshot's served exact
  // top-(N+1) (eval::RankInServedList, as the offline evaluator does).
  // Returns true when the event was scored; false when the snapshot has
  // no interests for the user yet (counted as skipped — a cold-start user
  // contributes once the trainer has published state for them). Aborts
  // if the snapshot claims to have trained through the event itself
  // (ordering violation).
  bool ScoreEvent(const serve::ServingSnapshot& snapshot,
                  const StreamEvent& event,
                  uint64_t trained_through_sequence);

  // Current sliding-window metrics (zeros with count 0 before any score).
  eval::WindowMetrics Window() const { return window_.Current(); }

  int64_t scored() const { return scored_; }
  int64_t skipped() const { return skipped_; }
  const std::vector<CurvePoint>& curve() const { return curve_; }
  const std::vector<ScoreAudit>& audits() const { return audits_; }
  const PrequentialConfig& config() const { return config_; }
  // Accumulated IVF accounting (zero searches when scoring ran exact).
  const serve::IvfSearchTotals& ivf_totals() const { return ivf_totals_; }

 private:
  PrequentialConfig config_;
  eval::SlidingWindowAccumulator window_;
  serve::RecommendScratch scratch_;
  serve::RecommendResponse response_;  // the served top-N being ranked
  serve::IvfSearchTotals ivf_totals_;
  int64_t scored_ = 0;
  int64_t skipped_ = 0;
  std::vector<CurvePoint> curve_;
  std::vector<ScoreAudit> audits_;
};

}  // namespace imsr::stream

#endif  // IMSR_STREAM_PREQUENTIAL_H_
