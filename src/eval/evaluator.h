// Per-span evaluation driver: after training through span t, the stored
// interests rank the held-out test item of span t+1 (§IV-E's inference
// procedure and §V-A1's protocol).
//
// The primary entry point consumes an immutable serve::ServingSnapshot —
// the same frozen state the online read path serves from — and ranks
// each target within serve::RecommendOne's top-(N+1), so offline metrics
// measure exactly what production would serve. The live-model overload
// (embedding tensor + InterestStore) snapshots its inputs and delegates.
#ifndef IMSR_EVAL_EVALUATOR_H_
#define IMSR_EVAL_EVALUATOR_H_

#include "core/interest_store.h"
#include "data/dataset.h"
#include "eval/metrics.h"
#include "eval/ranker.h"
#include "serve/snapshot.h"

namespace imsr::eval {

struct EvalConfig {
  int top_n = 20;
  ScoreRule rule = ScoreRule::kAttentive;
  // Worker threads for full-corpus ranking (users are independent).
  // <= 0 uses the process-wide pool's configured size (see
  // util/thread_pool.h); metrics are bitwise identical either way.
  int threads = 1;
  // kIVF ranks each test item within the index's retrieved top-N instead
  // of the full corpus (a miss ranks top_n + 1, contributing 0 to HR and
  // NDCG — the serving-accurate protocol). Snapshots without an index,
  // and the live-model overload, fall back to exact.
  serve::RetrievalMode retrieval = serve::RetrievalMode::kExact;
  // Lists probed per interest under kIVF; <= 0 uses the index default.
  int nprobe = 0;
};

// Which test targets to keep — the Fig. 7a case study splits them by
// whether the user has interacted with the item before.
enum class ItemFilter { kAll, kExistingOnly, kNewOnly };

struct EvalResult {
  TopNMetrics metrics;
  double total_seconds = 0.0;  // wall time spent scoring
  // Accumulated IVF accounting; zero searches when exact scoring ran.
  serve::IvfSearchTotals ivf;
};

// Evaluates every user that (a) has interests in the snapshot and (b) has
// a test item in `test_span`. With a filter other than kAll,
// `history_span` bounds the history that defines "existing" items
// (usually test_span - 1).
EvalResult EvaluateSpan(const serve::ServingSnapshot& snapshot,
                        const data::Dataset& dataset, int test_span,
                        const EvalConfig& config,
                        ItemFilter filter = ItemFilter::kAll,
                        int history_span = -1);

// Live-model adapter: snapshots a copy of `item_embeddings` (the model's
// (num_items x d) table) and `store`, then runs the overload above.
EvalResult EvaluateSpan(const nn::Tensor& item_embeddings,
                        const core::InterestStore& store,
                        const data::Dataset& dataset, int test_span,
                        const EvalConfig& config,
                        ItemFilter filter = ItemFilter::kAll,
                        int history_span = -1);

}  // namespace imsr::eval

#endif  // IMSR_EVAL_EVALUATOR_H_
