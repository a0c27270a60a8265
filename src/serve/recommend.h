// Top-N serving over an immutable ServingSnapshot (Algorithm 2's
// inference procedure, lifted out of the evaluator so it can run against
// a published snapshot while training mutates the live model).
//
// Exact retrieval streams a per-user top-N through one blocked sweep of
// the corpus, reducing only the items whose score bound can still reach
// the top-N; nothing corpus-sized is allocated per request. Per-request
// failures (unknown user, bad top_n) come back as error responses — one
// bad request never fails the batch.
#ifndef IMSR_SERVE_RECOMMEND_H_
#define IMSR_SERVE_RECOMMEND_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "data/interaction.h"
#include "eval/ranker.h"
#include "serve/snapshot.h"
#include "util/lru_cache.h"

namespace imsr::serve {

struct RecommendRequest {
  data::UserId user = -1;
  // <= 0 falls back to ServeConfig::default_top_n.
  int top_n = 0;
};

struct RecommendResponse {
  data::UserId user = -1;
  // Top-N (item, score), highest first; empty when !ok.
  std::vector<std::pair<data::ItemId, float>> items;
  bool ok = false;
  std::string error;  // set when !ok
};

struct ServeConfig {
  int default_top_n = 10;
  eval::ScoreRule rule = eval::ScoreRule::kAttentive;
  // Worker threads for the batch fan-out; <= 0 uses the process-wide
  // pool's configured size. Responses are identical for any thread count.
  int threads = 0;
  // kIVF routes through the snapshot's IvfIndex (exact float scores on
  // the approximate shortlist); a snapshot without an index falls back
  // to exact scoring (counted in serve/ivf_fallback_exact).
  RetrievalMode retrieval = RetrievalMode::kExact;
  // Lists probed per interest under kIVF; <= 0 uses the index default.
  int nprobe = 0;
};

// Scratch buffers for RecommendOne / RecommendBatch — one per worker
// thread/shard, so steady-state requests reuse their buffers. Nothing
// here is corpus-sized: the exact path keeps a cache-resident logits
// tile and one top-N accumulator per unique user, never a full-corpus
// score vector.
struct RecommendScratch {
  IvfIndex::Scratch ivf;
  // Exact-path working state: the unique users' interest rows packed
  // into one fused operand, the logits tile the blocked item sweep
  // reuses, each unique user's top-N accumulator and the bookkeeping
  // vectors. RecommendOne uses the tile and the first accumulator.
  nn::Tensor batch_interests;
  nn::Tensor batch_logits;  // (block_rows x total_interests) tile
  std::vector<eval::TopNAccumulator> batch_top;  // per unique user
  std::vector<data::UserId> batch_users;
  std::vector<int64_t> batch_col_offset;  // per unique user, into logits
  std::vector<int64_t> batch_user_k;      // per unique user interest count
  std::vector<int64_t> batch_capacity;    // per unique user largest top_n
  std::vector<int> batch_top_n;
  std::vector<int64_t> batch_user_slot;
};

// Answers one request against `snapshot` into `response`, reusing
// `scratch`. Shares its exact-scoring body with RecommendBatch, so the
// two return bitwise-identical responses; both equal the brute force
// (eval::ScoreAllItemsInto, then TopNFromScores) bit for bit. The
// offline and prequential evaluators rank through this call. Per-request
// failures (unknown user, bad top_n) land in the response (ok=false +
// error), never abort.
void RecommendOne(const ServingSnapshot& snapshot,
                  const RecommendRequest& request, const ServeConfig& config,
                  RecommendScratch* scratch, RecommendResponse* response);

// Answers `count` requests against one snapshot on the calling thread,
// sharing a single pass over the embedding table: unique users' interest
// rows are concatenated into one operand and scored in one blocked item
// sweep over the snapshot's k-major table — each block's logits tile
// stays cache-resident between the MatMulTransBPanelRangeInto call
// and the per-user bound-pruned top-N (exact path) — or one shortlist
// loop over the shared IVF scratch. Each unique user's top-N is selected
// once at the largest top_n requested for it; smaller requests take a
// prefix, and duplicate (user, top_n) IVF requests copy the first answer.
// Responses are bitwise identical to calling RecommendOne per request —
// same kernel bodies, same per-user dispatch shapes, same error strings
// (memcmp-tested at batch size 1 and N in server_test). This is the
// shard worker's micro-batch entry point; it never fans out, because
// parallelism already comes from the shards.
void RecommendBatch(const ServingSnapshot& snapshot,
                    const RecommendRequest* requests, size_t count,
                    const ServeConfig& config, RecommendScratch* scratch,
                    RecommendResponse* responses);

// Answers every request against `snapshot`; responses are parallel to
// `requests`. Fans the batch out over the process-wide pool
// (ServeConfig::threads); each chunk runs RecommendBatch on sub-batches
// of at most 32 requests. Responses are identical for any thread count.
std::vector<RecommendResponse> Recommend(
    const ServingSnapshot& snapshot,
    const std::vector<RecommendRequest>& requests,
    const ServeConfig& config);

// --- Response cache ---------------------------------------------------------
//
// Key for the per-shard serve response cache. The snapshot's data epoch
// (snapshot.h) is in the key, so a publish that changes scoring content
// invalidates every older entry for free — stale entries age out of the
// LRU tail instead of needing an explicit flush — while a
// content-identical republish (the timed-republish deployment) keeps the
// epoch and the cache warm. The freshness contract still holds exactly:
// equal epoch means the snapshots score every request bitwise
// identically, so a hit always returns what the *current* snapshot would
// compute (the CPMR-motivated rule: recommendations are only valid for
// the model state that scored them). top_n is the *resolved* value
// (defaults applied), so explicit and defaulted requests for the same N
// share an entry.
struct ResponseCacheKey {
  uint64_t epoch = 0;
  data::UserId user = -1;
  int32_t top_n = 0;
  uint8_t rule = 0;
  uint8_t retrieval = 0;
  int32_t nprobe = 0;

  bool operator==(const ResponseCacheKey& other) const {
    return epoch == other.epoch && user == other.user &&
           top_n == other.top_n && rule == other.rule &&
           retrieval == other.retrieval && nprobe == other.nprobe;
  }
};

struct ResponseCacheKeyHash {
  size_t operator()(const ResponseCacheKey& key) const;
};

// Cached value: the ok response's (item, score) list. Error responses
// are never cached — they are cheap to recompute and must not mask a
// user appearing in a later snapshot.
using ResponseCache =
    util::LruCache<ResponseCacheKey,
                   std::vector<std::pair<data::ItemId, float>>,
                   ResponseCacheKeyHash>;

// Key for `request` against `snapshot` under `config`, with top_n
// resolved the same way RecommendOne resolves it.
ResponseCacheKey MakeResponseCacheKey(const ServingSnapshot& snapshot,
                                      const RecommendRequest& request,
                                      const ServeConfig& config);

// Byte estimate charged against the cache budget for one entry: key +
// items payload + map/list node overhead.
size_t ResponseCacheEntryBytes(
    const std::vector<std::pair<data::ItemId, float>>& items);

}  // namespace imsr::serve

#endif  // IMSR_SERVE_RECOMMEND_H_
