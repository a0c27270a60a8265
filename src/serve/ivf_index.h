// IvfIndex — approximate corpus-scale retrieval for the serving path
// (DESIGN.md §13). Brute-force serving scores every item against every
// interest (O(|items| * d) per request); GemiRec's observation is that
// multi-interest retrieval stays tractable at production scale once the
// item space is coarsely quantized. Interests in this codebase *are*
// cluster centroids, so an inverted-file (IVF) index is the natural fit:
//
//  * Build (once per ServingSnapshot): k-means coarse centroids over the
//    item embeddings, seeded from the packed interest vectors (the best
//    available sketch of where queries will land), inverted lists in two
//    flat arrays (CSV-style begin offsets + item ids, ascending per
//    list), plus an int8 symmetric-quantized copy of every item row
//    (per-row scale) stored in list order, blocked 16 rows at a time
//    with the dimension axis outermost (kCodeBlockRows), so a list's
//    codes are one contiguous run of blocks.
//  * Search: probe the `nprobe` nearest lists per interest (inner
//    product against the centroids), then scan each distinct probed
//    list once — lists are disjoint, so list-level dedup is item-level
//    dedup. DotCodeBlocks scores a list's blocks against all K query
//    codes with SIMD lanes across rows and exact int32 sums; the
//    dequantized logits go through eval::OfferTopNFromLogits into a
//    shortlist accumulator, whose rounding-safe bound skips the
//    softmax for rows that cannot enter. The shortlist is re-ranked
//    with the EXACT float kernels — rows gathered into the panel
//    layout through nn::MatMulTransBGatherInto + eval::ScoreFromLogits,
//    the kernels of the exact serve sweep and the brute-force oracle,
//    so every returned score is bit-identical to what exact scoring
//    would assign.
//
// Retrieval stays approximate only in WHICH items reach the shortlist,
// and that set is a pure function of the approximate scores: every
// selection ranks by the strict eval::RanksBefore order, so neither the
// scan order nor the bound changes a bit of the answer.
// tests/ann_test.cc gates recall against the brute-force oracle, the
// quantization error against an analytic bound, and the whole search
// against a per-item scalar reference scan. Everything here is
// deterministic for any thread count: k-means assignment is per-item
// independent, centroid updates accumulate serially in item order, and a
// search is fully serial per query.
#ifndef IMSR_SERVE_IVF_INDEX_H_
#define IMSR_SERVE_IVF_INDEX_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "core/interest_store.h"
#include "data/interaction.h"
#include "eval/ranker.h"
#include "nn/tensor.h"

namespace imsr::serve {

// How the serving/eval paths retrieve candidates. kExact is the default
// everywhere so existing results stay bitwise unchanged; kIVF routes
// through IvfIndex when the snapshot carries one (and falls back to
// exact, with a counter, when it does not).
enum class RetrievalMode { kExact, kIVF };

const char* RetrievalModeName(RetrievalMode mode);
// Fallible parse ("exact" | "ivf"); on an unknown name returns false and
// fills `error` with the valid spellings.
bool RetrievalModeFromName(const std::string& name, RetrievalMode* mode,
                           std::string* error);

// Exact re-rank depth: a search re-scores max(top_n * kRerankFactor,
// IvfBuildConfig::min_rerank) shortlist entries with floats.
constexpr int kRerankFactor = 4;

struct IvfBuildConfig {
  // Coarse centroid count; <= 0 picks ceil(sqrt(num_items)), clamped to
  // [1, num_items].
  int64_t num_centroids = 0;
  int min_rerank = 64;
};

// Per-search accounting (probe counts, shortlist size, re-rank depth).
struct IvfSearchStats {
  int64_t probes = 0;     // lists scanned (summed over interests)
  int64_t shortlist = 0;  // unique candidates scored with int8
  int64_t reranked = 0;   // candidates re-scored with exact floats
};

// Accumulated accounting across many searches (evaluator / stream runs).
struct IvfSearchTotals {
  int64_t searches = 0;
  int64_t probes = 0;
  int64_t shortlist = 0;
  int64_t reranked = 0;

  void Add(const IvfSearchStats& stats) {
    ++searches;
    probes += stats.probes;
    shortlist += stats.shortlist;
    reranked += stats.reranked;
  }
};

// Rows per block of the index's int8 code layout (IvfIndex::codes()).
constexpr int64_t kCodeBlockRows = 16;

// The IVF scan kernel. Scores `num_blocks` consecutive code blocks (each
// kCodeBlockRows rows, dimension-major: row r's code for dimension t at
// t * kCodeBlockRows + r) against `k` query code rows of `dim` int8
// each: dots[(b * kCodeBlockRows + r) * k + j] is the int32 dot of block
// b's row r with query row j. SIMD lanes run across rows and every sum
// is exact in int32 (|dot| <= 127^2 * dim), so the result equals a
// scalar loop bit for bit.
void DotCodeBlocks(const int8_t* blocks, int64_t num_blocks, int64_t dim,
                   const int8_t* queries, int64_t k, int32_t* dots);

class IvfIndex {
 public:
  // Builds the index over `embeddings` (num_items x d). `seeds` supplies
  // the k-means seed vectors (packed interest rows; item rows top up when
  // there are fewer interest rows than centroids — an empty export is
  // fine). Records build latency/size in the serve/ metrics when obs is
  // enabled.
  IvfIndex(const nn::Tensor& embeddings, const core::PackedInterests& seeds,
           const IvfBuildConfig& config);

  IvfIndex(const IvfIndex&) = delete;
  IvfIndex& operator=(const IvfIndex&) = delete;

  int64_t num_items() const { return num_items_; }
  int64_t num_centroids() const { return centroids_.size(0); }
  int64_t dim() const { return dim_; }
  // Lists probed per interest when a search passes nprobe <= 0:
  // min(num_centroids, 6).
  int default_nprobe() const { return default_nprobe_; }
  // Re-rank knobs as resolved at build time. Construction is fully
  // deterministic in (embeddings, seeds, config), so two indexes built
  // over bitwise-equal inputs with equal centroid counts and min_rerank
  // answer every query identically — what SnapshotRegistry's data-epoch
  // comparison relies on (snapshot.h).
  int rerank_factor() const { return kRerankFactor; }
  int min_rerank() const { return min_rerank_; }
  // Process-monotonic construction stamp (> 0); lets tests prove every
  // published snapshot carries a FRESH index, not a reused one.
  uint64_t build_id() const { return build_id_; }
  // Approximate resident size of the index.
  int64_t bytes() const;

  // Per-worker search state (centroid scores, probe order, probed lists,
  // one scan chunk's dots and logits, the shortlist and final top-N
  // accumulators, re-rank tensors). Reused across searches; never shared
  // across threads concurrently. Nothing here is sized by the corpus:
  // the scan buffers hold one chunk, the rest scale with C, K and top_n.
  struct Scratch {
    std::vector<float> centroid_scores;
    std::vector<int32_t> probe_order;
    std::vector<int32_t> probed_lists;  // distinct probed lists, scan order
    std::vector<uint8_t> list_seen;     // per-list dedup flags, zero between
                                        // searches
    std::vector<int8_t> query_codes;    // K x d quantized interests
    std::vector<float> query_scales;    // K
    std::vector<int32_t> dots;          // scan chunk rows x K int8 dots
    std::vector<float> approx_logits;   // scan chunk rows x K, dequantized
    eval::TopNAccumulator shortlist;    // best approximate scorers
    std::vector<int64_t> rerank_rows;   // shortlist ids in re-rank order
    nn::Tensor gathered;                // re-rank row gather scratch
    nn::Tensor logits;                  // re-rank (R x K) exact logits
    eval::TopNAccumulator top;          // best exact scores
  };

  // Top-N (item, exact score) pairs for one user's (K x d) interests,
  // highest score first (ties broken by ascending item id). `embeddings`
  // must be the table the index was built over (the snapshot's frozen
  // copy) — returned scores are bitwise identical to brute-force scores
  // for the same items. `nprobe` <= 0 uses default_nprobe(). `stats` is
  // optional.
  void SearchTopN(nn::ConstMatrixView interests,
                  const nn::Tensor& embeddings, eval::ScoreRule rule,
                  int top_n, int nprobe, Scratch* scratch,
                  std::vector<std::pair<data::ItemId, float>>* top,
                  IvfSearchStats* stats = nullptr) const;

  // Test/introspection: the approximate (dequantized int8) inner product
  // of `item` against a raw float query row of dim() elements. Linear
  // scan for the item's position — test-only.
  float ApproxDot(data::ItemId item, const float* query) const;

  // Read-only layout introspection for tests and benches. codes() holds
  // list position p's code for dimension t at
  //   (p / kCodeBlockRows) * kCodeBlockRows * dim()
  //       + t * kCodeBlockRows + p % kCodeBlockRows,
  // zero-padded to whole blocks; scales() is per list position.
  const nn::Tensor& centroids() const { return centroids_; }
  const std::vector<int64_t>& list_begin() const { return list_begin_; }
  const std::vector<data::ItemId>& list_items() const { return list_items_; }
  const std::vector<int8_t>& codes() const { return codes_; }
  const std::vector<float>& scales() const { return scales_; }

 private:
  int64_t num_items_ = 0;
  int64_t dim_ = 0;
  int default_nprobe_ = 1;
  int min_rerank_ = 64;
  uint64_t build_id_ = 0;

  nn::Tensor centroids_;                 // (C x d)
  std::vector<int64_t> list_begin_;      // C + 1 offsets into list_items_
  std::vector<data::ItemId> list_items_; // ascending ids within each list
  std::vector<int8_t> codes_;            // 16-row d-major blocks, list order
  std::vector<float> scales_;            // per-row scale, list order
};

}  // namespace imsr::serve

#endif  // IMSR_SERVE_IVF_INDEX_H_
