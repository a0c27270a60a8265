// Full-corpus ranking from a user's interest vectors. Implements both the
// paper's attentive inference rule (Algorithm 2: v_u built per candidate
// via Eq. 5, scored by inner product) and ComiRec's max-interest serving
// rule.
//
// Every exact score is one per-item reduction of the panel kernel's
// logits = E H^T (nn::MatMulTransBPanel*, nn::MatMulTransBGatherInto),
// so the brute force here, the served sweep and the IVF re-rank agree
// bit for bit. Serving and evaluation select a top-N
// without full-corpus scores: TopNAccumulator streams candidates, and
// OfferTopNFromLogits skips rows whose ScoreUpperBound cannot reach it.
// Every top-N ranks by RanksBefore.
#ifndef IMSR_EVAL_RANKER_H_
#define IMSR_EVAL_RANKER_H_

#include <string>
#include <utility>
#include <vector>

#include "data/interaction.h"
#include "nn/tensor.h"

namespace imsr::eval {

enum class ScoreRule { kAttentive, kMaxInterest };

const char* ScoreRuleName(ScoreRule rule);
// Fallible parse ("attentive" | "max"); on an unknown name returns false
// and fills `error` with the valid spellings.
bool ScoreRuleFromName(const std::string& name, ScoreRule* rule,
                       std::string* error);

// Per-item reduction over one row of K interest logits: max_k for
// kMaxInterest, the softmax-weighted combination (Eq. 5 with the
// candidate as query) for kAttentive. ScoreAllItemsInto applies this to
// every row of the logits matrix, the IVF re-rank to shortlist rows, and
// the exact serve path (OfferTopNFromLogits) to the rows its bound cannot
// rule out — sharing one definition keeps every path bitwise identical.
float ScoreFromLogits(const float* row, int64_t k, ScoreRule rule);

// The full-corpus form: applies ScoreFromLogits to each of `num_items`
// contiguous rows of K logits. ScoreAllItemsInto uses it on its own
// E H^T product.
void ScoresFromLogits(const float* logits, int64_t num_items, int64_t k,
                      ScoreRule rule, float* scores);

// The strict order every top-N path ranks by: higher score first, equal
// scores by ascending item id. TopNFromScores, TopNAccumulator and the
// IVF re-rank all select and sort under it, so a top-N list is a pure
// function of the scores — never of the selection algorithm.
inline bool RanksBefore(data::ItemId a, float score_a, data::ItemId b,
                        float score_b) {
  if (score_a != score_b) return score_a > score_b;
  return a < b;
}

// An upper bound on ScoreFromLogits(row, k, rule) *as computed in
// float*, cheap enough to test before paying for the reduction. Under
// kMaxInterest it is the score itself. Under kAttentive the score is a
// softmax-weighted mean of the row, so it cannot exceed the row's max
// logit hi in exact arithmetic; the bound adds a rounding slack derived
// from this row's k and M = max_j |l_j|:
// hi + ((4k + 4) 2^-24 M + FLT_MIN), valid for k <= 2^20 (checked).
// DESIGN.md §15 has the rounding argument.
float ScoreUpperBound(const float* row, int64_t k, ScoreRule rule);

// Streaming top-N under RanksBefore: keeps the best `capacity` (item,
// score) pairs offered so far in a heap whose root is the worst kept
// entry, so an offer that cannot enter costs one comparison.
class TopNAccumulator {
 public:
  // Empties the accumulator and sets how many entries it keeps (>= 0).
  // Required before the first Offer.
  void Reset(int64_t capacity);
  // The score a candidate must reach to enter: the worst kept score once
  // `capacity` entries are held, -infinity before. A candidate whose
  // ScoreUpperBound is strictly below it can be skipped unscored.
  float threshold() const { return threshold_; }
  void Offer(data::ItemId item, float score);
  // Sorts the kept entries best-first and returns them; later calls
  // return the same list. No Offer may follow until the next Reset.
  const std::vector<std::pair<data::ItemId, float>>& Finish();

 private:
  size_t capacity_ = 0;
  float threshold_ = 0.0f;
  bool sorted_ = false;
  std::vector<std::pair<data::ItemId, float>> heap_;
};

// Offers rows [0, rows) of a logits tile to `top` as items first_item,
// first_item + 1, ...: row i's k logits start at logits + i * stride.
// Only rows whose ScoreUpperBound reaches top->threshold() are reduced
// by ScoreFromLogits; the rest cannot enter the top-N and are skipped.
// Returns the number of rows reduced. The kept set equals the one from
// scoring every row — the bound never skips a row that would enter.
int64_t OfferTopNFromLogits(const float* logits, int64_t rows, int64_t k,
                            int64_t stride, data::ItemId first_item,
                            ScoreRule rule, TopNAccumulator* top);

// Reusable buffers for repeated full-corpus scoring (one per thread).
struct RankScratch {
  nn::Tensor panels;          // the table in panelized k-major layout
  nn::Tensor logits;          // (num_items x K), reused across users
  std::vector<float> scores;  // num_items
};

// Scores every item into scratch->scores (resized to num_items), the
// served top-N's brute-force oracle: the table is panelized into
// scratch->panels for MatMulTransBPanelInto, so every score has the bits
// RecommendOne and the IVF re-rank give that item.
void ScoreAllItemsInto(const nn::Tensor& interests,
                       const nn::Tensor& item_embeddings, ScoreRule rule,
                       RankScratch* scratch);
// Same, with the (K x d) interests given as a view over packed storage
// (the ServingSnapshot read path). Shares every kernel with the Tensor
// overload, so equal values score bitwise identically.
void ScoreAllItemsInto(nn::ConstMatrixView interests,
                       const nn::Tensor& item_embeddings, ScoreRule rule,
                       RankScratch* scratch);

// Allocating convenience wrapper around ScoreAllItemsInto.
std::vector<float> ScoreAllItems(const nn::Tensor& interests,
                                 const nn::Tensor& item_embeddings,
                                 ScoreRule rule);

// 1-based rank of `target` among precomputed full-corpus scores (ties
// resolved pessimistically: equal scores ahead of the target count
// against it).
int64_t TargetRankFromScores(const std::vector<float>& scores,
                             data::ItemId target);

// 1-based rank of `target` in a served list: top_n + 1 when absent, else
// 1 + the other entries scoring >= it (TargetRankFromScores' tie rule),
// capped at top_n + 1. On RecommendOne's top-(top_n + 1) this equals
// min(full-corpus rank, top_n + 1), all HR@N and NDCG@N read (DESIGN.md
// §9).
int64_t RankInServedList(
    const std::vector<std::pair<data::ItemId, float>>& items,
    data::ItemId target, int top_n);

// Top-N (item, score) pairs from precomputed scores, in RanksBefore
// order.
std::vector<std::pair<data::ItemId, float>> TopNFromScores(
    const std::vector<float>& scores, int n);

// 1-based rank of `target` among all items under `rule`; scores the
// corpus from scratch. Prefer ScoreAllItemsInto + TargetRankFromScores
// when several metrics share one user's scores.
int64_t TargetRank(const nn::Tensor& interests,
                   const nn::Tensor& item_embeddings, data::ItemId target,
                   ScoreRule rule);

// Top-N (item, score) pairs, highest first; scores the corpus from
// scratch (see TargetRank's note about reusing scores).
std::vector<std::pair<data::ItemId, float>> TopNItems(
    const nn::Tensor& interests, const nn::Tensor& item_embeddings, int n,
    ScoreRule rule);

}  // namespace imsr::eval

#endif  // IMSR_EVAL_RANKER_H_
