#include "eval/ranker.h"

#include <algorithm>
#include <cfloat>
#include <cmath>
#include <limits>

#include "nn/simd.h"
#include "util/check.h"

namespace imsr::eval {

float ScoreFromLogits(const float* row, int64_t k, ScoreRule rule) {
  if (rule == ScoreRule::kMaxInterest) {
    float best = row[0];
    for (int64_t j = 1; j < k; ++j) best = std::max(best, row[j]);
    return best;
  }
  // Attentive: v_u(e_i) . e_i = sum_k softmax(row)_k row_k.
  float max_logit = row[0];
  for (int64_t j = 1; j < k; ++j) max_logit = std::max(max_logit, row[j]);
  float total = 0.0f;
  float weighted = 0.0f;
  for (int64_t j = 0; j < k; ++j) {
    const float w = std::exp(row[j] - max_logit);
    total += w;
    weighted += w * row[j];
  }
  return weighted / total;
}

// Fused per-item reduction over the K interest logits: one pass computes
// either max_k or the softmax-weighted combination (Eq. 5 with the
// candidate as query), without temporaries.
void ScoresFromLogits(const float* logits, int64_t num_items, int64_t k,
                      ScoreRule rule, float* scores) {
  for (int64_t i = 0; i < num_items; ++i) {
    scores[i] = ScoreFromLogits(logits + i * k, k, rule);
  }
}

namespace {

// ScoreUpperBound's relative slack for a row of k logits, derived in
// DESIGN.md §15 and summarised here. ScoreFromLogits computes
// s = fl(N' / T') with T' a k-term float sum of the weights w_j and N' a
// k-term float sum of fl(w_j * l_j). Whatever the weights' rounding, they
// are nonnegative and the max logit's is exp(0) = 1, so the exact
// quotient R = sum w_j l_j / sum w_j is a weighted mean: R <= hi, the max
// logit. A k-term sum in any order errs by at most gamma_k = ku / (1 - ku)
// of its magnitudes (u = 2^-24), so with M = max_j |l_j| and the
// division's own rounding, s <= R + (2k + O(k^2 u)) u M; subnormal
// products and quotients add at most (k + 1) 2^-150 absolutely (T' >= 1).
// The bound fl(hi + fl(fl(c M) + FLT_MIN)) with c = (4k + 4) u stays
// above that after its own three roundings: it is at least
// hi + (4k + 3 - O(ku)) u M + (FLT_MIN - 2^-150)(1 - 2u), which covers
// both terms while k <= 2^20.
float RelativeSlack(int64_t k) {
  IMSR_CHECK(k >= 1 && k <= (int64_t{1} << 20));
  return static_cast<float>(4 * k + 4) * 0x1p-24f;
}

// The attentive bound from a row's extremes; one definition for the
// scalar ScoreUpperBound and the vectorized sweep.
inline float AttentiveBound(float hi, float lo, float relative) {
  return hi + (relative * std::max(hi, -lo) + FLT_MIN);
}

// Heap order: "less" means ranks before, so the root is the worst kept.
bool EntryRanksBefore(const std::pair<data::ItemId, float>& a,
                      const std::pair<data::ItemId, float>& b) {
  return RanksBefore(a.first, a.second, b.first, b.second);
}

}  // namespace

float ScoreUpperBound(const float* row, int64_t k, ScoreRule rule) {
  float hi = row[0];
  float lo = row[0];
  for (int64_t j = 1; j < k; ++j) {
    hi = std::max(hi, row[j]);
    lo = std::min(lo, row[j]);
  }
  if (rule == ScoreRule::kMaxInterest) return hi;
  return AttentiveBound(hi, lo, RelativeSlack(k));
}

void TopNAccumulator::Reset(int64_t capacity) {
  IMSR_CHECK_GE(capacity, 0);
  capacity_ = static_cast<size_t>(capacity);
  threshold_ = -std::numeric_limits<float>::infinity();
  sorted_ = false;
  heap_.clear();
}

void TopNAccumulator::Offer(data::ItemId item, float score) {
  if (heap_.size() < capacity_) {
    heap_.emplace_back(item, score);
    std::push_heap(heap_.begin(), heap_.end(), EntryRanksBefore);
    if (heap_.size() == capacity_) threshold_ = heap_.front().second;
    return;
  }
  if (capacity_ == 0 ||
      !RanksBefore(item, score, heap_.front().first, heap_.front().second)) {
    return;
  }
  std::pop_heap(heap_.begin(), heap_.end(), EntryRanksBefore);
  heap_.back() = {item, score};
  std::push_heap(heap_.begin(), heap_.end(), EntryRanksBefore);
  threshold_ = heap_.front().second;
}

const std::vector<std::pair<data::ItemId, float>>& TopNAccumulator::Finish() {
  if (!sorted_) std::sort_heap(heap_.begin(), heap_.end(), EntryRanksBefore);
  sorted_ = true;
  return heap_;
}

namespace {

// The one bound loop behind both OfferTopNFromLogits overloads. Bounds
// are computed for a chunk of rows at a time with SIMD lanes across rows,
// then tested against the threshold a group at a time, so a group with no
// survivor costs one vector compare. Survivors are offered in row order;
// row i is item items[i] when `items` is non-null, else first_item + i.
// The bounds' bits do not matter, only that each is an upper bound, so
// the vectorized and scalar clones may differ freely.
IMSR_SIMD_CLONES
int64_t OfferRows(const float* logits, int64_t rows, int64_t k,
                  int64_t stride, data::ItemId first_item,
                  const data::ItemId* items, ScoreRule rule,
                  TopNAccumulator* top) {
  IMSR_CHECK(top != nullptr);
  const bool attentive = rule == ScoreRule::kAttentive;
  const float relative = RelativeSlack(k);
  constexpr int64_t kChunkRows = 256;
  constexpr int64_t kGroupRows = 16;
  float bound[kChunkRows];
  float lo[kChunkRows];
  int64_t reduced = 0;
  for (int64_t c0 = 0; c0 < rows; c0 += kChunkRows) {
    const int64_t n = std::min(kChunkRows, rows - c0);
    const float* chunk = logits + c0 * stride;
    IMSR_SIMD_PRAGMA()
    for (int64_t i = 0; i < n; ++i) {
      bound[i] = chunk[i * stride];
      lo[i] = bound[i];
    }
    for (int64_t j = 1; j < k; ++j) {
      IMSR_SIMD_PRAGMA()
      for (int64_t i = 0; i < n; ++i) {
        const float x = chunk[i * stride + j];
        bound[i] = std::max(bound[i], x);
        lo[i] = std::min(lo[i], x);
      }
    }
    if (attentive) {
      IMSR_SIMD_PRAGMA()
      for (int64_t i = 0; i < n; ++i) {
        bound[i] = AttentiveBound(bound[i], lo[i], relative);
      }
    }
    for (int64_t g0 = 0; g0 < n; g0 += kGroupRows) {
      const int64_t g1 = std::min(n, g0 + kGroupRows);
      const float threshold = top->threshold();
      int any = 0;
      IMSR_SIMD_PRAGMA(reduction(| : any))
      for (int64_t i = g0; i < g1; ++i) any |= !(bound[i] < threshold);
      if (any == 0) continue;
      for (int64_t i = g0; i < g1; ++i) {
        // Strict: a row whose bound ties the threshold may still tie the
        // worst kept score and win on item id.
        if (bound[i] < top->threshold()) continue;
        ++reduced;
        const data::ItemId item =
            items != nullptr
                ? items[c0 + i]
                : first_item + static_cast<data::ItemId>(c0 + i);
        top->Offer(item, ScoreFromLogits(chunk + i * stride, k, rule));
      }
    }
  }
  return reduced;
}

}  // namespace

int64_t OfferTopNFromLogits(const float* logits, int64_t rows, int64_t k,
                            int64_t stride, data::ItemId first_item,
                            ScoreRule rule, TopNAccumulator* top) {
  return OfferRows(logits, rows, k, stride, first_item, nullptr, rule, top);
}

int64_t OfferTopNFromLogits(const float* logits, int64_t rows, int64_t k,
                            int64_t stride, const data::ItemId* items,
                            ScoreRule rule, TopNAccumulator* top) {
  IMSR_CHECK(items != nullptr);
  return OfferRows(logits, rows, k, stride, 0, items, rule, top);
}

const char* ScoreRuleName(ScoreRule rule) {
  switch (rule) {
    case ScoreRule::kAttentive:
      return "attentive";
    case ScoreRule::kMaxInterest:
      return "max";
  }
  return "?";
}

bool ScoreRuleFromName(const std::string& name, ScoreRule* rule,
                       std::string* error) {
  IMSR_CHECK(rule != nullptr);
  if (name == "attentive") {
    *rule = ScoreRule::kAttentive;
    return true;
  }
  if (name == "max" || name == "max-interest") {
    *rule = ScoreRule::kMaxInterest;
    return true;
  }
  if (error != nullptr) {
    *error = "unknown score rule '" + name +
             "' (valid: attentive, max)";
  }
  return false;
}

void ScoreAllItemsInto(const nn::Tensor& interests,
                       const nn::Tensor& item_embeddings, ScoreRule rule,
                       RankScratch* scratch) {
  IMSR_CHECK_EQ(interests.dim(), 2);
  ScoreAllItemsInto(nn::ViewOf(interests), item_embeddings, rule, scratch);
}

void ScoreAllItemsInto(nn::ConstMatrixView interests,
                       const nn::Tensor& item_embeddings, ScoreRule rule,
                       RankScratch* scratch) {
  IMSR_CHECK(scratch != nullptr);
  IMSR_CHECK(interests.data != nullptr);
  IMSR_CHECK_EQ(item_embeddings.dim(), 2);
  IMSR_CHECK_EQ(interests.cols, item_embeddings.size(1));
  const int64_t num_items = item_embeddings.size(0);
  const int64_t k = interests.rows;

  // logits = E H^T, one row of K interest scores per item, through the
  // serve sweep's panel kernel so every score carries the served bits.
  nn::PanelizeKMajorInto(item_embeddings, &scratch->panels);
  nn::MatMulTransBPanelInto(nn::ViewOf(scratch->panels), interests,
                            &scratch->logits);
  scratch->scores.resize(static_cast<size_t>(num_items));
  ScoresFromLogits(scratch->logits.data(), num_items, k, rule,
                   scratch->scores.data());
}

std::vector<float> ScoreAllItems(const nn::Tensor& interests,
                                 const nn::Tensor& item_embeddings,
                                 ScoreRule rule) {
  RankScratch scratch;
  ScoreAllItemsInto(interests, item_embeddings, rule, &scratch);
  return std::move(scratch.scores);
}

int64_t TargetRankFromScores(const std::vector<float>& scores,
                             data::ItemId target) {
  IMSR_CHECK(target >= 0 &&
             target < static_cast<data::ItemId>(scores.size()));
  const float target_score = scores[static_cast<size_t>(target)];
  int64_t rank = 1;
  for (size_t i = 0; i < scores.size(); ++i) {
    if (static_cast<data::ItemId>(i) == target) continue;
    if (scores[i] >= target_score) ++rank;
  }
  return rank;
}

int64_t RankInServedList(
    const std::vector<std::pair<data::ItemId, float>>& items,
    data::ItemId target, int top_n) {
  const int64_t miss = static_cast<int64_t>(top_n) + 1;
  const auto hit = std::find_if(
      items.begin(), items.end(),
      [target](const std::pair<data::ItemId, float>& entry) {
        return entry.first == target;
      });
  if (hit == items.end()) return miss;
  int64_t rank = 1;
  for (const auto& [item, score] : items) {
    if (item != target && score >= hit->second) ++rank;
  }
  return std::min(rank, miss);
}

std::vector<std::pair<data::ItemId, float>> TopNFromScores(
    const std::vector<float>& scores, int n) {
  IMSR_CHECK_GT(n, 0);
  std::vector<data::ItemId> order(scores.size());
  for (size_t i = 0; i < order.size(); ++i) {
    order[i] = static_cast<data::ItemId>(i);
  }
  const size_t keep = std::min(static_cast<size_t>(n), order.size());
  std::partial_sort(order.begin(),
                    order.begin() + static_cast<int64_t>(keep), order.end(),
                    [&scores](data::ItemId a, data::ItemId b) {
                      return RanksBefore(a, scores[static_cast<size_t>(a)],
                                         b, scores[static_cast<size_t>(b)]);
                    });
  std::vector<std::pair<data::ItemId, float>> top;
  top.reserve(keep);
  for (size_t i = 0; i < keep; ++i) {
    top.emplace_back(order[i], scores[static_cast<size_t>(order[i])]);
  }
  return top;
}

int64_t TargetRank(const nn::Tensor& interests,
                   const nn::Tensor& item_embeddings, data::ItemId target,
                   ScoreRule rule) {
  IMSR_CHECK(target >= 0 && target < item_embeddings.size(0));
  return TargetRankFromScores(
      ScoreAllItems(interests, item_embeddings, rule), target);
}

std::vector<std::pair<data::ItemId, float>> TopNItems(
    const nn::Tensor& interests, const nn::Tensor& item_embeddings, int n,
    ScoreRule rule) {
  return TopNFromScores(ScoreAllItems(interests, item_embeddings, rule), n);
}

}  // namespace imsr::eval
