#include "serve/ivf_index.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <numeric>

#include "nn/simd.h"
#include "obs/obs.h"
#include "util/check.h"
#include "util/hot.h"
#include "util/parallel.h"
#include "util/stopwatch.h"

namespace imsr::serve {
namespace {

// Items per blocked assignment pass. Fixed, so block boundaries cannot
// depend on thread count and the built index is bitwise deterministic.
constexpr int64_t kAssignBlock = 4096;

// Integer dot of two int8 code rows. Integer addition is exactly
// associative, so the vectorized reduction is bitwise identical to the
// scalar chain.
IMSR_HOT_BEGIN
IMSR_SIMD_CLONES
int32_t DotI8(const int8_t* __restrict__ a, const int8_t* __restrict__ b,
              int64_t n) {
  int32_t acc = 0;
  IMSR_SIMD_PRAGMA(reduction(+ : acc))
  for (int64_t i = 0; i < n; ++i) {
    acc += static_cast<int32_t>(a[i]) * static_cast<int32_t>(b[i]);
  }
  return acc;
}
IMSR_HOT_END

// Symmetric per-row int8 quantization: scale = maxabs / 127 (1.0 guards
// an all-zero row), code = round(x / scale) clamped to [-127, 127].
float QuantizeRow(const float* row, int64_t n, int8_t* codes) {
  float maxabs = 0.0f;
  for (int64_t i = 0; i < n; ++i) {
    maxabs = std::max(maxabs, std::fabs(row[i]));
  }
  const float scale = maxabs > 0.0f ? maxabs / 127.0f : 1.0f;
  for (int64_t i = 0; i < n; ++i) {
    const long q = std::lroundf(row[i] / scale);
    codes[i] = static_cast<int8_t>(std::clamp<long>(q, -127, 127));
  }
  return scale;
}

// argmin_c ||e - c||^2 = argmin_c (|c|^2 - 2 e.c) for every row named by
// `ids`, ties to the lowest centroid id. The e.c products run through the
// blocked MatMulTransBInto kernels (pool-parallel inside, bitwise
// invariant to thread count); the argmin sweep fans out over disjoint
// row ranges.
void AssignNearest(const nn::Tensor& embeddings,
                   const std::vector<int64_t>& ids,
                   const nn::Tensor& centroids,
                   const std::vector<float>& centroid_norms, int threads,
                   std::vector<int32_t>* assignment) {
  const int64_t count = static_cast<int64_t>(ids.size());
  const int64_t num_centroids = centroids.size(0);
  assignment->resize(static_cast<size_t>(count));
  nn::Tensor gathered;
  nn::Tensor products;
  for (int64_t block = 0; block < count; block += kAssignBlock) {
    const int64_t rows = std::min(kAssignBlock, count - block);
    nn::GatherRowsInto(embeddings, ids.data() + block, rows, &gathered);
    nn::MatMulTransBInto(gathered, nn::ViewOf(centroids), &products);
    const float* dots = products.data();
    util::ParallelChunks(rows, threads, [&](int64_t begin, int64_t end) {
      for (int64_t r = begin; r < end; ++r) {
        const float* row = dots + r * num_centroids;
        int32_t best = 0;
        float best_cost = centroid_norms[0] - 2.0f * row[0];
        for (int64_t c = 1; c < num_centroids; ++c) {
          const float cost =
              centroid_norms[static_cast<size_t>(c)] - 2.0f * row[c];
          if (cost < best_cost) {
            best_cost = cost;
            best = static_cast<int32_t>(c);
          }
        }
        (*assignment)[static_cast<size_t>(block + r)] = best;
      }
    });
  }
}

std::vector<float> RowSquaredNorms(const nn::Tensor& t) {
  const int64_t rows = t.size(0);
  const int64_t cols = t.size(1);
  std::vector<float> norms(static_cast<size_t>(rows));
  for (int64_t r = 0; r < rows; ++r) {
    const float* row = t.data() + r * cols;
    norms[static_cast<size_t>(r)] = nn::DotSpan(row, row, cols);
  }
  return norms;
}

}  // namespace

const char* RetrievalModeName(RetrievalMode mode) {
  switch (mode) {
    case RetrievalMode::kExact:
      return "exact";
    case RetrievalMode::kIVF:
      return "ivf";
  }
  return "?";
}

bool RetrievalModeFromName(const std::string& name, RetrievalMode* mode,
                           std::string* error) {
  IMSR_CHECK(mode != nullptr);
  if (name == "exact") {
    *mode = RetrievalMode::kExact;
    return true;
  }
  if (name == "ivf") {
    *mode = RetrievalMode::kIVF;
    return true;
  }
  if (error != nullptr) {
    *error = "unknown retrieval mode '" + name + "' (valid: exact, ivf)";
  }
  return false;
}

IvfIndex::IvfIndex(const nn::Tensor& embeddings,
                   const core::PackedInterests& seeds,
                   const IvfBuildConfig& config) {
  IMSR_TRACE_SPAN("serve/build_index");
  IMSR_OBS_ONLY(util::Stopwatch timer;)
  IMSR_CHECK_EQ(embeddings.dim(), 2);
  num_items_ = embeddings.size(0);
  dim_ = embeddings.size(1);
  rerank_factor_ = std::max(1, config.rerank_factor);
  min_rerank_ = std::max(1, config.min_rerank);

  const int64_t num_centroids =
      config.num_centroids > 0
          ? std::min(config.num_centroids, num_items_)
          : std::clamp<int64_t>(
                static_cast<int64_t>(
                    std::ceil(std::sqrt(static_cast<double>(num_items_)))),
                1, num_items_);

  // Seed centroids from the packed interest rows — the best available
  // sketch of where queries land — topped up with strided item rows when
  // there are fewer interest rows than centroids.
  const int64_t seed_rows =
      seeds.dim == dim_ ? static_cast<int64_t>(seeds.data.size()) / dim_
                        : 0;
  centroids_ = nn::Tensor::Uninitialized({num_centroids, dim_});
  const int64_t from_interests = std::min(seed_rows, num_centroids);
  for (int64_t c = 0; c < from_interests; ++c) {
    // Strided pick spreads the seeds over every user, not just the first.
    const int64_t row = from_interests == seed_rows
                            ? c
                            : (c * seed_rows) / num_centroids;
    std::copy_n(seeds.data.data() + row * dim_, dim_,
                centroids_.data() + c * dim_);
  }
  const int64_t from_items = num_centroids - from_interests;
  for (int64_t c = 0; c < from_items; ++c) {
    const int64_t row = (c * num_items_) / from_items;
    std::copy_n(embeddings.data() + row * dim_, dim_,
                centroids_.data() + (from_interests + c) * dim_);
  }

  // Lloyd iterations over a strided training sample (every item still
  // gets a list assignment below). Assignment is per-item independent and
  // the centroid update accumulates serially in sample order, so the
  // result is bitwise identical for any thread count.
  const int64_t train_count =
      std::min(num_items_, config.train_sample > 0 ? config.train_sample
                                                   : int64_t{65536});
  std::vector<int64_t> train_ids(static_cast<size_t>(train_count));
  for (int64_t i = 0; i < train_count; ++i) {
    train_ids[static_cast<size_t>(i)] = (i * num_items_) / train_count;
  }
  std::vector<int32_t> assignment;
  std::vector<float> centroid_norms = RowSquaredNorms(centroids_);
  std::vector<float> sums;
  std::vector<int64_t> counts;
  for (int iter = 0; iter < config.kmeans_iters; ++iter) {
    AssignNearest(embeddings, train_ids, centroids_, centroid_norms,
                  config.threads, &assignment);
    sums.assign(static_cast<size_t>(num_centroids * dim_), 0.0f);
    counts.assign(static_cast<size_t>(num_centroids), 0);
    for (int64_t i = 0; i < train_count; ++i) {
      const int32_t c = assignment[static_cast<size_t>(i)];
      const float* row =
          embeddings.data() + train_ids[static_cast<size_t>(i)] * dim_;
      float* sum = sums.data() + c * dim_;
      for (int64_t k = 0; k < dim_; ++k) sum[k] += row[k];
      ++counts[static_cast<size_t>(c)];
    }
    for (int64_t c = 0; c < num_centroids; ++c) {
      const int64_t count = counts[static_cast<size_t>(c)];
      if (count == 0) continue;  // empty cluster keeps its old centroid
      const float inv = 1.0f / static_cast<float>(count);
      const float* sum = sums.data() + c * dim_;
      float* centroid = centroids_.data() + c * dim_;
      for (int64_t k = 0; k < dim_; ++k) centroid[k] = sum[k] * inv;
    }
    centroid_norms = RowSquaredNorms(centroids_);
  }

  // Final assignment of every item, then a counting sort into the flat
  // inverted lists. Iterating items in id order keeps each list's ids
  // ascending.
  std::vector<int64_t> all_ids(static_cast<size_t>(num_items_));
  std::iota(all_ids.begin(), all_ids.end(), int64_t{0});
  AssignNearest(embeddings, all_ids, centroids_, centroid_norms,
                config.threads, &assignment);
  list_begin_.assign(static_cast<size_t>(num_centroids + 1), 0);
  for (int64_t i = 0; i < num_items_; ++i) {
    ++list_begin_[static_cast<size_t>(assignment[i]) + 1];
  }
  for (int64_t c = 0; c < num_centroids; ++c) {
    list_begin_[static_cast<size_t>(c + 1)] +=
        list_begin_[static_cast<size_t>(c)];
  }
  list_items_.resize(static_cast<size_t>(num_items_));
  std::vector<int64_t> cursor(list_begin_.begin(), list_begin_.end() - 1);
  for (int64_t i = 0; i < num_items_; ++i) {
    list_items_[static_cast<size_t>(
        cursor[static_cast<size_t>(assignment[i])]++)] =
        static_cast<data::ItemId>(i);
  }

  // int8 codes in list order (scan locality): codes_[p] quantizes the
  // embedding row of list_items_[p].
  codes_.resize(static_cast<size_t>(num_items_ * dim_));
  scales_.resize(static_cast<size_t>(num_items_));
  util::ParallelChunks(
      num_items_, config.threads, [&](int64_t begin, int64_t end) {
        for (int64_t p = begin; p < end; ++p) {
          const data::ItemId item = list_items_[static_cast<size_t>(p)];
          scales_[static_cast<size_t>(p)] =
              QuantizeRow(embeddings.data() + int64_t{item} * dim_, dim_,
                          codes_.data() + p * dim_);
        }
      });

  // Default probe width is a constant, not a fraction of C: how many
  // lists a query's neighborhood straddles depends on the local cluster
  // geometry, not on how many lists exist. 6 holds recall@20 >= 0.95 on
  // clustered corpora (tests/ann_test.cc) while scanning only
  // ~nprobe*K/C of the corpus.
  default_nprobe_ = static_cast<int>(
      config.default_nprobe > 0
          ? std::min<int64_t>(config.default_nprobe, num_centroids)
          : std::min<int64_t>(num_centroids, 6));

  static std::atomic<uint64_t> next_build_id{0};
  build_id_ = ++next_build_id;

  IMSR_HISTOGRAM_RECORD("serve/index_build_ms", timer.ElapsedMillis());
  IMSR_COUNTER_ADD("serve/index_builds", 1);
  IMSR_GAUGE_SET("serve/index_centroids",
                 static_cast<double>(num_centroids));
  IMSR_GAUGE_SET("serve/index_bytes", static_cast<double>(bytes()));
}

int64_t IvfIndex::bytes() const {
  return static_cast<int64_t>(
      centroids_.numel() * sizeof(float) +
      list_begin_.size() * sizeof(int64_t) +
      list_items_.size() * sizeof(data::ItemId) +
      codes_.size() * sizeof(int8_t) + scales_.size() * sizeof(float));
}

void IvfIndex::SearchTopN(
    nn::ConstMatrixView interests, const nn::Tensor& embeddings,
    eval::ScoreRule rule, int top_n, int nprobe, Scratch* scratch,
    std::vector<std::pair<data::ItemId, float>>* top,
    IvfSearchStats* stats) const {
  IMSR_CHECK(scratch != nullptr);
  IMSR_CHECK(top != nullptr);
  IMSR_CHECK(interests.data != nullptr);
  IMSR_CHECK_GE(interests.rows, 1);
  IMSR_CHECK_EQ(interests.cols, dim_);
  IMSR_CHECK_GT(top_n, 0);
  IMSR_CHECK_EQ(embeddings.size(0), num_items_);
  const int64_t num_interests = interests.rows;
  const int64_t num_centroids = this->num_centroids();
  const int64_t probes_per_interest =
      nprobe > 0 ? std::min<int64_t>(nprobe, num_centroids)
                 : default_nprobe_;

  // Epoch-stamped visited set: one O(num_items) clear per 2^32 searches
  // instead of one per search.
  if (static_cast<int64_t>(scratch->visited.size()) != num_items_) {
    scratch->visited.assign(static_cast<size_t>(num_items_), 0);
    scratch->epoch = 0;
  }
  if (++scratch->epoch == 0) {
    std::fill(scratch->visited.begin(), scratch->visited.end(), 0u);
    scratch->epoch = 1;
  }
  const uint32_t epoch = scratch->epoch;

  scratch->query_codes.resize(
      static_cast<size_t>(num_interests * dim_));
  scratch->query_scales.resize(static_cast<size_t>(num_interests));
  scratch->approx_row.resize(static_cast<size_t>(num_interests));
  for (int64_t j = 0; j < num_interests; ++j) {
    scratch->query_scales[static_cast<size_t>(j)] =
        QuantizeRow(interests.data + j * dim_, dim_,
                    scratch->query_codes.data() + j * dim_);
  }

  scratch->candidates.clear();
  scratch->approx_scores.clear();
  scratch->centroid_scores.resize(static_cast<size_t>(num_centroids));
  scratch->probe_order.resize(static_cast<size_t>(num_centroids));
  IvfSearchStats local;
  const float* centroid_data = centroids_.data();
  for (int64_t j = 0; j < num_interests; ++j) {
    const float* query = interests.data + j * dim_;
    float* centroid_scores = scratch->centroid_scores.data();
    for (int64_t c = 0; c < num_centroids; ++c) {
      centroid_scores[c] =
          nn::DotSpan(query, centroid_data + c * dim_, dim_);
    }
    std::iota(scratch->probe_order.begin(), scratch->probe_order.end(),
              0);
    std::partial_sort(
        scratch->probe_order.begin(),
        scratch->probe_order.begin() + probes_per_interest,
        scratch->probe_order.end(), [&](int32_t a, int32_t b) {
          if (centroid_scores[a] != centroid_scores[b]) {
            return centroid_scores[a] > centroid_scores[b];
          }
          return a < b;
        });
    for (int64_t t = 0; t < probes_per_interest; ++t) {
      const int32_t list = scratch->probe_order[static_cast<size_t>(t)];
      ++local.probes;
      const int64_t begin = list_begin_[static_cast<size_t>(list)];
      const int64_t end = list_begin_[static_cast<size_t>(list) + 1];
      for (int64_t p = begin; p < end; ++p) {
        const data::ItemId item = list_items_[static_cast<size_t>(p)];
        uint32_t& stamp = scratch->visited[static_cast<size_t>(item)];
        if (stamp == epoch) continue;
        stamp = epoch;
        const int8_t* code = codes_.data() + p * dim_;
        const float scale = scales_[static_cast<size_t>(p)];
        for (int64_t jj = 0; jj < num_interests; ++jj) {
          scratch->approx_row[static_cast<size_t>(jj)] =
              scale * scratch->query_scales[static_cast<size_t>(jj)] *
              static_cast<float>(DotI8(
                  code, scratch->query_codes.data() + jj * dim_, dim_));
        }
        scratch->candidates.push_back(item);
        scratch->approx_scores.push_back(eval::ScoreFromLogits(
            scratch->approx_row.data(), num_interests, rule));
      }
    }
  }
  local.shortlist = static_cast<int64_t>(scratch->candidates.size());

  top->clear();
  if (!scratch->candidates.empty()) {
    const int64_t rerank = std::min<int64_t>(
        local.shortlist,
        std::max<int64_t>(static_cast<int64_t>(top_n) * rerank_factor_,
                          min_rerank_));
    scratch->selected.resize(scratch->candidates.size());
    std::iota(scratch->selected.begin(), scratch->selected.end(), 0);
    const std::vector<float>& approx = scratch->approx_scores;
    const std::vector<int64_t>& ids = scratch->candidates;
    std::partial_sort(scratch->selected.begin(),
                      scratch->selected.begin() + rerank,
                      scratch->selected.end(), [&](int32_t a, int32_t b) {
                        if (approx[static_cast<size_t>(a)] !=
                            approx[static_cast<size_t>(b)]) {
                          return approx[static_cast<size_t>(a)] >
                                 approx[static_cast<size_t>(b)];
                        }
                        return ids[static_cast<size_t>(a)] <
                               ids[static_cast<size_t>(b)];
                      });
    scratch->rerank_rows.resize(static_cast<size_t>(rerank));
    for (int64_t r = 0; r < rerank; ++r) {
      scratch->rerank_rows[static_cast<size_t>(r)] =
          ids[static_cast<size_t>(
              scratch->selected[static_cast<size_t>(r)])];
    }
    // Exact float re-rank: the gathered panel kernel + the shared
    // per-row reduction reproduce the exact sweep's bits for every
    // shortlisted item.
    nn::MatMulTransBGatherInto(embeddings, interests,
                               scratch->rerank_rows.data(), rerank,
                               &scratch->gathered, &scratch->logits);
    scratch->exact_scores.resize(static_cast<size_t>(rerank));
    for (int64_t r = 0; r < rerank; ++r) {
      scratch->exact_scores[static_cast<size_t>(r)] =
          eval::ScoreFromLogits(scratch->logits.data() + r * num_interests,
                                num_interests, rule);
    }
    const int64_t keep = std::min<int64_t>(top_n, rerank);
    const std::vector<float>& exact = scratch->exact_scores;
    const std::vector<int64_t>& rows = scratch->rerank_rows;
    for (int64_t r = 0; r < rerank; ++r) {
      scratch->selected[static_cast<size_t>(r)] = static_cast<int32_t>(r);
    }
    std::partial_sort(scratch->selected.begin(),
                      scratch->selected.begin() + keep,
                      scratch->selected.begin() + rerank,
                      [&](int32_t a, int32_t b) {
                        if (exact[static_cast<size_t>(a)] !=
                            exact[static_cast<size_t>(b)]) {
                          return exact[static_cast<size_t>(a)] >
                                 exact[static_cast<size_t>(b)];
                        }
                        return rows[static_cast<size_t>(a)] <
                               rows[static_cast<size_t>(b)];
                      });
    top->reserve(static_cast<size_t>(keep));
    for (int64_t r = 0; r < keep; ++r) {
      const int32_t sel = scratch->selected[static_cast<size_t>(r)];
      top->emplace_back(
          static_cast<data::ItemId>(rows[static_cast<size_t>(sel)]),
          exact[static_cast<size_t>(sel)]);
    }
    local.reranked = rerank;
  }

  IMSR_HISTOGRAM_RECORD("serve/ivf_probes",
                        static_cast<double>(local.probes));
  IMSR_HISTOGRAM_RECORD("serve/ivf_shortlist",
                        static_cast<double>(local.shortlist));
  IMSR_HISTOGRAM_RECORD("serve/ivf_rerank",
                        static_cast<double>(local.reranked));
  if (stats != nullptr) *stats = local;
}

float IvfIndex::ApproxDot(data::ItemId item, const float* query) const {
  IMSR_CHECK(item >= 0 && item < num_items_);
  int64_t position = -1;
  for (size_t p = 0; p < list_items_.size(); ++p) {
    if (list_items_[p] == item) {
      position = static_cast<int64_t>(p);
      break;
    }
  }
  IMSR_CHECK_GE(position, 0);
  std::vector<int8_t> query_codes(static_cast<size_t>(dim_));
  const float query_scale = QuantizeRow(query, dim_, query_codes.data());
  return scales_[static_cast<size_t>(position)] * query_scale *
         static_cast<float>(DotI8(codes_.data() + position * dim_,
                                  query_codes.data(), dim_));
}

}  // namespace imsr::serve
