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

// k-means fit: Lloyd iterations over a strided sample of at most
// kTrainSample items (every item is still assigned to a list
// afterwards).
constexpr int kKmeansIters = 4;
constexpr int64_t kTrainSample = 65536;

// Query rows scored per pass over a code block: the K x 16 int32 tile
// for kScanCols queries stays in registers while the block streams by.
constexpr int64_t kScanCols = 4;

// Dimensions of a code block widened to int32 at a time (a 4 KiB stack
// strip); wider embeddings take several strips per block.
constexpr int64_t kScanStripDims = 64;

// Code blocks per DotCodeBlocks call of the search scan. A long list is
// scanned in chunks of this many blocks, so the dots/logits scratch stays
// cache-resident and never grows with the corpus.
constexpr int64_t kScanChunkBlocks = 32;

// Symmetric per-row int8 quantization: scale = maxabs / 127 (1.0 guards
// an all-zero row), code = round(x / scale) clamped to [-127, 127],
// written to codes[i * stride].
float QuantizeRow(const float* row, int64_t n, int8_t* codes,
                  int64_t stride = 1) {
  float maxabs = 0.0f;
  for (int64_t i = 0; i < n; ++i) {
    maxabs = std::max(maxabs, std::fabs(row[i]));
  }
  const float scale = maxabs > 0.0f ? maxabs / 127.0f : 1.0f;
  for (int64_t i = 0; i < n; ++i) {
    const long q = std::lroundf(row[i] / scale);
    codes[i * stride] = static_cast<int8_t>(std::clamp<long>(q, -127, 127));
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
                   const std::vector<float>& centroid_norms,
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
    util::ParallelChunks(rows, /*threads=*/0, [&](int64_t begin, int64_t end) {
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

// Each block is first widened to int32 (a strip of dimensions at a
// time), so the multiply-add loop runs on full-width int32 lanes across
// the block's 16 rows and one widening serves every query. Integer
// addition is exact, so any lane split or clone gives the scalar loop's
// bits.
IMSR_HOT_BEGIN
IMSR_SIMD_CLONES
void DotCodeBlocks(const int8_t* __restrict__ blocks, int64_t num_blocks,
                   int64_t dim, const int8_t* __restrict__ queries, int64_t k,
                   int32_t* __restrict__ dots) {
  constexpr int64_t kRows = kCodeBlockRows;
  int32_t wide[kScanStripDims * kRows];
  for (int64_t b = 0; b < num_blocks; ++b) {
    int32_t* out = dots + b * kRows * k;
    for (int64_t t0 = 0; t0 < dim; t0 += kScanStripDims) {
      const int64_t tn = std::min(kScanStripDims, dim - t0);
      const int8_t* strip = blocks + (b * dim + t0) * kRows;
      IMSR_SIMD_PRAGMA()
      for (int64_t i = 0; i < tn * kRows; ++i) wide[i] = strip[i];
      for (int64_t j0 = 0; j0 < k; j0 += kScanCols) {
        const int64_t jn = std::min(kScanCols, k - j0);
        int32_t acc[kScanCols][kRows];
        for (int64_t jj = 0; jj < jn; ++jj) {
          for (int64_t r = 0; r < kRows; ++r) {
            acc[jj][r] = t0 == 0 ? 0 : out[r * k + j0 + jj];
          }
        }
        for (int64_t t = 0; t < tn; ++t) {
          const int32_t* codes = wide + t * kRows;
          for (int64_t jj = 0; jj < jn; ++jj) {
            const int32_t q = queries[(j0 + jj) * dim + t0 + t];
            IMSR_SIMD_PRAGMA()
            for (int64_t r = 0; r < kRows; ++r) acc[jj][r] += codes[r] * q;
          }
        }
        for (int64_t jj = 0; jj < jn; ++jj) {
          for (int64_t r = 0; r < kRows; ++r) {
            out[r * k + j0 + jj] = acc[jj][r];
          }
        }
      }
    }
  }
}
IMSR_HOT_END

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
  const int64_t train_count = std::min(num_items_, kTrainSample);
  std::vector<int64_t> train_ids(static_cast<size_t>(train_count));
  for (int64_t i = 0; i < train_count; ++i) {
    train_ids[static_cast<size_t>(i)] = (i * num_items_) / train_count;
  }
  std::vector<int32_t> assignment;
  std::vector<float> centroid_norms = RowSquaredNorms(centroids_);
  std::vector<float> sums;
  std::vector<int64_t> counts;
  for (int iter = 0; iter < kKmeansIters; ++iter) {
    AssignNearest(embeddings, train_ids, centroids_, centroid_norms,
                  &assignment);
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
                &assignment);
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

  // int8 codes in list order (scan locality), quantized straight into
  // 16-row d-major blocks: list position p's code for dimension t sits
  // at (p / 16) * 16 * d + t * 16 + p % 16. Padding rows of the last
  // block stay zero.
  const int64_t num_blocks =
      (num_items_ + kCodeBlockRows - 1) / kCodeBlockRows;
  codes_.assign(static_cast<size_t>(num_blocks * kCodeBlockRows * dim_), 0);
  scales_.resize(static_cast<size_t>(num_items_));
  util::ParallelChunks(
      num_blocks, /*threads=*/0, [&](int64_t begin, int64_t end) {
        for (int64_t p = begin * kCodeBlockRows;
             p < std::min(num_items_, end * kCodeBlockRows); ++p) {
          const data::ItemId item = list_items_[static_cast<size_t>(p)];
          int8_t* block =
              codes_.data() + (p / kCodeBlockRows) * kCodeBlockRows * dim_;
          scales_[static_cast<size_t>(p)] = QuantizeRow(
              embeddings.data() + int64_t{item} * dim_, dim_,
              block + p % kCodeBlockRows, kCodeBlockRows);
        }
      });

  // Default probe width is a constant, not a fraction of C: how many
  // lists a query's neighborhood straddles depends on the local cluster
  // geometry, not on how many lists exist. 6 holds recall@20 >= 0.95 on
  // clustered corpora (tests/ann_test.cc) while scanning only
  // ~nprobe*K/C of the corpus.
  default_nprobe_ = static_cast<int>(std::min<int64_t>(num_centroids, 6));

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

  scratch->query_codes.resize(
      static_cast<size_t>(num_interests * dim_));
  scratch->query_scales.resize(static_cast<size_t>(num_interests));
  for (int64_t j = 0; j < num_interests; ++j) {
    scratch->query_scales[static_cast<size_t>(j)] =
        QuantizeRow(interests.data + j * dim_, dim_,
                    scratch->query_codes.data() + j * dim_);
  }

  // Probe: the nearest lists per interest, ties to the lower list id.
  scratch->centroid_scores.resize(static_cast<size_t>(num_centroids));
  scratch->probe_order.resize(static_cast<size_t>(num_centroids));
  scratch->probed_lists.resize(
      static_cast<size_t>(num_interests * probes_per_interest));
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
    // Rank-major: the t-th nearest list of interest j at t * K + j.
    for (int64_t t = 0; t < probes_per_interest; ++t) {
      scratch->probed_lists[static_cast<size_t>(t * num_interests + j)] =
          scratch->probe_order[static_cast<size_t>(t)];
    }
    local.probes += probes_per_interest;
  }
  // Lists are disjoint, so scanning each distinct probed list once visits
  // every candidate item exactly once. Scan order cannot change the
  // shortlist, only how much the bound prunes: every interest's nearest
  // list comes first, so the threshold rises early.
  std::vector<int32_t>& lists = scratch->probed_lists;
  std::vector<uint8_t>& seen = scratch->list_seen;
  seen.resize(static_cast<size_t>(num_centroids), 0);
  size_t distinct = 0;
  for (size_t i = 0; i < lists.size(); ++i) {
    const size_t list = static_cast<size_t>(lists[i]);
    if (seen[list] != 0) continue;
    seen[list] = 1;
    lists[distinct++] = lists[i];
  }
  lists.resize(distinct);
  for (const int32_t list : lists) seen[static_cast<size_t>(list)] = 0;

  // Scan: each list's code blocks against all K query codes, dequantized
  // to approximate logits and offered to the shortlist under the bound.
  // The kept set is the best `capacity` candidates under RanksBefore —
  // the same set for any scan order.
  const int64_t capacity = std::max<int64_t>(
      static_cast<int64_t>(top_n) * kRerankFactor, min_rerank_);
  eval::TopNAccumulator& shortlist = scratch->shortlist;
  shortlist.Reset(capacity);
  const int64_t chunk_rows = kScanChunkBlocks * kCodeBlockRows;
  scratch->dots.resize(static_cast<size_t>(chunk_rows * num_interests));
  scratch->approx_logits.resize(
      static_cast<size_t>(chunk_rows * num_interests));
  const float* query_scales = scratch->query_scales.data();
  int32_t* dots = scratch->dots.data();
  float* approx = scratch->approx_logits.data();
  IMSR_OBS_ONLY(int64_t reduced = 0;)
  for (const int32_t list : lists) {
    const int64_t begin = list_begin_[static_cast<size_t>(list)];
    const int64_t end = list_begin_[static_cast<size_t>(list) + 1];
    local.shortlist += end - begin;
    for (int64_t r0 = begin; r0 < end;) {
      const int64_t b0 = r0 / kCodeBlockRows;
      const int64_t b1 = std::min(b0 + kScanChunkBlocks,
                                  (end + kCodeBlockRows - 1) / kCodeBlockRows);
      const int64_t r1 = std::min(end, b1 * kCodeBlockRows);
      DotCodeBlocks(codes_.data() + b0 * kCodeBlockRows * dim_, b1 - b0,
                    dim_, scratch->query_codes.data(), num_interests, dots);
      const int32_t* first = dots + (r0 - b0 * kCodeBlockRows) * num_interests;
      for (int64_t p = r0; p < r1; ++p) {
        const float scale = scales_[static_cast<size_t>(p)];
        const int64_t row = (p - r0) * num_interests;
        for (int64_t j = 0; j < num_interests; ++j) {
          approx[row + j] =
              scale * query_scales[j] * static_cast<float>(first[row + j]);
        }
      }
      [[maybe_unused]] const int64_t chunk_reduced = eval::OfferTopNFromLogits(
          approx, r1 - r0, num_interests, num_interests,
          list_items_.data() + r0, rule, &shortlist);
      IMSR_OBS_ONLY(reduced += chunk_reduced;)
      r0 = r1;
    }
  }
  IMSR_OBS_ONLY({
    IMSR_COUNTER_ADD("serve/ivf_scan_rows_reduced", reduced);
    IMSR_COUNTER_ADD("serve/ivf_scan_rows_skipped", local.shortlist - reduced);
  })

  // Exact float re-rank of the shortlist, best approximate first: the
  // gathered panel kernel + the shared per-row reduction reproduce the
  // exact sweep's bits for every shortlisted item.
  top->clear();
  const std::vector<std::pair<data::ItemId, float>>& kept =
      shortlist.Finish();
  const int64_t rerank = static_cast<int64_t>(kept.size());
  if (rerank > 0) {
    scratch->rerank_rows.resize(static_cast<size_t>(rerank));
    for (int64_t r = 0; r < rerank; ++r) {
      scratch->rerank_rows[static_cast<size_t>(r)] =
          kept[static_cast<size_t>(r)].first;
    }
    nn::MatMulTransBGatherInto(embeddings, interests,
                               scratch->rerank_rows.data(), rerank,
                               &scratch->gathered, &scratch->logits);
    eval::TopNAccumulator& best = scratch->top;
    best.Reset(std::min<int64_t>(top_n, rerank));
    for (int64_t r = 0; r < rerank; ++r) {
      best.Offer(kept[static_cast<size_t>(r)].first,
                 eval::ScoreFromLogits(
                     scratch->logits.data() + r * num_interests,
                     num_interests, rule));
    }
    *top = best.Finish();
  }
  local.reranked = rerank;

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
  int32_t dots[kCodeBlockRows];
  const int64_t block = position / kCodeBlockRows;
  DotCodeBlocks(codes_.data() + block * kCodeBlockRows * dim_, 1, dim_,
                query_codes.data(), 1, dots);
  return scales_[static_cast<size_t>(position)] * query_scale *
         static_cast<float>(dots[position % kCodeBlockRows]);
}

}  // namespace imsr::serve
