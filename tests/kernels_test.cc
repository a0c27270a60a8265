// Equivalence and determinism properties of the blocked nn kernels: every
// fast path must match a naive reference within 1e-5 and produce bitwise
// identical results regardless of the pool's thread count.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <utility>
#include <vector>

#include "eval/ranker.h"
#include "nn/optim.h"
#include "nn/tensor.h"
#include "nn/variable.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace imsr {
namespace {

// Naive jki reference matmul, independent of the production kernel.
nn::Tensor ReferenceMatMul(const nn::Tensor& a, const nn::Tensor& b) {
  const int64_t m = a.size(0);
  const int64_t k = a.size(1);
  const int64_t n = b.size(1);
  nn::Tensor out({m, n});
  for (int64_t i = 0; i < m; ++i) {
    for (int64_t j = 0; j < n; ++j) {
      float acc = 0.0f;
      for (int64_t kk = 0; kk < k; ++kk) {
        acc += a.at(i, kk) * b.at(kk, j);
      }
      out.at(i, j) = acc;
    }
  }
  return out;
}

// Naive A * B^T with every element accumulated over ascending kk from
// 0.0f — the sequential dot order the order-preserving kernels must
// reproduce bit for bit.
nn::Tensor ReferenceMatMulTransB(const nn::Tensor& a, const nn::Tensor& b) {
  const int64_t m = a.size(0);
  const int64_t k = a.size(1);
  const int64_t n = b.size(0);
  nn::Tensor out({m, n});
  for (int64_t i = 0; i < m; ++i) {
    for (int64_t j = 0; j < n; ++j) {
      float acc = 0.0f;
      for (int64_t kk = 0; kk < k; ++kk) {
        acc += a.at(i, kk) * b.at(j, kk);
      }
      out.at(i, j) = acc;
    }
  }
  return out;
}

const std::vector<std::vector<int64_t>> kShapes = {
    // {m, k, n} — odd sizes exercise every panel-remainder path.
    {1, 1, 1}, {1, 5, 1},  {2, 3, 4},  {3, 7, 5},   {4, 4, 4},
    {5, 2, 9}, {7, 17, 3}, {8, 32, 6}, {33, 13, 21}, {64, 32, 32},
};

TEST(KernelsTest, MatMulMatchesNaiveReference) {
  util::Rng rng(101);
  for (const auto& shape : kShapes) {
    const nn::Tensor a = nn::Tensor::Randn({shape[0], shape[1]}, rng);
    const nn::Tensor b = nn::Tensor::Randn({shape[1], shape[2]}, rng);
    EXPECT_LE(nn::MaxAbsDiff(nn::MatMul(a, b), ReferenceMatMul(a, b)),
              1e-5f)
        << shape[0] << "x" << shape[1] << "x" << shape[2];
  }
}

TEST(KernelsTest, MatMulTransBMatchesMaterialisedTranspose) {
  util::Rng rng(102);
  for (const auto& shape : kShapes) {
    const nn::Tensor a = nn::Tensor::Randn({shape[0], shape[1]}, rng);
    const nn::Tensor b = nn::Tensor::Randn({shape[2], shape[1]}, rng);
    EXPECT_LE(nn::MaxAbsDiff(nn::MatMulTransB(a, b),
                             ReferenceMatMul(a, nn::Transpose(b))),
              1e-5f)
        << shape[0] << "x" << shape[1] << "x" << shape[2];
  }
}

TEST(KernelsTest, MatMulTransAMatchesMaterialisedTranspose) {
  util::Rng rng(103);
  for (const auto& shape : kShapes) {
    const nn::Tensor a = nn::Tensor::Randn({shape[1], shape[0]}, rng);
    const nn::Tensor b = nn::Tensor::Randn({shape[1], shape[2]}, rng);
    EXPECT_LE(nn::MaxAbsDiff(nn::MatMulTransA(a, b),
                             ReferenceMatMul(nn::Transpose(a), b)),
              1e-5f)
        << shape[0] << "x" << shape[1] << "x" << shape[2];
  }
}

TEST(KernelsTest, MatMulTransBIntoReusesBuffer) {
  util::Rng rng(104);
  const nn::Tensor a1 = nn::Tensor::Randn({9, 8}, rng);
  const nn::Tensor b1 = nn::Tensor::Randn({5, 8}, rng);
  const nn::Tensor a2 = nn::Tensor::Randn({9, 8}, rng);
  nn::Tensor out;
  nn::MatMulTransBInto(a1, b1, &out);
  EXPECT_LE(nn::MaxAbsDiff(out, nn::MatMulTransB(a1, b1)), 0.0f);
  const float* storage = out.data();
  nn::MatMulTransBInto(a2, b1, &out);  // same shape: buffer reused
  EXPECT_EQ(out.data(), storage);
  EXPECT_LE(nn::MaxAbsDiff(out, nn::MatMulTransB(a2, b1)), 0.0f);
}

// Kernels dispatched over the pool must be bitwise identical for 1 and N
// threads (row-partitioned work, fixed per-row accumulation order).
TEST(KernelsTest, LargeKernelsBitwiseIdenticalAcrossThreadCounts) {
  util::Rng rng(108);
  // Big enough to cross the pool-dispatch threshold.
  const nn::Tensor a = nn::Tensor::Randn({257, 65}, rng);
  const nn::Tensor b = nn::Tensor::Randn({65, 63}, rng);
  const nn::Tensor bt = nn::Tensor::Randn({63, 65}, rng);
  const nn::Tensor wide = nn::Tensor::Randn({3000, 100}, rng);

  util::SetGlobalThreadCount(1);
  const nn::Tensor mm1 = nn::MatMul(a, b);
  const nn::Tensor tb1 = nn::MatMulTransB(a, bt);
  const nn::Tensor sm1 = nn::Softmax(wide);

  for (int threads : {2, 5}) {
    util::SetGlobalThreadCount(threads);
    EXPECT_EQ(mm1.storage(), nn::MatMul(a, b).storage())
        << "threads=" << threads;
    EXPECT_EQ(tb1.storage(), nn::MatMulTransB(a, bt).storage())
        << "threads=" << threads;
    EXPECT_EQ(sm1.storage(), nn::Softmax(wide).storage())
        << "threads=" << threads;
  }
  util::SetGlobalThreadCount(1);
}

TEST(KernelsTest, AdamStepBitwiseIdenticalAcrossThreadCounts) {
  auto run = [](int threads) {
    util::SetGlobalThreadCount(threads);
    util::Rng rng(109);
    nn::Var parameter(nn::Tensor::Randn({1200, 32}, rng), true);
    nn::Adam adam(nn::Adam::Config{});
    adam.Register(parameter);
    for (int step = 0; step < 3; ++step) {
      parameter.ZeroGrad();
      parameter.node()->AccumulateGrad(
          nn::Tensor::Randn(parameter.value().shape(), rng));
      adam.Step();
    }
    return parameter.value().storage();
  };
  const std::vector<float> serial = run(1);
  EXPECT_EQ(serial, run(4));
  util::SetGlobalThreadCount(1);
}

// The serve scoring kernel: A supplied in the panelized k-major layout,
// SIMD lanes across output rows, every element's kk accumulation
// strictly sequential. Its bits must equal the sequential-kk reference
// for ANY operand width and any thread count — that width invariance is
// the RecommendBatch == RecommendOne contract. m values cover lane
// remainders (non-multiple-of-8), a compact partial last panel
// (m < 1024 and m = 2001 = 1024 + 977), and both the serial and
// pool-dispatched regimes; n straddles the A * B^T wide/narrow dispatch
// boundary.
TEST(KernelsTest, MatMulTransBPanelMatchesScalarOrderAnyWidth) {
  util::Rng rng(111);
  for (int64_t m : {5, 12, 300, 2001}) {
    const nn::Tensor a = nn::Tensor::Randn({m, 24}, rng);
    nn::Tensor panels;
    nn::PanelizeKMajorInto(a, &panels);
    for (int64_t n : {1, 2, 3, 8, 12, 51}) {
      const nn::Tensor b = nn::Tensor::Randn({n, 24}, rng);
      const nn::Tensor expected = ReferenceMatMulTransB(a, b);
      for (int threads : {1, 3}) {
        util::SetGlobalThreadCount(threads);
        nn::Tensor out;
        nn::MatMulTransBPanelInto(nn::ViewOf(panels), nn::ViewOf(b), &out);
        EXPECT_EQ(out.storage(), expected.storage())
            << "m=" << m << " n=" << n << " threads=" << threads;
      }
      util::SetGlobalThreadCount(1);
    }
  }
}

// The gathered A * B^T (IVF re-rank) runs the panel kernel on rows
// gathered into the panel layout: every gathered row must memcmp the
// matching row of the full panel product (the exact serve sweep's
// bits) at every width, for repeated and reversed indices, and when the
// gather itself spans more than one panel (m = 1500).
TEST(KernelsTest, MatMulTransBGatherRowsMatchFullProductBitwise) {
  util::Rng rng(112);
  const std::vector<std::pair<int64_t, int64_t>> shapes = {
      {15, 8}, {16, 1}, {16, 7}, {16, 8}, {300, 3}, {300, 12}, {1500, 5}};
  for (const auto& [m, n] : shapes) {
    for (int64_t k : {5, 24}) {
      const nn::Tensor a = nn::Tensor::Randn({m, k}, rng);
      const nn::Tensor b = nn::Tensor::Randn({n, k}, rng);
      nn::Tensor panels;
      nn::PanelizeKMajorInto(a, &panels);
      nn::Tensor full;
      nn::MatMulTransBPanelInto(nn::ViewOf(panels), nn::ViewOf(b), &full);
      std::vector<int64_t> rows = {0, m / 2, 0, m - 1, m / 2};
      for (int64_t r = m - 1; r >= 0; --r) rows.push_back(r);
      nn::Tensor gathered;
      nn::Tensor out;
      nn::MatMulTransBGatherInto(a, nn::ViewOf(b), rows.data(),
                                 static_cast<int64_t>(rows.size()),
                                 &gathered, &out);
      ASSERT_EQ(out.size(0), static_cast<int64_t>(rows.size()));
      ASSERT_EQ(out.size(1), n);
      for (size_t r = 0; r < rows.size(); ++r) {
        EXPECT_EQ(std::memcmp(out.data() + static_cast<int64_t>(r) * n,
                              full.data() + rows[r] * n,
                              static_cast<size_t>(n) * sizeof(float)),
                  0)
            << "m=" << m << " n=" << n << " k=" << k << " row " << r
            << " (index " << rows[r] << ")";
      }
    }
  }
}

// Width invariance directly: one fused call over concatenated operands
// equals per-operand calls column-for-column, bit for bit; and the
// blocked row-range sweep (the serve scoring loop's shape) reproduces
// the full product wherever the block boundaries land, including blocks
// that straddle a panel boundary. This is the exact shape of the serve
// micro-batch (users' interest rows packed into one operand, per-user
// columns read back strided out of block tiles).
TEST(KernelsTest, MatMulTransBPanelFusedColumnsMatchPerOperand) {
  util::Rng rng(113);
  const int64_t m = 1500, d = 24;  // spans two panels (1024 + 476)
  const nn::Tensor a = nn::Tensor::Randn({m, d}, rng);
  nn::Tensor panels;
  nn::PanelizeKMajorInto(a, &panels);
  const std::vector<int64_t> widths = {3, 2, 4, 3};
  int64_t total = 0;
  for (int64_t w : widths) total += w;
  const nn::Tensor packed = nn::Tensor::Randn({total, d}, rng);
  nn::Tensor fused;
  nn::MatMulTransBPanelInto(nn::ViewOf(panels), nn::ViewOf(packed), &fused);
  int64_t offset = 0;
  for (size_t u = 0; u < widths.size(); ++u) {
    const int64_t w = widths[u];
    nn::Tensor solo;
    nn::MatMulTransBPanelInto(
        nn::ViewOf(panels), {packed.data() + offset * d, w, d}, &solo);
    for (int64_t i = 0; i < m; ++i) {
      for (int64_t j = 0; j < w; ++j) {
        ASSERT_EQ(fused.at(i, offset + j), solo.at(i, j))
            << "operand=" << u << " i=" << i << " j=" << j;
      }
    }
    offset += w;
  }
  // Range sweep: odd-sized blocks that do not divide the panel size, so
  // some cross the panel seam mid-block.
  std::vector<float> tile(707 * total);
  for (int64_t b0 = 0; b0 < m; b0 += 707) {
    const int64_t b1 = std::min<int64_t>(m, b0 + 707);
    nn::MatMulTransBPanelRangeInto(nn::ViewOf(panels), nn::ViewOf(packed),
                                   b0, b1, tile.data());
    for (int64_t i = b0; i < b1; ++i) {
      for (int64_t j = 0; j < total; ++j) {
        ASSERT_EQ(tile[static_cast<size_t>((i - b0) * total + j)],
                  fused.at(i, j))
            << "block@" << b0 << " i=" << i << " j=" << j;
      }
    }
  }
}

TEST(KernelsTest, RankerPrecomputedScoresMatchFromScratchPaths) {
  util::Rng rng(110);
  const nn::Tensor items = nn::Tensor::Randn({120, 16}, rng);
  const nn::Tensor interests_a = nn::Tensor::Randn({4, 16}, rng);
  const nn::Tensor interests_b = nn::Tensor::Randn({6, 16}, rng);

  for (auto rule : {eval::ScoreRule::kAttentive,
                    eval::ScoreRule::kMaxInterest}) {
    eval::RankScratch scratch;
    // Scratch reuse across users with different K must not leak state.
    for (const nn::Tensor* interests : {&interests_a, &interests_b}) {
      eval::ScoreAllItemsInto(*interests, items, rule, &scratch);
      const std::vector<float> fresh =
          eval::ScoreAllItems(*interests, items, rule);
      ASSERT_EQ(scratch.scores.size(), fresh.size());
      EXPECT_EQ(scratch.scores, fresh);

      for (data::ItemId target : {0, 7, 119}) {
        EXPECT_EQ(eval::TargetRankFromScores(scratch.scores, target),
                  eval::TargetRank(*interests, items, target, rule));
      }
      EXPECT_EQ(eval::TopNFromScores(scratch.scores, 10),
                eval::TopNItems(*interests, items, 10, rule));
    }
  }
}

// TopNFromScores breaks ties by item id, so tied items have one order on
// every path. Duplicated item rows score identically, which puts exact
// ties everywhere, including across the N-th place.
TEST(KernelsTest, RankerTopNBreaksTiesByItemId) {
  util::Rng rng(111);
  const nn::Tensor base = nn::Tensor::Randn({40, 8}, rng);
  nn::Tensor items({200, 8});
  for (int64_t i = 0; i < 200; ++i) {
    for (int64_t d = 0; d < 8; ++d) items.at(i, d) = base.at(i % 40, d);
  }
  const nn::Tensor interests = nn::Tensor::Randn({3, 8}, rng);
  for (auto rule : {eval::ScoreRule::kAttentive,
                    eval::ScoreRule::kMaxInterest}) {
    const std::vector<float> scores =
        eval::ScoreAllItems(interests, items, rule);
    std::vector<std::pair<data::ItemId, float>> sorted;
    for (data::ItemId i = 0; i < 200; ++i) {
      sorted.emplace_back(i, scores[static_cast<size_t>(i)]);
    }
    std::sort(sorted.begin(), sorted.end(), [](const auto& a, const auto& b) {
      if (a.second != b.second) return a.second > b.second;
      return a.first < b.first;
    });
    for (int n : {1, 3, 7, 37, 200, 205}) {
      const size_t keep = std::min<size_t>(static_cast<size_t>(n), 200);
      const std::vector<std::pair<data::ItemId, float>> want(
          sorted.begin(), sorted.begin() + static_cast<int64_t>(keep));
      EXPECT_EQ(eval::TopNFromScores(scores, n), want) << "n=" << n;
      EXPECT_EQ(eval::TopNItems(interests, items, n, rule), want)
          << "n=" << n;
    }
    // Each score appears five times, as items i, i+40, ..., i+160.
    EXPECT_EQ(sorted[1].first, sorted[0].first + 40);
  }
}

// The pruning bound must hold for the score *as computed*, which under
// kAttentive can round above the max logit; the rows below make it do so
// (near-equal logits) across k, magnitudes from subnormal to 1e30, and
// mixed signs.
TEST(KernelsTest, ScoreUpperBoundCoversRoundedScore) {
  util::Rng rng(112);
  int64_t above_max = 0;
  for (int64_t k : {1, 2, 3, 5, 12, 64, 200}) {
    for (float magnitude : {1e-42f, 1e-30f, 1.0f, 1e4f, 1e30f}) {
      std::vector<float> row(static_cast<size_t>(k));
      for (int trial = 0; trial < 400; ++trial) {
        const nn::Tensor noise = nn::Tensor::Randn({k}, rng);
        const float center = magnitude * (1.0f + noise.data()[0] * 0.5f);
        for (int64_t j = 0; j < k; ++j) {
          const float x = noise.data()[j];
          switch (trial % 4) {
            case 0:  // all equal
              row[static_cast<size_t>(j)] = center;
              break;
            case 1:  // within a few ulps
              row[static_cast<size_t>(j)] = center * (1.0f + x * 1e-7f);
              break;
            case 2:  // mixed signs
              row[static_cast<size_t>(j)] = magnitude * x;
              break;
            default:  // one large logit beside small ones of both signs
              row[static_cast<size_t>(j)] = j == 0 ? center : center * x * 1e-3f;
          }
        }
        float hi = row[0];
        for (float v : row) hi = std::max(hi, v);
        const float attentive =
            eval::ScoreFromLogits(row.data(), k, eval::ScoreRule::kAttentive);
        above_max += attentive > hi;
        EXPECT_LE(attentive, eval::ScoreUpperBound(
                                 row.data(), k, eval::ScoreRule::kAttentive))
            << "k=" << k << " magnitude=" << magnitude << " trial=" << trial;
        EXPECT_EQ(eval::ScoreFromLogits(row.data(), k,
                                        eval::ScoreRule::kMaxInterest),
                  eval::ScoreUpperBound(row.data(), k,
                                        eval::ScoreRule::kMaxInterest));
      }
    }
  }
  // The slack is not decoration: some computed scores exceed the max.
  EXPECT_GT(above_max, 0);
}

// The streaming accumulator keeps exactly TopNFromScores' list, whatever
// order the candidates arrive in, with heavy ties.
TEST(KernelsTest, TopNAccumulatorMatchesTopNFromScores) {
  util::Rng rng(113);
  const int64_t num_items = 300;
  std::vector<float> scores(static_cast<size_t>(num_items));
  for (float& score : scores) {
    score = static_cast<float>(rng.NextBelow(25)) - 12.0f;  // many ties
  }
  std::vector<data::ItemId> order(static_cast<size_t>(num_items));
  for (data::ItemId i = 0; i < num_items; ++i) {
    order[static_cast<size_t>(i)] = i;
  }
  eval::TopNAccumulator top;
  for (int64_t capacity : {int64_t{1}, int64_t{5}, int64_t{64}, num_items,
                           num_items + 3}) {
    for (int pass = 0; pass < 3; ++pass) {
      if (pass > 0) {
        for (size_t j = order.size() - 1; j > 0; --j) {
          std::swap(order[j], order[rng.NextBelow(j + 1)]);
        }
      }
      top.Reset(capacity);
      for (data::ItemId item : order) {
        top.Offer(item, scores[static_cast<size_t>(item)]);
      }
      EXPECT_EQ(top.Finish(),
                eval::TopNFromScores(scores, static_cast<int>(capacity)))
          << "capacity=" << capacity << " pass=" << pass;
      EXPECT_EQ(top.Finish().size(),
                static_cast<size_t>(std::min(capacity, num_items)));
    }
  }
}

}  // namespace
}  // namespace imsr
