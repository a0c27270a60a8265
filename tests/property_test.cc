// Property-based tests: invariants checked across parameter sweeps with
// TEST_P / INSTANTIATE_TEST_SUITE_P — shapes, seeds, interest counts and
// routing depths.
#include <gtest/gtest.h>

#include <cmath>
#include <tuple>

#include "core/nid.h"
#include "core/pit.h"
#include "eval/ranker.h"
#include "models/capsule_routing.h"
#include "nn/gradcheck.h"
#include "nn/ops.h"
#include "util/math_util.h"

namespace imsr {
namespace {

// ---- Softmax / squash invariants over (rows, cols, seed) ----

class TensorShapeProperty
    : public ::testing::TestWithParam<std::tuple<int, int, int>> {
 protected:
  nn::Tensor RandomMatrix() {
    auto [rows, cols, seed] = GetParam();
    util::Rng rng(static_cast<uint64_t>(seed));
    return nn::Tensor::Randn({rows, cols}, rng, 0.0f, 2.0f);
  }
};

TEST_P(TensorShapeProperty, SoftmaxRowsAreDistributions) {
  const nn::Tensor m = RandomMatrix();
  const nn::Tensor s = nn::Softmax(m);
  for (int64_t i = 0; i < m.size(0); ++i) {
    float total = 0.0f;
    for (int64_t j = 0; j < m.size(1); ++j) {
      EXPECT_GE(s.at(i, j), 0.0f);
      total += s.at(i, j);
    }
    EXPECT_NEAR(total, 1.0f, 1e-5f);
  }
}

TEST_P(TensorShapeProperty, SoftmaxPreservesRowOrdering) {
  const nn::Tensor m = RandomMatrix();
  const nn::Tensor s = nn::Softmax(m);
  for (int64_t i = 0; i < m.size(0); ++i) {
    for (int64_t j = 1; j < m.size(1); ++j) {
      if (m.at(i, j) > m.at(i, j - 1)) {
        EXPECT_GE(s.at(i, j), s.at(i, j - 1));
      }
    }
  }
}

TEST_P(TensorShapeProperty, SquashRowsBoundedAndDirectional) {
  const nn::Tensor m = RandomMatrix();
  const nn::Tensor s = nn::SquashRows(m);
  for (int64_t i = 0; i < m.size(0); ++i) {
    const nn::Tensor row_in = m.Row(i);
    const nn::Tensor row_out = s.Row(i);
    const float n_in = nn::L2NormFlat(row_in);
    const float n_out = nn::L2NormFlat(row_out);
    EXPECT_LT(n_out, 1.0f);
    // Direction preserved: cosine similarity 1 (for non-tiny rows).
    if (n_in > 1e-3f) {
      EXPECT_NEAR(nn::DotFlat(row_in, row_out), n_in * n_out, 1e-3f);
    }
  }
}

TEST_P(TensorShapeProperty, LogSumExpDominatesMax) {
  const nn::Tensor m = RandomMatrix();
  const nn::Tensor lse = nn::LogSumExpRows(m);
  for (int64_t i = 0; i < m.size(0); ++i) {
    float row_max = m.at(i, 0);
    for (int64_t j = 1; j < m.size(1); ++j) {
      row_max = std::max(row_max, m.at(i, j));
    }
    EXPECT_GE(lse.at(i), row_max - 1e-5f);
    EXPECT_LE(lse.at(i),
              row_max + std::log(static_cast<float>(m.size(1))) + 1e-4f);
  }
}

TEST_P(TensorShapeProperty, MatMulTransposeIdentity) {
  // (A B)^T == B^T A^T.
  auto [rows, cols, seed] = GetParam();
  util::Rng rng(static_cast<uint64_t>(seed) + 1000);
  const nn::Tensor a = nn::Tensor::Randn({rows, cols}, rng);
  const nn::Tensor b = nn::Tensor::Randn({cols, rows}, rng);
  EXPECT_LT(nn::MaxAbsDiff(nn::Transpose(nn::MatMul(a, b)),
                           nn::MatMul(nn::Transpose(b),
                                      nn::Transpose(a))),
            1e-4f);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, TensorShapeProperty,
    ::testing::Combine(::testing::Values(1, 3, 17),
                       ::testing::Values(2, 8, 33),
                       ::testing::Values(1, 42)));

// ---- Routing invariants over (items, interests, iterations) ----

class RoutingProperty
    : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(RoutingProperty, CouplingIsRowStochasticAtAnyDepth) {
  auto [n, k, iterations] = GetParam();
  util::Rng rng(7);
  const nn::Tensor e_hat = nn::Tensor::Randn({n, 16}, rng);
  const nn::Tensor init = nn::Tensor::Randn({k, 16}, rng);
  const nn::Tensor coupling = models::B2IRouting(
      e_hat, init, models::RoutingConfig{iterations, 0.0f}, nullptr);
  ASSERT_EQ(coupling.size(0), n);
  ASSERT_EQ(coupling.size(1), k);
  for (int64_t i = 0; i < n; ++i) {
    float total = 0.0f;
    for (int64_t j = 0; j < k; ++j) {
      EXPECT_GE(coupling.at(i, j), 0.0f);
      total += coupling.at(i, j);
    }
    EXPECT_NEAR(total, 1.0f, 1e-4f);
  }
}

TEST_P(RoutingProperty, CapsulesStayInsideUnitBall) {
  auto [n, k, iterations] = GetParam();
  util::Rng rng(8);
  const nn::Tensor e_hat = nn::Tensor::Randn({n, 16}, rng);
  const nn::Tensor init = nn::Tensor::Randn({k, 16}, rng);
  const nn::Tensor coupling = models::B2IRouting(
      e_hat, init, models::RoutingConfig{iterations, 0.0f}, nullptr);
  const nn::Tensor capsules =
      nn::SquashRows(nn::MatMul(nn::Transpose(coupling), e_hat));
  for (int64_t j = 0; j < k; ++j) {
    EXPECT_LT(nn::L2NormFlat(capsules.Row(j)), 1.0f);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Depths, RoutingProperty,
    ::testing::Combine(::testing::Values(2, 10, 40),
                       ::testing::Values(1, 4, 9),
                       ::testing::Values(1, 3, 6)));

// ---- PIT invariants over (existing K, dim, seed) ----

class PitProperty
    : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(PitProperty, OrthogonalDecompositionIsExact) {
  auto [k, dim, seed] = GetParam();
  if (k >= dim) GTEST_SKIP() << "basis must not span the space";
  util::Rng rng(static_cast<uint64_t>(seed));
  const nn::Tensor basis = nn::Tensor::Randn({k, dim}, rng);
  const nn::Tensor h = nn::Tensor::Randn({dim}, rng);
  nn::Tensor proj;
  ASSERT_TRUE(core::ProjectOntoRowSpan(basis, h, &proj));
  const nn::Tensor orth = core::OrthogonalComponent(basis, h);
  // h = proj + orth.
  EXPECT_LT(nn::MaxAbsDiff(nn::Add(proj, orth), h), 1e-4f);
  // proj _|_ orth.
  EXPECT_NEAR(nn::DotFlat(proj, orth), 0.0f,
              1e-2f * nn::L2NormFlat(h) * nn::L2NormFlat(h));
  // Pythagoras within tolerance.
  const float h2 = nn::DotFlat(h, h);
  const float p2 = nn::DotFlat(proj, proj);
  const float o2 = nn::DotFlat(orth, orth);
  EXPECT_NEAR(h2, p2 + o2, 1e-2f * h2);
}

TEST_P(PitProperty, ProjectionShrinksNorm) {
  auto [k, dim, seed] = GetParam();
  if (k >= dim) GTEST_SKIP();
  util::Rng rng(static_cast<uint64_t>(seed) + 99);
  const nn::Tensor basis = nn::Tensor::Randn({k, dim}, rng);
  const nn::Tensor h = nn::Tensor::Randn({dim}, rng);
  nn::Tensor proj;
  ASSERT_TRUE(core::ProjectOntoRowSpan(basis, h, &proj));
  EXPECT_LE(nn::L2NormFlat(proj), nn::L2NormFlat(h) * (1.0f + 1e-4f));
  EXPECT_LE(nn::L2NormFlat(core::OrthogonalComponent(basis, h)),
            nn::L2NormFlat(h) * (1.0f + 1e-4f));
}

INSTANTIATE_TEST_SUITE_P(
    Bases, PitProperty,
    ::testing::Combine(::testing::Values(1, 3, 6),
                       ::testing::Values(8, 16, 32),
                       ::testing::Values(5, 6)));

// ---- NID invariants over (K, dim) ----

class NidProperty
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(NidProperty, KlNonNegativeAndBoundedByLogK) {
  auto [k, dim] = GetParam();
  util::Rng rng(11);
  const nn::Tensor interests = nn::Tensor::Randn({k, dim}, rng);
  for (int trial = 0; trial < 20; ++trial) {
    const nn::Tensor item = nn::Tensor::Randn({dim}, rng);
    const double kl = core::AssignmentKl(item, interests);
    EXPECT_GE(kl, 0.0);
    // KL(uniform || p) <= log K ... not in general, but with cosine
    // logits in [-1, 1] the value is bounded by 2 (max logit spread).
    EXPECT_LE(kl, 2.0);
    EXPECT_DOUBLE_EQ(core::ItemPuzzlement(item, interests), -kl);
  }
}

TEST_P(NidProperty, AssignmentInvariantToItemScale) {
  auto [k, dim] = GetParam();
  util::Rng rng(12);
  const nn::Tensor interests = nn::Tensor::Randn({k, dim}, rng);
  const nn::Tensor item = nn::Tensor::Randn({dim}, rng);
  const std::vector<double> p1 =
      core::AssignmentDistribution(item, interests);
  const std::vector<double> p2 =
      core::AssignmentDistribution(nn::Scale(item, 13.0f), interests);
  for (size_t i = 0; i < p1.size(); ++i) {
    EXPECT_NEAR(p1[i], p2[i], 1e-6);
  }
}

INSTANTIATE_TEST_SUITE_P(Spaces, NidProperty,
                         ::testing::Combine(::testing::Values(2, 4, 9),
                                            ::testing::Values(8, 32)));

// ---- Ranking invariants over (items, K, rule) ----

class RankerProperty : public ::testing::TestWithParam<
                           std::tuple<int, int, eval::ScoreRule>> {};

TEST_P(RankerProperty, RanksArePermutationConsistent) {
  auto [num_items, k, rule] = GetParam();
  util::Rng rng(13);
  const nn::Tensor table = nn::Tensor::Randn({num_items, 16}, rng);
  const nn::Tensor interests = nn::Tensor::Randn({k, 16}, rng);
  // The top-1 item must have rank 1, and the rank of any item equals
  // 1 + number of strictly-better-or-equal competitors.
  const auto top = eval::TopNItems(interests, table, 1, rule);
  ASSERT_EQ(top.size(), 1u);
  EXPECT_EQ(eval::TargetRank(interests, table, top[0].first, rule), 1);
  const std::vector<float> scores =
      eval::ScoreAllItems(interests, table, rule);
  for (data::ItemId item : {data::ItemId{0}, data::ItemId{1}}) {
    int64_t expected = 1;
    for (size_t i = 0; i < scores.size(); ++i) {
      if (static_cast<data::ItemId>(i) != item &&
          scores[i] >= scores[static_cast<size_t>(item)]) {
        ++expected;
      }
    }
    EXPECT_EQ(eval::TargetRank(interests, table, item, rule), expected);
  }
}

TEST_P(RankerProperty, MaxRuleDominatesAttentiveScores) {
  // max_k logit >= softmax-weighted combination of logits, per item.
  auto [num_items, k, rule] = GetParam();
  (void)rule;
  util::Rng rng(14);
  const nn::Tensor table = nn::Tensor::Randn({num_items, 16}, rng);
  const nn::Tensor interests = nn::Tensor::Randn({k, 16}, rng);
  const std::vector<float> maxed = eval::ScoreAllItems(
      interests, table, eval::ScoreRule::kMaxInterest);
  const std::vector<float> attentive = eval::ScoreAllItems(
      interests, table, eval::ScoreRule::kAttentive);
  for (size_t i = 0; i < maxed.size(); ++i) {
    EXPECT_GE(maxed[i] + 1e-4f, attentive[i]);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Corpora, RankerProperty,
    ::testing::Combine(::testing::Values(10, 200),
                       ::testing::Values(1, 4, 8),
                       ::testing::Values(eval::ScoreRule::kAttentive,
                                         eval::ScoreRule::kMaxInterest)));

// ---- Autograd gradcheck across seeds (composite graph) ----

class GradProperty : public ::testing::TestWithParam<int> {};

TEST_P(GradProperty, CompositeGraphGradcheck) {
  util::Rng rng(static_cast<uint64_t>(GetParam()));
  nn::Var items(nn::Tensor::Randn({6, 8}, rng, 0.0f, 0.6f), true);
  nn::Var transform(nn::Tensor::Randn({8, 8}, rng, 0.0f, 0.4f), true);
  nn::Var query(nn::Tensor::Randn({8}, rng, 0.0f, 0.6f), true);
  auto forward = [&] {
    nn::Var hidden = nn::ops::Tanh(nn::ops::MatMul(items, transform));
    nn::Var capsules = nn::ops::SquashRows(hidden);
    nn::Var beta = nn::ops::Softmax(nn::ops::MatVec(capsules, query));
    nn::Var v = nn::ops::MatVec(nn::ops::Transpose(capsules), beta);
    return nn::ops::NegLogSoftmax(nn::ops::MatVec(items, v), 1);
  };
  const nn::GradCheckResult result =
      nn::CheckGradients(forward, {items, transform, query});
  EXPECT_TRUE(result.ok) << "seed " << GetParam() << " max rel "
                         << result.max_rel_error;
}

INSTANTIATE_TEST_SUITE_P(Seeds, GradProperty,
                         ::testing::Values(3, 17, 99, 123, 2024));

}  // namespace
}  // namespace imsr
