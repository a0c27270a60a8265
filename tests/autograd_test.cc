// Autograd correctness: every op's analytic gradient is validated against
// central finite differences via nn::CheckGradients, plus structural tests
// of the tape (accumulation, constants, graph reuse).
#include <gtest/gtest.h>

#include "nn/gradcheck.h"
#include "nn/ops.h"
#include "nn/variable.h"
#include "util/rng.h"

namespace imsr::nn {
namespace {

namespace ops = ::imsr::nn::ops;

Var Param(std::vector<int64_t> shape, util::Rng& rng) {
  return Var(Tensor::Randn(std::move(shape), rng, 0.0f, 0.7f),
             /*requires_grad=*/true);
}

// ---- Structural behaviour ----

TEST(VariableTest, LeafAndConstantBasics) {
  Var constant(Tensor::FromVector({1.0f}));
  EXPECT_FALSE(constant.requires_grad());
  Var parameter(Tensor::FromVector({2.0f}), /*requires_grad=*/true);
  EXPECT_TRUE(parameter.requires_grad());
  EXPECT_FALSE(parameter.has_grad());
}

TEST(VariableTest, BackwardThroughSimpleChain) {
  Var x(Tensor::FromVector({3.0f}), true);
  Var y = ops::Scale(x, 2.0f);       // y = 2x
  Var loss = ops::Mul(y, y);         // loss = 4x^2
  loss = ops::Sum(loss);
  loss.Backward();
  EXPECT_FLOAT_EQ(loss.value().item(), 36.0f);
  EXPECT_FLOAT_EQ(x.grad().at(0), 24.0f);  // d/dx 4x^2 = 8x
}

TEST(VariableTest, GradAccumulatesWhenReused) {
  Var x(Tensor::FromVector({2.0f}), true);
  // loss = x + x -> dloss/dx = 2.
  Var loss = ops::Add(x, x);
  loss.Backward();
  EXPECT_FLOAT_EQ(x.grad().at(0), 2.0f);
}

TEST(VariableTest, ConstantsReceiveNoGrad) {
  Var x(Tensor::FromVector({2.0f}), true);
  Var c(Tensor::FromVector({5.0f}));
  Var loss = ops::Mul(x, c);
  loss.Backward();
  EXPECT_FLOAT_EQ(x.grad().at(0), 5.0f);
  EXPECT_FALSE(c.has_grad());
}

TEST(VariableTest, ZeroGradClears) {
  Var x(Tensor::FromVector({1.0f}), true);
  ops::Scale(x, 3.0f).Backward();
  EXPECT_TRUE(x.has_grad());
  x.ZeroGrad();
  EXPECT_FALSE(x.has_grad());
}

TEST(VariableTest, DiamondGraphGradient) {
  // loss = (x*x) + (x*2): dL/dx = 2x + 2.
  Var x(Tensor::FromVector({3.0f}), true);
  Var left = ops::Mul(x, x);
  Var right = ops::Scale(x, 2.0f);
  ops::Add(left, right).Backward();
  EXPECT_FLOAT_EQ(x.grad().at(0), 8.0f);
}

// ---- Finite-difference checks, one per op ----

TEST(GradCheckTest, AddSubMul) {
  util::Rng rng(10);
  Var a = Param({3, 2}, rng);
  Var b = Param({3, 2}, rng);
  auto forward = [&] {
    return ops::Sum(ops::Mul(ops::Add(a, b), ops::Sub(a, b)));
  };
  const GradCheckResult result = CheckGradients(forward, {a, b});
  EXPECT_TRUE(result.ok) << "max rel err " << result.max_rel_error;
}

TEST(GradCheckTest, ScaleAddScalar) {
  util::Rng rng(11);
  Var a = Param({4}, rng);
  auto forward = [&] {
    return ops::Sum(ops::AddScalar(ops::Scale(a, -1.7f), 0.5f));
  };
  EXPECT_TRUE(CheckGradients(forward, {a}).ok);
}

TEST(GradCheckTest, MatMul) {
  util::Rng rng(12);
  Var a = Param({3, 4}, rng);
  Var b = Param({4, 2}, rng);
  auto forward = [&] { return ops::SumSquares(ops::MatMul(a, b)); };
  EXPECT_TRUE(CheckGradients(forward, {a, b}).ok);
}

TEST(GradCheckTest, MatVec) {
  util::Rng rng(13);
  Var a = Param({3, 4}, rng);
  Var x = Param({4}, rng);
  auto forward = [&] { return ops::SumSquares(ops::MatVec(a, x)); };
  EXPECT_TRUE(CheckGradients(forward, {a, x}).ok);
}

TEST(GradCheckTest, TransposeReshape) {
  util::Rng rng(14);
  Var a = Param({2, 3}, rng);
  auto forward = [&] {
    return ops::SumSquares(
        ops::Reshape(ops::Transpose(a), {2, 3}));
  };
  EXPECT_TRUE(CheckGradients(forward, {a}).ok);
}

TEST(GradCheckTest, Dot) {
  util::Rng rng(15);
  Var a = Param({5}, rng);
  Var b = Param({5}, rng);
  auto forward = [&] { return ops::Dot(a, b); };
  EXPECT_TRUE(CheckGradients(forward, {a, b}).ok);
}

TEST(GradCheckTest, DivByScalar) {
  util::Rng rng(16);
  Var a = Param({4}, rng);
  Var s(Tensor::FromVector({2.5f}), true);
  auto forward = [&] { return ops::SumSquares(ops::DivByScalar(a, s)); };
  EXPECT_TRUE(CheckGradients(forward, {a, s}).ok);
}

TEST(GradCheckTest, ScaleRows) {
  util::Rng rng(17);
  Var a = Param({3, 4}, rng);
  Var s = Param({3}, rng);
  auto forward = [&] { return ops::SumSquares(ops::ScaleRows(a, s)); };
  EXPECT_TRUE(CheckGradients(forward, {a, s}).ok);
}

TEST(GradCheckTest, SigmoidTanhExp) {
  util::Rng rng(18);
  Var a = Param({6}, rng);
  auto forward = [&] {
    Var h = ops::Tanh(ops::Sigmoid(a));
    return ops::Sum(ops::Exp(ops::Scale(h, 0.3f)));
  };
  EXPECT_TRUE(CheckGradients(forward, {a}).ok);
}

TEST(GradCheckTest, SoftmaxRows) {
  util::Rng rng(19);
  Var a = Param({3, 4}, rng);
  Var weights(Tensor::Randn({3, 4}, rng));  // constant mixing weights
  auto forward = [&] {
    return ops::Sum(ops::Mul(ops::Softmax(a), weights));
  };
  EXPECT_TRUE(CheckGradients(forward, {a}).ok);
}

TEST(GradCheckTest, SquashRows) {
  util::Rng rng(20);
  Var a = Param({3, 5}, rng);
  Var weights(Tensor::Randn({3, 5}, rng));
  auto forward = [&] {
    return ops::Sum(ops::Mul(ops::SquashRows(a), weights));
  };
  const GradCheckResult result = CheckGradients(forward, {a});
  EXPECT_TRUE(result.ok) << "max rel err " << result.max_rel_error;
}

TEST(GradCheckTest, GatherRows) {
  util::Rng rng(21);
  Var table = Param({5, 3}, rng);
  auto forward = [&] {
    // Repeated index exercises scatter-add accumulation.
    return ops::SumSquares(ops::GatherRows(table, {1, 3, 1}));
  };
  EXPECT_TRUE(CheckGradients(forward, {table}).ok);
}

TEST(GradCheckTest, ConcatAndSlices) {
  util::Rng rng(22);
  Var a = Param({2, 3}, rng);
  Var b = Param({3, 3}, rng);
  auto forward = [&] {
    Var cat = ops::ConcatRows({a, b});
    Var mid = ops::RowSlice(cat, 1, 4);
    return ops::Sum(ops::SumSquares(ops::RowVector(mid, 1)));
  };
  EXPECT_TRUE(CheckGradients(forward, {a, b}).ok);
}

TEST(GradCheckTest, NegLogSoftmax) {
  util::Rng rng(23);
  Var scores = Param({7}, rng);
  auto forward = [&] { return ops::NegLogSoftmax(scores, 2); };
  EXPECT_TRUE(CheckGradients(forward, {scores}).ok);
}

TEST(GradCheckTest, KdSigmoidCrossEntropy) {
  util::Rng rng(24);
  Var logits = Param({5}, rng);
  Tensor teacher({5});
  for (int64_t i = 0; i < 5; ++i) {
    teacher.at(i) = static_cast<float>(rng.Uniform(0.05, 0.95));
  }
  for (float tau : {0.5f, 1.0f, 2.0f}) {
    auto forward = [&] {
      return ops::KdSigmoidCrossEntropy(logits, teacher, tau);
    };
    EXPECT_TRUE(CheckGradients(forward, {logits}).ok) << "tau=" << tau;
  }
}

TEST(GradCheckTest, KdSoftmaxCrossEntropy) {
  util::Rng rng(25);
  Var logits = Param({5}, rng);
  std::vector<double> teacher_raw(5);
  for (auto& v : teacher_raw) v = rng.Uniform(0.1, 1.0);
  Tensor teacher({5});
  double total = 0.0;
  for (double v : teacher_raw) total += v;
  for (int64_t i = 0; i < 5; ++i) {
    teacher.at(i) = static_cast<float>(teacher_raw[i] / total);
  }
  for (float tau : {0.5f, 1.0f, 2.0f}) {
    auto forward = [&] {
      return ops::KdSoftmaxCrossEntropy(logits, teacher, tau);
    };
    EXPECT_TRUE(CheckGradients(forward, {logits}).ok) << "tau=" << tau;
  }
}

TEST(GradCheckTest, NegLogSoftmaxGradientSignsMatchIntuition) {
  // The positive's gradient must be negative (score pushed up) and the
  // negatives' positive (pushed down).
  Var scores(Tensor::FromVector({0.1f, 0.2f, -0.1f}), true);
  ops::NegLogSoftmax(scores, 0).Backward();
  EXPECT_LT(scores.grad().at(0), 0.0f);
  EXPECT_GT(scores.grad().at(1), 0.0f);
  EXPECT_GT(scores.grad().at(2), 0.0f);
}

}  // namespace
}  // namespace imsr::nn
