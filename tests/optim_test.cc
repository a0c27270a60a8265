// Tests for the Adam optimiser and the initialisers.
#include <gtest/gtest.h>

#include <cmath>

#include "nn/init.h"
#include "nn/ops.h"
#include "nn/optim.h"

namespace imsr::nn {
namespace {

TEST(AdamTest, FirstStepHasLearningRateMagnitude) {
  // Adam's bias-corrected first step is ~lr * sign(grad).
  Var w(Tensor::FromVector({1.0f, -1.0f}), true);
  ops::SumSquares(w).Backward();
  Adam adam(0.01f);
  adam.Register(w);
  adam.Step();
  EXPECT_NEAR(w.value().at(0), 1.0f - 0.01f, 1e-4f);
  EXPECT_NEAR(w.value().at(1), -1.0f + 0.01f, 1e-4f);
}

TEST(AdamTest, ConvergesOnQuadraticWithShiftedMinimum) {
  // loss = sum (w - target)^2.
  const Tensor target = Tensor::FromVector({1.5f, -0.5f, 3.0f});
  Var w(Tensor::FromVector({0.0f, 0.0f, 0.0f}), true);
  Adam adam(0.1f);
  adam.Register(w);
  const Var target_const(target);
  for (int step = 0; step < 300; ++step) {
    adam.ZeroGradAll();
    ops::SumSquares(ops::Sub(w, target_const)).Backward();
    adam.Step();
  }
  EXPECT_LT(MaxAbsDiff(w.value(), target), 1e-2f);
}

TEST(AdamTest, SkipsParametersWithoutGradients) {
  Var w(Tensor::FromVector({1.0f}), true);
  Var v(Tensor::FromVector({2.0f}), true);
  Adam adam(0.5f);
  adam.Register(w);
  adam.Register(v);
  ops::SumSquares(v).Backward();  // gradient for v only
  adam.Step();
  EXPECT_FLOAT_EQ(w.value().at(0), 1.0f);
  EXPECT_NE(v.value().at(0), 2.0f);
  // A parameter skipped by a step starts its moments at its first
  // gradient, exactly like a fresh optimiser.
  ops::SumSquares(w).Backward();
  adam.Step();
  Var fresh(Tensor::FromVector({1.0f}), true);
  Adam reference(0.5f);
  reference.Register(fresh);
  ops::SumSquares(fresh).Backward();
  reference.Step();
  EXPECT_EQ(w.value().at(0), fresh.value().at(0));
}

TEST(AdamTest, RegisterIsIdempotent) {
  Var w(Tensor::FromVector({1.0f}), true);
  Adam adam(0.1f);
  adam.Register(w);
  adam.Register(w);
  EXPECT_EQ(adam.num_parameters(), 1u);
}

TEST(AdamTest, UnregisterStopsUpdatesAndDropsState) {
  Var w(Tensor::FromVector({1.0f}), true);
  Var v(Tensor::FromVector({2.0f}), true);
  Adam adam(0.1f);
  adam.Register(w);
  adam.Register(v);
  EXPECT_EQ(adam.num_parameters(), 2u);
  adam.Unregister(w);
  EXPECT_EQ(adam.num_parameters(), 1u);

  ops::Add(ops::SumSquares(w), ops::SumSquares(v)).Backward();
  adam.Step();
  EXPECT_FLOAT_EQ(w.value().at(0), 1.0f);  // untouched
  EXPECT_NE(v.value().at(0), 2.0f);
}

TEST(AdamTest, ZeroGradAllClearsEveryParameter) {
  Var w(Tensor::FromVector({1.0f}), true);
  Var v(Tensor::FromVector({2.0f}), true);
  Adam adam(0.1f);
  adam.Register(w);
  adam.Register(v);
  ops::Add(ops::SumSquares(w), ops::SumSquares(v)).Backward();
  EXPECT_TRUE(w.has_grad());
  adam.ZeroGradAll();
  EXPECT_FALSE(w.has_grad());
  EXPECT_FALSE(v.has_grad());
}

TEST(AdamTest, MomentumCarriesAcrossSteps) {
  // With a constant gradient direction, Adam's effective step stays
  // ~lr (per-coordinate normalisation), so after n steps the parameter
  // moved ~n*lr.
  Var w(Tensor::FromVector({10.0f}), true);
  Adam adam(0.05f);
  adam.Register(w);
  const Var direction(Tensor::FromVector({1.0f}));
  for (int step = 0; step < 20; ++step) {
    adam.ZeroGradAll();
    ops::Dot(w, direction).Backward();
    adam.Step();
  }
  EXPECT_NEAR(w.value().at(0), 10.0f - 20 * 0.05f, 0.05f);
}

TEST(InitTest, XavierUniformBounds) {
  util::Rng rng(1);
  const Tensor w = XavierUniform(30, 50, rng);
  const float bound = std::sqrt(6.0f / 80.0f);
  for (int64_t i = 0; i < w.numel(); ++i) {
    EXPECT_LE(std::fabs(w.data()[i]), bound);
  }
  // Not degenerate: spread over the interval.
  float min_value = 1.0f;
  float max_value = -1.0f;
  for (int64_t i = 0; i < w.numel(); ++i) {
    min_value = std::min(min_value, w.data()[i]);
    max_value = std::max(max_value, w.data()[i]);
  }
  EXPECT_LT(min_value, -0.5f * bound);
  EXPECT_GT(max_value, 0.5f * bound);
}

TEST(InitTest, EmbeddingInitVariance) {
  util::Rng rng(2);
  const int64_t dim = 64;
  const Tensor w = EmbeddingInit(500, dim, rng);
  double ss = 0.0;
  for (int64_t i = 0; i < w.numel(); ++i) {
    ss += static_cast<double>(w.data()[i]) * w.data()[i];
  }
  const double variance = ss / static_cast<double>(w.numel());
  EXPECT_NEAR(variance, 1.0 / static_cast<double>(dim), 0.002);
}

}  // namespace
}  // namespace imsr::nn
