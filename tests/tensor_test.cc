// Tests for the Tensor class and its free-function ops.
#include <gtest/gtest.h>

#include <cmath>
#include <utility>

#include "nn/tensor.h"
#include "util/rng.h"

namespace imsr::nn {
namespace {

TEST(TensorTest, ConstructionAndShape) {
  Tensor t({2, 3});
  EXPECT_EQ(t.dim(), 2);
  EXPECT_EQ(t.size(0), 2);
  EXPECT_EQ(t.size(1), 3);
  EXPECT_EQ(t.numel(), 6);
  for (int64_t i = 0; i < 2; ++i) {
    for (int64_t j = 0; j < 3; ++j) EXPECT_EQ(t.at(i, j), 0.0f);
  }
}

TEST(TensorTest, ConstructorZeroFillsEvenOverRecycledHeapMemory) {
  // Free a dirty buffer of the same size first, so a recycling allocator
  // would hand its bytes straight back.
  { Tensor dirty = Tensor::Full({64, 64}, 3.5f); }
  const Tensor t({64, 64});
  for (int64_t i = 0; i < t.numel(); ++i) ASSERT_EQ(t.data()[i], 0.0f);
}

// The *Into kernels' scratch (the serve scoring tile, the IVF re-rank
// buffers) relies on ResizeUninitialized never reallocating while the
// new size fits the buffer it already holds.
TEST(TensorTest, ResizeUninitializedKeepsStorageWithinCapacity) {
  Tensor t({4096});
  const float* storage = t.data();
  t.ResizeUninitialized({10, 100});  // shrink across a power of two
  EXPECT_EQ(t.data(), storage);
  EXPECT_EQ(t.numel(), 1000);
  EXPECT_EQ(t.size(0), 10);
  t.ResizeUninitialized({64, 64});  // grow back within capacity
  EXPECT_EQ(t.data(), storage);
  EXPECT_EQ(t.numel(), 4096);
  t.ResizeUninitialized({4096});  // same numel, new shape
  EXPECT_EQ(t.data(), storage);
  EXPECT_EQ(t.dim(), 1);
}

TEST(TensorTest, MoveLeavesSourceUndefined) {
  Tensor a({2, 3});
  const Tensor b = std::move(a);
  EXPECT_EQ(b.numel(), 6);
  EXPECT_FALSE(a.defined());
  EXPECT_EQ(a.numel(), 0);
}

TEST(TensorTest, FactoryFunctions) {
  EXPECT_EQ(Tensor::Ones({4}).at(3), 1.0f);
  EXPECT_EQ(Tensor::Full({2, 2}, 7.0f).at(1, 1), 7.0f);
  const Tensor eye = Tensor::Identity(3);
  EXPECT_EQ(eye.at(1, 1), 1.0f);
  EXPECT_EQ(eye.at(0, 1), 0.0f);
  const Tensor v = Tensor::FromVector({1.0f, 2.0f});
  EXPECT_EQ(v.dim(), 1);
  EXPECT_EQ(v.at(1), 2.0f);
}

TEST(TensorTest, RandnStatistics) {
  util::Rng rng(1);
  const Tensor t = Tensor::Randn({100, 100}, rng, 2.0f, 0.5f);
  double sum = 0.0;
  for (int64_t i = 0; i < t.numel(); ++i) sum += t.data()[i];
  EXPECT_NEAR(sum / t.numel(), 2.0, 0.02);
}

TEST(TensorTest, ReshapePreservesData) {
  Tensor t({2, 3}, {1, 2, 3, 4, 5, 6});
  const Tensor r = t.Reshape({3, 2});
  EXPECT_EQ(r.at(0, 1), 2.0f);
  EXPECT_EQ(r.at(2, 1), 6.0f);
}

TEST(TensorTest, RowOperations) {
  Tensor t({3, 2}, {1, 2, 3, 4, 5, 6});
  EXPECT_EQ(t.Row(1).at(0), 3.0f);
  t.SetRow(0, Tensor::FromVector({9, 8}));
  EXPECT_EQ(t.at(0, 1), 8.0f);
  const Tensor slice = t.RowSlice(1, 3);
  EXPECT_EQ(slice.size(0), 2);
  EXPECT_EQ(slice.at(1, 1), 6.0f);
}

TEST(TensorTest, InPlaceArithmetic) {
  Tensor a({2}, {1, 2});
  Tensor b({2}, {3, 4});
  a.AddInPlace(b);
  EXPECT_EQ(a.at(0), 4.0f);
  a.AddScaledInPlace(b, -1.0f);
  EXPECT_EQ(a.at(1), 2.0f);
  a.ScaleInPlace(2.0f);
  EXPECT_EQ(a.at(0), 2.0f);
}

TEST(TensorOpsTest, ElementwiseOps) {
  const Tensor a({2}, {1, 2});
  const Tensor b({2}, {3, 5});
  EXPECT_EQ(Add(a, b).at(1), 7.0f);
  EXPECT_EQ(Sub(b, a).at(0), 2.0f);
  EXPECT_EQ(Mul(a, b).at(1), 10.0f);
  EXPECT_EQ(Scale(a, 3.0f).at(0), 3.0f);
}

TEST(TensorOpsTest, MatMulCorrectness) {
  const Tensor a({2, 3}, {1, 2, 3, 4, 5, 6});
  const Tensor b({3, 2}, {7, 8, 9, 10, 11, 12});
  const Tensor c = MatMul(a, b);
  EXPECT_EQ(c.at(0, 0), 58.0f);
  EXPECT_EQ(c.at(0, 1), 64.0f);
  EXPECT_EQ(c.at(1, 0), 139.0f);
  EXPECT_EQ(c.at(1, 1), 154.0f);
}

TEST(TensorOpsTest, MatMulIdentity) {
  util::Rng rng(2);
  const Tensor a = Tensor::Randn({4, 4}, rng);
  EXPECT_LT(MaxAbsDiff(MatMul(a, Tensor::Identity(4)), a), 1e-6f);
}

TEST(TensorOpsTest, TransposeInvolution) {
  util::Rng rng(3);
  const Tensor a = Tensor::Randn({3, 5}, rng);
  EXPECT_LT(MaxAbsDiff(Transpose(Transpose(a)), a), 1e-12f);
  EXPECT_EQ(Transpose(a).size(0), 5);
}

TEST(TensorOpsTest, MatVecMatchesMatMul) {
  util::Rng rng(4);
  const Tensor a = Tensor::Randn({3, 4}, rng);
  const Tensor x = Tensor::Randn({4}, rng);
  const Tensor via_matmul = MatMul(a, x.Reshape({4, 1}));
  const Tensor direct = MatVec(a, x);
  for (int64_t i = 0; i < 3; ++i) {
    EXPECT_NEAR(direct.at(i), via_matmul.at(i, 0), 1e-5f);
  }
}

TEST(TensorOpsTest, DotAndNorm) {
  const Tensor a({3}, {1, 2, 2});
  EXPECT_EQ(DotFlat(a, a), 9.0f);
  EXPECT_EQ(L2NormFlat(a), 3.0f);
}

TEST(TensorOpsTest, SoftmaxRowsSumToOne) {
  const Tensor a({2, 3}, {1, 2, 3, -1, 0, 1});
  const Tensor s = Softmax(a);
  for (int64_t i = 0; i < 2; ++i) {
    float total = 0.0f;
    for (int64_t j = 0; j < 3; ++j) {
      total += s.at(i, j);
      EXPECT_GT(s.at(i, j), 0.0f);
    }
    EXPECT_NEAR(total, 1.0f, 1e-6f);
  }
  // Monotonicity within a row.
  EXPECT_LT(s.at(0, 0), s.at(0, 2));
}

TEST(TensorOpsTest, SoftmaxShiftInvariance) {
  const Tensor a({3}, {1, 2, 3});
  const Tensor b({3}, {101, 102, 103});
  EXPECT_LT(MaxAbsDiff(Softmax(a), Softmax(b)), 1e-6f);
}

TEST(TensorOpsTest, LogSumExpRows) {
  const Tensor a({1, 2}, {0.0f, 0.0f});
  EXPECT_NEAR(LogSumExpRows(a).at(0), std::log(2.0f), 1e-6f);
  const Tensor big({2}, {500.0f, 500.0f});
  EXPECT_NEAR(LogSumExpRows(big).at(0), 500.0f + std::log(2.0f), 1e-4f);
}

TEST(TensorOpsTest, SigmoidTanhExpValues) {
  const Tensor zero({1}, {0.0f});
  EXPECT_NEAR(Sigmoid(zero).at(0), 0.5f, 1e-6f);
  EXPECT_NEAR(Tanh(zero).at(0), 0.0f, 1e-6f);
  EXPECT_NEAR(Exp(zero).at(0), 1.0f, 1e-6f);
}

// Squash property (paper Eq. 4, [Sabour et al. 2017]): direction is
// preserved, magnitude maps to |v|^2/(1+|v|^2) < 1.
TEST(TensorOpsTest, SquashPreservesDirectionAndBoundsNorm) {
  util::Rng rng(5);
  for (int trial = 0; trial < 20; ++trial) {
    const Tensor v = Tensor::Randn({1, 8}, rng, 0.0f, 2.0f);
    const Tensor s = SquashRows(v);
    const float norm_v = L2NormFlat(v);
    const float norm_s = L2NormFlat(s);
    EXPECT_LT(norm_s, 1.0f);
    EXPECT_NEAR(norm_s, norm_v * norm_v / (1.0f + norm_v * norm_v), 1e-4f);
    // cos(v, s) == 1.
    EXPECT_NEAR(DotFlat(v, s), norm_v * norm_s, 1e-4f);
  }
}

TEST(TensorOpsTest, SquashZeroRowIsZero) {
  const Tensor zero({1, 4});
  EXPECT_EQ(L2NormFlat(SquashRows(zero)), 0.0f);
}

TEST(TensorOpsTest, SquashIsMonotoneInNorm) {
  // Larger inputs squash to larger outputs (norms strictly increasing).
  const Tensor small({1, 2}, {0.1f, 0.0f});
  const Tensor large({1, 2}, {10.0f, 0.0f});
  EXPECT_LT(L2NormFlat(SquashRows(small)), L2NormFlat(SquashRows(large)));
}

TEST(TensorOpsTest, ConcatRows) {
  const Tensor a({1, 2}, {1, 2});
  const Tensor b({2, 2}, {3, 4, 5, 6});
  const Tensor v({2}, {7, 8});  // 1-D treated as one row
  const Tensor c = ConcatRows({a, b, v});
  EXPECT_EQ(c.size(0), 4);
  EXPECT_EQ(c.at(2, 1), 6.0f);
  EXPECT_EQ(c.at(3, 0), 7.0f);
}

TEST(TensorOpsTest, GatherRows) {
  const Tensor table({3, 2}, {1, 2, 3, 4, 5, 6});
  const Tensor gathered = GatherRows(table, {2, 0, 2});
  EXPECT_EQ(gathered.size(0), 3);
  EXPECT_EQ(gathered.at(0, 0), 5.0f);
  EXPECT_EQ(gathered.at(1, 1), 2.0f);
  EXPECT_EQ(gathered.at(2, 1), 6.0f);
}

TEST(TensorOpsTest, MaxAbsDiff) {
  const Tensor a({2}, {1, 5});
  const Tensor b({2}, {1, 2});
  EXPECT_EQ(MaxAbsDiff(a, b), 3.0f);
}

}  // namespace
}  // namespace imsr::nn
