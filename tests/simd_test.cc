// Equivalence suite for the vectorized nn kernels (see nn/simd.h for the
// two-class determinism contract):
//
//  * Order-preserving kernels (saxpy accumulation, elementwise maps,
//    optimizer updates) carry an unconditional `omp simd` annotation —
//    vectorization must not change a single bit, so they are compared
//    BITWISE against naive references written here with the identical
//    accumulation order.
//  * Reduction kernels (dots, sums of squares, softmax/logsumexp sums)
//    reorder additions when vectorized, so they are compared within a
//    bounded tolerance against naive sequential-sum / libm references
//    written here.
//
// Sizes sweep the SSE/AVX/AVX-512 lane boundaries (4/8/16) and odd
// tails; unaligned variants shift the spans off the allocation base.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <vector>

#include "nn/optim.h"
#include "nn/tensor.h"
#include "nn/variable.h"
#include "util/rng.h"

namespace imsr {
namespace {

// Lane-boundary sweep: 1..65 crossing 4, 8, 16, 32 and 64 exactly and
// by one on either side.
const std::vector<int64_t> kSizes = {1,  3,  4,  7,  8,  15, 16,
                                     17, 31, 32, 33, 63, 64, 65};

float ReferenceDot(const float* a, const float* b, int64_t n) {
  float acc = 0.0f;
  for (int64_t i = 0; i < n; ++i) acc += a[i] * b[i];
  return acc;
}

// Sequential-sum softmax over one span with libm exp.
std::vector<float> ReferenceSoftmax(const float* in, int64_t n) {
  const float max_value = *std::max_element(in, in + n);
  std::vector<float> out(static_cast<size_t>(n));
  float total = 0.0f;
  for (int64_t i = 0; i < n; ++i) {
    out[static_cast<size_t>(i)] = std::exp(in[i] - max_value);
    total += out[static_cast<size_t>(i)];
  }
  for (float& v : out) v /= total;
  return out;
}

float ReferenceLogSumExp(const float* in, int64_t n) {
  const float max_value = *std::max_element(in, in + n);
  float total = 0.0f;
  for (int64_t i = 0; i < n; ++i) total += std::exp(in[i] - max_value);
  return max_value + std::log(total);
}

// squash(v) = |v|^2/(1+|v|^2) * v/|v| with a sequential |v|^2 sum.
std::vector<float> ReferenceSquash(const float* in, int64_t n) {
  const float ss = ReferenceDot(in, in, n);
  const float norm = std::sqrt(ss);
  const float coeff = norm > 0.0f ? ss / (1.0f + ss) / norm : 0.0f;
  std::vector<float> out(static_cast<size_t>(n));
  for (int64_t i = 0; i < n; ++i) out[static_cast<size_t>(i)] = coeff * in[i];
  return out;
}

// Tolerance for a reordered n-term float sum: proportional to the sum of
// term magnitudes (the classic reassociation error bound).
float DotTolerance(const float* a, const float* b, int64_t n) {
  float mass = 0.0f;
  for (int64_t i = 0; i < n; ++i) mass += std::fabs(a[i] * b[i]);
  return 2e-7f * static_cast<float>(n) * mass + 1e-30f;
}

std::vector<float> RandomVector(int64_t n, util::Rng& rng) {
  std::vector<float> v(static_cast<size_t>(n));
  for (float& x : v) x = rng.NextGaussian();
  return v;
}

// ---- Reduction kernels: within tolerance of sequential references ----

TEST(SimdTest, DotSpanWithinToleranceOfSequentialReference) {
  util::Rng rng(12);
  for (int64_t n : kSizes) {
    const std::vector<float> a = RandomVector(n, rng);
    const std::vector<float> b = RandomVector(n, rng);
    EXPECT_NEAR(nn::DotSpan(a.data(), b.data(), n),
                ReferenceDot(a.data(), b.data(), n),
                DotTolerance(a.data(), b.data(), n))
        << "n=" << n;
  }
}

TEST(SimdTest, DotSpanUnalignedTails) {
  util::Rng rng(13);
  // Shift both spans 1..3 floats off the allocation base so the
  // vectorized loop sees misaligned loads in every lane configuration.
  for (int64_t offset = 1; offset <= 3; ++offset) {
    for (int64_t n : kSizes) {
      const std::vector<float> a = RandomVector(n + offset, rng);
      const std::vector<float> b = RandomVector(n + offset, rng);
      const float* pa = a.data() + offset;
      const float* pb = b.data() + offset;
      EXPECT_NEAR(nn::DotSpan(pa, pb, n), ReferenceDot(pa, pb, n),
                  DotTolerance(pa, pb, n))
          << "n=" << n << " offset=" << offset;
    }
  }
}

TEST(SimdTest, MatVecWithinToleranceOfSequentialReference) {
  util::Rng rng(14);
  for (int64_t k : kSizes) {
    const int64_t m = 5;
    const nn::Tensor a = nn::Tensor::Randn({m, k}, rng);
    const nn::Tensor x = nn::Tensor::Randn({k}, rng);
    const nn::Tensor out = nn::MatVec(a, x);
    for (int64_t i = 0; i < m; ++i) {
      EXPECT_NEAR(out.at(i), ReferenceDot(a.data() + i * k, x.data(), k),
                  DotTolerance(a.data() + i * k, x.data(), k))
          << "k=" << k << " row=" << i;
    }
  }
}

TEST(SimdTest, MatMulTransBWithinToleranceOfSequentialReference) {
  util::Rng rng(16);
  for (int64_t k : kSizes) {
    // 5 x 7 output exercises the 2x4 tile plus both remainder edges.
    const nn::Tensor a = nn::Tensor::Randn({5, k}, rng);
    const nn::Tensor b = nn::Tensor::Randn({7, k}, rng);
    const nn::Tensor out = nn::MatMulTransB(a, b);
    for (int64_t i = 0; i < 5; ++i) {
      for (int64_t j = 0; j < 7; ++j) {
        const float* pa = a.data() + i * k;
        const float* pb = b.data() + j * k;
        EXPECT_NEAR(out.at(i, j), ReferenceDot(pa, pb, k),
                    DotTolerance(pa, pb, k))
            << "k=" << k;
      }
    }
  }
}

TEST(SimdTest, L2NormWithinToleranceOfSequentialReference) {
  util::Rng rng(17);
  for (int64_t n : kSizes) {
    const nn::Tensor a = nn::Tensor::Randn({n}, rng);
    const float reference = std::sqrt(ReferenceDot(a.data(), a.data(), n));
    EXPECT_NEAR(nn::L2NormFlat(a), reference,
                2e-7f * static_cast<float>(n) * reference + 1e-30f)
        << "n=" << n;
  }
}

TEST(SimdTest, SoftmaxWithinToleranceOfSequentialReferenceAndNormalised) {
  util::Rng rng(18);
  for (int64_t n : kSizes) {
    const nn::Tensor a = nn::Tensor::Randn({n}, rng);
    const nn::Tensor out = nn::Softmax(a);
    const std::vector<float> reference = ReferenceSoftmax(a.data(), n);
    float total = 0.0f;
    for (int64_t i = 0; i < n; ++i) {
      EXPECT_NEAR(out.at(i), reference[static_cast<size_t>(i)], 1e-6f)
          << "n=" << n;
      total += out.at(i);
    }
    EXPECT_NEAR(total, 1.0f, 1e-5f) << "n=" << n;
  }
}

TEST(SimdTest, LogSumExpRowsWithinToleranceOfSequentialReference) {
  util::Rng rng(19);
  for (int64_t n : kSizes) {
    const nn::Tensor a = nn::Tensor::Randn({3, n}, rng);
    const nn::Tensor out = nn::LogSumExpRows(a);
    for (int64_t r = 0; r < 3; ++r) {
      const float reference = ReferenceLogSumExp(a.data() + r * n, n);
      EXPECT_NEAR(out.at(r), reference,
                  2e-7f * static_cast<float>(n) * std::fabs(reference) +
                      1e-5f)
          << "n=" << n;
    }
  }
}

TEST(SimdTest, SquashRowsWithinToleranceOfSequentialReference) {
  util::Rng rng(20);
  for (int64_t n : kSizes) {
    const nn::Tensor a = nn::Tensor::Randn({4, n}, rng);
    const nn::Tensor out = nn::SquashRows(a);
    for (int64_t r = 0; r < 4; ++r) {
      const std::vector<float> reference =
          ReferenceSquash(a.data() + r * n, n);
      for (int64_t j = 0; j < n; ++j) {
        EXPECT_NEAR(out.at(r, j), reference[static_cast<size_t>(j)], 1e-5f)
            << "n=" << n;
      }
    }
  }
}

// ---- Order-preserving kernels: bitwise against same-order references ----

TEST(SimdTest, MatMulBitwiseMatchesSaxpyOrderReference) {
  util::Rng rng(21);
  for (int64_t k : kSizes) {
    const nn::Tensor a = nn::Tensor::Randn({9, k}, rng);
    const nn::Tensor b = nn::Tensor::Randn({k, 5}, rng);
    const nn::Tensor fast = nn::MatMul(a, b);
    // The panel kernel accumulates out(i, j) over ascending kk; so does
    // this reference — vectorizing across j must not change a bit.
    nn::Tensor reference({9, 5});
    for (int64_t i = 0; i < 9; ++i) {
      for (int64_t j = 0; j < 5; ++j) {
        float acc = 0.0f;
        for (int64_t kk = 0; kk < k; ++kk) {
          acc += a.at(i, kk) * b.at(kk, j);
        }
        reference.at(i, j) = acc;
      }
    }
    EXPECT_EQ(nn::MaxAbsDiff(fast, reference), 0.0f) << "k=" << k;
  }
}

TEST(SimdTest, MatVecTransABitwiseMatchesSaxpyOrderReference) {
  util::Rng rng(22);
  for (int64_t k : kSizes) {
    const int64_t m = 7;
    const nn::Tensor a = nn::Tensor::Randn({m, k}, rng);
    const nn::Tensor x = nn::Tensor::Randn({m}, rng);
    const nn::Tensor fast = nn::MatVecTransA(a, x);
    nn::Tensor reference({k});
    for (int64_t i = 0; i < m; ++i) {
      for (int64_t j = 0; j < k; ++j) {
        reference.at(j) += x.at(i) * a.at(i, j);
      }
    }
    EXPECT_EQ(nn::MaxAbsDiff(fast, reference), 0.0f) << "k=" << k;
  }
}

TEST(SimdTest, MatMulTransABitwiseMatchesRankOneOrderReference) {
  util::Rng rng(23);
  for (int64_t n : kSizes) {
    const nn::Tensor a = nn::Tensor::Randn({6, 5}, rng);
    const nn::Tensor b = nn::Tensor::Randn({6, n}, rng);
    const nn::Tensor fast = nn::MatMulTransA(a, b);
    // Rank-1 updates over ascending r, vectorized across columns only.
    nn::Tensor reference({5, n});
    for (int64_t r = 0; r < 6; ++r) {
      for (int64_t i = 0; i < 5; ++i) {
        for (int64_t j = 0; j < n; ++j) {
          reference.at(i, j) += a.at(r, i) * b.at(r, j);
        }
      }
    }
    EXPECT_EQ(nn::MaxAbsDiff(fast, reference), 0.0f) << "n=" << n;
  }
}

TEST(SimdTest, ElementwiseMutatorsBitwise) {
  util::Rng rng(24);
  for (int64_t n : kSizes) {
    const nn::Tensor a = nn::Tensor::Randn({n}, rng);
    const nn::Tensor b = nn::Tensor::Randn({n}, rng);
    nn::Tensor add = a;
    add.AddInPlace(b);
    nn::Tensor add_scaled = a;
    add_scaled.AddScaledInPlace(b, 0.37f);
    nn::Tensor scaled = a;
    scaled.ScaleInPlace(1.7f);
    const nn::Tensor mul = nn::Mul(a, b);
    for (int64_t i = 0; i < n; ++i) {
      EXPECT_EQ(add.at(i), a.at(i) + b.at(i));
      EXPECT_EQ(add_scaled.at(i), a.at(i) + 0.37f * b.at(i));
      EXPECT_EQ(scaled.at(i), a.at(i) * 1.7f);
      EXPECT_EQ(mul.at(i), a.at(i) * b.at(i));
    }
  }
}

TEST(SimdTest, TranscendentalMapsBitwise) {
  util::Rng rng(25);
  for (int64_t n : kSizes) {
    const nn::Tensor a = nn::Tensor::Randn({n}, rng);
    const nn::Tensor sig = nn::Sigmoid(a);
    const nn::Tensor tanh = nn::Tanh(a);
    const nn::Tensor exp = nn::Exp(a);
    // libm calls stay scalar inside the annotated loops (no vector-math
    // substitution without -fopenmp), so each element is the exact
    // scalar result.
    for (int64_t i = 0; i < n; ++i) {
      EXPECT_EQ(sig.at(i), 1.0f / (1.0f + std::exp(-a.at(i))));
      EXPECT_EQ(tanh.at(i), std::tanh(a.at(i)));
      EXPECT_EQ(exp.at(i), std::exp(a.at(i)));
    }
  }
}

TEST(SimdTest, AdamStepBitwiseMatchesReference) {
  util::Rng rng(27);
  nn::Adam::Config config;
  for (int64_t n : kSizes) {
    const nn::Tensor initial = nn::Tensor::Randn({n}, rng);
    const nn::Tensor grad = nn::Tensor::Randn({n}, rng);
    nn::Var parameter(initial, /*requires_grad=*/true);
    parameter.node()->AccumulateGrad(grad);
    nn::Adam adam(config.learning_rate);
    adam.Register(parameter);
    adam.Step();
    const float bias1 = 1.0f - config.beta1;
    const float bias2 = 1.0f - config.beta2;
    for (int64_t i = 0; i < n; ++i) {
      // First step from zero state, same expression order as Adam::Step.
      const float m = (1.0f - config.beta1) * grad.at(i);
      const float v =
          (1.0f - config.beta2) * grad.at(i) * grad.at(i);
      const float m_hat = m / bias1;
      const float v_hat = v / bias2;
      const float expected =
          initial.at(i) -
          config.learning_rate * m_hat / (std::sqrt(v_hat) + config.epsilon);
      EXPECT_EQ(parameter.value().at(i), expected) << "n=" << n;
    }
  }
}

}  // namespace
}  // namespace imsr
