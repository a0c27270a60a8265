#include "nn/ops.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "nn/arena.h"
#include "nn/simd.h"
#include "util/hot.h"

namespace imsr::nn::ops {
namespace {

// True if the parent can receive gradient (avoids wasted work on consts).
bool Wants(const Var& v) { return v.requires_grad(); }

}  // namespace

Var Add(const Var& a, const Var& b) {
  IMSR_CHECK(SameShape(a.value(), b.value()));
  Tensor out = nn::Add(a.value(), b.value());
  return Var::MakeNode(std::move(out), {a, b}, [a, b](VarNode& node) {
    if (Wants(a)) a.node()->AccumulateGrad(node.grad);
    if (Wants(b)) b.node()->AccumulateGrad(node.grad);
  });
}

Var Sub(const Var& a, const Var& b) {
  IMSR_CHECK(SameShape(a.value(), b.value()));
  Tensor out = nn::Sub(a.value(), b.value());
  return Var::MakeNode(std::move(out), {a, b}, [a, b](VarNode& node) {
    if (Wants(a)) a.node()->AccumulateGrad(node.grad);
    if (Wants(b)) b.node()->AccumulateGrad(nn::Scale(node.grad, -1.0f));
  });
}

Var Mul(const Var& a, const Var& b) {
  IMSR_CHECK(SameShape(a.value(), b.value()));
  Tensor out = nn::Mul(a.value(), b.value());
  return Var::MakeNode(std::move(out), {a, b}, [a, b](VarNode& node) {
    if (Wants(a)) a.node()->AccumulateGrad(nn::Mul(node.grad, b.value()));
    if (Wants(b)) b.node()->AccumulateGrad(nn::Mul(node.grad, a.value()));
  });
}

Var Scale(const Var& a, float alpha) {
  Tensor out = nn::Scale(a.value(), alpha);
  return Var::MakeNode(std::move(out), {a}, [a, alpha](VarNode& node) {
    if (Wants(a)) a.node()->AccumulateGrad(nn::Scale(node.grad, alpha));
  });
}

Var AddScalar(const Var& a, float alpha) {
  Tensor out = a.value();
  float* p = out.data();
  for (int64_t i = 0; i < out.numel(); ++i) p[i] += alpha;
  return Var::MakeNode(std::move(out), {a}, [a](VarNode& node) {
    if (Wants(a)) a.node()->AccumulateGrad(node.grad);
  });
}

Var DivByScalar(const Var& a, const Var& s) {
  IMSR_CHECK_EQ(s.value().numel(), 1);
  const float denom = s.value().item();
  IMSR_CHECK_NE(denom, 0.0f) << "division by zero";
  Tensor out = nn::Scale(a.value(), 1.0f / denom);
  return Var::MakeNode(std::move(out), {a, s}, [a, s](VarNode& node) {
    const float denom = s.value().item();
    if (Wants(a)) {
      a.node()->AccumulateGrad(nn::Scale(node.grad, 1.0f / denom));
    }
    if (Wants(s)) {
      // d/ds (a/s) = -a / s^2.
      Tensor gs({1});
      gs.at(0) = -nn::DotFlat(node.grad, a.value()) / (denom * denom);
      s.node()->AccumulateGrad(std::move(gs));
    }
  });
}

Var ScaleRows(const Var& a, const Var& scale) {
  IMSR_CHECK_EQ(a.value().dim(), 2);
  const int64_t m = a.value().size(0);
  const int64_t d = a.value().size(1);
  IMSR_CHECK_EQ(scale.value().numel(), m);
  Tensor out = a.value();
  for (int64_t i = 0; i < m; ++i) {
    const float s = scale.value().data()[i];
    float* row = out.data() + i * d;
    for (int64_t j = 0; j < d; ++j) row[j] *= s;
  }
  return Var::MakeNode(std::move(out), {a, scale}, [a, scale](
                                                       VarNode& node) {
    const int64_t m = a.value().size(0);
    const int64_t d = a.value().size(1);
    if (Wants(a)) {
      Tensor ga = Tensor::Uninitialized(a.value().shape());
      for (int64_t i = 0; i < m; ++i) {
        const float s = scale.value().data()[i];
        const float* g = node.grad.data() + i * d;
        float* o = ga.data() + i * d;
        for (int64_t j = 0; j < d; ++j) o[j] = s * g[j];
      }
      a.node()->AccumulateGrad(std::move(ga));
    }
    if (Wants(scale)) {
      Tensor gs = Tensor::Uninitialized(scale.value().shape());
      for (int64_t i = 0; i < m; ++i) {
        gs.data()[i] = nn::DotSpan(node.grad.data() + i * d,
                                   a.value().data() + i * d, d);
      }
      scale.node()->AccumulateGrad(std::move(gs));
    }
  });
}

Var MatMul(const Var& a, const Var& b) {
  Tensor out = nn::MatMul(a.value(), b.value());
  return Var::MakeNode(std::move(out), {a, b}, [a, b](VarNode& node) {
    // dL/dA = G B^T ; dL/dB = A^T G — via the transposed-operand kernels,
    // no materialised Transpose.
    if (Wants(a)) {
      a.node()->AccumulateGrad(nn::MatMulTransB(node.grad, b.value()));
    }
    if (Wants(b)) {
      b.node()->AccumulateGrad(nn::MatMulTransA(a.value(), node.grad));
    }
  });
}

Var MatMulTransA(const Var& a, const Var& b) {
  Tensor out = nn::MatMulTransA(a.value(), b.value());
  return Var::MakeNode(std::move(out), {a, b}, [a, b](VarNode& node) {
    // y = A^T B: dL/dA = B G^T ; dL/dB = A G.
    if (Wants(a)) {
      a.node()->AccumulateGrad(nn::MatMulTransB(b.value(), node.grad));
    }
    if (Wants(b)) {
      b.node()->AccumulateGrad(nn::MatMul(a.value(), node.grad));
    }
  });
}

Var MatVec(const Var& a, const Var& x) {
  Tensor out = nn::MatVec(a.value(), x.value());
  return Var::MakeNode(std::move(out), {a, x}, [a, x](VarNode& node) {
    const int64_t m = a.value().size(0);
    const int64_t k = a.value().size(1);
    const float* __restrict__ g = node.grad.data();
    if (Wants(a)) {
      // dL/dA = g x^T (outer product) — elementwise, order-preserving.
      Tensor ga = Tensor::Uninitialized({m, k});
      const float* __restrict__ px = x.value().data();
      float* __restrict__ po = ga.data();
      for (int64_t i = 0; i < m; ++i) {
        const float gi = g[i];
        float* __restrict__ orow = po + i * k;
        IMSR_SIMD_PRAGMA()
        for (int64_t j = 0; j < k; ++j) orow[j] = gi * px[j];
      }
      a.node()->AccumulateGrad(std::move(ga));
    }
    if (Wants(x)) {
      // dL/dx = A^T g — saxpy over ascending i, order-preserving per
      // output element.
      Tensor gx({k});
      const float* __restrict__ pa = a.value().data();
      float* __restrict__ po = gx.data();
      for (int64_t i = 0; i < m; ++i) {
        const float gi = g[i];
        const float* __restrict__ arow = pa + i * k;
        IMSR_SIMD_PRAGMA()
        for (int64_t j = 0; j < k; ++j) po[j] += gi * arow[j];
      }
      x.node()->AccumulateGrad(std::move(gx));
    }
  });
}

Var MatVecTransA(const Var& a, const Var& x) {
  IMSR_CHECK_EQ(a.value().dim(), 2);
  IMSR_CHECK_EQ(x.value().dim(), 1);
  IMSR_CHECK_EQ(a.value().size(0), x.value().numel());
  Tensor out = nn::MatVecTransA(a.value(), x.value());
  return Var::MakeNode(std::move(out), {a, x}, [a, x](VarNode& node) {
    const int64_t m = a.value().size(0);
    const int64_t k = a.value().size(1);
    const float* g = node.grad.data();
    if (Wants(a)) {
      // y = A^T x: dL/dA = x g^T (outer product) — order-preserving.
      Tensor ga = Tensor::Uninitialized({m, k});
      const float* __restrict__ px = x.value().data();
      for (int64_t i = 0; i < m; ++i) {
        const float xi = px[i];
        float* __restrict__ o = ga.data() + i * k;
        IMSR_SIMD_PRAGMA()
        for (int64_t j = 0; j < k; ++j) o[j] = xi * g[j];
      }
      a.node()->AccumulateGrad(std::move(ga));
    }
    if (Wants(x)) {
      // dL/dx = A g — row dots through the shared vectorized DotSpan.
      Tensor gx = Tensor::Uninitialized({m});
      const float* pa = a.value().data();
      for (int64_t i = 0; i < m; ++i) {
        gx.at(i) = nn::DotSpan(pa + i * k, g, k);
      }
      x.node()->AccumulateGrad(std::move(gx));
    }
  });
}

Var Transpose(const Var& a) {
  Tensor out = nn::Transpose(a.value());
  return Var::MakeNode(std::move(out), {a}, [a](VarNode& node) {
    if (Wants(a)) a.node()->AccumulateGrad(nn::Transpose(node.grad));
  });
}

Var Dot(const Var& a, const Var& b) {
  Tensor out({1});
  out.at(0) = nn::DotFlat(a.value(), b.value());
  return Var::MakeNode(std::move(out), {a, b}, [a, b](VarNode& node) {
    const float g = node.grad.at(0);
    if (Wants(a)) a.node()->AccumulateGrad(nn::Scale(b.value(), g));
    if (Wants(b)) b.node()->AccumulateGrad(nn::Scale(a.value(), g));
  });
}

Var Reshape(const Var& a, Shape shape) {
  Tensor out = a.value().Reshape(shape);
  return Var::MakeNode(std::move(out), {a}, [a](VarNode& node) {
    if (Wants(a)) {
      a.node()->AccumulateGrad(node.grad.Reshape(a.value().shape()));
    }
  });
}

Var Sum(const Var& a) {
  Tensor out({1});
  const float* p = a.value().data();
  float total = 0.0f;
  for (int64_t i = 0; i < a.value().numel(); ++i) total += p[i];
  out.at(0) = total;
  return Var::MakeNode(std::move(out), {a}, [a](VarNode& node) {
    if (Wants(a)) {
      a.node()->AccumulateGrad(
          Tensor::Full(a.value().shape(), node.grad.at(0)));
    }
  });
}

Var Mean(const Var& a) {
  const float inv = 1.0f / static_cast<float>(a.value().numel());
  return Scale(Sum(a), inv);
}

Var SumSquares(const Var& a) {
  Tensor out({1});
  const float* p = a.value().data();
  float total = 0.0f;
  for (int64_t i = 0; i < a.value().numel(); ++i) total += p[i] * p[i];
  out.at(0) = total;
  return Var::MakeNode(std::move(out), {a}, [a](VarNode& node) {
    if (Wants(a)) {
      a.node()->AccumulateGrad(
          nn::Scale(a.value(), 2.0f * node.grad.at(0)));
    }
  });
}

// The unary nonlinearities read their own output (node.value) in the
// backward pass instead of capturing a saved copy — the node already
// keeps the value alive for exactly as long as the closure.

Var Sigmoid(const Var& a) {
  Tensor out = nn::Sigmoid(a.value());
  return Var::MakeNode(std::move(out), {a}, [a](VarNode& node) {
    if (!Wants(a)) return;
    Tensor grad = Tensor::Uninitialized(node.value.shape());
    const float* y = node.value.data();
    const float* g = node.grad.data();
    float* o = grad.data();
    for (int64_t i = 0; i < node.value.numel(); ++i) {
      o[i] = g[i] * y[i] * (1.0f - y[i]);
    }
    a.node()->AccumulateGrad(std::move(grad));
  });
}

Var Tanh(const Var& a) {
  Tensor out = nn::Tanh(a.value());
  return Var::MakeNode(std::move(out), {a}, [a](VarNode& node) {
    if (!Wants(a)) return;
    Tensor grad = Tensor::Uninitialized(node.value.shape());
    const float* y = node.value.data();
    const float* g = node.grad.data();
    float* o = grad.data();
    for (int64_t i = 0; i < node.value.numel(); ++i) {
      o[i] = g[i] * (1.0f - y[i] * y[i]);
    }
    a.node()->AccumulateGrad(std::move(grad));
  });
}

Var Exp(const Var& a) {
  Tensor out = nn::Exp(a.value());
  return Var::MakeNode(std::move(out), {a}, [a](VarNode& node) {
    if (!Wants(a)) return;
    a.node()->AccumulateGrad(nn::Mul(node.grad, node.value));
  });
}

Var Softmax(const Var& a) {
  Tensor out = nn::Softmax(a.value());
  return Var::MakeNode(std::move(out), {a}, [a](VarNode& node) {
    if (!Wants(a)) return;
    // Row-wise Jacobian product: dx = y * (g - <g, y>). The <g, y> dot
    // goes through the vectorized DotSpan (reduction class); the
    // Jacobian apply is elementwise (order-preserving).
    const Tensor& y_all = node.value;
    const int64_t rows = y_all.dim() == 2 ? y_all.size(0) : 1;
    const int64_t cols = y_all.dim() == 2 ? y_all.size(1) : y_all.numel();
    Tensor grad = Tensor::Uninitialized(y_all.shape());
    for (int64_t i = 0; i < rows; ++i) {
      const float* __restrict__ y = y_all.data() + i * cols;
      const float* __restrict__ g = node.grad.data() + i * cols;
      float* __restrict__ o = grad.data() + i * cols;
      const float dot = nn::DotSpan(g, y, cols);
      IMSR_SIMD_PRAGMA()
      for (int64_t j = 0; j < cols; ++j) o[j] = y[j] * (g[j] - dot);
    }
    a.node()->AccumulateGrad(std::move(grad));
  });
}

Var SquashRows(const Var& a) {
  Tensor out = nn::SquashRows(a.value());
  return Var::MakeNode(std::move(out), {a}, [a](VarNode& node) {
    if (!Wants(a)) return;
    // y = c(n) v with n = |v|, c(n) = n / (1 + n^2).
    // dL/dv = c g + (c'(n)/n) (v . g) v, c'(n) = (1 - n^2) / (1 + n^2)^2.
    const Tensor& v_all = a.value();
    const int64_t rows = v_all.dim() == 2 ? v_all.size(0) : 1;
    const int64_t cols = v_all.dim() == 2 ? v_all.size(1) : v_all.numel();
    Tensor grad = Tensor::Uninitialized(v_all.shape());
    for (int64_t i = 0; i < rows; ++i) {
      const float* __restrict__ v = v_all.data() + i * cols;
      const float* __restrict__ g = node.grad.data() + i * cols;
      float* __restrict__ o = grad.data() + i * cols;
      // Both accumulators are reductions, each through DotSpan; splitting
      // the fused loop keeps one fixed per-accumulator order.
      const float ss = nn::DotSpan(v, v, cols);
      const float vg = nn::DotSpan(v, g, cols);
      const float n = std::sqrt(ss);
      if (n < 1e-12f) {
        for (int64_t j = 0; j < cols; ++j) o[j] = 0.0f;
        continue;
      }
      const float c = n / (1.0f + ss);
      const float c_prime = (1.0f - ss) / ((1.0f + ss) * (1.0f + ss));
      const float radial = c_prime / n * vg;
      IMSR_SIMD_PRAGMA()
      for (int64_t j = 0; j < cols; ++j) o[j] = c * g[j] + radial * v[j];
    }
    a.node()->AccumulateGrad(std::move(grad));
  });
}

Var GatherRows(const Var& table, const std::vector<int64_t>& indices) {
  Tensor out;
  GatherRowsInto(table.value(), indices.data(),
                 static_cast<int64_t>(indices.size()), &out);
  // The backward closure owns its index list through the graph's
  // allocator (ArenaArray), not a heap vector; skip the copy entirely
  // when no gradient will flow.
  ArenaArray<int64_t> saved;
  if (GradEnabled() && Wants(table)) {
    saved = ArenaArray<int64_t>(indices.data(), indices.size(),
                                CurrentGraphArena());
  }
  return Var::MakeNode(
      std::move(out), {table},
      [table, saved = std::move(saved)](VarNode& node) {
        if (!Wants(table)) return;
        // Scatter-add directly into the (typically huge) table gradient —
        // allocating a dense temporary per lookup would dominate training
        // time.
        VarNode* parent = table.node().get();
        if (!parent->grad.defined()) {
          parent->grad = Tensor::Zeros(table.value().shape());
        }
        const int64_t cols = table.value().size(1);
        for (size_t i = 0; i < saved.size(); ++i) {
          const float* __restrict__ g =
              node.grad.data() + static_cast<int64_t>(i) * cols;
          float* __restrict__ o = parent->grad.data() + saved[i] * cols;
          // Vectorizing only the inner (within-row) add keeps repeated
          // indices correct and each element's accumulation order intact.
          IMSR_SIMD_PRAGMA()
          for (int64_t j = 0; j < cols; ++j) o[j] += g[j];
        }
      });
}

Var ConcatRows(const std::vector<Var>& parts) {
  IMSR_CHECK(!parts.empty());
  std::vector<Tensor> values;
  values.reserve(parts.size());
  for (const Var& part : parts) values.push_back(part.value());
  Tensor out = nn::ConcatRows(values);
  return Var::MakeNode(std::move(out), parts, [parts](VarNode& node) {
    int64_t row = 0;
    const int64_t cols = node.value.size(1);
    for (const Var& part : parts) {
      const int64_t part_rows =
          part.value().dim() == 2 ? part.value().size(0) : 1;
      if (Wants(part)) {
        Tensor grad = Tensor::Uninitialized(part.value().shape());
        std::copy_n(node.grad.data() + row * cols,
                    static_cast<size_t>(part_rows * cols), grad.data());
        part.node()->AccumulateGrad(std::move(grad));
      }
      row += part_rows;
    }
  });
}

Var RowSlice(const Var& a, int64_t begin, int64_t end) {
  Tensor out = a.value().RowSlice(begin, end);
  return Var::MakeNode(std::move(out), {a}, [a, begin](VarNode& node) {
    if (!Wants(a)) return;
    a.node()->AccumulateGradRows(node.grad, begin);
  });
}

Var RowVector(const Var& a, int64_t i) {
  Tensor out = a.value().Row(i);
  return Var::MakeNode(std::move(out), {a}, [a, i](VarNode& node) {
    if (!Wants(a)) return;
    a.node()->AccumulateGradRows(node.grad, i);
  });
}

Var NegLogSoftmax(const Var& scores, int64_t target) {
  const Tensor& s = scores.value();
  IMSR_CHECK_EQ(s.dim(), 1);
  IMSR_CHECK(target >= 0 && target < s.numel());
  const Tensor lse = nn::LogSumExpRows(s);
  Tensor out({1});
  out.at(0) = lse.at(0) - s.at(target);
  Tensor probs = nn::Softmax(s);
  return Var::MakeNode(
      std::move(out), {scores},
      [scores, probs = std::move(probs), target](VarNode& node) {
        if (!Wants(scores)) return;
        // d/ds = softmax(s) - onehot(target), times upstream scalar.
        Tensor grad = nn::Scale(probs, node.grad.at(0));
        grad.at(target) -= node.grad.at(0);
        scores.node()->AccumulateGrad(std::move(grad));
      });
}

Var KdSigmoidCrossEntropy(const Var& student_logits,
                          const Tensor& teacher_probs, float tau) {
  const Tensor& s = student_logits.value();
  IMSR_CHECK_EQ(s.dim(), 1);
  IMSR_CHECK_EQ(s.numel(), teacher_probs.numel());
  IMSR_CHECK_GT(tau, 0.0f);
  // Forward: sum_k BCE(sigma(s_k / tau); p_k), numerically via
  // softplus: BCE = softplus(z) - p z with z = s / tau.
  auto softplus = [](float z) {
    return z > 0.0f ? z + std::log1p(std::exp(-z)) : std::log1p(std::exp(z));
  };
  Tensor out({1});
  float total = 0.0f;
  for (int64_t k = 0; k < s.numel(); ++k) {
    const float z = s.at(k) / tau;
    total += softplus(z) - teacher_probs.at(k) * z;
  }
  out.at(0) = total;
  return Var::MakeNode(
      std::move(out), {student_logits},
      [student_logits, teacher_probs, tau](VarNode& node) {
        if (!Wants(student_logits)) return;
        // dBCE/ds_k = (sigma(s_k/tau) - p_k) / tau.
        const Tensor& s = student_logits.value();
        Tensor grad = Tensor::Uninitialized(s.shape());
        const float g = node.grad.at(0);
        for (int64_t k = 0; k < s.numel(); ++k) {
          const float sig = 1.0f / (1.0f + std::exp(-s.at(k) / tau));
          grad.at(k) = g * (sig - teacher_probs.at(k)) / tau;
        }
        student_logits.node()->AccumulateGrad(std::move(grad));
      });
}

Var KdSoftmaxCrossEntropy(const Var& student_logits,
                          const Tensor& teacher_probs, float tau) {
  const Tensor& s = student_logits.value();
  IMSR_CHECK_EQ(s.dim(), 1);
  IMSR_CHECK_EQ(s.numel(), teacher_probs.numel());
  IMSR_CHECK_GT(tau, 0.0f);
  Tensor scaled = nn::Scale(s, 1.0f / tau);
  const Tensor log_probs = [&scaled] {
    const Tensor lse = nn::LogSumExpRows(scaled);
    Tensor out(scaled.shape());
    for (int64_t k = 0; k < scaled.numel(); ++k) {
      out.at(k) = scaled.at(k) - lse.at(0);
    }
    return out;
  }();
  Tensor out({1});
  float total = 0.0f;
  for (int64_t k = 0; k < s.numel(); ++k) {
    total -= teacher_probs.at(k) * log_probs.at(k);
  }
  out.at(0) = total;
  Tensor student_probs = nn::Softmax(scaled);
  return Var::MakeNode(
      std::move(out), {student_logits},
      [student_logits, teacher_probs,
       student_probs = std::move(student_probs), tau](VarNode& node) {
        if (!Wants(student_logits)) return;
        // d/ds_k = (sum_j p_j) * q_k - p_k, all over tau; teacher need not
        // be normalised, hence the explicit sum.
        float teacher_mass = 0.0f;
        for (int64_t k = 0; k < teacher_probs.numel(); ++k) {
          teacher_mass += teacher_probs.at(k);
        }
        const float g = node.grad.at(0);
        Tensor grad = Tensor::Uninitialized(student_probs.shape());
        for (int64_t k = 0; k < grad.numel(); ++k) {
          grad.at(k) = g *
                       (teacher_mass * student_probs.at(k) -
                        teacher_probs.at(k)) /
                       tau;
        }
        student_logits.node()->AccumulateGrad(std::move(grad));
      });
}

}  // namespace imsr::nn::ops
