#include "nn/optim.h"

#include <cmath>

#include "nn/simd.h"
#include "util/hot.h"
#include "util/thread_pool.h"

namespace imsr::nn {
namespace {

// Elementwise updates below this size run inline; above it (embedding
// tables) the range goes through the pool. Disjoint element ranges keep
// the update bitwise identical for any thread count.
constexpr int64_t kParallelElements = 1 << 15;

void ParallelElementwise(int64_t count, util::RangeFn fn) {
  if (count >= kParallelElements) {
    util::GlobalPool().ParallelFor(count, /*grain=*/0, fn);
  } else {
    fn(0, count);
  }
}

// One Adam update span, extracted from the Step lambda so the loop can
// carry the multi-versioning attribute (clones attach to functions, not
// lambdas). Order-preserving: element i's operation chain never changes.
IMSR_SIMD_CLONES
void AdamUpdateSpan(float* __restrict__ m, float* __restrict__ v,
                    float* __restrict__ value, const float* __restrict__ g,
                    float b1, float b2, float bias1, float bias2, float lr,
                    float eps, int64_t begin, int64_t end) {
  IMSR_SIMD_PRAGMA()
  for (int64_t i = begin; i < end; ++i) {
    m[i] = b1 * m[i] + (1.0f - b1) * g[i];
    v[i] = b2 * v[i] + (1.0f - b2) * g[i] * g[i];
    const float m_hat = m[i] / bias1;
    const float v_hat = v[i] / bias2;
    value[i] -= lr * m_hat / (std::sqrt(v_hat) + eps);
  }
}

}  // namespace

void Adam::Register(const Var& parameter) {
  IMSR_CHECK(parameter.defined());
  IMSR_CHECK(parameter.requires_grad())
      << "optimiser parameters must require gradients";
  VarNode* key = parameter.node().get();
  if (index_.count(key) > 0) return;
  index_[key] = parameters_.size();
  parameters_.push_back(parameter);
}

void Adam::Unregister(const Var& parameter) {
  VarNode* key = parameter.node().get();
  state_.erase(key);
  auto it = index_.find(key);
  if (it == index_.end()) return;
  const size_t pos = it->second;
  index_.erase(it);
  if (pos + 1 != parameters_.size()) {
    parameters_[pos] = parameters_.back();
    index_[parameters_[pos].node().get()] = pos;
  }
  parameters_.pop_back();
}

void Adam::ZeroGradAll() {
  for (Var& parameter : parameters_) parameter.ZeroGrad();
}

// The update rule is elementwise: each parameter's new value is an
// independent chain of scalar ops (mul/add/div/sqrt, all IEEE
// correctly-rounded), so the simd annotation cannot change a bit — no
// scalar fallback needed. IMSR_HOT because GCC's -O2 cost model
// otherwise declines these runtime-trip-count loops.
IMSR_HOT_BEGIN
void Adam::Step() {
  for (Var& parameter : parameters_) {
    if (!parameter.has_grad()) continue;
    State& state = state_[parameter.node().get()];
    if (!state.m.defined()) {
      state.m = Tensor::Zeros(parameter.value().shape());
      state.v = Tensor::Zeros(parameter.value().shape());
    }
    state.step += 1;
    const Tensor& grad = parameter.grad();
    float* __restrict__ m = state.m.data();
    float* __restrict__ v = state.v.data();
    float* __restrict__ value = parameter.mutable_value().data();
    const float* __restrict__ g = grad.data();
    const float b1 = config_.beta1;
    const float b2 = config_.beta2;
    const float bias1 =
        1.0f - std::pow(b1, static_cast<float>(state.step));
    const float bias2 =
        1.0f - std::pow(b2, static_cast<float>(state.step));
    const float lr = config_.learning_rate;
    const float eps = config_.epsilon;
    ParallelElementwise(grad.numel(), [&](int64_t begin, int64_t end) {
      AdamUpdateSpan(m, v, value, g, b1, b2, bias1, bias2, lr, eps, begin,
                     end);
    });
  }
}
IMSR_HOT_END

}  // namespace imsr::nn
