#include "core/eir.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "nn/arena.h"
#include "nn/ops.h"
#include "nn/simd.h"
#include "util/check.h"

namespace imsr::core {
namespace {

// Teacher logit matrix f(h_k^{t-1}, e_c): (K_prev x m) dot products of the
// (constant) previous-span interests against the candidate snapshot.
nn::Tensor TeacherLogits(const nn::Tensor& teacher_interests,
                         const nn::Tensor& candidates) {
  return nn::MatMulTransB(teacher_interests, candidates);
}

// Cosine-normalised teacher logits (KD2 variant).
nn::Tensor CosineTeacherLogits(const nn::Tensor& teacher_interests,
                               const nn::Tensor& candidates) {
  nn::Tensor logits = TeacherLogits(teacher_interests, candidates);
  for (int64_t k = 0; k < logits.size(0); ++k) {
    const float row_norm = nn::L2NormFlat(teacher_interests.Row(k));
    for (int64_t c = 0; c < logits.size(1); ++c) {
      const float cand_norm = nn::L2NormFlat(candidates.Row(c));
      const float denom = row_norm * cand_norm;
      logits.at(k, c) = denom > 1e-12f ? logits.at(k, c) / denom : 0.0f;
    }
  }
  return logits;
}

nn::Tensor SigmoidWithTau(const nn::Tensor& logits, float tau) {
  nn::Tensor probs(logits.shape());
  for (int64_t i = 0; i < logits.numel(); ++i) {
    probs.data()[i] = 1.0f / (1.0f + std::exp(-logits.data()[i] / tau));
  }
  return probs;
}

// Softmax over interests (rows) for each candidate column.
nn::Tensor ColumnSoftmaxWithTau(const nn::Tensor& logits, float tau) {
  return nn::Transpose(
      nn::Softmax(nn::Scale(nn::Transpose(logits), 1.0f / tau)));
}

// Sum over candidates of the per-candidate softmax KD between the student
// logit columns and the precomputed teacher column distributions.
nn::Var ColumnwiseSoftmaxKd(const nn::Var& student_logits,
                            const nn::Tensor& teacher_probs, float tau) {
  const int64_t k = teacher_probs.size(0);
  const int64_t m = teacher_probs.size(1);
  nn::Var student_t = nn::ops::Transpose(student_logits);  // (m x K)
  nn::Var total;
  for (int64_t c = 0; c < m; ++c) {
    nn::Tensor teacher_col({k});
    for (int64_t row = 0; row < k; ++row) {
      teacher_col.at(row) = teacher_probs.at(row, c);
    }
    nn::Var term = nn::ops::KdSoftmaxCrossEntropy(
        nn::ops::RowVector(student_t, c), teacher_col, tau);
    total = total.defined() ? nn::ops::Add(total, term) : term;
  }
  return total;
}

// Backward of the fused EIR node. Per sample, in the per-sample chain's
// kernels: dS = g (sigmoid(S / tau) - P) / tau (KdSigmoidCrossEntropy),
// dH_existing = dS C (MatMul's dA: MatMulTransB against the transposed
// candidate block) merged into the interest rows as RowSlice does, and
// dC = dS^T H_existing (MatMul's dB in MatMulTransA's rank-1 order,
// already transposed) merged into the block's rows of the candidate
// gather. `meta` holds (block index, teacher rows) per sample; `sigmoids`
// and `probs` the flattened student sigmoids and teacher probabilities,
// `cands_t` the transposed (d x m) candidate blocks.
IMSR_SIMD_CLONES
void SigmoidKdBatchBackward(nn::VarNode& node, const nn::Tensor& sigmoids,
                            const nn::Tensor& probs,
                            const nn::Tensor& cands_t,
                            const nn::ArenaArray<int64_t>& meta, float tau,
                            float coefficient, int64_t block) {
  nn::VarNode* loss = node.parents[0];
  nn::VarNode* cands = node.parents[1];
  // Add: the running loss takes the node's gradient unchanged.
  if (loss->requires_grad) loss->AccumulateGrad(node.grad);
  // Scale: the retention terms see it times the coefficient.
  const float g = node.grad.at(0) * coefficient;
  const int64_t m = block;
  const int64_t d = cands->value.size(1);
  const float* psig = sigmoids.data();
  const float* pp = probs.data();
  nn::Tensor g_logits;
  nn::Tensor g_interests;
  nn::Tensor g_cands;
  for (size_t n = 0; n < meta.size() / 2; ++n) {
    nn::VarNode* interests = node.parents[2 + n];
    const int64_t b = meta[2 * n];
    const int64_t k = meta[2 * n + 1];
    g_logits.ResizeUninitialized({k, m});
    float* pg = g_logits.data();
    for (int64_t i = 0; i < k * m; ++i) {
      pg[i] = g * (psig[i] - pp[i]) / tau;
    }
    psig += k * m;
    pp += k * m;
    if (interests->requires_grad) {
      nn::MatMulTransBInto(
          g_logits,
          nn::ConstMatrixView{cands_t.data() + static_cast<int64_t>(n) *
                                                   d * m,
                              d, m},
          &g_interests);
      interests->AccumulateGradRows(g_interests, 0);
    }
    if (cands->requires_grad) {
      const float* ph = interests->value.data();
      g_cands.ResizeUninitialized({m, d});
      g_cands.Fill(0.0f);
      for (int64_t j = 0; j < m; ++j) {
        float* __restrict__ o = g_cands.data() + j * d;
        for (int64_t t = 0; t < k; ++t) {
          const float gt = pg[t * m + j];
          const float* __restrict__ hrow = ph + t * d;
          IMSR_SIMD_PRAGMA()
          for (int64_t c = 0; c < d; ++c) o[c] += hrow[c] * gt;
        }
      }
      cands->AccumulateGradRows(g_cands, b * m);
    }
  }
}

// EIR over a batch as one node (see AddRetentionLoss).
nn::Var SigmoidKdBatch(const EirConfig& config, const nn::Var& loss,
                       const std::vector<RetainedSample>& samples,
                       const nn::Var& candidates,
                       const nn::Tensor& teacher_candidates, int64_t block,
                       std::vector<float>* retention_values) {
  const nn::Tensor& cands = candidates.value();
  const int64_t m = block;
  const int64_t d = cands.size(1);
  const float tau = config.tau;
  int64_t total_logits = 0;
  std::vector<int64_t> meta;
  meta.reserve(2 * samples.size());
  for (const RetainedSample& sample : samples) {
    const int64_t k = sample.teacher_interests->size(0);
    IMSR_CHECK_GT(k, 0);
    IMSR_CHECK_GE(sample.interests.value().size(0), k)
        << "student must keep every existing interest row";
    IMSR_CHECK_LE((sample.block_index + 1) * m, cands.size(0));
    meta.push_back(sample.block_index);
    meta.push_back(k);
    total_logits += k * m;
  }
  const auto count = static_cast<int64_t>(samples.size());
  nn::Tensor sigmoids = nn::Tensor::Uninitialized({total_logits});
  nn::Tensor probs = nn::Tensor::Uninitialized({total_logits});
  nn::Tensor cands_t = nn::Tensor::Uninitialized({count * d, m});
  nn::Tensor block_t;
  nn::Tensor teacher_logits;
  nn::Tensor student_logits;
  float* psig = sigmoids.data();
  float* pp = probs.data();
  float total = loss.value().item();
  for (int64_t n = 0; n < count; ++n) {
    const RetainedSample& sample = samples[static_cast<size_t>(n)];
    const int64_t k = sample.teacher_interests->size(0);
    const int64_t row = sample.block_index * m;
    // Teacher probabilities: TeacherLogits + SigmoidWithTau on the
    // sample's block of the batch's teacher gather.
    nn::MatMulTransBInto(
        *sample.teacher_interests,
        nn::ConstMatrixView{teacher_candidates.data() + row * d, m, d},
        &teacher_logits);
    const float* tl = teacher_logits.data();
    for (int64_t i = 0; i < k * m; ++i) {
      pp[i] = 1.0f / (1.0f + std::exp(-tl[i] / tau));
    }
    // Student logits H C^T through nn::MatMul against the transposed
    // block, as the chain's MatMul(RowSlice(H), Transpose(C)) computes
    // them: each element's sum runs in the same order whatever the row
    // count, so rows past the teacher's are computed and ignored.
    block_t.ResizeUninitialized({d, m});
    const float* pc = cands.data() + row * d;
    for (int64_t j = 0; j < m; ++j) {
      for (int64_t c = 0; c < d; ++c) block_t.at(c, j) = pc[j * d + c];
    }
    nn::MatMulInto(sample.interests.value(), block_t, &student_logits);
    std::copy_n(block_t.data(), d * m, cands_t.data() + n * d * m);
    // KdSigmoidCrossEntropy's forward sum, then the Scale + Add fold.
    // Its backward's sigmoid(s / tau) = 1 / (1 + exp(-z)) shares exp(-z)
    // with the softplus (negation commutes exactly with the division).
    const float* ps = student_logits.data();
    float retention = 0.0f;
    for (int64_t i = 0; i < k * m; ++i) {
      const float z = ps[i] / tau;
      const float e = std::exp(-z);
      const float softplus =
          z > 0.0f ? z + std::log1p(e) : std::log1p(std::exp(z));
      retention += softplus - pp[i] * z;
      psig[i] = 1.0f / (1.0f + e);
    }
    retention_values->push_back(retention);
    total = total + retention * config.coefficient;
    psig += k * m;
    pp += k * m;
  }

  thread_local std::vector<nn::Var> parents;
  parents.clear();
  parents.reserve(2 + samples.size());
  parents.push_back(loss);
  parents.push_back(candidates);
  for (const RetainedSample& sample : samples) {
    parents.push_back(sample.interests);
  }
  nn::Tensor out({1});
  out.at(0) = total;
  nn::Var result = nn::Var::MakeNode(
      std::move(out), parents,
      [sigmoids = std::move(sigmoids), probs = std::move(probs),
       cands_t = std::move(cands_t),
       meta = nn::ArenaArray<int64_t>(meta.data(), meta.size(),
                                      nn::CurrentGraphArena()),
       tau, coefficient = config.coefficient, block](nn::VarNode& node) {
        SigmoidKdBatchBackward(node, sigmoids, probs, cands_t, meta, tau,
                               coefficient, block);
      });
  parents.clear();
  return result;
}

}  // namespace

const char* RetentionKindName(RetentionKind kind) {
  switch (kind) {
    case RetentionKind::kNone:
      return "none";
    case RetentionKind::kSigmoidKd:
      return "EIR";
    case RetentionKind::kEuclidean:
      return "DIR";
    case RetentionKind::kSoftmaxKd1:
      return "KD1";
    case RetentionKind::kSoftmaxKd2:
      return "KD2";
    case RetentionKind::kSoftmaxKd3:
      return "KD3";
  }
  return "?";
}

RetentionKind RetentionKindFromName(const std::string& name) {
  if (name == "none") return RetentionKind::kNone;
  if (name == "EIR" || name == "eir") return RetentionKind::kSigmoidKd;
  if (name == "DIR" || name == "dir") return RetentionKind::kEuclidean;
  if (name == "KD1" || name == "kd1") return RetentionKind::kSoftmaxKd1;
  if (name == "KD2" || name == "kd2") return RetentionKind::kSoftmaxKd2;
  if (name == "KD3" || name == "kd3") return RetentionKind::kSoftmaxKd3;
  IMSR_CHECK(false) << "unknown retention kind '" << name << "'";
  std::abort();
}

nn::Var RetentionLoss(const EirConfig& config,
                      const nn::Var& student_interests,
                      const nn::Tensor& teacher_interests,
                      const nn::Var& candidates,
                      const nn::Tensor& teacher_candidates) {
  if (config.kind == RetentionKind::kNone) return nn::Var();
  const int64_t k_prev = teacher_interests.size(0);
  IMSR_CHECK_GE(student_interests.value().size(0), k_prev)
      << "student must keep every existing interest row";
  IMSR_CHECK_GT(k_prev, 0);

  // The student rows aligned with the teacher's interests.
  nn::Var student_existing =
      nn::ops::RowSlice(student_interests, 0, k_prev);

  if (config.kind == RetentionKind::kEuclidean) {
    // DIR: sum_k || h_k^t - h_k^{t-1} ||^2 — no candidate involvement.
    const nn::Var teacher_const(teacher_interests);
    return nn::ops::SumSquares(
        nn::ops::Sub(student_existing, teacher_const));
  }

  const int64_t m = candidates.value().size(0);
  // Student logit matrix f(h_k^t, e_c): (K_prev x m).
  nn::Var student_logits = nn::ops::MatMul(
      student_existing, nn::ops::Transpose(candidates));

  switch (config.kind) {
    case RetentionKind::kSigmoidKd: {
      const nn::Tensor teacher_probs = SigmoidWithTau(
          TeacherLogits(teacher_interests, teacher_candidates),
          config.tau);
      return nn::ops::KdSigmoidCrossEntropy(
          nn::ops::Reshape(student_logits, {k_prev * m}),
          teacher_probs.Reshape({k_prev * m}), config.tau);
    }
    case RetentionKind::kSoftmaxKd1: {
      const float tau = 2.0f;
      return ColumnwiseSoftmaxKd(
          student_logits,
          ColumnSoftmaxWithTau(
              TeacherLogits(teacher_interests, teacher_candidates), tau),
          tau);
    }
    case RetentionKind::kSoftmaxKd2: {
      const float tau = 1.0f;
      return ColumnwiseSoftmaxKd(
          student_logits,
          ColumnSoftmaxWithTau(
              CosineTeacherLogits(teacher_interests, teacher_candidates),
              tau),
          tau);
    }
    case RetentionKind::kSoftmaxKd3: {
      const float tau = 0.5f;
      return ColumnwiseSoftmaxKd(
          student_logits,
          ColumnSoftmaxWithTau(
              TeacherLogits(teacher_interests, teacher_candidates), tau),
          tau);
    }
    default:
      break;
  }
  IMSR_CHECK(false) << "unreachable retention kind";
  std::abort();
}

nn::Var AddRetentionLoss(const EirConfig& config, const nn::Var& loss,
                         const std::vector<RetainedSample>& samples,
                         const nn::Var& candidates,
                         const nn::Tensor& teacher_candidates, int64_t block,
                         std::vector<float>* retention_values) {
  IMSR_CHECK(retention_values != nullptr);
  IMSR_CHECK(config.kind != RetentionKind::kNone);
  IMSR_CHECK(SameShape(teacher_candidates, candidates.value()));
  if (samples.empty()) return loss;
  if (config.kind == RetentionKind::kSigmoidKd) {
    return SigmoidKdBatch(config, loss, samples, candidates,
                          teacher_candidates, block, retention_values);
  }
  nn::Var total = loss;
  for (const RetainedSample& sample : samples) {
    const int64_t row = sample.block_index * block;
    nn::Var retention = RetentionLoss(
        config, sample.interests, *sample.teacher_interests,
        nn::ops::RowSlice(candidates, row, row + block),
        teacher_candidates.RowSlice(row, row + block));
    retention_values->push_back(retention.value().item());
    total = nn::ops::Add(
        total, nn::ops::Scale(retention, config.coefficient));
  }
  return total;
}

}  // namespace imsr::core
