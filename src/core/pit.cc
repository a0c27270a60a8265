#include "core/pit.h"

#include <cmath>

#include "obs/obs.h"
#include "util/check.h"

namespace imsr::core {

bool SolveLinearSystem(const nn::Tensor& a, const nn::Tensor& b,
                       nn::Tensor* x) {
  IMSR_CHECK_EQ(a.dim(), 2);
  IMSR_CHECK_EQ(a.size(0), a.size(1));
  IMSR_CHECK_EQ(b.dim(), 1);
  IMSR_CHECK_EQ(b.numel(), a.size(0));
  const int64_t n = a.size(0);
  nn::Tensor m = a;       // working copy
  *x = b;                 // becomes the solution
  for (int64_t col = 0; col < n; ++col) {
    // Partial pivot.
    int64_t pivot = col;
    for (int64_t row = col + 1; row < n; ++row) {
      if (std::fabs(m.at(row, col)) > std::fabs(m.at(pivot, col))) {
        pivot = row;
      }
    }
    if (!(std::fabs(m.at(pivot, col)) > 1e-12f)) return false;
    if (pivot != col) {
      for (int64_t j = 0; j < n; ++j) {
        std::swap(m.at(col, j), m.at(pivot, j));
      }
      std::swap(x->at(col), x->at(pivot));
    }
    const float inv = 1.0f / m.at(col, col);
    for (int64_t row = col + 1; row < n; ++row) {
      const float factor = m.at(row, col) * inv;
      if (factor == 0.0f) continue;
      for (int64_t j = col; j < n; ++j) {
        m.at(row, j) -= factor * m.at(col, j);
      }
      x->at(row) -= factor * x->at(col);
    }
  }
  // Back substitution.
  for (int64_t row = n - 1; row >= 0; --row) {
    float acc = x->at(row);
    for (int64_t j = row + 1; j < n; ++j) {
      acc -= m.at(row, j) * x->at(j);
    }
    x->at(row) = acc / m.at(row, row);
  }
  return true;
}

bool ProjectOntoRowSpan(const nn::Tensor& basis, const nn::Tensor& h,
                        nn::Tensor* projection) {
  IMSR_CHECK_EQ(basis.dim(), 2);
  IMSR_CHECK_EQ(h.dim(), 1);
  IMSR_CHECK_EQ(basis.size(1), h.numel());
  const int64_t k = basis.size(0);
  nn::Tensor gram = nn::MatMulTransB(basis, basis);
  // Mild ridge keeps near-collinear interest sets solvable.
  for (int64_t i = 0; i < k; ++i) gram.at(i, i) += 1e-6f;
  const nn::Tensor rhs = nn::MatVec(basis, h);      // B h, (K)
  nn::Tensor coeffs;
  if (!SolveLinearSystem(gram, rhs, &coeffs)) return false;
  // proj = B^T coeffs.
  *projection = nn::MatVec(nn::Transpose(basis), coeffs);
  return true;
}

nn::Tensor OrthogonalComponent(const nn::Tensor& basis,
                               const nn::Tensor& h) {
  nn::Tensor projection;
  IMSR_CHECK(ProjectOntoRowSpan(basis, h, &projection))
      << "singular Gram in OrthogonalComponent";
  return nn::Sub(h, projection);
}

TrimResult ProjectAndTrim(const nn::Tensor& interests, int64_t num_existing,
                          const PitConfig& config) {
  IMSR_CHECK_EQ(interests.dim(), 2);
  IMSR_CHECK_GE(num_existing, 1);
  IMSR_CHECK_LE(num_existing, interests.size(0));
  const int64_t total = interests.size(0);
  const int64_t dim = interests.size(1);

  nn::Tensor existing = interests.RowSlice(0, num_existing);

  TrimResult result;
  for (int64_t row = 0; row < num_existing; ++row) result.kept.push_back(row);

  // Effective threshold: relative mode scales c2 by the existing
  // interests' own magnitude.
  double threshold = config.c2;
  if (config.relative) {
    double mean_norm = 0.0;
    for (int64_t row = 0; row < num_existing; ++row) {
      mean_norm += nn::L2NormFlat(existing.Row(row));
    }
    mean_norm /= static_cast<double>(num_existing);
    threshold = config.c2 * mean_norm;
  }

  std::vector<nn::Tensor> kept_rows;
  for (int64_t row = num_existing; row < total; ++row) {
    const nn::Tensor h = interests.Row(row);
    nn::Tensor projection;
    if (!ProjectOntoRowSpan(existing, h, &projection)) {
      // Singularity depends on the existing rows alone, so this is the
      // first candidate and nothing is kept or measured yet: every
      // candidate is trimmed.
      IMSR_COUNTER_ADD("pit/singular_gram", 1);
      break;
    }
    const nn::Tensor orth = nn::Sub(h, projection);
    const double norm = nn::L2NormFlat(orth);
    result.new_norms.push_back(norm);
    if (norm >= threshold) {
      result.kept.push_back(row);
      kept_rows.push_back(orth);
    }
  }

  nn::Tensor trimmed(
      {static_cast<int64_t>(result.kept.size()), dim});
  for (int64_t row = 0; row < num_existing; ++row) {
    trimmed.SetRow(row, interests.Row(row));
  }
  for (size_t i = 0; i < kept_rows.size(); ++i) {
    trimmed.SetRow(num_existing + static_cast<int64_t>(i), kept_rows[i]);
  }
  result.interests = std::move(trimmed);
  return result;
}

}  // namespace imsr::core
