// Projection-based interests trimmer (§IV-D): newly created interest
// vectors keep only their component orthogonal to the span of the existing
// interest vectors (Eq. 16), and new vectors whose remaining L2 norm falls
// below c2 are deleted (Eq. 17).
#ifndef IMSR_CORE_PIT_H_
#define IMSR_CORE_PIT_H_

#include <vector>

#include "nn/tensor.h"

namespace imsr::core {

struct PitConfig {
  // Eq. 17's trivial-interest threshold on the orthogonal-component norm.
  // Interpreted *relative* to the mean L2 norm of the user's existing
  // interest vectors when `relative` is true (default): squashed capsule
  // interests (DR) and attention-combination interests (SA) live at very
  // different scales, and a relative threshold makes the published c2
  // range transfer across extractors (see DESIGN.md §1).
  double c2 = 0.3;
  bool relative = true;
};

// Projection of vector `h` (d) onto the row span of `basis` (K x d):
// basis^T (basis basis^T)^-1 basis h, via a K x K solve with a 1e-6 ridge
// on the Gram diagonal. Returns false when the Gram is singular even so
// (duplicated or linearly dependent rows), which depends on `basis`
// alone.
bool ProjectOntoRowSpan(const nn::Tensor& basis, const nn::Tensor& h,
                        nn::Tensor* projection);

// h minus its projection — the part of a new interest not expressible as a
// combination of existing interests. Aborts on a singular Gram.
nn::Tensor OrthogonalComponent(const nn::Tensor& basis, const nn::Tensor& h);

struct TrimResult {
  // Indices (into the full interest matrix) of all kept rows: the existing
  // rows 0..num_existing-1 plus the surviving new rows, ascending.
  std::vector<int64_t> kept;
  // Interest matrix after projection and trimming: existing rows unchanged,
  // surviving new rows replaced by their orthogonal components.
  nn::Tensor interests;
  // Orthogonal-component norm of every candidate new row (diagnostics,
  // Fig. 3); empty when the existing rows' Gram is singular.
  std::vector<double> new_norms;
};

// Applies Eq. 16 + Eq. 17 to `interests` (K_total x d) whose first
// `num_existing` rows are the user's existing interests and remaining rows
// the freshly learned candidates. `num_existing` must be >= 1. When the
// existing rows' Gram is singular (duplicated or linearly dependent
// rows), no candidate can be projected: every candidate is trimmed, the
// existing rows are kept as they are, and pit/singular_gram counts it.
TrimResult ProjectAndTrim(const nn::Tensor& interests, int64_t num_existing,
                          const PitConfig& config);

// Solves the dense symmetric positive-definite system A x = b via
// Gaussian elimination with partial pivoting (K is small). Returns false,
// leaving *x unspecified, when a pivot falls below 1e-12: the system is
// singular. The pivots depend on `a` alone. Exposed for testing.
bool SolveLinearSystem(const nn::Tensor& a, const nn::Tensor& b,
                       nn::Tensor* x);

}  // namespace imsr::core

#endif  // IMSR_CORE_PIT_H_
