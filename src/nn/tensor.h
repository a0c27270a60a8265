// Dense row-major float tensor. This is the numeric substrate replacing
// PyTorch in the reproduction: contiguous storage, up to 3 dimensions
// (everything in the paper is a vector, a matrix, or a small batch of
// matrices), and the op set needed by the MSR models.
//
// Storage is a plain std::vector<float> owned by the tensor (DESIGN.md
// section 10): construction zero-fills, copies are vector copies, and
// ResizeUninitialized keeps the buffer's capacity so *Into scratch is
// reused across calls.
#ifndef IMSR_NN_TENSOR_H_
#define IMSR_NN_TENSOR_H_

#include <cstdint>
#include <initializer_list>
#include <string>
#include <vector>

#include "util/check.h"
#include "util/rng.h"

namespace imsr::nn {

// Inline dimension list (rank <= 3). Replaces std::vector<int64_t> as the
// shape representation so constructing a Tensor costs zero shape
// allocations; converts implicitly from vectors and braced lists at
// existing call sites.
class Shape {
 public:
  static constexpr int64_t kMaxRank = 3;

  Shape() = default;
  Shape(std::initializer_list<int64_t> dims) {
    IMSR_CHECK_LE(static_cast<int64_t>(dims.size()), kMaxRank)
        << "tensors support at most rank " << kMaxRank;
    for (int64_t extent : dims) dims_[rank_++] = extent;
  }
  // Implicit: legacy call sites pass std::vector<int64_t> shapes.
  Shape(const std::vector<int64_t>& dims) {
    IMSR_CHECK_LE(static_cast<int64_t>(dims.size()), kMaxRank)
        << "tensors support at most rank " << kMaxRank;
    for (int64_t extent : dims) dims_[rank_++] = extent;
  }

  bool empty() const { return rank_ == 0; }
  size_t size() const { return static_cast<size_t>(rank_); }
  int64_t operator[](size_t i) const {
    IMSR_DCHECK(i < static_cast<size_t>(rank_));
    return dims_[i];
  }
  const int64_t* begin() const { return dims_; }
  const int64_t* end() const { return dims_ + rank_; }

  friend bool operator==(const Shape& a, const Shape& b) {
    if (a.rank_ != b.rank_) return false;
    for (int8_t i = 0; i < a.rank_; ++i) {
      if (a.dims_[i] != b.dims_[i]) return false;
    }
    return true;
  }
  friend bool operator!=(const Shape& a, const Shape& b) { return !(a == b); }

 private:
  int64_t dims_[kMaxRank] = {0, 0, 0};
  int8_t rank_ = 0;
};

class Tensor {
 public:
  // Empty 0-element tensor.
  Tensor() = default;

  // Zero-filled tensor of the given shape. Each extent must be positive.
  explicit Tensor(Shape shape);

  // Tensor of the given shape with explicit contents (size must match).
  Tensor(Shape shape, std::vector<float> values);

  Tensor(const Tensor& other) = default;
  Tensor& operator=(const Tensor& other) = default;
  // Moves reset `other` to the empty tensor (shape included).
  Tensor(Tensor&& other) noexcept;
  Tensor& operator=(Tensor&& other) noexcept;

  static Tensor Zeros(Shape shape);
  static Tensor Ones(Shape shape);
  static Tensor Full(Shape shape, float value);
  // Tensor whose contents the caller must treat as unspecified. Marks
  // kernels that overwrite every element before the tensor escapes; the
  // storage is zero-filled like the constructor's, so it saves no memset.
  static Tensor Uninitialized(Shape shape);
  // I.i.d. N(mean, stddev^2) entries.
  static Tensor Randn(Shape shape, util::Rng& rng, float mean = 0.0f,
                      float stddev = 1.0f);
  // I.i.d. U[lo, hi) entries.
  static Tensor RandUniform(Shape shape, util::Rng& rng, float lo, float hi);
  // d x d identity.
  static Tensor Identity(int64_t d);
  // 1-D tensor from values.
  static Tensor FromVector(const std::vector<float>& values);

  bool defined() const { return !shape_.empty(); }
  int64_t dim() const { return static_cast<int64_t>(shape_.size()); }
  const Shape& shape() const { return shape_; }
  int64_t size(int64_t axis) const {
    IMSR_CHECK(axis >= 0 && axis < dim());
    return shape_[static_cast<size_t>(axis)];
  }
  int64_t numel() const { return static_cast<int64_t>(data_.size()); }

  float* data() { return data_.data(); }
  const float* data() const { return data_.data(); }
  std::vector<float>& storage() { return data_; }
  const std::vector<float>& storage() const { return data_; }

  // Element access (checked in debug builds). Defined inline: these sit
  // in the innermost loops of kernels and backward closures, where an
  // out-of-line call per element would dominate the arithmetic.
  float& at(int64_t i) {
    IMSR_DCHECK(dim() == 1 && i >= 0 && i < shape_[0]);
    return data_[static_cast<size_t>(i)];
  }
  float at(int64_t i) const {
    IMSR_DCHECK(dim() == 1 && i >= 0 && i < shape_[0]);
    return data_[static_cast<size_t>(i)];
  }
  float& at(int64_t i, int64_t j) {
    return data_[static_cast<size_t>(Offset(i, j))];
  }
  float at(int64_t i, int64_t j) const {
    return data_[static_cast<size_t>(Offset(i, j))];
  }
  float& at(int64_t i, int64_t j, int64_t k) {
    return data_[static_cast<size_t>(Offset(i, j, k))];
  }
  float at(int64_t i, int64_t j, int64_t k) const {
    return data_[static_cast<size_t>(Offset(i, j, k))];
  }

  // Scalar value of a 1-element tensor.
  float item() const {
    IMSR_CHECK_EQ(numel(), 1);
    return data_[0];
  }

  // Same data, new shape (numel must match).
  Tensor Reshape(Shape new_shape) const;

  // Reshapes in place to `shape`, resizing the storage vector. The buffer
  // (and data()) stays put whenever the new numel fits its capacity, so
  // scratch that shrinks and regrows is never reallocated. Contents are
  // unspecified afterwards — this is the realloc step of the *Into
  // kernels, which overwrite every element.
  void ResizeUninitialized(Shape shape);

  // Deep copy (Tensor is value-semantic already; Clone is for emphasis at
  // call sites that would otherwise look like aliasing).
  Tensor Clone() const { return *this; }

  // ---- In-place mutators ----
  void Fill(float value);
  void AddInPlace(const Tensor& other);           // this += other
  void AddScaledInPlace(const Tensor& other, float alpha);  // this += a*other
  void ScaleInPlace(float alpha);                 // this *= alpha

  // ---- Shape helpers ----
  // Row i of a 2-D tensor as a 1-D tensor (copy).
  Tensor Row(int64_t i) const;
  // Sets row i of a 2-D tensor from a 1-D tensor.
  void SetRow(int64_t i, const Tensor& row);
  // Rows [begin, end) of a 2-D tensor (copy).
  Tensor RowSlice(int64_t begin, int64_t end) const;

  std::string ShapeString() const;
  std::string ToString(int max_entries = 32) const;

 private:
  int64_t Offset(int64_t i, int64_t j) const {
    IMSR_DCHECK(dim() == 2);
    IMSR_DCHECK(i >= 0 && i < shape_[0] && j >= 0 && j < shape_[1]);
    return i * shape_[1] + j;
  }
  int64_t Offset(int64_t i, int64_t j, int64_t k) const {
    IMSR_DCHECK(dim() == 3);
    IMSR_DCHECK(i >= 0 && i < shape_[0] && j >= 0 && j < shape_[1] && k >= 0 &&
                k < shape_[2]);
    return (i * shape_[1] + j) * shape_[2] + k;
  }

  Shape shape_;
  std::vector<float> data_;
};

// Non-owning read-only view of a row-major (rows x cols) float matrix.
// Used by read paths (serving snapshots) whose storage is packed flat
// rather than held in per-user Tensors; kernels taking a view run the
// same code as their Tensor overloads, so results are bitwise identical.
struct ConstMatrixView {
  const float* data = nullptr;
  int64_t rows = 0;
  int64_t cols = 0;
};

// View of a whole 2-D tensor.
inline ConstMatrixView ViewOf(const Tensor& t) {
  IMSR_DCHECK(t.dim() == 2);
  return {t.data(), t.size(0), t.size(1)};
}

// ---- Free-function tensor ops (no autograd; used by both the autograd
// layer's forward/backward passes and by no-grad model code) ----

// Elementwise; shapes must match exactly.
Tensor Add(const Tensor& a, const Tensor& b);
Tensor Sub(const Tensor& a, const Tensor& b);
Tensor Mul(const Tensor& a, const Tensor& b);
Tensor Scale(const Tensor& a, float alpha);

// Matrix product of 2-D tensors: (m x k) * (k x n) -> (m x n). Blocked
// (4-row panels) and dispatched over the process-wide thread pool for
// large shapes; bitwise-deterministic for any thread count.
Tensor MatMul(const Tensor& a, const Tensor& b);
// MatMul writing into `out` (buffer reused across calls); `out` must not
// alias an operand.
void MatMulInto(const Tensor& a, const Tensor& b, Tensor* out);
// Matrix product with the second operand transposed:
// (m x k) * (n x k)^T -> (m x n), i.e. out[i][j] = dot(a.row(i), b.row(j)).
// Both operands stream row-major — use this instead of
// MatMul(a, Transpose(b)); nothing is materialised.
Tensor MatMulTransB(const Tensor& a, const Tensor& b);
// MatMulTransB writing into `out` (reallocated only on shape mismatch) so
// training loops can reuse one scratch buffer. Its kernel depends on the
// shape; exact (user, item) scores use MatMulTransBPanelInto instead.
void MatMulTransBInto(const Tensor& a, const Tensor& b, Tensor* out);
// Same, with the transposed operand given as a view over packed storage.
// The Tensor overload delegates here, so for equal values the two produce
// bitwise-identical results.
void MatMulTransBInto(const Tensor& a, ConstMatrixView b, Tensor* out);
// Matrix product with the first operand transposed:
// (r x m)^T * (r x n) -> (m x n). Used by autograd's MatMul backward.
Tensor MatMulTransA(const Tensor& a, const Tensor& b);
// MatMulTransA writing into `out`; `out` must not alias an operand.
void MatMulTransAInto(const Tensor& a, const Tensor& b, Tensor* out);
// 2-D transpose (blocked, cache-friendly tiles).
Tensor Transpose(const Tensor& a);
// Transpose writing into `out`; `out` must not alias `a`.
void TransposeInto(const Tensor& a, Tensor* out);
// Matrix-vector: (m x k) * (k) -> (m).
Tensor MatVec(const Tensor& a, const Tensor& x);
// a^T x for a (m x k) and x (m) -> (k). Same accumulation order as
// MatVec(Transpose(a), x) — bitwise identical — without materialising the
// transpose.
Tensor MatVecTransA(const Tensor& a, const Tensor& x);

// Dot product of equally sized tensors (flattened).
float DotFlat(const Tensor& a, const Tensor& b);
// Dot product over raw spans of length n — the same vectorized kernel
// as DotFlat (reduction class: per-lane partial sums reorder additions).
// Exposed for fused ops that score packed row blocks without making
// Tensor views.
float DotSpan(const float* a, const float* b, int64_t n);
// Euclidean norm of the flattened tensor.
float L2NormFlat(const Tensor& a);
// Euclidean norm of a raw span of length n — the kernel L2NormFlat runs.
float L2NormSpan(const float* a, int64_t n);

// Row-wise softmax of a 2-D tensor (or softmax of a 1-D tensor).
Tensor Softmax(const Tensor& a);
// Softmax writing into `out`; `out` must not alias `a`.
void SoftmaxInto(const Tensor& a, Tensor* out);
// Row-wise logsumexp of a 2-D tensor -> 1-D of length rows (or scalar for
// 1-D input, returned as a 1-element tensor).
Tensor LogSumExpRows(const Tensor& a);

Tensor Sigmoid(const Tensor& a);
Tensor Tanh(const Tensor& a);
Tensor Exp(const Tensor& a);

// Capsule squash applied per row of a 2-D tensor (or to a 1-D vector):
// squash(v) = (|v|^2 / (1 + |v|^2)) * v / |v|.
Tensor SquashRows(const Tensor& a);
// SquashRows writing into `out`; `out` must not alias `a`.
void SquashRowsInto(const Tensor& a, Tensor* out);

// Concatenates 2-D tensors along rows (equal column counts).
Tensor ConcatRows(const std::vector<Tensor>& parts);

// Gathers rows of a 2-D table into a new 2-D tensor.
Tensor GatherRows(const Tensor& table, const std::vector<int64_t>& indices);
// GatherRows over a raw index span, writing into `out` (buffer reused).
void GatherRowsInto(const Tensor& table, const int64_t* indices,
                    int64_t count, Tensor* out);

// Rows per panel of the panelized k-major layout below. Also the item
// block size of the serve scoring sweep (serve/recommend.cc), which
// keys its blocks to panel boundaries so every block reads exactly one
// contiguous panel.
inline constexpr int64_t kKMajorPanelRows = 1024;

// Repacks a row-major (m x k) matrix into panelized k-major layout:
// rows are grouped into panels of kKMajorPanelRows; within panel p
// (rows_p = min(panel, m - p*panel) rows), element (i, kk) lives at
// panel_base[kk * rows_p + (i - panel_first_row)]. Full panels make
// panel p's base offset simply p * kKMajorPanelRows * k; the last panel
// is stored compact, so `out` holds exactly m*k floats (shape {m, k},
// layout panelized). Column-major within a panel puts SIMD lanes across
// items; panel-major overall keeps a scoring sweep's reads inside one
// contiguous 4*k*panel-byte window instead of k column streams strided
// by the full corpus — sequential traffic the prefetcher can follow.
void PanelizeKMajorInto(const Tensor& a, Tensor* out);

// A * B^T with A supplied in panelized k-major layout: `a_panels` views
// PanelizeKMajorInto's output (rows = m items, cols = k); computes
// out[i][j] = dot(A.row(i), b.row(j)) into (m x n). Order-preserving
// class: SIMD lanes run across output rows (independent elements), each
// element's kk accumulation is strictly sequential, so the bits equal
// a sequential scalar dot regardless of the operand width n or the row
// split. That width invariance is
// what the serve read path builds on: the snapshot keeps its embedding
// table in this layout, so scoring many users' concatenated interest
// rows in one fused call is bitwise identical to one call per user — the
// RecommendBatch == RecommendOne contract (DESIGN.md §15).
void MatMulTransBPanelInto(ConstMatrixView a_panels, ConstMatrixView b,
                           Tensor* out);

// Row-range form of MatMulTransBPanelInto: computes output rows
// [i_begin, i_end) into `out`, which holds (i_end - i_begin) x b.rows
// floats — block-relative, so a caller sweeping the corpus in item
// blocks reuses one small tile that stays cache-resident for the
// reduction that follows (the serve scoring loop, DESIGN.md §15). Runs
// the identical kernel body serially; row i's bits match row i of the
// full product exactly, wherever the block boundaries land.
void MatMulTransBPanelRangeInto(ConstMatrixView a_panels, ConstMatrixView b,
                                int64_t i_begin, int64_t i_end, float* out);

// Gathered A * B^T: out[r][j] = dot(a.row(rows[r]), b.row(j)) for the
// `num_rows` row indices in `rows` (the IVF re-rank). The rows are
// gathered straight into the panelized k-major layout in `gathered`
// (caller-owned scratch, buffer reused) and scored by the panel kernel
// of MatMulTransBPanelInto, so every row is bitwise identical to the
// matching row of the full panel product at any width — shortlist
// scores carry the exact sweep's bits. Always serial.
void MatMulTransBGatherInto(const Tensor& a, ConstMatrixView b,
                            const int64_t* rows, int64_t num_rows,
                            Tensor* gathered, Tensor* out);

// Max |a - b| over all elements; shapes must match.
float MaxAbsDiff(const Tensor& a, const Tensor& b);

bool SameShape(const Tensor& a, const Tensor& b);

}  // namespace imsr::nn

#endif  // IMSR_NN_TENSOR_H_
