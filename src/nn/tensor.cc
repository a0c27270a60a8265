#include "nn/tensor.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <numeric>
#include <sstream>

#include "nn/simd.h"
#include "util/hot.h"
#include "util/thread_pool.h"

namespace imsr::nn {
namespace {

int64_t ShapeNumel(const Shape& shape) {
  IMSR_CHECK(!shape.empty());
  int64_t numel = 1;
  for (int64_t extent : shape) {
    IMSR_CHECK_GT(extent, 0) << "tensor extents must be positive";
    numel *= extent;
  }
  return numel;
}

}  // namespace

Tensor::Tensor(Shape shape)
    : shape_(shape), data_(static_cast<size_t>(ShapeNumel(shape))) {}

Tensor::Tensor(Shape shape, std::vector<float> values)
    : shape_(shape), data_(std::move(values)) {
  IMSR_CHECK_EQ(ShapeNumel(shape_), static_cast<int64_t>(data_.size()));
}

Tensor::Tensor(Tensor&& other) noexcept
    : shape_(other.shape_), data_(std::move(other.data_)) {
  other.shape_ = Shape();
  other.data_.clear();
}

Tensor& Tensor::operator=(Tensor&& other) noexcept {
  if (this == &other) return *this;
  shape_ = other.shape_;
  data_ = std::move(other.data_);
  other.shape_ = Shape();
  other.data_.clear();
  return *this;
}

void Tensor::ResizeUninitialized(Shape shape) {
  data_.resize(static_cast<size_t>(ShapeNumel(shape)));
  shape_ = shape;
}

Tensor Tensor::Zeros(Shape shape) { return Tensor(shape); }

Tensor Tensor::Ones(Shape shape) { return Full(shape, 1.0f); }

Tensor Tensor::Full(Shape shape, float value) {
  Tensor t = Uninitialized(shape);
  t.Fill(value);
  return t;
}

Tensor Tensor::Uninitialized(Shape shape) { return Tensor(shape); }

Tensor Tensor::Randn(Shape shape, util::Rng& rng, float mean, float stddev) {
  Tensor t = Uninitialized(shape);
  for (float& v : t.data_) {
    v = static_cast<float>(rng.Gaussian(mean, stddev));
  }
  return t;
}

Tensor Tensor::RandUniform(Shape shape, util::Rng& rng, float lo, float hi) {
  Tensor t = Uninitialized(shape);
  for (float& v : t.data_) v = static_cast<float>(rng.Uniform(lo, hi));
  return t;
}

Tensor Tensor::Identity(int64_t d) {
  Tensor t({d, d});
  for (int64_t i = 0; i < d; ++i) t.at(i, i) = 1.0f;
  return t;
}

Tensor Tensor::FromVector(const std::vector<float>& values) {
  IMSR_CHECK(!values.empty());
  return Tensor({static_cast<int64_t>(values.size())}, values);
}

Tensor Tensor::Reshape(Shape new_shape) const {
  IMSR_CHECK_EQ(ShapeNumel(new_shape), numel());
  Tensor out = *this;
  out.shape_ = new_shape;
  return out;
}

void Tensor::Fill(float value) {
  std::fill(data_.begin(), data_.end(), value);
}

// The in-place elementwise mutators are order-preserving (each output
// element is an independent chain of scalar ops), so the omp simd
// annotation cannot change a bit — no scalar fallback needed.
IMSR_HOT_BEGIN
IMSR_SIMD_CLONES
void Tensor::AddInPlace(const Tensor& other) {
  IMSR_CHECK(SameShape(*this, other));
  float* __restrict__ p = data_.data();
  const float* __restrict__ q = other.data_.data();
  const int64_t n = numel();
  IMSR_SIMD_PRAGMA()
  for (int64_t i = 0; i < n; ++i) p[i] += q[i];
}

IMSR_SIMD_CLONES
void Tensor::AddScaledInPlace(const Tensor& other, float alpha) {
  IMSR_CHECK(SameShape(*this, other));
  float* __restrict__ p = data_.data();
  const float* __restrict__ q = other.data_.data();
  const int64_t n = numel();
  IMSR_SIMD_PRAGMA()
  for (int64_t i = 0; i < n; ++i) p[i] += alpha * q[i];
}

IMSR_SIMD_CLONES
void Tensor::ScaleInPlace(float alpha) {
  float* __restrict__ p = data_.data();
  const int64_t n = numel();
  IMSR_SIMD_PRAGMA()
  for (int64_t i = 0; i < n; ++i) p[i] *= alpha;
}
IMSR_HOT_END

Tensor Tensor::Row(int64_t i) const {
  IMSR_CHECK_EQ(dim(), 2);
  IMSR_CHECK(i >= 0 && i < shape_[0]);
  const int64_t cols = shape_[1];
  Tensor row = Uninitialized({cols});
  std::copy_n(data_.begin() + static_cast<size_t>(i * cols),
              static_cast<size_t>(cols), row.data_.begin());
  return row;
}

void Tensor::SetRow(int64_t i, const Tensor& row) {
  IMSR_CHECK_EQ(dim(), 2);
  IMSR_CHECK_EQ(row.dim(), 1);
  IMSR_CHECK_EQ(row.numel(), shape_[1]);
  IMSR_CHECK(i >= 0 && i < shape_[0]);
  std::copy_n(row.data_.begin(), static_cast<size_t>(shape_[1]),
              data_.begin() + static_cast<size_t>(i * shape_[1]));
}

Tensor Tensor::RowSlice(int64_t begin, int64_t end) const {
  IMSR_CHECK_EQ(dim(), 2);
  IMSR_CHECK(begin >= 0 && begin < end && end <= shape_[0])
      << "RowSlice [" << begin << ", " << end << ") of " << shape_[0];
  const int64_t cols = shape_[1];
  Tensor out = Uninitialized({end - begin, cols});
  std::copy(data_.begin() + static_cast<size_t>(begin * cols),
            data_.begin() + static_cast<size_t>(end * cols),
            out.data_.begin());
  return out;
}

std::string Tensor::ShapeString() const {
  std::ostringstream out;
  out << "[";
  for (size_t i = 0; i < shape_.size(); ++i) {
    if (i > 0) out << ", ";
    out << shape_[i];
  }
  out << "]";
  return out.str();
}

std::string Tensor::ToString(int max_entries) const {
  std::ostringstream out;
  out << "Tensor" << ShapeString() << " {";
  const int64_t shown = std::min<int64_t>(numel(), max_entries);
  for (int64_t i = 0; i < shown; ++i) {
    if (i > 0) out << ", ";
    out << data_[static_cast<size_t>(i)];
  }
  if (shown < numel()) out << ", ...";
  out << "}";
  return out.str();
}

bool SameShape(const Tensor& a, const Tensor& b) {
  return a.shape() == b.shape();
}

Tensor Add(const Tensor& a, const Tensor& b) {
  Tensor out = a;
  out.AddInPlace(b);
  return out;
}

Tensor Sub(const Tensor& a, const Tensor& b) {
  Tensor out = a;
  out.AddScaledInPlace(b, -1.0f);
  return out;
}

Tensor Mul(const Tensor& a, const Tensor& b) {
  IMSR_CHECK(SameShape(a, b));
  Tensor out = a;
  float* __restrict__ o = out.data();
  const float* __restrict__ pb = b.data();
  const int64_t n = out.numel();
  IMSR_SIMD_PRAGMA()
  for (int64_t i = 0; i < n; ++i) o[i] *= pb[i];
  return out;
}

Tensor Scale(const Tensor& a, float alpha) {
  Tensor out = a;
  out.ScaleInPlace(alpha);
  return out;
}

namespace {

// Work (multiply-adds) below which a kernel is not worth routing through
// the thread pool: dispatch costs a wakeup (~µs); the crossover sits
// around a few hundred k flops.
constexpr int64_t kParallelWorkThreshold = 1 << 18;

// Rows-per-chunk for row-parallel kernels: every output row is computed
// independently and in a fixed accumulation order, so chunk boundaries
// (and hence thread count) cannot change the result bitwise.
int64_t RowGrain(int64_t rows, int64_t work_per_row) {
  const int64_t min_rows =
      std::max<int64_t>(1, kParallelWorkThreshold / (4 * work_per_row + 1));
  const int64_t per_thread = std::max<int64_t>(
      1, rows / (4 * util::GlobalPool().thread_count()));
  return std::max(min_rows, per_thread);
}

// Dense core over output rows [i_begin, i_end): register-blocked ijk
// order. Each 4x8 (or 1x8 in the row remainder) block of the output is
// seeded from `po`, held in vector registers across the whole kk sweep,
// and stored back once — the redundant per-kk output loads/stores of a
// streaming saxpy kernel disappear, and each loaded b row chunk still
// feeds four output rows from registers. Per-(i, j) accumulation order
// stays the plain sequential kk order in the block, column-remainder and
// row-remainder paths alike, so results are bitwise identical to the
// rank-1/saxpy formulation at any vector width (strict IEEE still; no
// -ffast-math).
//
// The j loops are independent per element, so the omp simd annotation
// cannot reorder any element's additions. GCC's -O2 cost model refuses
// to vectorize + scalarize the accumulator arrays, so the block is
// compiled at -O3 via IMSR_HOT (GCC-only; clang relies on the simd
// pragmas).
IMSR_HOT_BEGIN
IMSR_SIMD_CLONES
void MatMulRows(const float* __restrict__ pa, const float* __restrict__ pb,
                float* __restrict__ po, int64_t i_begin, int64_t i_end,
                int64_t k, int64_t n) {
  constexpr int64_t kBlock = 8;  // 4 rows x 8 cols = 8 xmm accumulators
  int64_t i = i_begin;
  for (; i + 4 <= i_end; i += 4) {
    const float* __restrict__ a0 = pa + (i + 0) * k;
    const float* __restrict__ a1 = pa + (i + 1) * k;
    const float* __restrict__ a2 = pa + (i + 2) * k;
    const float* __restrict__ a3 = pa + (i + 3) * k;
    float* __restrict__ o0 = po + (i + 0) * n;
    float* __restrict__ o1 = po + (i + 1) * n;
    float* __restrict__ o2 = po + (i + 2) * n;
    float* __restrict__ o3 = po + (i + 3) * n;
    int64_t jb = 0;
    for (; jb + kBlock <= n; jb += kBlock) {
      float acc0[kBlock], acc1[kBlock], acc2[kBlock], acc3[kBlock];
      IMSR_SIMD_PRAGMA()
      for (int64_t j = 0; j < kBlock; ++j) {
        acc0[j] = o0[jb + j];
        acc1[j] = o1[jb + j];
        acc2[j] = o2[jb + j];
        acc3[j] = o3[jb + j];
      }
      for (int64_t kk = 0; kk < k; ++kk) {
        const float a0k = a0[kk];
        const float a1k = a1[kk];
        const float a2k = a2[kk];
        const float a3k = a3[kk];
        const float* __restrict__ brow = pb + kk * n + jb;
        IMSR_SIMD_PRAGMA()
        for (int64_t j = 0; j < kBlock; ++j) {
          acc0[j] += a0k * brow[j];
          acc1[j] += a1k * brow[j];
          acc2[j] += a2k * brow[j];
          acc3[j] += a3k * brow[j];
        }
      }
      IMSR_SIMD_PRAGMA()
      for (int64_t j = 0; j < kBlock; ++j) {
        o0[jb + j] = acc0[j];
        o1[jb + j] = acc1[j];
        o2[jb + j] = acc2[j];
        o3[jb + j] = acc3[j];
      }
    }
    for (; jb < n; ++jb) {
      float acc0 = o0[jb], acc1 = o1[jb], acc2 = o2[jb], acc3 = o3[jb];
      for (int64_t kk = 0; kk < k; ++kk) {
        const float bkj = pb[kk * n + jb];
        acc0 += a0[kk] * bkj;
        acc1 += a1[kk] * bkj;
        acc2 += a2[kk] * bkj;
        acc3 += a3[kk] * bkj;
      }
      o0[jb] = acc0;
      o1[jb] = acc1;
      o2[jb] = acc2;
      o3[jb] = acc3;
    }
  }
  for (; i < i_end; ++i) {
    const float* __restrict__ arow = pa + i * k;
    float* __restrict__ orow = po + i * n;
    int64_t jb = 0;
    for (; jb + kBlock <= n; jb += kBlock) {
      float acc[kBlock];
      IMSR_SIMD_PRAGMA()
      for (int64_t j = 0; j < kBlock; ++j) acc[j] = orow[jb + j];
      for (int64_t kk = 0; kk < k; ++kk) {
        const float aik = arow[kk];
        const float* __restrict__ brow = pb + kk * n + jb;
        IMSR_SIMD_PRAGMA()
        for (int64_t j = 0; j < kBlock; ++j) acc[j] += aik * brow[j];
      }
      IMSR_SIMD_PRAGMA()
      for (int64_t j = 0; j < kBlock; ++j) orow[jb + j] = acc[j];
    }
    for (; jb < n; ++jb) {
      float acc = orow[jb];
      for (int64_t kk = 0; kk < k; ++kk) acc += arow[kk] * pb[kk * n + jb];
      orow[jb] = acc;
    }
  }
}

// Core for A^T * B: out[i][j] += sum_t a[t][i] * b[t][j], accumulated
// with t ascending per element — exactly the order a rank-1-update
// formulation (out += a.row(t)^T * b.row(t), t ascending) produces, so
// the kernel stays bitwise interchangeable with MatMul(Transpose(a), b).
// Register-blocked like MatMulRows: each 16-wide output chunk is seeded
// from `po`, kept in registers across the whole t sweep, and stored back
// once; the a column is re-read per block (stride-m scalar loads), which
// is cheap at routing-loop sizes. Same order-preserving vectorization
// treatment as above — the j lanes are independent elements, so vector
// width cannot reorder any element's additions.
IMSR_SIMD_CLONES
void MatMulTransARank1(const float* __restrict__ pa,
                       const float* __restrict__ pb, float* __restrict__ po,
                       int64_t r, int64_t m, int64_t n) {
  constexpr int64_t kBlock = 16;  // 4 xmm accumulators per output chunk
  // Tile the t sweep so each (kTileT x n) chunk of b — and the matching
  // chunk of a — stays L1-resident across the whole i sweep. Untiled,
  // every output row re-streams the full r x n b matrix from L2/L3,
  // which dominates this kernel at training shapes (r ~ 1000). Tiles are
  // visited in ascending order and t ascends within each, so every
  // (i, j) element still sees the plain sequential-t accumulation order:
  // the tiling is bitwise invisible.
  constexpr int64_t kTileT = 64;
  for (int64_t t0 = 0; t0 < r; t0 += kTileT) {
    const int64_t t_end = std::min(r, t0 + kTileT);
    for (int64_t i = 0; i < m; ++i) {
      float* __restrict__ orow = po + i * n;
      int64_t jb = 0;
      for (; jb + kBlock <= n; jb += kBlock) {
        float acc[kBlock];
        IMSR_SIMD_PRAGMA()
        for (int64_t j = 0; j < kBlock; ++j) acc[j] = orow[jb + j];
        for (int64_t t = t0; t < t_end; ++t) {
          const float ati = pa[t * m + i];
          const float* __restrict__ brow = pb + t * n + jb;
          IMSR_SIMD_PRAGMA()
          for (int64_t j = 0; j < kBlock; ++j) acc[j] += ati * brow[j];
        }
        IMSR_SIMD_PRAGMA()
        for (int64_t j = 0; j < kBlock; ++j) orow[jb + j] = acc[j];
      }
      for (; jb < n; ++jb) {
        float acc = orow[jb];
        for (int64_t t = t0; t < t_end; ++t) {
          acc += pa[t * m + i] * pb[t * n + jb];
        }
        orow[jb] = acc;
      }
    }
  }
}
IMSR_HOT_END

// Dot-product core for A * B^T over output rows [i_begin, i_end): 2x4
// register tiles (8 independent accumulator chains), and the kk loop
// carries an omp simd reduction, so each accumulator becomes a vector of
// per-lane partial sums combined at the end. That reorders the
// floating-point additions of each dot product — results agree with a
// sequential dot only to rounding (the reduction-class tolerance of
// DESIGN.md section 11). Still deterministic: lane count is fixed per
// build and ISA, and every (i, j) dot is computed whole inside one task,
// so thread count and tile placement cannot change a bit.
IMSR_HOT_BEGIN
IMSR_SIMD_CLONES
void MatMulTransBDotRows(const float* __restrict__ pa,
                         const float* __restrict__ pb,
                         float* __restrict__ po, int64_t i_begin,
                         int64_t i_end, int64_t k, int64_t n) {
  int64_t i = i_begin;
  for (; i + 2 <= i_end; i += 2) {
    const float* __restrict__ a0 = pa + (i + 0) * k;
    const float* __restrict__ a1 = pa + (i + 1) * k;
    float* __restrict__ o0 = po + (i + 0) * n;
    float* __restrict__ o1 = po + (i + 1) * n;
    int64_t j = 0;
    for (; j + 4 <= n; j += 4) {
      const float* __restrict__ b0 = pb + (j + 0) * k;
      const float* __restrict__ b1 = pb + (j + 1) * k;
      const float* __restrict__ b2 = pb + (j + 2) * k;
      const float* __restrict__ b3 = pb + (j + 3) * k;
      float acc00 = 0.0f, acc01 = 0.0f, acc02 = 0.0f, acc03 = 0.0f;
      float acc10 = 0.0f, acc11 = 0.0f, acc12 = 0.0f, acc13 = 0.0f;
      IMSR_SIMD_PRAGMA(reduction(+ : acc00, acc01, acc02, acc03, acc10,
                                 acc11, acc12, acc13))
      for (int64_t kk = 0; kk < k; ++kk) {
        const float a0k = a0[kk];
        const float a1k = a1[kk];
        acc00 += a0k * b0[kk];
        acc01 += a0k * b1[kk];
        acc02 += a0k * b2[kk];
        acc03 += a0k * b3[kk];
        acc10 += a1k * b0[kk];
        acc11 += a1k * b1[kk];
        acc12 += a1k * b2[kk];
        acc13 += a1k * b3[kk];
      }
      o0[j + 0] = acc00;
      o0[j + 1] = acc01;
      o0[j + 2] = acc02;
      o0[j + 3] = acc03;
      o1[j + 0] = acc10;
      o1[j + 1] = acc11;
      o1[j + 2] = acc12;
      o1[j + 3] = acc13;
    }
    for (; j < n; ++j) {
      const float* __restrict__ brow = pb + j * k;
      float acc0 = 0.0f;
      float acc1 = 0.0f;
      IMSR_SIMD_PRAGMA(reduction(+ : acc0, acc1))
      for (int64_t kk = 0; kk < k; ++kk) {
        acc0 += a0[kk] * brow[kk];
        acc1 += a1[kk] * brow[kk];
      }
      o0[j] = acc0;
      o1[j] = acc1;
    }
  }
  for (; i < i_end; ++i) {
    const float* __restrict__ arow = pa + i * k;
    float* __restrict__ orow = po + i * n;
    for (int64_t j = 0; j < n; ++j) {
      const float* __restrict__ brow = pb + j * k;
      float acc = 0.0f;
      IMSR_SIMD_PRAGMA(reduction(+ : acc))
      for (int64_t kk = 0; kk < k; ++kk) acc += arow[kk] * brow[kk];
      orow[j] = acc;
    }
  }
}
IMSR_HOT_END

// Panel dot kernel for the serve scoring path: `pat` is one panel of
// the panelized k-major layout (PanelizeKMajorInto) — `panel_rows` items
// stored column-major, element (i, kk) at pat[kk * panel_rows + i] — so
// the item axis is the fastest-moving one and SIMD lanes run ACROSS
// output rows — kLanes independent (i, j) elements per vector — while
// every element's kk loop stays strictly sequential. Order-preserving
// class: the vector width never touches a reduction, so the bits equal
// a sequential scalar dot for any operand width n and any row-range
// split. (a * b == b * a bitwise under IEEE 754, so the
// broadcast-multiply form below matches the scalar dot exactly.)
//
// Row indices are panel-relative; `po` points at the output for row
// r_begin — stores are range-relative, so a caller can hand each row
// range its own tile (the blocked serve scoring loop) or offsets into
// one full matrix (the parallel split).
//
// Entry aligned to a cache line: the inner loops then sit at the same
// offsets mod 64 whatever code is linked before this function, so a
// change elsewhere in the binary cannot move the exact sweep's speed.
IMSR_HOT_BEGIN
IMSR_SIMD_CLONES __attribute__((aligned(64)))
void MatMulTransBPanelRows(const float* __restrict__ pat,
                           const float* __restrict__ pb,
                           float* __restrict__ po, int64_t r_begin,
                           int64_t r_end, int64_t panel_rows, int64_t k,
                           int64_t n) {
  constexpr int64_t kLanes = 16;  // output rows advanced per vector group
  constexpr int64_t kCols = 4;    // b rows per register tile
  int64_t i = r_begin;
  for (; i + kLanes <= r_end; i += kLanes) {
    for (int64_t jb = 0; jb < n; jb += kCols) {
      const int64_t jn = std::min<int64_t>(kCols, n - jb);
      float acc[kCols][kLanes];
      for (int64_t jj = 0; jj < jn; ++jj) {
        IMSR_SIMD_PRAGMA()
        for (int64_t l = 0; l < kLanes; ++l) acc[jj][l] = 0.0f;
      }
      for (int64_t kk = 0; kk < k; ++kk) {
        const float* __restrict__ acol = pat + kk * panel_rows + i;
        for (int64_t jj = 0; jj < jn; ++jj) {
          const float bjk = pb[(jb + jj) * k + kk];
          IMSR_SIMD_PRAGMA()
          for (int64_t l = 0; l < kLanes; ++l) acc[jj][l] += bjk * acol[l];
        }
      }
      for (int64_t jj = 0; jj < jn; ++jj) {
        for (int64_t l = 0; l < kLanes; ++l) {
          po[(i - r_begin + l) * n + jb + jj] = acc[jj][l];
        }
      }
    }
  }
  // Scalar remainder: same per-element kk order, so where the split lands
  // cannot change a bit.
  for (; i < r_end; ++i) {
    float* __restrict__ orow = po + (i - r_begin) * n;
    for (int64_t j = 0; j < n; ++j) {
      const float* __restrict__ brow = pb + j * k;
      float acc = 0.0f;
      for (int64_t kk = 0; kk < k; ++kk) {
        acc += pat[kk * panel_rows + i] * brow[kk];
      }
      orow[j] = acc;
    }
  }
}
IMSR_HOT_END

// Walks the panels covering global rows [i_begin, i_end), writing
// range-relative output — shared by the public range entry and the
// parallel chunks of the full entry.
void PanelRangeImpl(ConstMatrixView a_panels, ConstMatrixView b,
                    int64_t i_begin, int64_t i_end, float* out) {
  const int64_t m = a_panels.rows;
  const int64_t k = a_panels.cols;
  const int64_t n = b.rows;
  int64_t i = i_begin;
  float* po = out;
  while (i < i_end) {
    const int64_t p0 = (i / kKMajorPanelRows) * kKMajorPanelRows;
    const int64_t panel_rows = std::min<int64_t>(kKMajorPanelRows, m - p0);
    const int64_t r0 = i - p0;
    const int64_t r1 = std::min<int64_t>(panel_rows, i_end - p0);
    MatMulTransBPanelRows(a_panels.data + p0 * k, b.data, po, r0, r1,
                          panel_rows, k, n);
    po += (r1 - r0) * n;
    i = p0 + r1;
  }
}

// Repacks source rows rows[r] (r when `rows` is null) of the row-major
// (m x k) matrix at `pa` into the panelized k-major layout at `out`. In
// tiles of 16 rows, so each kk writes one 64-byte run: row by row, a full
// panel's k stores sit 4 KiB apart, all in one cache set.
void PanelizeRowsInto(const float* pa, int64_t m, int64_t k,
                      const int64_t* rows, int64_t num_rows, float* out) {
  constexpr int64_t kTileRows = 16;
  for (int64_t p0 = 0; p0 < num_rows; p0 += kKMajorPanelRows) {
    const int64_t panel_rows =
        std::min<int64_t>(kKMajorPanelRows, num_rows - p0);
    float* panel = out + p0 * k;
    for (int64_t t0 = 0; t0 < panel_rows; t0 += kTileRows) {
      const int64_t tile = std::min<int64_t>(kTileRows, panel_rows - t0);
      const float* src[kTileRows];
      for (int64_t r = 0; r < tile; ++r) {
        const int64_t row = rows == nullptr ? p0 + t0 + r : rows[p0 + t0 + r];
        IMSR_CHECK(row >= 0 && row < m)
            << "gather index " << row << " out of range " << m;
        src[r] = pa + row * k;
      }
      for (int64_t kk = 0; kk < k; ++kk) {
        float* __restrict__ dst = panel + kk * panel_rows + t0;
        for (int64_t r = 0; r < tile; ++r) dst[r] = src[r][kk];
      }
    }
  }
}

}  // namespace

Tensor MatMul(const Tensor& a, const Tensor& b) {
  Tensor out;
  MatMulInto(a, b, &out);
  return out;
}

void MatMulInto(const Tensor& a, const Tensor& b, Tensor* out) {
  IMSR_CHECK(out != nullptr);
  IMSR_CHECK_EQ(a.dim(), 2);
  IMSR_CHECK_EQ(b.dim(), 2);
  IMSR_CHECK_EQ(a.size(1), b.size(0));
  const int64_t m = a.size(0);
  const int64_t k = a.size(1);
  const int64_t n = b.size(1);
  out->ResizeUninitialized({m, n});
  out->Fill(0.0f);  // the saxpy kernel accumulates into the output
  const float* pa = a.data();
  const float* pb = b.data();
  float* po = out->data();
  if (m * k * n >= kParallelWorkThreshold) {
    util::GlobalPool().ParallelFor(
        m, RowGrain(m, k * n), [&](int64_t begin, int64_t end) {
          MatMulRows(pa, pb, po, begin, end, k, n);
        });
  } else {
    MatMulRows(pa, pb, po, 0, m, k, n);
  }
}

Tensor MatMulTransB(const Tensor& a, const Tensor& b) {
  Tensor out;
  MatMulTransBInto(a, b, &out);
  return out;
}

void MatMulTransBInto(const Tensor& a, const Tensor& b, Tensor* out) {
  IMSR_CHECK_EQ(b.dim(), 2);
  MatMulTransBInto(a, ViewOf(b), out);
}

// Wide outputs (n >= 8, m >= 16, the MatMul backward shape) would pay
// the dot kernel's lane combine per (i, j), so b is transposed once and
// the saxpy core, sequential in kk, runs instead. Narrow outputs (routing
// logits) keep the dot kernel. Exact (user, item) scores never come
// here; they run the panel kernel.
void MatMulTransBInto(const Tensor& a, ConstMatrixView b, Tensor* out) {
  IMSR_CHECK(out != nullptr);
  IMSR_CHECK(b.data != nullptr);
  IMSR_CHECK_EQ(a.dim(), 2);
  IMSR_CHECK_EQ(a.size(1), b.cols);
  const int64_t m = a.size(0);
  const int64_t k = a.size(1);
  const int64_t n = b.rows;
  out->ResizeUninitialized({m, n});
  const float* pa = a.data();
  const float* pb = b.data;
  float* po = out->data();
  const bool wide = n >= 8 && m >= 16;
  Tensor bt;
  if (wide) {
    bt = Tensor::Uninitialized({k, n});
    float* pt = bt.data();
    for (int64_t j = 0; j < n; ++j) {
      const float* __restrict__ brow = pb + j * k;
      for (int64_t kk = 0; kk < k; ++kk) pt[kk * n + j] = brow[kk];
    }
    std::fill(po, po + m * n, 0.0f);  // the saxpy core accumulates
  }
  const auto rows = [&](int64_t begin, int64_t end) {
    if (wide) {
      MatMulRows(pa, bt.data(), po, begin, end, k, n);
    } else {
      MatMulTransBDotRows(pa, pb, po, begin, end, k, n);
    }
  };
  if (m * k * n >= kParallelWorkThreshold) {
    util::GlobalPool().ParallelFor(m, RowGrain(m, k * n), rows);
  } else {
    rows(0, m);
  }
}

void PanelizeKMajorInto(const Tensor& a, Tensor* out) {
  IMSR_CHECK(out != nullptr);
  IMSR_CHECK_EQ(a.dim(), 2);
  const int64_t m = a.size(0);
  const int64_t k = a.size(1);
  // Shape {m, k} like the source — the layout is panelized, but numel
  // and the logical dims are unchanged, so byte-level comparisons and
  // accounting keep working.
  out->ResizeUninitialized({m, k});
  PanelizeRowsInto(a.data(), m, k, /*rows=*/nullptr, m, out->data());
}

void MatMulTransBPanelInto(ConstMatrixView a_panels, ConstMatrixView b,
                           Tensor* out) {
  IMSR_CHECK(out != nullptr);
  IMSR_CHECK(a_panels.data != nullptr);
  IMSR_CHECK(b.data != nullptr);
  IMSR_CHECK_EQ(a_panels.cols, b.cols);  // both are k
  const int64_t m = a_panels.rows;
  const int64_t k = a_panels.cols;
  const int64_t n = b.rows;
  out->ResizeUninitialized({m, n});
  float* po = out->data();
  // One kernel for every width, no shape dispatch: the panel layout
  // makes the vectorized form order-preserving. The serial/parallel
  // choice only picks a row partition, which the kernel's bits do not
  // depend on.
  if (m * k * n >= kParallelWorkThreshold) {
    util::GlobalPool().ParallelFor(
        m, RowGrain(m, k * n), [&](int64_t begin, int64_t end) {
          PanelRangeImpl(a_panels, b, begin, end, po + begin * n);
        });
  } else {
    PanelRangeImpl(a_panels, b, 0, m, po);
  }
}

void MatMulTransBPanelRangeInto(ConstMatrixView a_panels, ConstMatrixView b,
                                int64_t i_begin, int64_t i_end, float* out) {
  IMSR_CHECK(a_panels.data != nullptr);
  IMSR_CHECK(b.data != nullptr);
  IMSR_CHECK(out != nullptr);
  IMSR_CHECK_EQ(a_panels.cols, b.cols);  // both are k
  IMSR_CHECK_GE(i_begin, 0);
  IMSR_CHECK_LE(i_begin, i_end);
  IMSR_CHECK_LE(i_end, a_panels.rows);
  // Serial on purpose: callers block the row sweep precisely so each tile
  // stays cache-resident between the matmul and the reduction that
  // follows; fanning a tile out would defeat that. Same kernel body as
  // the full entry, so where the caller draws block boundaries cannot
  // change a bit.
  PanelRangeImpl(a_panels, b, i_begin, i_end, out);
}

void MatMulTransBGatherInto(const Tensor& a, ConstMatrixView b,
                            const int64_t* rows, int64_t num_rows,
                            Tensor* gathered, Tensor* out) {
  IMSR_CHECK(out != nullptr);
  IMSR_CHECK(gathered != nullptr);
  IMSR_CHECK(b.data != nullptr);
  IMSR_CHECK_EQ(a.dim(), 2);
  IMSR_CHECK_EQ(a.size(1), b.cols);
  IMSR_CHECK_GE(num_rows, 1);
  const int64_t k = a.size(1);
  gathered->ResizeUninitialized({num_rows, k});
  PanelizeRowsInto(a.data(), a.size(0), k, rows, num_rows,
                   gathered->data());
  out->ResizeUninitialized({num_rows, b.rows});
  // A row's bits do not depend on its panel, so each gathered row equals
  // the full sweep's. Serial: IVF re-rank on a shard worker never
  // touches the global pool.
  PanelRangeImpl(ViewOf(*gathered), b, 0, num_rows, out->data());
}

Tensor MatMulTransA(const Tensor& a, const Tensor& b) {
  Tensor out;
  MatMulTransAInto(a, b, &out);
  return out;
}

void MatMulTransAInto(const Tensor& a, const Tensor& b, Tensor* out) {
  IMSR_CHECK(out != nullptr);
  IMSR_CHECK_EQ(a.dim(), 2);
  IMSR_CHECK_EQ(b.dim(), 2);
  IMSR_CHECK_EQ(a.size(0), b.size(0));
  const int64_t r = a.size(0);
  const int64_t m = a.size(1);
  const int64_t n = b.size(1);
  out->ResizeUninitialized({m, n});
  out->Fill(0.0f);  // rank-1 updates accumulate into the output
  MatMulTransARank1(a.data(), b.data(), out->data(), r, m, n);
}

Tensor Transpose(const Tensor& a) {
  Tensor out;
  TransposeInto(a, &out);
  return out;
}

void TransposeInto(const Tensor& a, Tensor* out) {
  IMSR_CHECK(out != nullptr);
  IMSR_CHECK(out != &a) << "TransposeInto output must not alias the input";
  IMSR_CHECK_EQ(a.dim(), 2);
  const int64_t m = a.size(0);
  const int64_t n = a.size(1);
  out->ResizeUninitialized({n, m});
  const float* __restrict__ pa = a.data();
  float* __restrict__ po = out->data();
  // 32x32 tiles: both the row-major reads and the strided writes stay
  // within a few cache lines per tile. A pure permutation — trivially
  // bitwise identical to the naive loop.
  constexpr int64_t kTile = 32;
  for (int64_t i0 = 0; i0 < m; i0 += kTile) {
    const int64_t i_end = std::min(m, i0 + kTile);
    for (int64_t j0 = 0; j0 < n; j0 += kTile) {
      const int64_t j_end = std::min(n, j0 + kTile);
      for (int64_t i = i0; i < i_end; ++i) {
        const float* __restrict__ arow = pa + i * n;
        for (int64_t j = j0; j < j_end; ++j) {
          po[j * m + i] = arow[j];
        }
      }
    }
  }
}

namespace {

// Vectorized dot-product and sum-of-squares cores. They carry per-lane
// partial sums (reduction clause), so their addition order differs from
// a sequential chain — reduction-class kernels under the DESIGN.md
// section 11 contract.
IMSR_HOT_BEGIN
IMSR_SIMD_CLONES
float DotSpanSimd(const float* __restrict__ pa,
                  const float* __restrict__ pb, int64_t n) {
  float acc = 0.0f;
  IMSR_SIMD_PRAGMA(reduction(+ : acc))
  for (int64_t i = 0; i < n; ++i) acc += pa[i] * pb[i];
  return acc;
}

IMSR_SIMD_CLONES
float SumSquaresSpanSimd(const float* __restrict__ pa, int64_t n) {
  float ss = 0.0f;
  IMSR_SIMD_PRAGMA(reduction(+ : ss))
  for (int64_t i = 0; i < n; ++i) ss += pa[i] * pa[i];
  return ss;
}
IMSR_HOT_END

}  // namespace

float DotSpan(const float* a, const float* b, int64_t n) {
  return DotSpanSimd(a, b, n);
}

Tensor MatVec(const Tensor& a, const Tensor& x) {
  IMSR_CHECK_EQ(a.dim(), 2);
  IMSR_CHECK_EQ(x.dim(), 1);
  IMSR_CHECK_EQ(a.size(1), x.numel());
  const int64_t m = a.size(0);
  const int64_t k = a.size(1);
  Tensor out = Tensor::Uninitialized({m});
  const float* pa = a.data();
  const float* px = x.data();
  float* po = out.data();
  for (int64_t i = 0; i < m; ++i) po[i] = DotSpanSimd(pa + i * k, px, k);
  return out;
}

IMSR_HOT_BEGIN
IMSR_SIMD_CLONES
Tensor MatVecTransA(const Tensor& a, const Tensor& x) {
  IMSR_CHECK_EQ(a.dim(), 2);
  IMSR_CHECK_EQ(x.dim(), 1);
  IMSR_CHECK_EQ(a.size(0), x.numel());
  const int64_t m = a.size(0);
  const int64_t k = a.size(1);
  // out[j] = sum_i a[i][j] x[i] over ascending i — the exact order
  // MatVec(Transpose(a), x) uses — streaming a row-major. Saxpy-shaped,
  // so vectorization preserves each out[j]'s accumulation order exactly.
  Tensor out({k});
  const float* __restrict__ pa = a.data();
  const float* __restrict__ px = x.data();
  float* __restrict__ po = out.data();
  for (int64_t i = 0; i < m; ++i) {
    const float xi = px[i];
    const float* __restrict__ arow = pa + i * k;
    IMSR_SIMD_PRAGMA()
    for (int64_t j = 0; j < k; ++j) po[j] += xi * arow[j];
  }
  return out;
}
IMSR_HOT_END

Tensor MatVecBatch(const Tensor& a, const Tensor& xs) {
  IMSR_CHECK_EQ(a.dim(), 2);
  IMSR_CHECK_EQ(xs.dim(), 2);
  IMSR_CHECK_EQ(a.size(1), xs.size(1));
  // out[r][i] = dot(xs.row(r), a.row(i)) — exactly A * xs^T transposed.
  return MatMulTransB(xs, a);
}

float DotFlat(const Tensor& a, const Tensor& b) {
  IMSR_CHECK_EQ(a.numel(), b.numel());
  return DotSpan(a.data(), b.data(), a.numel());
}

float L2NormFlat(const Tensor& a) { return L2NormSpan(a.data(), a.numel()); }

float L2NormSpan(const float* a, int64_t n) {
  return std::sqrt(SumSquaresSpanSimd(a, n));
}

namespace {

// Branchless e^x for the vectorized softmax: Cephes-style range
// reduction (x = n ln2 + r, |r| <= ln2/2), a degree-5 polynomial for
// e^r, and 2^n built by exponent-field bit assembly — every step is
// float arithmetic plus one int convert, so the whole loop vectorizes
// where a libm call chain cannot. Max relative error ~2 ulp (~2.4e-7),
// an order below the reduction-class tolerance the softmax already
// carries for its reordered sum. Inputs are clamped to the finite-result
// range, which also keeps the exponent assembly in bounds.
inline float ExpApprox(float x) {
  x = x < -87.33654f ? -87.33654f : x;
  x = x > 88.72283f ? 88.72283f : x;
  // Round x/ln2 to the nearest integer with the 1.5*2^23 magic-number
  // trick (exact for |z| < 2^22; safe because -O2 never reassociates).
  const float z = x * 1.44269504088896341f;
  const float nf = (z + 12582912.0f) - 12582912.0f;
  // Two-part ln2 keeps r = x - n*ln2 accurate to float precision.
  const float r = (x - nf * 0.693359375f) - nf * -2.12194440e-4f;
  float p = 1.9875691500e-4f;
  p = p * r + 1.3981999507e-3f;
  p = p * r + 8.3334519073e-3f;
  p = p * r + 4.1665795894e-2f;
  p = p * r + 1.6666665459e-1f;
  p = p * r + 5.0000001201e-1f;
  p = p * r * r + r + 1.0f;
  const auto biased = static_cast<uint32_t>(static_cast<int32_t>(nf) + 127);
  float scale;
  const uint32_t bits = biased << 23;
  std::memcpy(&scale, &bits, sizeof(scale));
  return p * scale;
}

// Vectorized softmax over one span. fp-max is order-insensitive; the exp
// goes through the polynomial ExpApprox (a few e-7 relative of libm) and
// the `total` reduction reorders additions — together the
// reduction-class tolerance. `out` may alias `in`: the loops only ever
// touch matching indices, so aliasing is benign.
IMSR_HOT_BEGIN
IMSR_SIMD_CLONES
void SoftmaxSpanSimd(const float* in, float* out, int64_t n) {
  float max_value = in[0];
  IMSR_SIMD_PRAGMA(reduction(max : max_value))
  for (int64_t i = 1; i < n; ++i) max_value = std::max(max_value, in[i]);
  IMSR_SIMD_PRAGMA()
  for (int64_t i = 0; i < n; ++i) out[i] = ExpApprox(in[i] - max_value);
  float total = 0.0f;
  IMSR_SIMD_PRAGMA(reduction(+ : total))
  for (int64_t i = 0; i < n; ++i) total += out[i];
  IMSR_SIMD_PRAGMA()
  for (int64_t i = 0; i < n; ++i) out[i] /= total;
}
IMSR_HOT_END

// Row-parallel softmax for 4-column matrices — the B2I routing shape
// (n x K) at the paper's default K=4, softmaxed thousands of times per
// optimizer step. Unrolling the row lets the compiler vectorize ACROSS
// rows (stride-4 interleaved loads) instead of inside a 4-lane span, and
// drops the per-row span-function call. The single reciprocal replaces
// four divides; with ExpApprox and the fixed-order 4-term sum this stays
// within the same reduction-class tolerance as SoftmaxSpanSimd.
IMSR_HOT_BEGIN
IMSR_SIMD_CLONES
// `out` may alias `in`: within a row every read happens before any
// write, and the simd pragma vouches for the absence of cross-iteration
// dependences, so no __restrict__ here.
void Softmax4RowsSimd(const float* in, float* out, int64_t rows) {
  // Pass 1: per-row max, stored as shifted exponent arguments. Stride-4
  // interleaved access, so this pass stays scalar — it is cheap.
  for (int64_t i = 0; i < rows; ++i) {
    const float a = in[4 * i];
    const float b = in[4 * i + 1];
    const float c = in[4 * i + 2];
    const float d = in[4 * i + 3];
    float m = a > b ? a : b;
    m = c > m ? c : m;
    m = d > m ? d : m;
    out[4 * i] = a - m;
    out[4 * i + 1] = b - m;
    out[4 * i + 2] = c - m;
    out[4 * i + 3] = d - m;
  }
  // Pass 2: the exponentials — the dominant cost — over the flat
  // contiguous buffer, where the polynomial pipeline vectorizes fully.
  const int64_t n4 = rows * 4;
  IMSR_SIMD_PRAGMA()
  for (int64_t j = 0; j < n4; ++j) out[j] = ExpApprox(out[j]);
  // Pass 3: one reciprocal per row replaces four divides; the 4-term sum
  // keeps a fixed association order (reduction-class tolerance).
  for (int64_t i = 0; i < rows; ++i) {
    const float ea = out[4 * i];
    const float eb = out[4 * i + 1];
    const float ec = out[4 * i + 2];
    const float ed = out[4 * i + 3];
    const float inv = 1.0f / (((ea + eb) + ec) + ed);
    out[4 * i] = ea * inv;
    out[4 * i + 1] = eb * inv;
    out[4 * i + 2] = ec * inv;
    out[4 * i + 3] = ed * inv;
  }
}
IMSR_HOT_END

}  // namespace

Tensor Softmax(const Tensor& a) {
  Tensor out;
  SoftmaxInto(a, &out);
  return out;
}

void SoftmaxInto(const Tensor& a, Tensor* out) {
  IMSR_CHECK(out != nullptr);
  IMSR_CHECK(out != &a) << "SoftmaxInto output must not alias the input";
  IMSR_CHECK(a.dim() == 1 || a.dim() == 2);
  out->ResizeUninitialized(a.shape());
  if (a.dim() == 1) {
    SoftmaxSpanSimd(a.data(), out->data(), a.numel());
    return;
  }
  const int64_t rows = a.size(0);
  const int64_t cols = a.size(1);
  const float* pa = a.data();
  float* po = out->data();
  if (cols == 4) {
    Softmax4RowsSimd(pa, po, rows);
    return;
  }
  const auto span_rows = [&](int64_t begin, int64_t end) {
    for (int64_t i = begin; i < end; ++i) {
      SoftmaxSpanSimd(pa + i * cols, po + i * cols, cols);
    }
  };
  if (rows * cols >= kParallelWorkThreshold) {
    util::GlobalPool().ParallelFor(rows, RowGrain(rows, cols), span_rows);
  } else {
    span_rows(0, rows);
  }
}

Tensor LogSumExpRows(const Tensor& a) {
  IMSR_CHECK(a.dim() == 1 || a.dim() == 2);
  const int64_t rows = a.dim() == 1 ? 1 : a.size(0);
  const int64_t cols = a.dim() == 1 ? a.numel() : a.size(1);
  Tensor out = Tensor::Uninitialized({rows});
  for (int64_t i = 0; i < rows; ++i) {
    const float* row = a.data() + i * cols;
    float max_value = row[0];
    for (int64_t j = 1; j < cols; ++j) max_value = std::max(max_value, row[j]);
    float total = 0.0f;
    // Reduction class: per-lane partial sums reorder the additions.
    IMSR_SIMD_PRAGMA(reduction(+ : total))
    for (int64_t j = 0; j < cols; ++j) {
      total += std::exp(row[j] - max_value);
    }
    out.at(i) = max_value + std::log(total);
  }
  return out;
}

namespace {

// Shared driver for the elementwise nonlinearities: disjoint index ranges
// through the thread pool above the work threshold, inline below it.
// Chunk boundaries depend only on (numel, grain), so results are bitwise
// identical for any thread count.
template <typename ApplySpan>
void ElementwiseInto(const Tensor& a, Tensor* out, ApplySpan&& apply) {
  IMSR_CHECK(out != nullptr);
  out->ResizeUninitialized(a.shape());
  const float* pa = a.data();
  float* po = out->data();
  const int64_t n = a.numel();
  if (n >= kParallelWorkThreshold) {
    util::GlobalPool().ParallelFor(
        n, RowGrain(n, 1), [&](int64_t begin, int64_t end) {
          apply(pa, po, begin, end);
        });
  } else {
    apply(pa, po, 0, n);
  }
}

}  // namespace

// The nonlinearities are elementwise — order-preserving by construction.
// The transcendental calls (exp/tanh) stay scalar libm under the simd
// annotation (no -ffast-math, no vector math library), so every element's
// value is bitwise identical whether or not the surrounding arithmetic
// vectorizes.
Tensor Sigmoid(const Tensor& a) {
  Tensor out;
  ElementwiseInto(a, &out,
                  [](const float* pa, float* po, int64_t begin, int64_t end) {
                    IMSR_SIMD_PRAGMA()
                    for (int64_t i = begin; i < end; ++i) {
                      po[i] = 1.0f / (1.0f + std::exp(-pa[i]));
                    }
                  });
  return out;
}

Tensor Tanh(const Tensor& a) {
  Tensor out;
  ElementwiseInto(a, &out,
                  [](const float* pa, float* po, int64_t begin, int64_t end) {
                    IMSR_SIMD_PRAGMA()
                    for (int64_t i = begin; i < end; ++i) {
                      po[i] = std::tanh(pa[i]);
                    }
                  });
  return out;
}

Tensor Exp(const Tensor& a) {
  Tensor out;
  ElementwiseInto(a, &out,
                  [](const float* pa, float* po, int64_t begin, int64_t end) {
                    IMSR_SIMD_PRAGMA()
                    for (int64_t i = begin; i < end; ++i) {
                      po[i] = std::exp(pa[i]);
                    }
                  });
  return out;
}

Tensor SquashRows(const Tensor& a) {
  Tensor out;
  SquashRowsInto(a, &out);
  return out;
}

IMSR_SIMD_CLONES
void SquashRowsInto(const Tensor& a, Tensor* out) {
  IMSR_CHECK(out != nullptr);
  IMSR_CHECK(out != &a) << "SquashRowsInto output must not alias the input";
  IMSR_CHECK(a.dim() == 1 || a.dim() == 2);
  const int64_t rows = a.dim() == 1 ? 1 : a.size(0);
  const int64_t cols = a.dim() == 1 ? a.numel() : a.size(1);
  out->ResizeUninitialized(a.shape());
  for (int64_t i = 0; i < rows; ++i) {
    const float* in = a.data() + i * cols;
    float* po = out->data() + i * cols;
    // The |v|^2 sum is a reduction (lane-reordered); the final
    // coeff * v scale is elementwise and order-preserving.
    const float ss = SumSquaresSpanSimd(in, cols);
    const float norm = std::sqrt(ss);
    // squash(v) = |v|^2/(1+|v|^2) * v/|v|; zero rows map to zero.
    const float coeff = norm > 0.0f ? ss / (1.0f + ss) / norm : 0.0f;
    IMSR_SIMD_PRAGMA()
    for (int64_t j = 0; j < cols; ++j) po[j] = coeff * in[j];
  }
}

Tensor ConcatRows(const std::vector<Tensor>& parts) {
  IMSR_CHECK(!parts.empty());
  int64_t rows = 0;
  const int64_t cols = parts[0].dim() == 2 ? parts[0].size(1)
                                           : parts[0].numel();
  for (const Tensor& part : parts) {
    IMSR_CHECK(part.dim() == 1 || part.dim() == 2);
    const int64_t part_cols =
        part.dim() == 2 ? part.size(1) : part.numel();
    IMSR_CHECK_EQ(part_cols, cols);
    rows += part.dim() == 2 ? part.size(0) : 1;
  }
  Tensor out = Tensor::Uninitialized({rows, cols});
  int64_t row = 0;
  for (const Tensor& part : parts) {
    const int64_t part_rows = part.dim() == 2 ? part.size(0) : 1;
    std::copy_n(part.data(), static_cast<size_t>(part_rows * cols),
                out.data() + row * cols);
    row += part_rows;
  }
  return out;
}

Tensor GatherRows(const Tensor& table, const std::vector<int64_t>& indices) {
  Tensor out;
  GatherRowsInto(table, indices.data(),
                 static_cast<int64_t>(indices.size()), &out);
  return out;
}

void GatherRowsInto(const Tensor& table, const int64_t* indices,
                    int64_t count, Tensor* out) {
  IMSR_CHECK(out != nullptr);
  IMSR_CHECK(out != &table) << "GatherRowsInto must not alias the table";
  IMSR_CHECK_EQ(table.dim(), 2);
  IMSR_CHECK_GT(count, 0);
  const int64_t cols = table.size(1);
  out->ResizeUninitialized({count, cols});
  float* po = out->data();
  const auto gather_rows = [&](int64_t begin, int64_t end) {
    for (int64_t i = begin; i < end; ++i) {
      const int64_t row = indices[i];
      IMSR_CHECK(row >= 0 && row < table.size(0))
          << "gather index " << row << " out of range " << table.size(0);
      std::copy_n(table.data() + row * cols, static_cast<size_t>(cols),
                  po + i * cols);
    }
  };
  if (count * cols >= kParallelWorkThreshold) {
    util::GlobalPool().ParallelFor(count, RowGrain(count, cols),
                                   gather_rows);
  } else {
    gather_rows(0, count);
  }
}

float MaxAbsDiff(const Tensor& a, const Tensor& b) {
  IMSR_CHECK(SameShape(a, b));
  float worst = 0.0f;
  const float* pa = a.data();
  const float* pb = b.data();
  const int64_t n = a.numel();
  // fp-max is order-insensitive, so this reduction is bitwise-safe to
  // vectorize unconditionally.
  IMSR_SIMD_PRAGMA(reduction(max : worst))
  for (int64_t i = 0; i < n; ++i) {
    worst = std::max(worst, std::fabs(pa[i] - pb[i]));
  }
  return worst;
}

}  // namespace imsr::nn
