// Hot-kernel optimization attributes. A handful of saxpy-shaped inner
// loops (MatMulRows, MatMulTransARank1, the vectorized kernels in
// nn/tensor.cc) want -O3's vectorizer even in the default -O2 build —
// strict IEEE, no -ffast-math, so results stay deterministic. The raw
// `#pragma GCC push_options / optimize("O3")` spelling is GCC-only:
// clang defines __GNUC__ too but ignores those pragmas (with a warning
// under -Weverything), so the blocks are wrapped in a macro that expands
// to nothing on other compilers instead of being silently half-honoured.
//
// Usage:
//   IMSR_HOT_BEGIN
//   void Kernel(...) { ... }
//   IMSR_HOT_END
#ifndef IMSR_UTIL_HOT_H_
#define IMSR_UTIL_HOT_H_

#if defined(__GNUC__) && !defined(__clang__)
#define IMSR_HOT_BEGIN \
  _Pragma("GCC push_options") _Pragma("GCC optimize(\"O3\")")
#define IMSR_HOT_END _Pragma("GCC pop_options")
#else
// Clang (and anything else): per-function optimization pragmas are not
// portable; rely on the build-level flags plus the omp simd annotations
// (nn/simd.h), which clang honours under -fopenmp-simd at any -O level.
#define IMSR_HOT_BEGIN
#define IMSR_HOT_END
#endif

#endif  // IMSR_UTIL_HOT_H_
