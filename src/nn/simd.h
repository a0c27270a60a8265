// Portable SIMD gate for the nn kernels (DESIGN.md section 11).
//
// Vectorization is expressed with `#pragma omp simd` annotations — pure
// compiler hints under -fopenmp-simd, no OpenMP runtime — so the same
// source serves GCC and clang on any ISA. Two classes of loop:
//
//  * Order-preserving loops (saxpy, elementwise maps, optimizer updates):
//    every output element is an independent chain of the same scalar
//    operations, so vectorizing them cannot change a single bit. These
//    are annotated unconditionally with IMSR_SIMD_PRAGMA and have no
//    scalar twin.
//
//  * Reduction loops (dot products, softmax/logsumexp sums, norms): the
//    vectorized form keeps per-lane partial sums, which reorders the
//    floating-point additions and can change results within rounding
//    error. These kernels keep an exact scalar path and dispatch on
//    SimdEnabled() so `IMSR_SIMD=off` (env) or -DIMSR_SIMD=OFF (build)
//    restores the historical bit patterns.
//
// The gate is a triple: compile-time IMSR_SIMD_ENABLED, env var
// IMSR_SIMD, runtime SetSimdEnabled for tests.
#ifndef IMSR_NN_SIMD_H_
#define IMSR_NN_SIMD_H_

// Defined (0/1) on the command line by CMake's IMSR_SIMD option; default
// to off when absent so builds without -fopenmp-simd never emit omp
// pragmas the compiler might warn about.
#ifndef IMSR_SIMD_ENABLED
#define IMSR_SIMD_ENABLED 0
#endif

#if IMSR_SIMD_ENABLED
#define IMSR_SIMD_PRAGMA_IMPL(directive) _Pragma(#directive)
// IMSR_SIMD_PRAGMA(clauses...) expands to `#pragma omp simd clauses`.
// Reduction loops pass reduction(+ : acc); order-preserving loops pass
// nothing.
#define IMSR_SIMD_PRAGMA(...) IMSR_SIMD_PRAGMA_IMPL(omp simd __VA_ARGS__)
#else
#define IMSR_SIMD_PRAGMA(...)
#endif

// Per-function multi-versioning for the hottest kernels: compile an AVX2
// clone next to the baseline (SSE2) body and pick at load time via the
// resolver GCC/glibc generate (ifunc). target("avx2") widens the vector
// unit WITHOUT enabling FMA, so no multiply-add contraction happens and
// every element's scalar operation chain — hence every bit of an
// order-preserving kernel's output — is unchanged; only reduction
// kernels see a (tolerance-class) partial-sum reshuffle, exactly as the
// contract above already allows for vectorized reductions. Gated on the
// same switch as the pragmas so -DIMSR_SIMD=OFF is pure baseline.
#if IMSR_SIMD_ENABLED && defined(__x86_64__) && defined(__GNUC__) && \
    !defined(__clang__)
#define IMSR_SIMD_CLONES __attribute__((target_clones("avx2", "default")))
#else
#define IMSR_SIMD_CLONES
#endif

namespace imsr::nn {

// True when the build compiled the vectorized reduction kernels in
// (-DIMSR_SIMD=ON, the default).
bool SimdCompiledIn();

// True when the reduction kernels should take their vectorized path:
// compiled in AND not disabled via the IMSR_SIMD env var ("off"/"0"/
// "false", read once) or SetSimdEnabled. Order-preserving kernels ignore
// this — their vectorized form is bitwise identical by construction.
bool SimdEnabled();

// Test hook: force the reduction-kernel dispatch either way (no-op
// upgrade attempts when the SIMD paths are compiled out). Returns the
// previous setting.
bool SetSimdEnabled(bool enabled);

}  // namespace imsr::nn

#endif  // IMSR_NN_SIMD_H_
