// Portable SIMD annotations for the nn kernels (DESIGN.md section 11).
//
// Vectorization is expressed with `#pragma omp simd` annotations — pure
// compiler hints under -fopenmp-simd, no OpenMP runtime — so the same
// source serves GCC and clang on any ISA. Two classes of loop, each with
// one vectorized body:
//
//  * Order-preserving loops (saxpy, elementwise maps, optimizer updates):
//    every output element is an independent chain of the same scalar
//    operations, so vectorizing them cannot change a single bit. Tests
//    compare them bitwise against naive same-order references.
//
//  * Reduction loops (dot products, softmax/logsumexp sums, norms): the
//    vectorized form keeps per-lane partial sums, which reorders the
//    floating-point additions, so results agree with a sequential sum
//    only to rounding. Tests bound them against naive sequential-sum
//    references. Still deterministic: the lane count is fixed per
//    build and ISA, so thread count and row splits cannot change a bit.
#ifndef IMSR_NN_SIMD_H_
#define IMSR_NN_SIMD_H_

#define IMSR_SIMD_PRAGMA_IMPL(directive) _Pragma(#directive)
// IMSR_SIMD_PRAGMA(clauses...) expands to `#pragma omp simd clauses`.
// Reduction loops pass reduction(+ : acc); order-preserving loops pass
// nothing.
#define IMSR_SIMD_PRAGMA(...) IMSR_SIMD_PRAGMA_IMPL(omp simd __VA_ARGS__)

// Per-function multi-versioning for the hottest kernels: compile an AVX2
// clone next to the baseline (SSE2) body and pick at load time via the
// resolver GCC/glibc generate (ifunc), so the CPU, not a setting, selects
// the clone. target("avx2") widens the vector unit WITHOUT enabling FMA,
// so no multiply-add contraction happens and every element's scalar
// operation chain — hence every bit of an order-preserving kernel's
// output — is unchanged; only reduction kernels see a (tolerance-class)
// partial-sum reshuffle, exactly as the contract above already allows
// for vectorized reductions.
#if defined(__x86_64__) && defined(__GNUC__) && !defined(__clang__)
#define IMSR_SIMD_CLONES __attribute__((target_clones("avx2", "default")))
#else
#define IMSR_SIMD_CLONES
#endif

#endif  // IMSR_NN_SIMD_H_
