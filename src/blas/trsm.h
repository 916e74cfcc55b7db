// Triangular solve with multiple right-hand sides — third member of the
// served level-3 family (paper future work: "extend ... to other BLAS
// operations").
//
//   op(A) * X = alpha * B,   X overwrites B          (left-side solve)
//
// with op(A) = A or A^T per `trans`, A an n x n triangular matrix (`uplo`
// names the stored triangle, `diag` an implicit unit diagonal), and B an
// n x m right-hand-side block. Row-major; ld* is the row stride.
//
// The implementation is a blocked substitution: each nb x nb diagonal
// triangle is solved in place by the dispatched KernelSet's diag_solve
// (register-blocked on the AVX2 and AVX-512 tiers), and its solution is
// folded into every row still to be solved with a rank-nb update on the
// packed micro-kernel path, so the bulk of the FLOPs run through the same
// kernels as GEMM. The blocks depend on each other, but the right-hand-side
// columns do not: a call opens one parallel region and splits B's columns
// into NR-aligned slices, one per column group, each solved independently.
// A right-hand side too narrow for p even slices also gets row helpers,
// which share each block's trailing update and meet at one barrier per
// block. Results are bit-identical at every thread count.
#pragma once

#include "blas/gemm.h"

namespace adsala::blas {

/// Multi-threaded blocked left-side triangular solve, in place over B.
/// nthreads <= 0 selects the pool maximum. The threads split B's columns
/// (and, for a narrow B, each column slice's trailing updates) inside one
/// parallel region; p = 1 opens none. A singular (zero) diagonal produces
/// inf/nan like standard BLAS; no singularity check is performed.
template <typename T>
void trsm(Uplo uplo, Trans trans, Diag diag, int n, int m, T alpha,
          const T* a, int lda, T* b, int ldb, int nthreads = 0,
          const GemmTuning& tuning = {});

void strsm(Uplo uplo, Trans trans, Diag diag, int n, int m, float alpha,
           const float* a, int lda, float* b, int ldb, int nthreads = 0);
void dtrsm(Uplo uplo, Trans trans, Diag diag, int n, int m, double alpha,
           const double* a, int lda, double* b, int ldb, int nthreads = 0);

/// Naive per-column substitution used as the correctness oracle in tests.
template <typename T>
void reference_trsm(Uplo uplo, Trans trans, Diag diag, int n, int m, T alpha,
                    const T* a, int lda, T* b, int ldb);

/// FLOP count: n*n*m multiply-adds over the triangle (half the equivalent
/// (n, n, m) GEMM's 2*n*n*m).
inline double trsm_flops(double n, double m) { return n * n * m; }

}  // namespace adsala::blas
