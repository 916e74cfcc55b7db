// Portable fallback KernelSet: the compiler-vectorised template micro-kernel
// at the historical 6x8 geometry, and a plain loop for TRSM's diagonal
// solve. Always available; the dispatcher uses it whenever no ISA-specific
// set applies (or ADSALA_KERNEL=generic forces it).
#include <algorithm>

#include "blas/kernels/kernel_set.h"
#include "blas/microkernel.h"

namespace adsala::blas::kernels::detail {

namespace {

inline constexpr int kGenericMr = 6;
inline constexpr int kGenericNr = 8;

template <typename T>
void generic_full(int kc, T alpha, const T* a, const T* b, T* c, int ldc) {
  blas::detail::microkernel_full<T, kGenericMr, kGenericNr>(kc, alpha, a, b, c,
                                                            ldc);
}

template <typename T>
void generic_edge(int kc, T alpha, const T* a, const T* b, T* c, int ldc,
                  int rows, int cols) {
  blas::detail::microkernel_edge<T, kGenericMr, kGenericNr>(kc, alpha, a, b, c,
                                                            ldc, rows, cols);
}

/// KernelSet::diag_solve. Columns go in chunks narrow enough that a chunk
/// of the block's rows stays in L1 while every later row reads it.
template <typename T>
void generic_diag_solve(int rows, int cols, const T* a, long a_rs, long a_cs,
                        bool unit_diag, T* b, long ldb) {
  constexpr int kChunk = 64;
  for (int c0 = 0; c0 < cols; c0 += kChunk) {
    const int width = std::min(kChunk, cols - c0);
    for (int i = 0; i < rows; ++i) {
      T* row_i = b + i * ldb + c0;
      for (int p = 0; p < i; ++p) {
        const T f = a[i * a_rs + p * a_cs];
        const T* row_p = b + p * ldb + c0;
        for (int c = 0; c < width; ++c) row_i[c] -= f * row_p[c];
      }
      if (!unit_diag) {
        const T d = a[i * a_rs + i * a_cs];
        for (int c = 0; c < width; ++c) row_i[c] /= d;
      }
    }
  }
}

}  // namespace

template <typename T>
KernelSet<T> generic_kernel_set() {
  KernelSet<T> set;
  set.mr = kGenericMr;
  set.nr = kGenericNr;
  // The historical project-wide defaults (~32 KB L1 / ~512 KB L2 targets).
  set.mc = 120;
  set.kc = 256;
  set.nc = 2048;
  set.name = "generic";
  set.full = &generic_full<T>;
  set.edge = &generic_edge<T>;
  set.diag_solve = &generic_diag_solve<T>;
  return set;
}

template KernelSet<float> generic_kernel_set<float>();
template KernelSet<double> generic_kernel_set<double>();

}  // namespace adsala::blas::kernels::detail
