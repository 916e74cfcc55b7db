// Runtime-dispatched micro-kernel descriptor.
//
// A KernelSet bundles the register-blocked inner kernels for one scalar type
// (the GEMM micro-kernel and TRSM's diagonal-block solve) together with their
// MR x NR geometry. The blocked GEMM/SYRK drivers consume
// whatever geometry the set advertises instead of compile-time constants, so
// swapping an AVX-512 14x32 kernel for the portable 6x8 one is purely a
// runtime decision (CPUID probe, ADSALA_KERNEL env, or the set_variant() API
// — see dispatch.h).
#pragma once

namespace adsala::blas::kernels {

/// Which micro-kernel implementation backs a BLAS call.
enum class Variant {
  kAuto,     ///< resolve via ADSALA_KERNEL env, else best the CPU supports
  kGeneric,  ///< portable compiler-vectorised template kernel
  kAvx2,     ///< hand-written AVX2+FMA intrinsics (x86-64 only)
  kAvx512,   ///< hand-written AVX-512F intrinsics (x86-64 only)
};

/// Upper bounds on micro-tile geometry across all variants; edge paths use
/// them to size stack scratch tiles.
inline constexpr int kMaxMr = 14;
inline constexpr int kMaxNr = 32;

template <typename T>
struct KernelSet {
  /// C[0..mr) x [0..nr) += alpha * (packed MR-wide A panel) * (packed
  /// NR-wide B panel); kc is the panel depth, ldc the row stride of C.
  using FullFn = void (*)(int kc, T alpha, const T* a, const T* b, T* c,
                          int ldc);
  /// Fringe variant: same contract but writes back only rows x cols.
  using EdgeFn = void (*)(int kc, T alpha, const T* a, const T* b, T* c,
                          int ldc, int rows, int cols);
  /// TRSM's in-place forward substitution over one diagonal block: for
  /// i = 0..rows-1, row i of B (`cols` contiguous elements at b + i*ldb)
  /// becomes (row_i - sum_{p<i} A(i,p) * row_p) / A(i,i), with A(i,p) at
  /// a[i*a_rs + p*a_cs] and the division skipped when `unit_diag`. The
  /// strides are signed, so this one kernel covers every uplo x trans case:
  /// a backward solve is a forward solve from the block's last row with
  /// negated strides. Every element sees the same operation sequence (p
  /// ascending, then the division) whatever its column, so splitting the
  /// columns across calls cannot change a result bit.
  using DiagSolveFn = void (*)(int rows, int cols, const T* a, long a_rs,
                               long a_cs, bool unit_diag, T* b, long ldb);

  int mr = 0;
  int nr = 0;
  /// Preferred cache blocking (BLIS-style per-kernel blocksizes): the MC /
  /// KC / NC a default-constructed GemmTuning resolves to for this set. A
  /// taller or wider micro-tile amortises its C write-back over deeper
  /// panels, so the best blocking is a property of the kernel, not of the
  /// driver.
  int mc = 0;
  int kc = 0;
  int nc = 0;
  const char* name = "";
  FullFn full = nullptr;
  EdgeFn edge = nullptr;
  DiagSolveFn diag_solve = nullptr;
};

namespace detail {
/// Variant factories, defined in generic.cpp / avx2.cpp / avx512.cpp.
template <typename T>
KernelSet<T> generic_kernel_set();
KernelSet<float> avx2_kernel_set_f32();
KernelSet<double> avx2_kernel_set_f64();
KernelSet<float> avx512_kernel_set_f32();
KernelSet<double> avx512_kernel_set_f64();
}  // namespace detail

}  // namespace adsala::blas::kernels
