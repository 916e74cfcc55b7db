#include "blas/syrk.h"

#include <algorithm>
#include <stdexcept>

#include "blas/kernels/dispatch.h"
#include "blas/level3_common.h"
#include "blas/pack.h"
#include "common/thread_pool.h"

namespace adsala::blas {

namespace {

/// Logical element of op(A): row i, depth p.
template <typename T>
inline T op_a(const T* a, long lda, Trans trans, int i, int p) {
  return trans == Trans::kNo ? a[i * lda + p] : a[p * lda + i];
}

/// beta pass over the `uplo` triangle part of rows [row_lo, row_hi) x
/// columns [col_lo, col_hi).
template <typename T>
void scale_triangle(bool lower, T beta, T* c, int ldc, int row_lo,
                    int row_hi, int col_lo, int col_hi) {
  for (int i = row_lo; i < row_hi; ++i) {
    const int lo = lower ? col_lo : std::max(col_lo, i);
    const int hi = lower ? std::min(col_hi, i + 1) : col_hi;
    if (lo < hi) {
      detail::scale_rows_range(c + lo, static_cast<long>(ldc), i, i + 1,
                               hi - lo, beta);
    }
  }
}

}  // namespace

template <typename T>
void syrk(Uplo uplo, Trans trans, int n, int k, T alpha, const T* a, int lda,
          T beta, T* c, int ldc, int nthreads, const GemmTuning& tuning) {
  if (n < 0 || k < 0) throw std::invalid_argument("syrk: negative dimension");
  const int a_cols = trans == Trans::kNo ? k : n;
  if (lda < std::max(1, a_cols) || ldc < std::max(1, n)) {
    throw std::invalid_argument("syrk: leading dimension too small");
  }
  if (n == 0) return;

  const std::size_t p = detail::resolve_threads(nthreads, n);
  const bool lower = uplo == Uplo::kLower;

  if (k == 0 || alpha == T(0)) {
    // Pure beta pass over the triangle (ahead of any tuning resolution, as
    // in every level-3 driver — see level3_common.h).
    ThreadPool::global().parallel_region(
        p, [&](std::size_t tid, std::size_t nt) {
          const int lo = static_cast<int>(tid * static_cast<std::size_t>(n) /
                                          nt);
          const int hi = static_cast<int>(
              (tid + 1) * static_cast<std::size_t>(n) / nt);
          scale_triangle(lower, beta, c, ldc, lo, hi, 0, n);
        });
    return;
  }

  const kernels::KernelSet<T>& ks = kernels::kernel_set<T>(tuning.variant);
  // macro_kernel's diagonal-tile scratch is sized kMaxMr x kMaxNr on the
  // stack; a future kernel outgrowing those bounds must fail loudly, not
  // overflow.
  if (ks.mr > kernels::kMaxMr || ks.nr > kernels::kMaxNr) {
    throw std::logic_error("syrk: kernel geometry exceeds kMaxMr/kMaxNr");
  }
  detail::BlockGeom g = detail::block_geometry(ks, tuning);
  // A triangle's row tiles carry uneven work (row i of a lower triangle
  // holds i + 1 elements), so a few MC-high tiles leave one participant
  // with most of it. Give each participant about four tiles to steal
  // between.
  if (p > 1) {
    const int tiles = 4 * static_cast<int>(p);
    const int rows = (n + tiles - 1) / tiles;
    g.mc = std::min(g.mc, (rows + ks.mr - 1) / ks.mr * ks.mr);
  }

  // The GEMM macro-loop with op(A) in both roles: the B panel (logical
  // B(p, j) = op(A)(j, p)) is packed cooperatively once per panel. mc is a
  // multiple of mr, so at every thread count the micro-tiles, and which of
  // them cross the diagonal, sit on one MR x NR grid anchored at row 0: no
  // result bit depends on p.
  const detail::TileMask::Kind kind =
      lower ? detail::TileMask::kLower : detail::TileMask::kUpper;
  detail::run_macro_loop<T>(
      p, ks, g, n, n, k,
      [&](int jc, int pc, int kc_eff, int q, T* dst) {
        const int j0 = jc + q * ks.nr;
        const int cols = std::min(ks.nr, n - j0);
        detail::pack_b_chunk<T>(trans == Trans::kNo, a, lda, pc, j0, kc_eff,
                                cols, ks.nr, dst);
      },
      [&](const detail::PanelTile<T>& t) {
        // Per-(tile, jc) triangle skip: no element of this block lies in
        // the triangle, so there is nothing to scale or update.
        if (lower ? t.jc > t.ic + t.mc - 1 : t.jc + t.nc - 1 < t.ic) return;
        if (t.first_of_jc) {
          scale_triangle(lower, beta, c, ldc, t.ic, t.ic + t.mc, t.jc,
                         t.jc + t.nc);
        }
        detail::pack_a_block<T>(trans == Trans::kYes, a, lda, t.ic, t.pc,
                                t.mc, t.kc, ks.mr, t.a_pack);
        detail::macro_kernel<T>(ks, t.mc, t.nc, t.kc, alpha, t.a_pack,
                                t.b_pack,
                                c + static_cast<long>(t.ic) * ldc + t.jc, ldc,
                                {kind, t.ic, t.jc});
      });
}

void ssyrk(Uplo uplo, Trans trans, int n, int k, float alpha, const float* a,
           int lda, float beta, float* c, int ldc, int nthreads) {
  syrk<float>(uplo, trans, n, k, alpha, a, lda, beta, c, ldc, nthreads);
}

void dsyrk(Uplo uplo, Trans trans, int n, int k, double alpha,
           const double* a, int lda, double beta, double* c, int ldc,
           int nthreads) {
  syrk<double>(uplo, trans, n, k, alpha, a, lda, beta, c, ldc, nthreads);
}

template <typename T>
void reference_syrk(Uplo uplo, Trans trans, int n, int k, T alpha, const T* a,
                    int lda, T beta, T* c, int ldc) {
  for (int i = 0; i < n; ++i) {
    const int j_lo = uplo == Uplo::kLower ? 0 : i;
    const int j_hi = uplo == Uplo::kLower ? i + 1 : n;
    for (int j = j_lo; j < j_hi; ++j) {
      T acc = T(0);
      for (int p = 0; p < k; ++p) {
        acc += op_a(a, lda, trans, i, p) * op_a(a, lda, trans, j, p);
      }
      T& out = c[static_cast<long>(i) * ldc + j];
      out = alpha * acc + (beta == T(0) ? T(0) : beta * out);
    }
  }
}

template void syrk<float>(Uplo, Trans, int, int, float, const float*, int,
                          float, float*, int, int, const GemmTuning&);
template void syrk<double>(Uplo, Trans, int, int, double, const double*, int,
                           double, double*, int, int, const GemmTuning&);
template void reference_syrk<float>(Uplo, Trans, int, int, float,
                                    const float*, int, float, float*, int);
template void reference_syrk<double>(Uplo, Trans, int, int, double,
                                     const double*, int, double, double*,
                                     int);

}  // namespace adsala::blas
