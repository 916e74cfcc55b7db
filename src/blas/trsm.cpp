#include "blas/trsm.h"

#include <algorithm>
#include <deque>
#include <stdexcept>

#include "blas/kernels/dispatch.h"
#include "blas/level3_common.h"
#include "common/barrier.h"
#include "common/thread_pool.h"

namespace adsala::blas {

namespace {

/// Logical element of op(A): row i, column p.
template <typename T>
inline T op_a(const T* a, long lda, Trans trans, int i, int p) {
  return trans == Trans::kNo ? a[i * lda + p] : a[p * lda + i];
}

/// Rows [lo, hi) of B.
struct RowRange {
  int lo = 0;
  int hi = 0;
};

/// A group's barrier on its own cache line, so groups spinning on their
/// own barriers do not contend for one line.
struct alignas(64) GroupBarrier : SpinBarrier {
  using SpinBarrier::SpinBarrier;
};

/// One call's blocked substitution. Diagonal block k (counted in solve
/// order: top down when op(A) is effectively lower, bottom up otherwise) is
/// solved in place by the kernel's diag_solve, then its solution is folded
/// into every row still to be solved with a rank-nb update on the one-thread
/// macro loop. run() applies that to one column slice of B; slices are
/// independent, so a call splits its columns across participants.
template <typename T>
struct BlockedSolve {
  const kernels::KernelSet<T>& ks;
  detail::BlockGeom geom;
  Trans trans;
  bool forward;
  bool unit_diag;
  int n;
  int nb;
  T alpha;
  const T* a;
  int lda;
  T* b;
  int ldb;

  int blocks() const { return (n + nb - 1) / nb; }

  RowRange block(int k) const {
    if (forward) return {k * nb, std::min(n, (k + 1) * nb)};
    return {std::max(0, n - (k + 1) * nb), n - k * nb};
  }

  /// The rows block k's solution updates: all rows solved after it.
  RowRange trailing(int k) const {
    const RowRange d = block(k);
    return forward ? RowRange{d.hi, n} : RowRange{0, d.lo};
  }

  /// Solves block k over columns [c0, c1). A backward block is a forward
  /// solve from its last row with negated strides.
  void solve(int k, int c0, int c1) const {
    const RowRange d = block(k);
    const long a_rs = trans == Trans::kNo ? lda : 1;
    const long a_cs = trans == Trans::kNo ? 1 : lda;
    const long step = forward ? 1 : -1;
    const long first = forward ? d.lo : d.hi - 1;
    ks.diag_solve(d.hi - d.lo, c1 - c0, a + first * (a_rs + a_cs), step * a_rs,
                  step * a_cs, unit_diag, b + first * ldb + c0, step * ldb);
  }

  /// B[rows) -= op(A)[rows, block k) * B[block k) over columns [c0, c1).
  void update(RowRange rows, int k, int c0, int c1) const {
    if (rows.lo >= rows.hi) return;
    const RowRange d = block(k);
    const T* a_sub = trans == Trans::kNo
                         ? a + static_cast<long>(rows.lo) * lda + d.lo
                         : a + static_cast<long>(d.lo) * lda + rows.lo;
    detail::gemm_macro_loop<T>(
        1, ks, geom, trans, Trans::kNo, rows.hi - rows.lo, c1 - c0,
        d.hi - d.lo, T(-1), a_sub, lda, b + static_cast<long>(d.lo) * ldb + c0,
        ldb, T(1), b + static_cast<long>(rows.lo) * ldb + c0, ldb);
  }

  /// Participant h's MR tiles of `rest`, whose first row is on the MR grid
  /// of its update. The leader (h == 0) has already updated `ahead` rows and
  /// solved the next block, about nb rows' worth more, so that head start
  /// comes off its equal share and the other participants split the rest.
  RowRange share(RowRange rest, RowRange ahead, int h, int g) const {
    const int mr = ks.mr;
    const int tiles = (rest.hi - rest.lo + mr - 1) / mr;
    const int debt = (ahead.hi - ahead.lo + nb) / mr;
    const int lead = std::clamp((tiles + debt) / g - debt, 0, tiles);
    int t_lo = 0, t_hi = lead;
    if (h > 0) {
      const int others = tiles - lead;
      t_lo = lead + (h - 1) * others / (g - 1);
      t_hi = lead + h * others / (g - 1);
    }
    return {rest.lo + t_lo * mr, std::min(rest.hi, rest.lo + t_hi * mr)};
  }

  /// Solves columns [c0, c1) as participant h of the g that share them.
  /// With g > 1 the participants meet at `barrier` once per diagonal block
  /// (and once after the alpha scaling): past it, the leader updates the MR
  /// tiles covering the next block and solves that block while everyone
  /// updates the rest. Every row split lies on the MR grid of the update
  /// and every column split on the NR grid of B, so each element goes
  /// through the same micro-tile, with the same arithmetic, at every g.
  void run(int h, int g, SpinBarrier* barrier, int c0, int c1) const {
    if (alpha != T(1)) {
      detail::scale_rows_range(b + c0, static_cast<long>(ldb), h * n / g,
                               (h + 1) * n / g, c1 - c0, alpha);
      if (g > 1) barrier->arrive_and_wait();
    }
    if (h == 0) solve(0, c0, c1);
    for (int k = 0; k + 1 < blocks(); ++k) {
      const RowRange t = trailing(k);
      if (g == 1) {
        update(t, k, c0, c1);
        solve(k + 1, c0, c1);
        continue;
      }
      barrier->arrive_and_wait();
      // The update's MR grid starts at its first row (forward) or at row 0
      // (backward), where gemm_macro_loop starts tiling.
      const RowRange next = block(k + 1);
      const int mr = ks.mr;
      RowRange ahead, rest;
      if (forward) {
        const int tiles = (next.hi - t.lo + mr - 1) / mr;
        ahead = {t.lo, std::min(t.hi, t.lo + tiles * mr)};
        rest = {ahead.hi, t.hi};
      } else {
        ahead = {next.lo - next.lo % mr, t.hi};
        rest = {0, ahead.lo};
      }
      if (h == 0) {
        update(ahead, k, c0, c1);
        solve(k + 1, c0, c1);
      }
      update(share(rest, ahead, h, g), k, c0, c1);
    }
  }
};

}  // namespace

template <typename T>
void trsm(Uplo uplo, Trans trans, Diag diag, int n, int m, T alpha,
          const T* a, int lda, T* b, int ldb, int nthreads,
          const GemmTuning& tuning) {
  if (n < 0 || m < 0) throw std::invalid_argument("trsm: negative dimension");
  if (lda < std::max(1, n) || ldb < std::max(1, m)) {
    throw std::invalid_argument("trsm: leading dimension too small");
  }
  if (n == 0 || m == 0) return;

  const std::size_t p = detail::resolve_threads(nthreads);

  // alpha == 0 degenerates to B = 0 (inv(A) * 0 needs no solve). As in
  // every level-3 driver, this degenerate path stays ahead of any tuning
  // resolution.
  if (alpha == T(0)) {
    detail::scale_rows_pass(p, n, m, alpha, b, static_cast<long>(ldb));
    return;
  }

  // Diagonal-block size: small enough that the in-block solves stay a
  // sliver of the total work, large enough that the trailing updates run at
  // the panel depth the dispatched micro-kernel's blocking resolves to
  // (tuning.kc may be 0 = kernel-preferred, so resolve first).
  const kernels::KernelSet<T>& ks = kernels::kernel_set<T>(tuning.variant);
  const detail::BlockGeom geom = detail::block_geometry(ks, tuning);
  const int nb = std::clamp(geom.kc / 4, 16, 256);
  // op(A) is effectively lower triangular (forward substitution) when the
  // stored triangle and the transpose flag agree.
  const BlockedSolve<T> solve{ks,
                              geom,
                              trans,
                              (uplo == Uplo::kLower) == (trans == Trans::kNo),
                              diag == Diag::kUnit,
                              n,
                              nb,
                              alpha,
                              a,
                              lda,
                              b,
                              ldb};

  // B's columns are independent: split them into NR-aligned slices, one
  // per column group, and let every group run the whole substitution on its
  // slice. Each of c groups takes floor(p / c) participants, which share
  // its trailing updates by rows (a single diagonal block has none to
  // share). c minimises the widest group's columns per participant,
  // counting the in-block solves, about nb / n of the work, as serial; ties
  // go to more groups. A right-hand side of many NR panels thus runs p
  // groups with no synchronisation at all, while a narrow one, e.g. 40
  // columns on a 32-wide tile, gets one group of p rather than a 32- and an
  // 8-column group of one.
  const int panels = (m + ks.nr - 1) / ks.nr;
  const double serial = n > nb ? static_cast<double>(nb) / n : 1.0;
  int groups = 1;
  double best = 0.0;
  for (int c = 1; c <= std::min(static_cast<int>(p), panels); ++c) {
    const int widest = std::min(m, (panels + c - 1) / c * ks.nr);
    const double cost =
        widest * (serial + (1.0 - serial) / (static_cast<int>(p) / c));
    if (c == 1 || cost <= best) {
      best = cost;
      groups = c;
    }
  }
  const int per_group = n > nb ? static_cast<int>(p) / groups : 1;
  if (groups * per_group == 1) {
    solve.run(0, 1, nullptr, 0, m);
    return;
  }
  std::deque<GroupBarrier> barriers;
  if (per_group > 1) {
    for (int g = 0; g < groups; ++g) barriers.emplace_back(per_group);
  }
  ThreadPool::global().parallel_region(
      static_cast<std::size_t>(groups * per_group),
      [&](std::size_t tid, std::size_t) {
        const int group = static_cast<int>(tid) / per_group;
        const int h = static_cast<int>(tid) % per_group;
        const long q0 = static_cast<long>(group) * panels / groups;
        const long q1 = static_cast<long>(group + 1) * panels / groups;
        const int c0 = static_cast<int>(q0 * ks.nr);
        const int c1 = static_cast<int>(std::min<long>(m, q1 * ks.nr));
        solve.run(h, per_group, per_group > 1 ? &barriers[group] : nullptr, c0,
                  c1);
      });
}

void strsm(Uplo uplo, Trans trans, Diag diag, int n, int m, float alpha,
           const float* a, int lda, float* b, int ldb, int nthreads) {
  trsm<float>(uplo, trans, diag, n, m, alpha, a, lda, b, ldb, nthreads);
}

void dtrsm(Uplo uplo, Trans trans, Diag diag, int n, int m, double alpha,
           const double* a, int lda, double* b, int ldb, int nthreads) {
  trsm<double>(uplo, trans, diag, n, m, alpha, a, lda, b, ldb, nthreads);
}

template <typename T>
void reference_trsm(Uplo uplo, Trans trans, Diag diag, int n, int m, T alpha,
                    const T* a, int lda, T* b, int ldb) {
  const bool forward = (uplo == Uplo::kLower) == (trans == Trans::kNo);
  for (int c = 0; c < m; ++c) {
    for (int step = 0; step < n; ++step) {
      const int i = forward ? step : n - 1 - step;
      T s = alpha * b[static_cast<long>(i) * ldb + c];
      const int p_lo = forward ? 0 : i + 1;
      const int p_hi = forward ? i : n;
      for (int p = p_lo; p < p_hi; ++p) {
        s -= op_a(a, lda, trans, i, p) * b[static_cast<long>(p) * ldb + c];
      }
      if (diag == Diag::kNonUnit) s /= op_a(a, lda, trans, i, i);
      b[static_cast<long>(i) * ldb + c] = s;
    }
  }
}

template void trsm<float>(Uplo, Trans, Diag, int, int, float, const float*,
                          int, float*, int, int, const GemmTuning&);
template void trsm<double>(Uplo, Trans, Diag, int, int, double, const double*,
                           int, double*, int, int, const GemmTuning&);
template void reference_trsm<float>(Uplo, Trans, Diag, int, int, float,
                                    const float*, int, float*, int);
template void reference_trsm<double>(Uplo, Trans, Diag, int, int, double,
                                     const double*, int, double*, int);

}  // namespace adsala::blas
