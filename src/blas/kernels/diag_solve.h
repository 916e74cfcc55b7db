// TRSM's diagonal-block solve (KernelSet::diag_solve), written once for the
// AVX2 and AVX-512 tiers. B's columns go in chunks of up to kSolveVecs
// vectors. Within a chunk, a block of R rows accumulates in registers over
// every earlier row of the diagonal block (one broadcast of A per row, one
// load of the earlier row's chunk shared by all R), then resolves the R x R
// triangle among itself and is stored once. Row i's chunk is thus read once
// and written once, where a row-at-a-time loop streams it through L1 once
// per earlier row. The chunk's last vector is masked and runs the same FMA
// sequence as the full ones, so a column's result does not depend on where
// a chunk starts.
//
// Included by a kernel TU after ADSALA_SOLVE_TARGET (its target attribute
// string) and, in its anonymous namespace, the tier's vocabulary:
//   Vec<T>, Mask<T>    the register and tail-mask types of T
//   lane_mask<T>(n)    a mask of lanes [0, n)
//   vload(p), vload(mask, p), vstore(p, v), vstore(mask, p, v), vset1(x),
//   vfnmadd(a, b, c) = c - a * b in one rounding, vdiv(a, b)
//   kSolveVecs == 4    vectors per column chunk
//   solve_rows(nv)     rows per register block for an nv-vector chunk
// The tier's functions carry the target attribute themselves; the
// templates below carry it too, so the dispatcher must only hand them out
// after the CPUID probe, like the micro-kernels.

namespace adsala::blas::kernels::detail {
namespace {

/// Rows [i0, i0 + R) of one NV-vector column chunk.
template <typename T, int R, int NV>
__attribute__((target(ADSALA_SOLVE_TARGET))) void solve_row_block(
    int i0, const T* a, long a_rs, long a_cs, bool unit_diag, T* b, long ldb,
    Mask<T> tail) {
  constexpr int L = sizeof(Vec<T>) / sizeof(T);
  Vec<T> acc[R][NV];
  for (int r = 0; r < R; ++r) {
    const T* row = b + (i0 + r) * ldb;
    for (int v = 0; v + 1 < NV; ++v) acc[r][v] = vload(row + v * L);
    acc[r][NV - 1] = vload(tail, row + (NV - 1) * L);
  }
  const T* row_p = b;
  for (int p = 0; p < i0; ++p, row_p += ldb) {
    Vec<T> x[NV];
    for (int v = 0; v + 1 < NV; ++v) x[v] = vload(row_p + v * L);
    x[NV - 1] = vload(tail, row_p + (NV - 1) * L);
    for (int r = 0; r < R; ++r) {
      const Vec<T> f = vset1(a[(i0 + r) * a_rs + p * a_cs]);
      for (int v = 0; v < NV; ++v) acc[r][v] = vfnmadd(f, x[v], acc[r][v]);
    }
  }
  for (int r = 0; r < R; ++r) {
    const T* a_row = a + (i0 + r) * a_rs;
    for (int q = 0; q < r; ++q) {
      const Vec<T> f = vset1(a_row[(i0 + q) * a_cs]);
      for (int v = 0; v < NV; ++v) acc[r][v] = vfnmadd(f, acc[q][v], acc[r][v]);
    }
    if (!unit_diag) {
      const Vec<T> d = vset1(a_row[(i0 + r) * a_cs]);
      for (int v = 0; v < NV; ++v) acc[r][v] = vdiv(acc[r][v], d);
    }
    T* row = b + (i0 + r) * ldb;
    for (int v = 0; v + 1 < NV; ++v) vstore(row + v * L, acc[r][v]);
    vstore(tail, row + (NV - 1) * L, acc[r][NV - 1]);
  }
}

template <typename T, int NV>
__attribute__((target(ADSALA_SOLVE_TARGET))) void solve_chunk(
    int rows, const T* a, long a_rs, long a_cs, bool unit_diag, T* b,
    long ldb, Mask<T> tail) {
  constexpr int R = solve_rows(NV);
  int i = 0;
  for (; i + R <= rows; i += R) {
    solve_row_block<T, R, NV>(i, a, a_rs, a_cs, unit_diag, b, ldb, tail);
  }
  for (; i < rows; ++i) {
    solve_row_block<T, 1, NV>(i, a, a_rs, a_cs, unit_diag, b, ldb, tail);
  }
}

template <typename T>
__attribute__((target(ADSALA_SOLVE_TARGET))) void diag_solve(
    int rows, int cols, const T* a, long a_rs, long a_cs, bool unit_diag,
    T* b, long ldb) {
  constexpr int L = sizeof(Vec<T>) / sizeof(T);
  static_assert(kSolveVecs == 4, "one case per partial chunk width");
  int c0 = 0;
  for (; c0 + kSolveVecs * L <= cols; c0 += kSolveVecs * L) {
    solve_chunk<T, kSolveVecs>(rows, a, a_rs, a_cs, unit_diag, b + c0, ldb,
                               lane_mask<T>(L));
  }
  const int rest = cols - c0;
  if (rest == 0) return;
  const int nv = (rest + L - 1) / L;
  const Mask<T> tail = lane_mask<T>(rest - (nv - 1) * L);
  switch (nv) {
    case 1:
      solve_chunk<T, 1>(rows, a, a_rs, a_cs, unit_diag, b + c0, ldb, tail);
      break;
    case 2:
      solve_chunk<T, 2>(rows, a, a_rs, a_cs, unit_diag, b + c0, ldb, tail);
      break;
    case 3:
      solve_chunk<T, 3>(rows, a, a_rs, a_cs, unit_diag, b + c0, ldb, tail);
      break;
    default:
      solve_chunk<T, 4>(rows, a, a_rs, a_cs, unit_diag, b + c0, ldb, tail);
      break;
  }
}

}  // namespace
}  // namespace adsala::blas::kernels::detail
