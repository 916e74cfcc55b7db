// Operand packing for the blocked GEMM/SYRK.
//
// Packing copies a cache-block of A (mc x kc) or B (kc x nc) into contiguous
// micro-panels so the micro-kernel streams with unit stride. Short panels are
// zero-padded to the full MR/NR width, which lets the micro-kernel stay
// branch-free; the write-back path masks the padding out. The transpose
// variants fold op(A)/op(B) into the copy so the kernel never sees a stride.
//
// MR/NR are runtime parameters: they come from the dispatched KernelSet, not
// from compile-time constants, so one packing routine serves every kernel
// variant. The copy loops issue software prefetches one cache line ahead of
// the read stream (packing is bandwidth-bound; the prefetch hides the source
// matrix's strided access behind the sequential panel writes).
#pragma once

#include <algorithm>

namespace adsala::blas::detail {

/// Elements of T per 64-byte cache line; the prefetch lookahead unit.
template <typename T>
inline constexpr int kLineElems = static_cast<int>(64 / sizeof(T));

/// Packs rows [0,mc) x cols [0,kc) of `a` (row stride lda) into mr-row
/// micro-panels: panel p holds rows [p*mr, p*mr+mr), stored column-by-column
/// (kc columns of mr contiguous elements). Rows beyond mc are zero-padded.
template <typename T>
void pack_a(const T* a, int lda, int mc, int kc, int mr, T* dst) {
  constexpr int kPf = kLineElems<T>;
  for (int i0 = 0; i0 < mc; i0 += mr) {
    const int rows = std::min(mr, mc - i0);
    for (int p = 0; p < kc; ++p) {
      const bool lead = (p & (kPf - 1)) == 0;
      int i = 0;
      for (; i < rows; ++i) {
        const T* src = a + (i0 + i) * static_cast<long>(lda);
        if (lead) __builtin_prefetch(src + p + kPf);
        dst[i] = src[p];
      }
      for (; i < mr; ++i) dst[i] = T(0);
      dst += mr;
    }
  }
}

/// Same as pack_a but reading A transposed: logical element (i, p) comes
/// from a[p * lda + i].
template <typename T>
void pack_a_trans(const T* a, int lda, int mc, int kc, int mr, T* dst) {
  for (int i0 = 0; i0 < mc; i0 += mr) {
    const int rows = std::min(mr, mc - i0);
    for (int p = 0; p < kc; ++p) {
      const T* src = a + p * static_cast<long>(lda) + i0;
      __builtin_prefetch(src + lda);  // next source row (p+1)
      int i = 0;
      for (; i < rows; ++i) dst[i] = src[i];
      for (; i < mr; ++i) dst[i] = T(0);
      dst += mr;
    }
  }
}

/// The A-side twin of pack_b_chunk: packs logical rows [ic, ic+mc) x depth
/// [pc, pc+kc) of op(A), dispatching on the transpose.
template <typename T>
void pack_a_block(bool trans, const T* a, int lda, int ic, int pc, int mc,
                  int kc, int mr, T* dst) {
  if (!trans) {
    pack_a(a + static_cast<long>(ic) * lda + pc, lda, mc, kc, mr, dst);
  } else {
    pack_a_trans(a + static_cast<long>(pc) * lda + ic, lda, mc, kc, mr, dst);
  }
}

/// Packs the mc x kc block of a *symmetric* matrix whose top-left logical
/// element is (row0, col0), reading every element from the stored triangle:
/// logical A(i, p) comes from a[i*lda + p] when (i, p) lies in the stored
/// triangle and from the mirrored a[p*lda + i] otherwise. Same micro-panel
/// layout as pack_a. This is the "symmetric-packed A reuse" of SYMM: the
/// kernel streams a dense panel while only the triangle lives in memory.
template <typename T>
void pack_a_sym(const T* a, int lda, bool lower_stored, int row0, int col0,
                int mc, int kc, int mr, T* dst) {
  for (int i0 = 0; i0 < mc; i0 += mr) {
    const int rows = std::min(mr, mc - i0);
    for (int p = 0; p < kc; ++p) {
      const int gp = col0 + p;
      int i = 0;
      for (; i < rows; ++i) {
        const int gi = row0 + i0 + i;
        const bool stored = lower_stored ? gp <= gi : gp >= gi;
        dst[i] = stored ? a[static_cast<long>(gi) * lda + gp]
                        : a[static_cast<long>(gp) * lda + gi];
      }
      for (; i < mr; ++i) dst[i] = T(0);
      dst += mr;
    }
  }
}

/// Packs the mc x kc block of op(A) for a *triangular* A whose top-left
/// logical element is (row0, col0): logical op(A)(i, p) is read from the
/// stored triangle when (i, p) lies inside the effective triangle of op(A)
/// (`lower_eff`; for op(A) = A^T pass trans = true and the *effective*
/// orientation, i.e. the stored triangle flipped), 1 on the diagonal when
/// `unit`, and 0 outside. Same micro-panel layout as pack_a. This is the
/// triangular-expansion reuse of TRMM: the kernel streams a dense panel with
/// the zero half materialised only inside the packed block, never in memory.
template <typename T>
void pack_a_tri(const T* a, int lda, bool trans, bool lower_eff, bool unit,
                int row0, int col0, int mc, int kc, int mr, T* dst) {
  for (int i0 = 0; i0 < mc; i0 += mr) {
    const int rows = std::min(mr, mc - i0);
    for (int p = 0; p < kc; ++p) {
      const int gp = col0 + p;
      int i = 0;
      for (; i < rows; ++i) {
        const int gi = row0 + i0 + i;
        if (gi == gp && unit) {
          dst[i] = T(1);
        } else if (lower_eff ? gp <= gi : gp >= gi) {
          dst[i] = trans ? a[static_cast<long>(gp) * lda + gi]
                         : a[static_cast<long>(gi) * lda + gp];
        } else {
          dst[i] = T(0);
        }
      }
      for (; i < mr; ++i) dst[i] = T(0);
      dst += mr;
    }
  }
}

/// Packs rows [0,kc) x cols [0,nc) of `b` (row stride ldb) into nr-column
/// micro-panels: panel q holds columns [q*nr, q*nr+nr), stored row-by-row
/// (kc rows of nr contiguous elements). Columns beyond nc are zero-padded.
template <typename T>
void pack_b(const T* b, int ldb, int kc, int nc, int nr, T* dst) {
  for (int j0 = 0; j0 < nc; j0 += nr) {
    const int cols = std::min(nr, nc - j0);
    for (int p = 0; p < kc; ++p) {
      const T* src = b + p * static_cast<long>(ldb) + j0;
      __builtin_prefetch(src + ldb);  // next source row (p+1)
      int j = 0;
      for (; j < cols; ++j) dst[j] = src[j];
      for (; j < nr; ++j) dst[j] = T(0);
      dst += nr;
    }
  }
}

/// Same as pack_b but reading B transposed: logical element (p, j) comes
/// from b[j * ldb + p].
template <typename T>
void pack_b_trans(const T* b, int ldb, int kc, int nc, int nr, T* dst) {
  constexpr int kPf = kLineElems<T>;
  for (int j0 = 0; j0 < nc; j0 += nr) {
    const int cols = std::min(nr, nc - j0);
    for (int p = 0; p < kc; ++p) {
      const bool lead = (p & (kPf - 1)) == 0;
      int j = 0;
      for (; j < cols; ++j) {
        const T* src = b + (j0 + j) * static_cast<long>(ldb);
        if (lead) __builtin_prefetch(src + p + kPf);
        dst[j] = src[p];
      }
      for (; j < nr; ++j) dst[j] = T(0);
      dst += nr;
    }
  }
}

/// One NR-column chunk of a kc-deep B block, dispatching on the transpose:
/// packs logical rows [pc, pc+kc) x columns [j0, j0+nc) of op(B). This is
/// the unit of the cooperative pack in the pipelined macro-loop
/// (blas/pack_pipeline.h) — each participant packs its share of a panel's
/// chunks independently, so the chunk form owns the origin arithmetic that
/// differs between op(B) = B and op(B) = B^T.
template <typename T>
void pack_b_chunk(bool trans, const T* b, int ldb, int pc, int j0, int kc,
                  int nc, int nr, T* dst) {
  if (!trans) {
    pack_b(b + static_cast<long>(pc) * ldb + j0, ldb, kc, nc, nr, dst);
  } else {
    pack_b_trans(b + static_cast<long>(j0) * ldb + pc, ldb, kc, nc, nr, dst);
  }
}

}  // namespace adsala::blas::detail
