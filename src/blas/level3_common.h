// Shared driver plumbing for the five level-3 ops.
//
// Every blocked driver runs the same prologue: validate, resolve the thread
// count against the pool, serve degenerate calls with a parallel scale pass,
// resolve the cache blocking against the dispatched kernel's geometry, and
// carve packing scratch out of the PackArena. Before this header each op
// restated that sequence, and the restatements had begun to drift — GEMM's
// degenerate beta pass ran before its tuning sanitisation while SYRK's ran
// before the kernel-geometry guard, so an ordering bug fixed in one op could
// silently survive in another. The helpers pin one order for all five:
//
//   validate -> empty-output return -> resolve_threads -> degenerate scale
//   pass (k == 0 / alpha == 0) -> block_geometry -> arena carve -> macro loop
//
// The degenerate pass deliberately stays *ahead* of block_geometry: it must
// not depend on tuning fields (a beta-only call with a nonsense tuning.kc is
// still a valid BLAS call), and hoisting it here makes that invariant
// structural instead of per-file.
#pragma once

#include <algorithm>
#include <cstddef>
#include <memory>
#include <new>

#include "blas/gemm.h"
#include "blas/kernels/kernel_set.h"
#include "blas/pack_pipeline.h"
#include "common/aligned_buffer.h"
#include "common/pack_arena.h"
#include "common/thread_pool.h"

namespace adsala::blas::detail {

/// Resolves a user thread-count request: <= 0 means the pool maximum, and
/// the result is clamped to [1, max_threads()] and (when row_cap >= 0) to
/// the number of partitionable rows. A call arriving from inside a parallel
/// region resolves to 1 outright — the pool would degrade the region to
/// serial anyway, and the partition / barrier / scratch sizing must all see
/// that as ONE thread (sizing them for p while fn(0, 1) runs would leave
/// p-1 row chunks untouched).
inline std::size_t resolve_threads(int nthreads, long row_cap = -1) {
  if (ThreadPool::in_region()) return 1;
  ThreadPool& pool = ThreadPool::global();
  std::size_t p = nthreads <= 0 ? pool.max_threads()
                                : static_cast<std::size_t>(nthreads);
  p = std::clamp<std::size_t>(p, 1, pool.max_threads());
  if (row_cap >= 0) {
    p = std::min<std::size_t>(
        p, static_cast<std::size_t>(std::max<long>(1, row_cap)));
  }
  return p;
}

/// Cache blocking resolved against the dispatched kernel: explicit positive
/// tuning fields win, zero / negative fields fall back to the kernel's
/// preferred blocking, and the result is rounded to the MR/NR geometry.
struct BlockGeom {
  int mc = 0;
  int kc = 0;
  int nc = 0;
};

template <typename T>
BlockGeom block_geometry(const kernels::KernelSet<T>& ks,
                         const GemmTuning& tuning) {
  const int mc_req = tuning.mc > 0 ? tuning.mc : ks.mc;
  const int kc_req = tuning.kc > 0 ? tuning.kc : ks.kc;
  const int nc_req = tuning.nc > 0 ? tuning.nc : ks.nc;
  BlockGeom g;
  g.mc = std::max(ks.mr, mc_req - mc_req % ks.mr);
  g.kc = std::max(1, kc_req);
  g.nc = std::max(ks.nr, nc_req - nc_req % ks.nr);
  return g;
}

/// The caller's private packed-panel scratch for a one-participant call,
/// carved from its thread slab in a single call (the one-carve-per-op
/// contract: a second thread_slab call could grow the slab and invalidate
/// the first pointer). `col_span` is the widest column range the B panel
/// can cover. `extra_padded` prepends that many already-padded elements
/// for op-specific scratch (TRMM's dense copy); the A panels start right
/// after it.
template <typename T>
struct PanelCarve {
  T* extra = nullptr;
  T* a_pack = nullptr;
  T* b_pack = nullptr;
  /// Non-null only on the degraded path: arena growth threw bad_alloc and
  /// the carve fell back to a per-call buffer.
  std::shared_ptr<AlignedBuffer<T>> fallback;
};

/// Elements of one participant's packed-A block: full MR-row micro-panels
/// covering mc rows at depth kc.
template <typename T>
std::size_t a_panel_elems(const kernels::KernelSet<T>& ks, int mc, int kc) {
  return static_cast<std::size_t>((mc + ks.mr - 1) / ks.mr) * ks.mr * kc;
}

/// Elements of a packed-B block spanning min(nc, col_span) columns at depth
/// kc: full NR-column micro-panels. The single source of the sizing for
/// both the private carve and the shared ping/pong pair.
template <typename T>
std::size_t b_panel_elems(const kernels::KernelSet<T>& ks, int nc,
                          int col_span, int kc) {
  const int b_panels = (std::min(nc, col_span) + ks.nr - 1) / ks.nr;
  return static_cast<std::size_t>(b_panels) * kc * ks.nr;
}

template <typename T>
PanelCarve<T> carve_private_panels(const kernels::KernelSet<T>& ks, int mc,
                                   int kc, int nc, int col_span,
                                   std::size_t extra_padded = 0) {
  const std::size_t a_padded =
      PackArena::padded_count<T>(a_panel_elems(ks, mc, kc));
  const std::size_t total =
      extra_padded + a_padded + b_panel_elems(ks, nc, col_span, kc);
  PanelCarve<T> carve;
  T* slab = nullptr;
  try {
    slab = PackArena::global().thread_slab<T>(total);
  } catch (const std::bad_alloc&) {
    // Arena growth failed (genuine exhaustion or the `arena-oom`
    // failpoint): serve this call from a per-call buffer instead of
    // failing it. If even that throws, the exception-safe ThreadPool
    // rethrows on the calling thread — never std::terminate.
    carve.fallback = std::make_shared<AlignedBuffer<T>>(total);
    slab = carve.fallback->data();
  }
  carve.extra = slab;
  carve.a_pack = slab + extra_padded;
  carve.b_pack = carve.a_pack + a_padded;
  return carve;
}

/// Shared-slab sibling of the carve fallback: returns the arena's shared
/// slab, degrading to a per-call buffer (kept alive through `fallback`)
/// when growth throws. Call from the orchestrating thread before the
/// region opens, exactly like PackArena::shared_slab itself.
template <typename T>
T* shared_slab_or_fallback(std::size_t count,
                           std::shared_ptr<AlignedBuffer<T>>& fallback) {
  try {
    return PackArena::global().shared_slab<T>(count);
  } catch (const std::bad_alloc&) {
    fallback = std::make_shared<AlignedBuffer<T>>(count);
    return fallback->data();
  }
}

/// Thread-slab sibling, for the participants of a parallel call, which
/// each carve a bare A block beside the shared B pair.
template <typename T>
T* thread_slab_or_fallback(std::size_t count,
                           std::shared_ptr<AlignedBuffer<T>>& fallback) {
  try {
    return PackArena::global().thread_slab<T>(count);
  } catch (const std::bad_alloc&) {
    fallback = std::make_shared<AlignedBuffer<T>>(count);
    return fallback->data();
  }
}

/// Which elements of its C block macro_kernel may update: all of them, or
/// (SYRK) only those on the lower / upper triangle of the whole C, with the
/// block's first element at (row0, col0) of the whole C.
struct TileMask {
  enum Kind { kDense, kLower, kUpper };
  Kind kind = kDense;
  int row0 = 0;
  int col0 = 0;
};

/// The micro-tile sweep: multiplies one packed A block (mc x kc) by one
/// packed B block (kc x nc_eff) into the C block at c, tiling with the
/// dispatched kernel geometry. Under a triangle mask, micro-tiles wholly
/// outside the triangle are skipped, wholly inside run as usual, and tiles
/// crossing the diagonal are computed into a zeroed scratch tile whose
/// triangle part is then added to C. The caller guarantees
/// ks.mr <= kMaxMr and ks.nr <= kMaxNr for masked sweeps.
template <typename T>
void macro_kernel(const kernels::KernelSet<T>& ks, int mc, int nc_eff, int kc,
                  T alpha, const T* a_pack, const T* b_pack, T* c, int ldc,
                  TileMask mask = {}) {
  const int mr = ks.mr;
  const int nr = ks.nr;
  const bool lower = mask.kind == TileMask::kLower;
  for (int jr = 0; jr < nc_eff; jr += nr) {
    const int cols = std::min(nr, nc_eff - jr);
    const T* b_panel = b_pack + static_cast<long>(jr / nr) * kc * nr;
    for (int ir = 0; ir < mc; ir += mr) {
      const int rows = std::min(mr, mc - ir);
      const T* a_panel = a_pack + static_cast<long>(ir / mr) * kc * mr;
      T* c_tile = c + static_cast<long>(ir) * ldc + jr;
      if (mask.kind != TileMask::kDense) {
        const int gi = mask.row0 + ir;
        const int gj = mask.col0 + jr;
        const bool outside = lower ? gj > gi + rows - 1 : gj + cols - 1 < gi;
        if (outside) continue;
        const bool inside = lower ? gj + cols - 1 <= gi : gj >= gi + rows - 1;
        if (!inside) {
          T tile[kernels::kMaxMr * kernels::kMaxNr];
          std::fill_n(tile, static_cast<std::size_t>(rows) * nr, T(0));
          ks.edge(kc, alpha, a_panel, b_panel, tile, nr, rows, cols);
          for (int i = 0; i < rows; ++i) {
            for (int j = 0; j < cols; ++j) {
              const bool in_triangle = lower ? gj + j <= gi + i
                                             : gj + j >= gi + i;
              if (in_triangle) {
                c_tile[static_cast<long>(i) * ldc + j] += tile[i * nr + j];
              }
            }
          }
          continue;
        }
      }
      if (rows == mr && cols == nr) {
        ks.full(kc, alpha, a_panel, b_panel, c_tile, ldc);
      } else {
        ks.edge(kc, alpha, a_panel, b_panel, c_tile, ldc, rows, cols);
      }
    }
  }
}

/// One MC-row tile of one (jc, pc) panel: the unit of work a driver's
/// tile_op computes.
template <typename T>
struct PanelTile {
  int jc = 0;  ///< first C column of the panel's jc block
  int pc = 0;  ///< first depth index of the panel's kc slab
  int ic = 0;  ///< first C row of the tile
  int nc = 0;  ///< columns of the jc block (short on the right edge)
  int kc = 0;  ///< depth of the kc slab (short on the last slab)
  int mc = 0;  ///< rows of the tile (short on the bottom edge)
  /// True on the jc block's first pc panel — where a driver folds its beta
  /// scale into the tile, first-touch style, so no separate pre-scale
  /// barrier orders against stolen tiles.
  bool first_of_jc = false;
  T* a_pack = nullptr;        ///< this participant's private packed-A block
  const T* b_pack = nullptr;  ///< the panel's packed-B block
};

/// The level-3 macro-loop, run by EVERY participant of a call (GEMM, SYRK,
/// SYMM and TRMM). Enumerates the (jc, pc) panel grid in order; MC-row
/// tiles are claimed through the stealable deck instead of a static row
/// split. With several participants, the cooperative pack of the NEXT
/// panel proceeds into the other half of the ping/pong pair while this
/// panel is computed. A lone participant (nt == 1) has nothing to overlap
/// a pack with: it packs each panel right before computing it, so the
/// driver may point both halves of `b_bufs` at one buffer.
///
///   pack_chunk(jc, pc, kc_eff, q, dst)
///     packs NR-column micro-panel q (columns [jc + q*nr, ...)) of the
///     kc_eff-deep B block into dst (contiguous kc_eff * nr elements).
///   tile_op(const PanelTile<T>&)
///     computes the tile's C rows against its packed B block, packing its
///     A block into the tile's a_pack (this participant's private block).
///
/// Each half of `b_bufs` is sized for the widest panel (b_panel_elems at
/// the resolved kc/nc); within a panel the packed layout is q * kc_eff * nr.
template <typename T, typename PackChunkFn, typename TileOpFn>
void pipelined_macro_loop(std::size_t tid, std::size_t nt, int rows, int cols,
                          int kdim, const BlockGeom& g, int nr,
                          T* const (&b_bufs)[2], T* a_pack,
                          PackPipeline& pipe, TileDeck& deck,
                          PackChunkFn&& pack_chunk, TileOpFn&& tile_op) {
  const int t = static_cast<int>(tid);
  const long pc_steps = (kdim + g.kc - 1) / g.kc;
  const long jc_steps = (cols + g.nc - 1) / g.nc;
  const long total_panels = jc_steps * pc_steps;
  // How many panels ahead of the computed one this participant packs.
  const long lead = nt > 1 ? 1 : 0;

  PipelineStats& stats = pipeline_stats();
  const bool timed = stats.timing_enabled.load(std::memory_order_relaxed);
  std::uint64_t pack_ns = 0, compute_ns = 0, tiles_done = 0;

  // This thread's static share of one panel's cooperative pack: NR-panel
  // chunks [share_lo(q_panels), share_hi(q_panels)).
  const auto pack_share = [&](long panel) {
    const int jc = static_cast<int>(panel / pc_steps) * g.nc;
    const int pc = static_cast<int>(panel % pc_steps) * g.kc;
    const int nc_eff = std::min(g.nc, cols - jc);
    const int kc_eff = std::min(g.kc, kdim - pc);
    const int q_panels = (nc_eff + nr - 1) / nr;
    const int q_lo = static_cast<int>(static_cast<long>(t) * q_panels /
                                      static_cast<long>(nt));
    const int q_hi = static_cast<int>(static_cast<long>(t + 1) * q_panels /
                                      static_cast<long>(nt));
    pipe.wait_buffer_free(panel);
    const std::uint64_t t0 = timed ? stats_now_ns() : 0;
    T* buf = b_bufs[panel & 1];
    for (int q = q_lo; q < q_hi; ++q) {
      pack_chunk(jc, pc, kc_eff, q, buf + static_cast<long>(q) * kc_eff * nr);
    }
    if (timed) pack_ns += stats_now_ns() - t0;
    pipe.pack_contribution_done(panel);
  };

  // Pipeline prologue: panel 0 is packed cooperatively before any compute.
  if (lead > 0) pack_share(0);

  for (long panel = 0; panel < total_panels; ++panel) {
    // Pack-ahead: panel+1 goes into the other buffer while panel computes
    // (a lone participant packs panel itself here). The only steady-state
    // wait inside pack_share is the previous panel draining — one
    // synchronisation point per panel, not two barriers.
    if (panel + lead < total_panels) pack_share(panel + lead);

    pipe.wait_computable(panel);
    PanelTile<T> tile;
    tile.jc = static_cast<int>(panel / pc_steps) * g.nc;
    tile.pc = static_cast<int>(panel % pc_steps) * g.kc;
    tile.nc = std::min(g.nc, cols - tile.jc);
    tile.kc = std::min(g.kc, kdim - tile.pc);
    tile.first_of_jc = tile.pc == 0;
    tile.a_pack = a_pack;
    tile.b_pack = b_bufs[panel & 1];
    const std::uint64_t t0 = timed ? stats_now_ns() : 0;
    for (int r = deck.claim(t, panel); r >= 0; r = deck.claim(t, panel)) {
      tile.ic = r * g.mc;
      tile.mc = std::min(g.mc, rows - tile.ic);
      tile_op(tile);
      ++tiles_done;
    }
    if (timed) compute_ns += stats_now_ns() - t0;
    pipe.compute_contribution_done(panel);
  }

  stats.tiles.fetch_add(tiles_done, std::memory_order_relaxed);
  if (timed) {
    stats.pack_ns.fetch_add(pack_ns, std::memory_order_relaxed);
    stats.compute_ns.fetch_add(compute_ns, std::memory_order_relaxed);
  }
}

/// The one level-3 driver. GEMM, SYRK, SYMM and TRMM resolve their
/// prologue, then hand their pack_chunk / tile_op pair (see
/// pipelined_macro_loop) to this helper, which owns the arena carve, the
/// PackPipeline / TileDeck and the parallel region for `rows` x `cols` of
/// output at depth `kdim`:
///
///   p > 1  — ONE shared-slab carve holds `extra_elems` of op scratch and
///            the ping/pong B pair (shared_slab always returns the slab
///            base, so a second call would alias the first); each
///            participant carves its own A block from its thread slab.
///   p == 1 — including nested-region degradation: ONE carve_private_panels
///            call on the caller's thread slab holds the scratch, the A
///            block and a single B buffer. A degraded call never touches
///            the shared slab: two of them, on two participants of an outer
///            region, would alias it.
///
/// `prepare(extra)` runs on the calling thread after the carve and before
/// the macro-loop region opens (TRMM's dense B copy); `extra` is null when
/// extra_elems == 0.
template <typename T, typename PrepareFn, typename PackChunkFn,
          typename TileOpFn>
void run_macro_loop(std::size_t p, const kernels::KernelSet<T>& ks,
                    const BlockGeom& g, int rows, int cols, int kdim,
                    std::size_t extra_elems, PrepareFn&& prepare,
                    PackChunkFn&& pack_chunk, TileOpFn&& tile_op) {
  const std::size_t extra_padded = PackArena::padded_count<T>(extra_elems);
  PackPipeline pipe(p);
  TileDeck deck(p, (rows + g.mc - 1) / g.mc);

  if (p == 1) {
    const PanelCarve<T> carve = carve_private_panels<T>(
        ks, g.mc, g.kc, g.nc, cols, extra_padded);
    prepare(extra_elems > 0 ? carve.extra : nullptr);
    T* const b_bufs[2] = {carve.b_pack, carve.b_pack};
    pipelined_macro_loop<T>(0, 1, rows, cols, kdim, g, ks.nr, b_bufs,
                            carve.a_pack, pipe, deck, pack_chunk, tile_op);
    return;
  }

  const std::size_t pair_padded =
      PackArena::padded_count<T>(b_panel_elems(ks, g.nc, cols, g.kc));
  std::shared_ptr<AlignedBuffer<T>> shared_fallback;
  T* base = shared_slab_or_fallback<T>(extra_padded + 2 * pair_padded,
                                       shared_fallback);
  prepare(extra_elems > 0 ? base : nullptr);
  T* const b_bufs[2] = {base + extra_padded,
                        base + extra_padded + pair_padded};
  const std::size_t a_elems = a_panel_elems(ks, g.mc, g.kc);

  ThreadPool& pool = ThreadPool::global();
  pool.parallel_region(p, [&](std::size_t tid, std::size_t nt) {
    std::shared_ptr<AlignedBuffer<T>> a_fallback;
    T* a_pack = thread_slab_or_fallback<T>(a_elems, a_fallback);
    pipelined_macro_loop<T>(tid, nt, rows, cols, kdim, g, ks.nr, b_bufs,
                            a_pack, pipe, deck, pack_chunk, tile_op);
  });
}

/// run_macro_loop for the ops without extra scratch (GEMM, SYRK, SYMM).
template <typename T, typename PackChunkFn, typename TileOpFn>
void run_macro_loop(std::size_t p, const kernels::KernelSet<T>& ks,
                    const BlockGeom& g, int rows, int cols, int kdim,
                    PackChunkFn&& pack_chunk, TileOpFn&& tile_op) {
  run_macro_loop<T>(p, ks, g, rows, cols, kdim, 0, [](T*) {}, pack_chunk,
                    tile_op);
}

/// GEMM past its prologue: C = alpha * op(A) * op(B) + beta * C on the
/// macro loop at a resolved thread count and blocking, for a non-degenerate
/// call (m, n, k > 0, alpha != 0). gemm() runs it after resolving p and g;
/// TRSM runs it at p = 1 for the trailing update of each diagonal block.
/// Defined in gemm.cpp.
template <typename T>
void gemm_macro_loop(std::size_t p, const kernels::KernelSet<T>& ks,
                     const BlockGeom& g, Trans trans_a, Trans trans_b, int m,
                     int n, int k, T alpha, const T* a, int lda, const T* b,
                     int ldb, T beta, T* c, int ldc);

/// Serial `row *= factor` over rows [row_lo, row_hi) of an ncols-wide
/// row-major block: factor == 1 is a no-op, factor == 0 stores zeros
/// outright so NaNs are flushed. THE row-scaling core — the ops' in-region
/// beta passes and the parallel degenerate pass below both delegate here,
/// so the flush/no-op semantics cannot drift between the macro loop and the
/// degenerate path of the same op.
template <typename T>
void scale_rows_range(T* c, long ldc, int row_lo, int row_hi, int ncols,
                      T factor) {
  if (factor == T(1)) return;
  for (int i = row_lo; i < row_hi; ++i) {
    T* row = c + i * ldc;
    if (factor == T(0)) {
      std::fill(row, row + ncols, T(0));
    } else {
      for (int j = 0; j < ncols; ++j) row[j] *= factor;
    }
  }
}

/// Parallel `row *= factor` pass over an nrows x ncols row-major block.
/// This is the whole of a degenerate level-3 call: GEMM/SYMM with k == 0 or
/// alpha == 0 reduce to C *= beta, and TRMM and TRSM with alpha == 0 to
/// B = 0.
template <typename T>
void scale_rows_pass(std::size_t p, int nrows, int ncols, T factor, T* c,
                     long ldc) {
  if (nrows <= 0 || ncols <= 0 || factor == T(1)) return;
  ThreadPool::global().parallel_region(
      p, [&](std::size_t tid, std::size_t nt) {
        const int chunk = static_cast<int>(
            (static_cast<std::size_t>(nrows) + nt - 1) / nt);
        const int lo = static_cast<int>(tid) * chunk;
        const int hi = std::min(nrows, lo + chunk);
        scale_rows_range(c, ldc, lo, hi, ncols, factor);
      });
}

}  // namespace adsala::blas::detail
