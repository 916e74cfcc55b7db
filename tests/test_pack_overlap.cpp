// Concurrency and ragged-shape coverage for the pack pipeline
// (blas/pack_pipeline.h): the ping/pong PackPipeline epochs and the
// TileDeck steal index are hammered directly from raw std::threads (the
// TSan CI leg runs this binary), and the GEMM/SYRK/SYMM/TRMM drivers on the
// shared macro-loop are verified against their references on the
// adversarial shapes a static row split handles worst — tall-skinny, wide,
// fewer row tiles than threads, and a k < kc single-panel degenerate — for
// bit-identity across thread counts, and from inside a parallel region.
// TRSM's one region (column groups, and row helpers meeting at a barrier
// per diagonal block) gets the same bit-identity and nested-call checks,
// plus a count of the regions it opens.
//
// The global pool is forced to 4 threads via ADSALA_THREADS before its
// first use (the static initializer below runs pre-main): on a small CI
// host the parallel paths would otherwise resolve to one thread and the
// pipeline would never engage.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "blas/gemm.h"
#include "blas/kernels/dispatch.h"
#include "blas/pack_pipeline.h"
#include "blas/symm.h"
#include "blas/syrk.h"
#include "blas/trmm.h"
#include "blas/trsm.h"
#include "common/pack_arena.h"
#include "common/rng.h"
#include "common/thread_pool.h"

namespace adsala::blas {
namespace {

// Before the lazily-constructed ThreadPool::global() first runs (no
// overwrite: an outer ADSALA_THREADS, e.g. a CI matrix entry, wins).
const bool g_pool_env = [] {
  setenv("ADSALA_THREADS", "4", /*overwrite=*/0);
  return true;
}();

template <typename T>
std::vector<T> random_matrix(std::size_t rows, std::size_t cols,
                             std::uint64_t seed) {
  Rng rng(seed);
  std::vector<T> out(rows * cols);
  for (auto& v : out) v = static_cast<T>(rng.uniform(-2.0, 2.0));
  return out;
}

// ------------------------------------------------------- pipeline hammer --

/// Runs the exact PackPipeline/TileDeck protocol of pipelined_macro_loop
/// from raw threads, with the "pack" writing a per-thread cell tagged with
/// the panel index and the "compute" asserting every participant's tag is
/// visible — the acquire/release edges the real loop relies on. Tile claims
/// are counted per (panel, tile); any double or missed claim fails.
void hammer_pipeline(int nt, int panels, int tiles) {
  detail::PackPipeline pipe(static_cast<std::size_t>(nt));
  detail::TileDeck deck(static_cast<std::size_t>(nt), tiles);
  // Ping/pong "buffers": one slot per participant, as the cooperative pack
  // writes disjoint chunks of the real B pair.
  std::vector<long> bufs[2];
  bufs[0].assign(nt, -1);
  bufs[1].assign(nt, -1);
  std::vector<std::atomic<int>> claims(
      static_cast<std::size_t>(panels) * tiles);
  std::atomic<int> failures{0};

  auto body = [&](int t) {
    auto pack_share = [&](long panel) {
      pipe.wait_buffer_free(panel);
      bufs[panel & 1][t] = panel;  // this thread's pack contribution
      pipe.pack_contribution_done(panel);
    };
    pack_share(0);
    for (long panel = 0; panel < panels; ++panel) {
      if (panel + 1 < panels) pack_share(panel + 1);
      pipe.wait_computable(panel);
      for (int other = 0; other < nt; ++other) {
        if (bufs[panel & 1][other] != panel) {
          failures.fetch_add(1, std::memory_order_relaxed);
        }
      }
      for (int tile = deck.claim(t, panel); tile >= 0;
           tile = deck.claim(t, panel)) {
        claims[static_cast<std::size_t>(panel) * tiles + tile].fetch_add(
            1, std::memory_order_relaxed);
      }
      pipe.compute_contribution_done(panel);
    }
  };

  std::vector<std::thread> threads;
  for (int t = 0; t < nt; ++t) threads.emplace_back(body, t);
  for (auto& th : threads) th.join();

  EXPECT_EQ(failures.load(), 0)
      << "a compute phase observed a stale pack contribution";
  for (int p = 0; p < panels; ++p) {
    for (int tile = 0; tile < tiles; ++tile) {
      EXPECT_EQ(claims[static_cast<std::size_t>(p) * tiles + tile].load(), 1)
          << "tile " << tile << " of panel " << p
          << " claimed the wrong number of times";
    }
  }
}

TEST(PackPipeline, HammerManyPanels) { hammer_pipeline(4, 200, 7); }

TEST(PackPipeline, HammerMoreThreadsThanTiles) { hammer_pipeline(4, 100, 2); }

TEST(PackPipeline, HammerSinglePanel) { hammer_pipeline(4, 1, 5); }

TEST(PackPipeline, HammerTwoThreads) { hammer_pipeline(2, 300, 3); }

// ------------------------------------------------------ TileDeck (serial) --

TEST(TileDeck, OneThreadDrainsEveryDequeInStealOrder) {
  detail::TileDeck deck(4, 10);
  // Ownership is the contiguous split [t*10/4, (t+1)*10/4).
  EXPECT_EQ(deck.owned_lo(0), 0);
  EXPECT_EQ(deck.owned_hi(0), 2);
  EXPECT_EQ(deck.owned_lo(3), 7);
  EXPECT_EQ(deck.owned_hi(3), 10);

  const auto steals_before =
      detail::pipeline_stats().steals.load(std::memory_order_relaxed);
  std::vector<int> order;
  for (int tile = deck.claim(0, 0); tile >= 0; tile = deck.claim(0, 0)) {
    order.push_back(tile);
  }
  // Own deque front-to-back, then each victim's in steal order.
  const std::vector<int> expect = {0, 1, 2, 3, 4, 5, 6, 7, 8, 9};
  EXPECT_EQ(order, expect);
  // The 8 foreign claims counted as steals (deterministic: single caller).
  EXPECT_EQ(detail::pipeline_stats().steals.load(std::memory_order_relaxed) -
                steals_before,
            8u);
  EXPECT_EQ(deck.claim(0, 0), -1);
}

TEST(TileDeck, EpochReArmsWithoutReset) {
  detail::TileDeck deck(2, 4);
  // Drain panel 0 entirely from thread 1.
  int count = 0;
  while (deck.claim(1, 0) >= 0) ++count;
  EXPECT_EQ(count, 4);
  // Panel 1 starts over lock-free: stale panel-0 cursors re-arm on claim.
  std::vector<int> order;
  for (int tile = deck.claim(0, 1); tile >= 0; tile = deck.claim(0, 1)) {
    order.push_back(tile);
  }
  const std::vector<int> expect = {0, 1, 2, 3};
  EXPECT_EQ(order, expect);
}

TEST(TileDeck, EmptyOwnDequeStealsImmediately) {
  // 2 tiles across 4 threads: the rounding split gives ranges
  // [0,0), [0,1), [1,1), [1,2) — threads 0 and 2 own nothing and must steal
  // their first claim. Deterministic because the deck is drained serially.
  detail::TileDeck deck(4, 2);
  EXPECT_EQ(deck.owned_lo(0), 0);
  EXPECT_EQ(deck.owned_hi(0), 0);  // empty
  const int first = deck.claim(0, 0);
  EXPECT_GE(first, 0);  // stolen from a victim
  const int second = deck.claim(0, 0);
  EXPECT_GE(second, 0);
  EXPECT_NE(first, second);
  EXPECT_EQ(deck.claim(0, 0), -1);
}

// --------------------------------------------------- ragged-shape corpus --

struct RaggedShape {
  int m, n, k;
  const char* why;
};

// The shapes the static panels_per_thread split handled worst. kc defaults
// to 256/384 depending on kernel, so k = 7 is a single sub-kc panel; with
// the 4-thread pool, m = 8 is fewer row tiles than threads for every mr.
const RaggedShape kRaggedCorpus[] = {
    {8191, 64, 128, "tall-skinny, m off the MC grid"},
    {64, 8191, 128, "wide, nc-panel heavy"},
    {8, 512, 64, "fewer row tiles than threads"},
    {300, 300, 7, "k < kc single-panel degenerate"},
};

template <typename T>
void expect_ragged_gemm_matches(Trans ta, Trans tb, const RaggedShape& s) {
  const int a_rows = ta == Trans::kNo ? s.m : s.k;
  const int a_cols = ta == Trans::kNo ? s.k : s.m;
  const int b_rows = tb == Trans::kNo ? s.k : s.n;
  const int b_cols = tb == Trans::kNo ? s.n : s.k;
  const auto a = random_matrix<T>(a_rows, a_cols, 11);
  const auto b = random_matrix<T>(b_rows, b_cols, 12);
  auto c = random_matrix<T>(s.m, s.n, 13);
  auto c_ref = c;

  gemm<T>(ta, tb, s.m, s.n, s.k, T(1.25), a.data(), a_cols, b.data(), b_cols,
          T(-0.5), c.data(), s.n, 0);
  reference_gemm<T>(ta, tb, s.m, s.n, s.k, T(1.25), a.data(), a_cols,
                    b.data(), b_cols, T(-0.5), c_ref.data(), s.n);

  const double tol =
      (std::is_same_v<T, float> ? 1e-4 : 1e-11) * std::max(1, s.k);
  for (long i = 0; i < static_cast<long>(s.m) * s.n; ++i) {
    ASSERT_NEAR(static_cast<double>(c[i]), static_cast<double>(c_ref[i]), tol)
        << s.why << ": mismatch at linear index " << i;
  }
}

TEST(RaggedShapes, GemmAllTransCombosFloat) {
  for (const auto& s : kRaggedCorpus) {
    for (const Trans ta : {Trans::kNo, Trans::kYes}) {
      for (const Trans tb : {Trans::kNo, Trans::kYes}) {
        expect_ragged_gemm_matches<float>(ta, tb, s);
      }
    }
  }
}

TEST(RaggedShapes, GemmAllTransCombosDouble) {
  for (const auto& s : kRaggedCorpus) {
    for (const Trans ta : {Trans::kNo, Trans::kYes}) {
      for (const Trans tb : {Trans::kNo, Trans::kYes}) {
        expect_ragged_gemm_matches<double>(ta, tb, s);
      }
    }
  }
}

/// memcmp's run(nthreads) at every nthreads in {1, 2, 3, 4}, three runs
/// each, against the first one-thread result.
template <typename Run>
void expect_bit_identical_across_threads(const std::string& what, Run run) {
  const auto reference_run = run(1);
  for (const int nthreads : {1, 2, 3, 4}) {
    for (int rep = 0; rep < 3; ++rep) {
      const auto out = run(nthreads);
      if (std::memcmp(out.data(), reference_run.data(),
                      out.size() * sizeof(out[0])) != 0) {
        ADD_FAILURE() << what << ": nthreads=" << nthreads << " rep=" << rep
                      << " differs from the one-thread result";
        return;
      }
    }
  }
}

/// A triangle whose solves stay bounded for either diagonal: off-diagonal
/// entries of order 1/n, diagonal 1.5.
template <typename T>
std::vector<T> solvable_triangle(int n, std::uint64_t seed) {
  auto a = random_matrix<T>(n, n, seed);
  for (auto& v : a) v /= T(n);
  for (int i = 0; i < n; ++i) a[static_cast<std::size_t>(i) * n + i] = T(1.5);
  return a;
}

/// TRSM at every kernel tier, all 8 uplo x trans x diag cases, with ragged
/// n (three diagonal blocks, off every MR grid) and three right-hand-side
/// widths: m = 203 splits into multi-panel column groups, m = 37 has fewer
/// NR panels than threads on the 16- and 32-wide tiles, and m = 7 is one
/// panel on every tile, so its spare threads are row helpers.
template <typename T>
void expect_trsm_bit_identical() {
  const int n = 259;
  const auto a = solvable_triangle<T>(n, 35);
  for (const auto variant : kernels::supported_variants()) {
    GemmTuning tuning;
    tuning.variant = variant;
    for (const int m : {203, 37, 7}) {
      const auto b0 = random_matrix<T>(n, m, 36);
      for (const Uplo uplo : {Uplo::kLower, Uplo::kUpper}) {
        for (const Trans trans : {Trans::kNo, Trans::kYes}) {
          for (const Diag diag : {Diag::kNonUnit, Diag::kUnit}) {
            expect_bit_identical_across_threads(
                std::string("trsm ") + kernels::variant_name(variant) +
                    (sizeof(T) == 4 ? " fp32" : " fp64") +
                    " m=" + std::to_string(m) +
                    " uplo=" + std::to_string(static_cast<int>(uplo)) +
                    " trans=" + std::to_string(static_cast<int>(trans)) +
                    " diag=" + std::to_string(static_cast<int>(diag)),
                [&](int nthreads) {
                  auto b = b0;
                  trsm<T>(uplo, trans, diag, n, m, T(1.5), a.data(), n,
                          b.data(), m, nthreads, tuning);
                  return b;
                });
          }
        }
      }
    }
  }
}

TEST(RaggedShapes, ResultsBitIdenticalAcrossThreadCountsAndRuns) {
  // The steal deck reorders which THREAD computes a tile, never the
  // per-element arithmetic: every (thread count, run) pair must agree bit
  // for bit with the one-thread run, for every op on the macro-loop. The
  // shapes sit off every blocking grid (MC, NR, MR).
  {
    const int m = 517, n = 203, k = 131;
    const auto a = random_matrix<float>(m, k, 21);
    const auto b = random_matrix<float>(k, n, 22);
    const auto c0 = random_matrix<float>(m, n, 23);
    expect_bit_identical_across_threads("gemm", [&](int nthreads) {
      auto c = c0;
      gemm<float>(Trans::kNo, Trans::kNo, m, n, k, 1.5f, a.data(), k,
                  b.data(), n, 0.25f, c.data(), n, nthreads);
      return c;
    });
  }
  {
    // SYRK's diagonal-crossing micro-tiles used to shift with the thread
    // count when each thread's rows started wherever an area split put them.
    const int n = 517, k = 203;
    const auto a = random_matrix<float>(n, k, 24);  // n x k or k x n
    const auto c0 = random_matrix<float>(n, n, 25);
    for (const Uplo uplo : {Uplo::kLower, Uplo::kUpper}) {
      for (const Trans trans : {Trans::kNo, Trans::kYes}) {
        const int lda = trans == Trans::kNo ? k : n;
        expect_bit_identical_across_threads(
            "syrk uplo=" + std::to_string(static_cast<int>(uplo)) +
                " trans=" + std::to_string(static_cast<int>(trans)),
            [&](int nthreads) {
              auto c = c0;
              syrk<float>(uplo, trans, n, k, 1.5f, a.data(), lda, 0.25f,
                          c.data(), n, nthreads);
              return c;
            });
      }
    }
  }
  {
    const int n = 259, m = 203;
    const auto a = random_matrix<float>(n, n, 26);
    const auto b = random_matrix<float>(n, m, 27);
    const auto c0 = random_matrix<float>(n, m, 28);
    for (const Uplo uplo : {Uplo::kLower, Uplo::kUpper}) {
      expect_bit_identical_across_threads(
          "symm uplo=" + std::to_string(static_cast<int>(uplo)),
          [&](int nthreads) {
            auto c = c0;
            symm<float>(uplo, n, m, 1.5f, a.data(), n, b.data(), m, 0.25f,
                        c.data(), m, nthreads);
            return c;
          });
    }
  }
  {
    const int n = 259, m = 131;
    const auto a = random_matrix<float>(n, n, 29);
    const auto b0 = random_matrix<float>(n, m, 30);
    for (const Uplo uplo : {Uplo::kLower, Uplo::kUpper}) {
      for (const Trans trans : {Trans::kNo, Trans::kYes}) {
        for (const Diag diag : {Diag::kNonUnit, Diag::kUnit}) {
          expect_bit_identical_across_threads(
              "trmm uplo=" + std::to_string(static_cast<int>(uplo)) +
                  " trans=" + std::to_string(static_cast<int>(trans)) +
                  " diag=" + std::to_string(static_cast<int>(diag)),
              [&](int nthreads) {
                auto b = b0;
                trmm<float>(uplo, trans, diag, n, m, 1.5f, a.data(), n,
                            b.data(), m, nthreads);
                return b;
              });
        }
      }
    }
  }
  expect_trsm_bit_identical<float>();
  expect_trsm_bit_identical<double>();
}

TEST(TrsmRegions, OneRegionAboveOneThreadNoneAtOne) {
  // The alpha scaling, every diagonal solve and every trailing update run
  // inside one region; at p = 1 the call runs on the caller. A call with
  // nothing to split (one NR panel, one diagonal block) runs there too.
  ThreadPool& pool = ThreadPool::global();
  ASSERT_GE(pool.max_threads(), 2u);
  const int n = 300;
  const auto a = solvable_triangle<float>(n, 37);
  for (const int m : {203, 7}) {
    const auto b0 = random_matrix<float>(n, m, 38);
    for (const float alpha : {1.0f, -0.75f}) {
      for (const int nthreads : {1, 2, 4}) {
        auto b = b0;
        const std::uint64_t before = pool.regions_forked();
        trsm<float>(Uplo::kLower, Trans::kNo, Diag::kNonUnit, n, m, alpha,
                    a.data(), n, b.data(), m, nthreads);
        const std::uint64_t expected =
            nthreads > 1 && pool.max_threads() > 1 ? 1 : 0;
        EXPECT_EQ(pool.regions_forked() - before, expected)
            << "m=" << m << " alpha=" << alpha << " nthreads=" << nthreads;
      }
    }
  }
  auto narrow = random_matrix<float>(16, 1, 39);
  const std::uint64_t before = pool.regions_forked();
  trsm<float>(Uplo::kUpper, Trans::kYes, Diag::kUnit, 16, 1, 2.0f, a.data(),
              n, narrow.data(), 1, 4);
  EXPECT_EQ(pool.regions_forked(), before);
}

TEST(RaggedShapes, PipelineCountersMatchSchedule) {
  // tiles/panels are schedule invariants: every (jc, pc) panel is packed
  // once and every row tile computed once per panel, no matter which thread
  // got it. One thread runs the same macro-loop, so the panel grid does not
  // depend on the thread count either. Deterministic even under stealing.
  auto& stats = detail::pipeline_stats();
  const int m = 1201, n = 640, k = 512;
  const auto a = random_matrix<float>(m, k, 31);
  const auto b = random_matrix<float>(k, n, 32);
  auto c = random_matrix<float>(m, n, 33);
  const auto sq = random_matrix<float>(n, n, 34);  // SYMM / TRMM's A

  GemmTuning tuning;
  tuning.mc = 256;
  tuning.kc = 128;
  tuning.nc = 320;

  // Runs `call`; returns its panel count and row tiles per panel.
  auto counted = [&](const char* what, auto call) {
    const auto panels_before = stats.panels.load(std::memory_order_relaxed);
    const auto tiles_before = stats.tiles.load(std::memory_order_relaxed);
    call();
    const auto panels =
        stats.panels.load(std::memory_order_relaxed) - panels_before;
    const auto tiles =
        stats.tiles.load(std::memory_order_relaxed) - tiles_before;
    EXPECT_GT(panels, 0u) << what;
    if (panels == 0) return std::pair<std::uint64_t, std::uint64_t>{0, 0};
    EXPECT_EQ(tiles % panels, 0u)
        << what << ": every panel computes every row tile";
    return std::pair{panels, tiles / panels};
  };

  // Panel counts of gemm, syrk, symm and trmm at p threads; also checks
  // GEMM's row tiles. (SYRK picks smaller row tiles when p > 1.)
  auto panels_at = [&](int p) {
    std::vector<std::uint64_t> out;
    const auto [gemm_panels, gemm_row_tiles] = counted("gemm", [&] {
      gemm<float>(Trans::kNo, Trans::kNo, m, n, k, 1.0f, a.data(), k,
                  b.data(), n, 0.0f, c.data(), n, p, tuning);
    });
    // m=1201 over mc<=256 is at least 5 row tiles.
    EXPECT_GE(gemm_row_tiles, 5u);
    out.push_back(gemm_panels);
    out.push_back(counted("syrk", [&] {
      syrk<float>(Uplo::kLower, Trans::kNo, n, k, 1.0f, b.data(), k, 0.5f,
                  c.data(), n, p, tuning);
    }).first);
    out.push_back(counted("symm", [&] {
      symm<float>(Uplo::kUpper, n, k, 1.0f, sq.data(), n, b.data(), k, 0.5f,
                  c.data(), n, p, tuning);
    }).first);
    out.push_back(counted("trmm", [&] {
      trmm<float>(Uplo::kLower, Trans::kNo, Diag::kNonUnit, n, k, 1.0f,
                  sq.data(), n, c.data(), n, p, tuning);
    }).first);
    return out;
  };

  const int p_max = static_cast<int>(
      std::min<std::size_t>(4, ThreadPool::global().max_threads()));
  EXPECT_EQ(panels_at(1), panels_at(p_max))
      << "the panel grid must not depend on p";
}

// ----------------------------------------------- SYMM / TRMM through it --

TEST(RaggedShapes, SymmMatchesReference) {
  for (const auto [n, m] : {std::pair{131, 257}, std::pair{8, 512},
                            std::pair{257, 33}}) {
    for (const Uplo uplo : {Uplo::kLower, Uplo::kUpper}) {
      const auto a = random_matrix<float>(n, n, 41);
      const auto b = random_matrix<float>(n, m, 42);
      auto c = random_matrix<float>(n, m, 43);
      auto c_ref = c;
      symm<float>(uplo, n, m, 1.5f, a.data(), n, b.data(), m, -0.5f,
                  c.data(), m, 0);
      reference_symm<float>(uplo, n, m, 1.5f, a.data(), n, b.data(), m,
                            -0.5f, c_ref.data(), m);
      const double tol = 1e-4 * n;
      for (long i = 0; i < static_cast<long>(n) * m; ++i) {
        ASSERT_NEAR(c[i], c_ref[i], tol)
            << "n=" << n << " m=" << m << " i=" << i;
      }
    }
  }
}

TEST(RaggedShapes, TrmmMatchesReference) {
  for (const auto [n, m] : {std::pair{131, 257}, std::pair{8, 512},
                            std::pair{257, 33}}) {
    for (const Uplo uplo : {Uplo::kLower, Uplo::kUpper}) {
      for (const Trans trans : {Trans::kNo, Trans::kYes}) {
        const auto a = random_matrix<float>(n, n, 51);
        auto b = random_matrix<float>(n, m, 52);
        auto b_ref = b;
        trmm<float>(uplo, trans, Diag::kNonUnit, n, m, 1.25f, a.data(), n,
                    b.data(), m, 0);
        reference_trmm<float>(uplo, trans, Diag::kNonUnit, n, m, 1.25f,
                              a.data(), n, b_ref.data(), m);
        const double tol = 1e-4 * n;
        for (long i = 0; i < static_cast<long>(n) * m; ++i) {
          ASSERT_NEAR(b[i], b_ref[i], tol)
              << "n=" << n << " m=" << m << " i=" << i;
        }
      }
    }
  }
}

TEST(RaggedShapes, TrsmMatchesReference) {
  // Tall-narrow (row helpers), wide (column groups only) and in between,
  // at the pool maximum.
  for (const auto [n, m] : {std::pair{517, 7}, std::pair{131, 257},
                            std::pair{259, 37}}) {
    const auto a = solvable_triangle<float>(n, 53);
    for (const Uplo uplo : {Uplo::kLower, Uplo::kUpper}) {
      for (const Trans trans : {Trans::kNo, Trans::kYes}) {
        for (const Diag diag : {Diag::kNonUnit, Diag::kUnit}) {
          auto b = random_matrix<float>(n, m, 54);
          auto b_ref = b;
          trsm<float>(uplo, trans, diag, n, m, -1.25f, a.data(), n, b.data(),
                      m, 0);
          reference_trsm<float>(uplo, trans, diag, n, m, -1.25f, a.data(), n,
                                b_ref.data(), m);
          for (long i = 0; i < static_cast<long>(n) * m; ++i) {
            ASSERT_NEAR(b[i], b_ref[i], 1e-4)
                << "n=" << n << " m=" << m << " uplo=" << int(uplo)
                << " trans=" << int(trans) << " diag=" << int(diag)
                << " i=" << i;
          }
        }
      }
    }
  }
}

// ------------------------------------------ calls from inside a region --

TEST(NestedRegion, ParticipantsRunPrivateOneThreadCalls) {
  // An op called from inside a parallel region resolves to one thread and
  // carves its scratch (packed panels, TRMM's dense copy, TRSM's trailing
  // updates) from the calling thread's slab, never the arena's one shared
  // slab: concurrent degraded calls on the shared slab would alias each
  // other's panels. Each participant runs every level-3 op on its own
  // operands, with shapes differing per participant, repeatedly and after a
  // start line so the calls overlap, and checks each result against the
  // reference. Worker threads only record mismatches; the asserts run after
  // the join.
  constexpr std::size_t kParticipants = 4;
  constexpr int kReps = 10;
  std::vector<std::string> failures(kParticipants);
  std::atomic<std::size_t> arrived{0};

  ThreadPool::global().parallel_region(
      kParticipants, [&](std::size_t tid, std::size_t nt) {
        const int id = static_cast<int>(tid);
        const int n = 150 + 13 * id, m = 130 + 11 * id, k = 110 + 7 * id;
        const int lda = std::max(n, k);
        const int ldc = std::max(n, m);
        const std::uint64_t seed = 100 + 10 * tid;
        const auto a = random_matrix<float>(n, lda, seed);
        const auto b = random_matrix<float>(lda, m, seed + 1);
        const auto c0 = random_matrix<float>(n, ldc, seed + 2);

        // One (op, reference result, call) triple per macro-loop op.
        struct Case {
          const char* op;
          std::vector<float> want;
          std::function<void(float*)> run;
        };
        std::vector<Case> cases;
        cases.push_back({"gemm", c0, [&](float* c) {
          gemm<float>(Trans::kNo, Trans::kNo, n, m, k, 1.5f, a.data(), lda,
                      b.data(), m, 0.5f, c, ldc, 4);
        }});
        reference_gemm<float>(Trans::kNo, Trans::kNo, n, m, k, 1.5f, a.data(),
                              lda, b.data(), m, 0.5f,
                              cases.back().want.data(), ldc);
        cases.push_back({"syrk", c0, [&](float* c) {
          syrk<float>(Uplo::kLower, Trans::kNo, n, k, 1.5f, a.data(), lda,
                      0.5f, c, ldc, 4);
        }});
        reference_syrk<float>(Uplo::kLower, Trans::kNo, n, k, 1.5f, a.data(),
                              lda, 0.5f, cases.back().want.data(), ldc);
        cases.push_back({"symm", c0, [&](float* c) {
          symm<float>(Uplo::kUpper, n, m, 1.5f, a.data(), lda, b.data(), m,
                      0.5f, c, ldc, 4);
        }});
        reference_symm<float>(Uplo::kUpper, n, m, 1.5f, a.data(), lda,
                              b.data(), m, 0.5f, cases.back().want.data(),
                              ldc);
        cases.push_back({"trmm", c0, [&](float* c) {
          trmm<float>(Uplo::kLower, Trans::kYes, Diag::kNonUnit, n, m, 1.5f,
                      a.data(), lda, c, ldc, 4);
        }});
        reference_trmm<float>(Uplo::kLower, Trans::kYes, Diag::kNonUnit, n, m,
                              1.5f, a.data(), lda, cases.back().want.data(),
                              ldc);
        const auto tri = solvable_triangle<float>(n, seed + 3);
        cases.push_back({"trsm", c0, [&](float* c) {
          trsm<float>(Uplo::kUpper, Trans::kNo, Diag::kNonUnit, n, m, 1.5f,
                      tri.data(), n, c, ldc, 4);
        }});
        reference_trsm<float>(Uplo::kUpper, Trans::kNo, Diag::kNonUnit, n, m,
                              1.5f, tri.data(), n, cases.back().want.data(),
                              ldc);

        arrived.fetch_add(1, std::memory_order_acq_rel);
        while (arrived.load(std::memory_order_acquire) < nt) {
          std::this_thread::yield();
        }
        for (int rep = 0; rep < kReps && failures[tid].empty(); ++rep) {
          for (const Case& cs : cases) {
            auto c = c0;
            cs.run(c.data());
            for (std::size_t i = 0; i < c.size(); ++i) {
              if (std::abs(c[i] - cs.want[i]) > 1e-3f * lda) {
                failures[tid] = std::string(cs.op) + " rep " +
                                std::to_string(rep) + " at " +
                                std::to_string(i);
                break;
              }
            }
          }
        }
      });

  for (std::size_t t = 0; t < kParticipants; ++t) {
    EXPECT_TRUE(failures[t].empty())
        << "participant " << t << ": " << failures[t];
  }
}

// ------------------------------------------------------------ arena NUMA --

TEST(ArenaStats, SurfacesPlacementAndSizes) {
  // The env is parsed once per process, so this asserts the resolved
  // default (or whatever the CI job forced via ADSALA_NUMA) is surfaced
  // coherently, not a specific mode.
  auto& arena = PackArena::global();
  // Force at least one carve so the sizes are non-trivial.
  arena.thread_slab<float>(1024);
  const auto stats = arena.arena_stats();
  const std::string mode = stats.numa_mode;
  EXPECT_TRUE(mode == "firsttouch" || mode == "node" || mode == "off")
      << "mode=" << mode;
  if (mode == "node") {
    EXPECT_GE(stats.numa_node, 0);
  } else {
    EXPECT_EQ(stats.numa_node, -1);
  }
  if (!stats.numa_available) EXPECT_FALSE(stats.numa_bound);
  EXPECT_GE(stats.thread_bytes, 1024 * sizeof(float));
  EXPECT_EQ(stats.shared_bytes + stats.thread_bytes,
            arena.footprint_bytes());
  EXPECT_GE(stats.growth_count, 1u);
}

TEST(ArenaStats, GrowthCountStableAcrossRepeatedPipelinedCalls) {
  // The zero-allocation hot path must survive the ping/pong carve: two
  // identical pipelined GEMMs after a warm-up allocate nothing.
  const int dim = 192;
  const auto a = random_matrix<float>(dim, dim, 61);
  const auto b = random_matrix<float>(dim, dim, 62);
  auto c = random_matrix<float>(dim, dim, 63);
  auto call = [&] {
    gemm<float>(Trans::kNo, Trans::kNo, dim, dim, dim, 1.0f, a.data(), dim,
                b.data(), dim, 0.0f, c.data(), dim, 0);
  };
  call();  // warm
  const auto before = PackArena::global().growth_count();
  call();
  call();
  EXPECT_EQ(PackArena::global().growth_count(), before);
}

}  // namespace
}  // namespace adsala::blas
