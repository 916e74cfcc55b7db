// Per-layer probes of the traced run: each times one layer of the stack
// through its own entry point, with wall-clock medians over repeated
// batches.
#include "layers.h"

#include <algorithm>
#include <functional>

#if defined(__x86_64__)
#include <immintrin.h>
#endif

#include "blas/gemm.h"
#include "blas/kernels/dispatch.h"
#include "blas/pack.h"
#include "common/thread_pool.h"
#include "core/op_registry.h"
#include "preprocess/features.h"

namespace perfbench {

using adsala::blas::OpKind;

namespace {

/// Median over `batches` of the per-item wall time (ns) of `body`, which
/// runs `items` items per call.
double median_ns_per_item(int batches, long items,
                          const std::function<void()>& body) {
  std::vector<double> per_item;
  body();  // warm-up
  for (int b = 0; b < batches; ++b) {
    const std::int64_t t0 = now_ns();
    body();
    per_item.push_back(static_cast<double>(now_ns() - t0) /
                       static_cast<double>(items));
  }
  return median(per_item);
}

volatile double g_sink = 0.0;

#if defined(__x86_64__)
// Independent FMA chains (more than latency x ports of any current core), so
// the loop is bound by FMA throughput alone.
__attribute__((target("avx512f"))) double fma_loop_avx512(long iters) {
  __m512 acc[24];
  for (int j = 0; j < 24; ++j) acc[j] = _mm512_set1_ps(0.001f * j);
  const __m512 mul = _mm512_set1_ps(0.9999999f);
  const __m512 add = _mm512_set1_ps(1e-7f);
  for (long i = 0; i < iters; ++i) {
    for (int j = 0; j < 24; ++j) acc[j] = _mm512_fmadd_ps(acc[j], mul, add);
  }
  float lanes[16];
  __m512 s = acc[0];
  for (int j = 1; j < 24; ++j) s = _mm512_add_ps(s, acc[j]);
  _mm512_storeu_ps(lanes, s);
  g_sink = lanes[0] + lanes[15];
  return 24.0 * 16.0 * 2.0 * static_cast<double>(iters);
}

__attribute__((target("avx2,fma"))) double fma_loop_avx2(long iters) {
  __m256 acc[12];
  for (int j = 0; j < 12; ++j) acc[j] = _mm256_set1_ps(0.001f * j);
  const __m256 mul = _mm256_set1_ps(0.9999999f);
  const __m256 add = _mm256_set1_ps(1e-7f);
  for (long i = 0; i < iters; ++i) {
    for (int j = 0; j < 12; ++j) acc[j] = _mm256_fmadd_ps(acc[j], mul, add);
  }
  float lanes[8];
  __m256 s = acc[0];
  for (int j = 1; j < 12; ++j) s = _mm256_add_ps(s, acc[j]);
  _mm256_storeu_ps(lanes, s);
  g_sink = lanes[0] + lanes[7];
  return 12.0 * 8.0 * 2.0 * static_cast<double>(iters);
}
#endif

double fma_loop_scalar(long iters) {
  float acc[8];
  for (int j = 0; j < 8; ++j) acc[j] = 0.001f * static_cast<float>(j);
  for (long i = 0; i < iters; ++i) {
    for (float& a : acc) a = a * 0.9999999f + 1e-7f;
  }
  g_sink = acc[0] + acc[7];
  return 8.0 * 2.0 * static_cast<double>(iters);
}

/// Single-thread FMA peak (GFLOP/s) of the ISA the active kernel tier uses.
double fma_peak_gflops() {
  using adsala::blas::kernels::Variant;
  const Variant v = adsala::blas::kernels::active_variant();
  std::function<double(long)> loop = fma_loop_scalar;
#if defined(__x86_64__)
  if (v == Variant::kAvx512) loop = fma_loop_avx512;
  if (v == Variant::kAvx2) loop = fma_loop_avx2;
#endif
  const long iters = 200000;
  std::vector<double> rates;
  loop(iters);
  for (int r = 0; r < 15; ++r) {
    const std::int64_t t0 = now_ns();
    const double flops = loop(iters);
    rates.push_back(flops / static_cast<double>(now_ns() - t0));
  }
  return median(rates);
}

/// Micro-kernel rate on cache-resident packed panels (one thread).
double ukernel_gflops() {
  const auto& ks = adsala::blas::kernels::kernel_set<float>();
  std::vector<float> a(static_cast<std::size_t>(ks.mr * ks.kc), 0.5f);
  std::vector<float> b(static_cast<std::size_t>(ks.kc * ks.nr), 0.25f);
  std::vector<float> c(static_cast<std::size_t>(ks.mr * ks.nr), 0.0f);
  const long calls = 2000;
  std::vector<double> rates;
  for (int r = 0; r < 16; ++r) {
    const std::int64_t t0 = now_ns();
    for (long i = 0; i < calls; ++i) {
      ks.full(ks.kc, 1.0f, a.data(), b.data(), c.data(), ks.nr);
    }
    const double ns = static_cast<double>(now_ns() - t0);
    if (r > 0) rates.push_back(2.0 * ks.mr * ks.nr * ks.kc * calls / ns);
  }
  g_sink = c[0];
  return median(rates);
}

/// Packing bandwidth in computed bytes (source read + panel write) per ns.
void pack_gbps(double* a_gbps, double* b_gbps) {
  const auto& ks = adsala::blas::kernels::kernel_set<float>();
  const int mc = ks.mc, kc = ks.kc, nc = ks.nc;
  const int lda = kc + 16, ldb = nc + 16;  // strided sources, as in a call
  std::vector<float> a(static_cast<std::size_t>(mc) * lda, 1.0f);
  std::vector<float> b(static_cast<std::size_t>(kc) * ldb, 1.0f);
  adsala::AlignedBuffer<float> dst(static_cast<std::size_t>(
      std::max((mc + ks.mr) * kc, kc * (nc + ks.nr))));
  const double a_bytes = 2.0 * mc * kc * sizeof(float);
  const double b_bytes = 2.0 * kc * nc * sizeof(float);
  const double a_ns = median_ns_per_item(15, 1, [&] {
    adsala::blas::detail::pack_a(a.data(), lda, mc, kc, ks.mr, dst.data());
  });
  const double b_ns = median_ns_per_item(15, 1, [&] {
    adsala::blas::detail::pack_b(b.data(), ldb, kc, nc, ks.nr, dst.data());
  });
  *a_gbps = a_bytes / a_ns;
  *b_gbps = b_bytes / b_ns;
}

}  // namespace

void probe_common_and_blas(adsala::core::AdsalaGemm& rt, int pool,
                           std::vector<Metric>& out) {
  adsala::ThreadPool& tp = adsala::ThreadPool::global();
  for (int k = 1; k <= pool; ++k) {
    const long regions = 200;
    const double ns = median_ns_per_item(25, regions, [&] {
      for (long i = 0; i < regions; ++i) {
        tp.parallel_region(static_cast<std::size_t>(k),
                           [](std::size_t, std::size_t) {});
      }
    });
    out.push_back({"pool.fork_join_ns.p" + std::to_string(k), ns, "ns"});
  }

  // One fixed mid size per op, fp32, at one thread and at the pool size.
  const long mid = 512;
  for (OpKind op : adsala::blas::all_ops()) {
    Call call;
    call.op = op;
    call.x = mid;
    call.y = mid;
    call.z = mid;
    Workspace ws({call}, 17);
    for (int p : {1, pool}) {
      std::vector<double> secs;
      for (int r = 0; r < 8; ++r) {
        secs.push_back(run_call(call, ws, rt, Path::kFixed, p));
      }
      secs.erase(secs.begin());  // warm-up
      out.push_back({std::string("blas.") + adsala::blas::op_name(op) +
                         ".gflops." + (p == 1 ? "p1" : "pmax"),
                     call.flops() / median(secs) * 1e-9, "GFLOP/s"});
    }
  }

  const double uk = ukernel_gflops();
  const double peak = fma_peak_gflops();
  out.push_back({"blas.ukernel.gflops", uk, "GFLOP/s"});
  out.push_back({"blas.fma_peak.gflops", peak, "GFLOP/s"});
  out.push_back({"blas.ukernel.peak_frac", uk / peak, "ratio"});
  double a_gbps = 0.0, b_gbps = 0.0;
  pack_gbps(&a_gbps, &b_gbps);
  out.push_back({"blas.pack_a.gbps", a_gbps, "GB/s"});
  out.push_back({"blas.pack_b.gbps", b_gbps, "GB/s"});
}

void probe_select(adsala::core::AdsalaGemm& rt, const std::vector<Call>& hot,
                  std::vector<Metric>& out) {
  // Hit: each hot key queried back to back, so every lookup after the
  // first is served by the memo whatever slots the keys share.
  long sink = 0;
  std::vector<double> hit;
  const long per_batch = 512;
  for (const Call& c : hot) {
    hit.push_back(median_ns_per_item(9, per_batch, [&] {
      for (long i = 0; i < per_batch; ++i) {
        sink += rt.select_threads(c.op, c.x, c.y, c.z, c.elem);
      }
    }));
  }
  const double hit_ns = median(hit);
  out.push_back({"select.hit_ns", hit_ns, "ns"});

  // Miss: shapes no query has used (odd dims never match the hot set).
  std::vector<double> miss;
  for (long i = 0; i < 400; ++i) {
    const OpKind op = adsala::blas::all_ops()[static_cast<std::size_t>(i) %
                                              adsala::blas::kNumOps];
    const long x = 3 + 2 * (i % 1500), y = 5 + 2 * (i / 7 % 1500);
    const std::int64_t t0 = now_ns();
    sink += rt.select_threads(op, x, y, x + 2, 4);
    miss.push_back(static_cast<double>(now_ns() - t0));
  }
  out.push_back({"select.miss_ns", median(miss), "ns"});

  // Swap: republishing the current generation (fresh memo, version bump).
  std::vector<double> swap;
  std::uint64_t previous = rt.snapshot_version();
  for (int i = 0; i < 60; ++i) {
    const std::int64_t t0 = now_ns();
    const std::uint64_t v = rt.install(rt.snapshot());
    swap.push_back(static_cast<double>(now_ns() - t0) * 1e-3);
    rt.evict_below(previous);
    previous = v;
  }
  out.push_back({"select.swap_us", median(swap), "us"});

  // The two stages of a miss: feature row transform and model inference.
  const auto snap = rt.snapshot();
  const std::size_t width = snap->pipeline.n_input_features();
  std::vector<std::vector<double>> raw, transformed;
  for (const Call& c : hot) {
    const auto s =
        adsala::core::op_traits(c.op).to_shape(c.x, c.y, c.z, c.elem);
    for (int p : snap->thread_grid) {
      raw.push_back(adsala::preprocess::make_query_features(
          static_cast<double>(s.m), static_cast<double>(s.k),
          static_cast<double>(s.n), p, c.op,
          adsala::blas::kernels::active_variant(), width));
      transformed.push_back(snap->pipeline.transform_row(raw.back()));
    }
  }
  double acc = 0.0;
  const long rows = static_cast<long>(raw.size());
  out.push_back({"preprocess.transform_row_ns",
                 median_ns_per_item(40, rows,
                                    [&] {
                                      for (const auto& r : raw) {
                                        acc += snap->pipeline.transform_row(r)[0];
                                      }
                                    }),
                 "ns"});
  out.push_back({"ml.predict_ns",
                 median_ns_per_item(40, rows,
                                    [&] {
                                      for (const auto& t : transformed) {
                                        acc += snap->model->predict_one(t);
                                      }
                                    }),
                 "ns"});
  g_sink = acc + static_cast<double>(sink);
}

}  // namespace perfbench
