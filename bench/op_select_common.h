// Shared driver for the per-operation thread-selection benches: ONE
// data-driven harness — the per-op binaries (bench_<op>_select) are the same
// bench/op_select_main.cpp compiled with a different op name, and every
// family hook (test-set sampler, selection entry point, row labels) comes
// from the op's registry row, so a newly registered op gets its select bench
// by adding its name to the CMake list.
//
// For one operation family the driver samples an independent test set from
// the family's domain, asks the all-op op-aware runtime (bench_util.h) for
// the thread count per shape, and compares the measured runtime at that
// count against the platform-maximum default — the paper's speedup
// criterion, per operation. It also counts how often the op-aware answer
// differs from the GEMM-proxy answer a GEMM-only model gives.
// Results land in BENCH_<op>_select.json.
#pragma once

#include "bench_util.h"
#include "core/op_registry.h"

namespace adsala::bench {

/// Independent test shapes for one operation family (seed disjoint from the
/// training campaign's).
inline std::vector<simarch::GemmShape> op_test_shapes(blas::OpKind op,
                                                      std::size_t count) {
  sampling::DomainConfig domain = train_domain();
  domain.seed = 98765;  // disjoint scrambling from the training campaign
  return core::op_traits(op).make_sampler(domain)->sample(count);
}

/// Family selection through the generic runtime entry point.
inline int select_threads_for(core::AdsalaGemm& runtime, blas::OpKind op,
                              const simarch::GemmShape& shape) {
  long coords[3] = {0, 0, 0};
  core::op_traits(op).from_shape(shape, &coords[0], &coords[1], &coords[2]);
  return runtime.select_threads(op, coords[0], coords[1], coords[2]);
}

inline void run_op_select_platform(const std::string& platform,
                                   blas::OpKind op, BenchJson& json) {
  auto runtime = op_aware_runtime(platform);
  auto executor = make_executor(platform);
  const int max_threads = executor.max_threads();

  const auto shapes = op_test_shapes(op, test_samples());
  if (shapes.empty()) {
    std::printf("%-10s | no test shapes (ADSALA_BENCH_TEST=0?); skipping\n",
                platform.c_str());
    return;
  }

  double sum_ratio = 0.0, sum_sel = 0.0, sum_max = 0.0;
  int n_diff_from_proxy = 0;
  for (const auto& shape : shapes) {
    const int p = select_threads_for(runtime, op, shape);
    const int p_proxy = runtime.select_threads(shape.m, shape.k, shape.n);
    n_diff_from_proxy += (p != p_proxy);
    const double t_sel = executor.measure_op(op, shape, p);
    const double t_max = executor.measure_op(op, shape, max_threads);
    sum_ratio += t_max / t_sel;
    sum_sel += t_sel;
    sum_max += t_max;

    JsonObject row;
    row["platform"] = Json(platform);
    // Family coordinates under the registry's labels (e.g. (n, k) for SYRK,
    // (n, m) for the triangular families).
    const auto& traits = core::op_traits(op);
    long coords[3] = {0, 0, 0};
    traits.from_shape(shape, &coords[0], &coords[1], &coords[2]);
    for (int d = 0; d < traits.family_dims; ++d) {
      row[traits.coord_names[d]] = Json(coords[d]);
    }
    row["selected_threads"] = Json(p);
    row["proxy_threads"] = Json(p_proxy);
    row["t_selected_s"] = Json(t_sel);
    row["t_max_threads_s"] = Json(t_max);
    row["speedup"] = Json(t_max / t_sel);
    json.add(std::move(row));
  }

  const auto n = static_cast<double>(shapes.size());
  const double mean_speedup = sum_ratio / n;
  const double agg_speedup = sum_max / sum_sel;
  std::printf("%-10s | op_aware=%s | %4zu %s shapes | mean speedup %5.2f | "
              "aggregate %5.2f | differs from proxy %3.0f%%\n",
              platform.c_str(), runtime.op_aware() ? "yes" : "no",
              shapes.size(), blas::op_name(op), mean_speedup, agg_speedup,
              100.0 * n_diff_from_proxy / n);

  JsonObject summary;
  summary["platform"] = Json(platform);
  summary["summary"] = Json(true);
  summary["mean_speedup"] = Json(mean_speedup);
  summary["aggregate_speedup"] = Json(agg_speedup);
  summary["proxy_divergence_frac"] = Json(n_diff_from_proxy / n);
  json.add(std::move(summary));
}

/// Complete main body of one select bench.
inline int run_op_select_bench(blas::OpKind op) {
  const std::string name = blas::op_name(op);
  bench::print_header(name +
                      " select | selected vs max-threads speedup "
                      "(one op-aware model over every registered op)");
  bench::BenchJson json(name + "_select");
  json.meta("train_samples_per_op", Json(bench::train_samples()));
  json.meta("test_samples", Json(bench::test_samples()));
  run_op_select_platform("setonix", op, json);
  run_op_select_platform("gadi", op, json);
  std::printf("\nspeedup = t(max threads) / t(selected); > 1 means the "
              "op-aware selection beats the all-cores default\n");
  return 0;
}

}  // namespace adsala::bench
