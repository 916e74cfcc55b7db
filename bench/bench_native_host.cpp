// Extra (not in paper): end-to-end validation on the *real* host CPU using
// the from-scratch BLAS substrate instead of the simulator — the whole
// install() workflow (gather -> preprocess -> train -> select -> artefact
// files) against physical hardware in one command. The artefacts land in
// ./native_artifacts (model.json / config.json / timings.csv), so a real
// host is trained end-to-end by just running this binary, and re-trainable
// without re-timing via InstallOptions::reuse_timings_csv. The bench then
// times every thread count 1..max on fresh shapes of each gathered
// operation and reports, per op, the speedup of the ML-selected count over
// always-max-threads (geomean, worst decile) and its oracle capture: the
// geomean of t_oracle / t_ml, where the oracle is the fastest measured
// count. BENCH_native_host.json carries one row per shape (t_ml, t_max,
// t_oracle, chosen and best p) beside the per-op summary rows.
//
// Knobs: ADSALA_BENCH_NATIVE_SAMPLES (shapes per op, default 60),
// ADSALA_BENCH_NATIVE_OPS (comma list of registered ops, default all five),
// ADSALA_BENCH_NATIVE_DIR (artefact directory, default native_artifacts),
// ADSALA_BENCH_MODEL (pin one registry model, as in bench_util.h).
#include <algorithm>
#include <cmath>
#include <filesystem>
#include <string>

#include "bench_util.h"
#include "common/stats.h"
#include "common/timer.h"
#include "core/op_registry.h"

using namespace adsala;

namespace {

std::vector<blas::OpKind> native_ops() {
  const auto all = blas::all_ops();
  const char* env = std::getenv("ADSALA_BENCH_NATIVE_OPS");
  if (env == nullptr || *env == '\0') return {all.begin(), all.end()};
  std::vector<blas::OpKind> ops;
  std::string list = env;
  std::size_t start = 0;
  while (start <= list.size()) {
    const std::size_t comma = list.find(',', start);
    const std::string token =
        list.substr(start, comma == std::string::npos ? std::string::npos
                                                      : comma - start);
    if (const auto op = blas::parse_op(token)) {
      ops.push_back(*op);
    } else {
      std::fprintf(stderr, "[bench] ignoring unregistered op '%s'\n",
                   token.c_str());
    }
    if (comma == std::string::npos) break;
    start = comma + 1;
  }
  if (ops.empty()) return {all.begin(), all.end()};
  return ops;
}

double geomean(const std::vector<double>& ratios) {
  std::vector<double> logs;
  for (const double r : ratios) logs.push_back(std::log(r));
  return std::exp(mean(logs));
}

}  // namespace

int main() {
  bench::print_header(
      "Native host | ADSALA on the real CPU with the built-in BLAS");

  core::NativeExecutor executor;
  std::printf("host threads available: %d\n", executor.max_threads());

  std::string dir = "native_artifacts";
  if (const char* env = std::getenv("ADSALA_BENCH_NATIVE_DIR")) dir = env;
  std::filesystem::create_directories(dir);

  core::InstallOptions opts;
  opts.gather.n_samples = bench::env_size("ADSALA_BENCH_NATIVE_SAMPLES", 60);
  opts.gather.iterations = 3;
  opts.gather.domain.memory_cap_bytes = 24ull * 1024 * 1024;  // laptop-fast
  opts.gather.domain.dim_max = 1600;
  opts.gather.domain.seed = 31;
  opts.gather.ops = native_ops();
  opts.train.candidates = {"linear_regression", "decision_tree", "xgboost",
                           "lightgbm"};
  opts.train.tune = false;  // keep the native bench quick
  opts.output_dir = dir;
  bench::apply_model_pin(opts);

  std::fprintf(stderr, "[bench] installing on the host (%zu shapes/op)...\n",
               opts.gather.n_samples);
  const auto report = core::install(executor, opts);
  std::printf("selected model: %s (gather %.1fs, train %.1fs)\n",
              report.trained.selected.c_str(), report.gather_seconds,
              report.train_seconds);
  std::printf("artefacts: %s, %s\n", report.model_path.c_str(),
              report.config_path.c_str());

  // Serve from the artefacts just written — proving the full file
  // round-trip, exactly what a downstream user loads.
  core::AdsalaGemm runtime(report.model_path, report.config_path);

  bench::BenchJson json("native_host");
  json.meta("samples_per_op", Json(opts.gather.n_samples));
  json.meta("model", Json(runtime.model_name()));

  for (const blas::OpKind op : opts.gather.ops) {
    // Fresh shapes from the op's registry sampler, disjoint seed.
    sampling::DomainConfig test_domain = opts.gather.domain;
    test_domain.seed = 77;
    const auto shapes =
        core::op_traits(op).make_sampler(test_domain)->sample(30);

    const int max_p = executor.max_threads();
    std::vector<double> speedups, captures;
    for (const auto& shape : shapes) {
      long coords[3] = {0, 0, 0};
      core::op_traits(op).from_shape(shape, &coords[0], &coords[1],
                                     &coords[2]);
      WallTimer eval_timer;
      const int chosen = std::clamp(
          runtime.select_threads(op, coords[0], coords[1], coords[2]), 1,
          max_p);
      const double t_eval = eval_timer.seconds();
      // Every thread count, so the chosen one, max and the oracle (the
      // fastest) come from the same sweep.
      std::vector<double> t_p(static_cast<std::size_t>(max_p) + 1, 0.0);
      int best = 1;
      for (int p = 1; p <= max_p; ++p) {
        t_p[p] = executor.measure_op(op, shape, p, 3);
        if (t_p[p] < t_p[best]) best = p;
      }
      const double t_ml = t_p[chosen] + t_eval;
      speedups.push_back(t_p[max_p] / t_ml);
      captures.push_back(t_p[best] / t_ml);

      JsonObject row;
      row["op"] = Json(blas::op_name(op));
      row["m"] = Json(static_cast<double>(shape.m));
      row["k"] = Json(static_cast<double>(shape.k));
      row["n"] = Json(static_cast<double>(shape.n));
      row["chosen_p"] = Json(chosen);
      row["best_p"] = Json(best);
      row["t_ml_s"] = Json(t_ml);
      row["t_max_s"] = Json(t_p[max_p]);
      row["t_oracle_s"] = Json(t_p[best]);
      json.add(std::move(row));
    }
    // Speedups are ratios: the geometric mean is their average (one 77x
    // outlier would dominate an arithmetic mean), and the worst decile is
    // where a tuner loses to the default.
    const double speedup = geomean(speedups);
    const double capture = geomean(captures);
    const double p10 = percentile(speedups, 10);
    std::printf(
        "\n%s over always-max-threads on %zu fresh shapes (p = 1..%d "
        "timed):\n"
        "  speedup geomean %.2f   p10 %.2f   median %.2f   min %.2f   "
        "max %.2f\n"
        "  oracle capture (geomean t_oracle / t_ml) %.2f\n",
        blas::op_name(op), speedups.size(), max_p, speedup, p10,
        percentile(speedups, 50), min_of(speedups), max_of(speedups),
        capture);

    JsonObject row;
    row["op"] = Json(blas::op_name(op));
    row["geomean_speedup"] = Json(speedup);
    row["p10_speedup"] = Json(p10);
    row["median_speedup"] = Json(percentile(speedups, 50));
    row["min_speedup"] = Json(min_of(speedups));
    row["max_speedup"] = Json(max_of(speedups));
    row["oracle_capture"] = Json(capture);
    json.add(std::move(row));
  }

  std::printf("\n[expectation] geomean >= 1: thread selection should not "
              "lose to the max-thread default on small/medium shapes\n");
  return 0;
}
