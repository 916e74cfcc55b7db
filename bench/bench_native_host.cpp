// Extra (not in paper): end-to-end validation on the *real* host CPU using
// the from-scratch BLAS substrate instead of the simulator — the whole
// install() workflow (gather -> preprocess -> train -> select -> artefact
// files) against physical hardware in one command. The artefacts land in
// ./native_artifacts (model.json / config.json / timings.csv), so a real
// host is trained end-to-end by just running this binary, and re-trainable
// without re-timing via InstallOptions::reuse_timings_csv. The bench then
// reports the achieved speedup of ML-selected thread counts vs
// always-max-threads on fresh shapes, per gathered operation.
//
// Knobs: ADSALA_BENCH_NATIVE_SAMPLES (shapes per op, default 60),
// ADSALA_BENCH_NATIVE_OPS (comma list of registered ops, default gemm),
// ADSALA_BENCH_NATIVE_DIR (artefact directory, default native_artifacts),
// ADSALA_BENCH_MODEL (pin one registry model, as in bench_util.h).
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
  std::vector<blas::OpKind> ops = {blas::OpKind::kGemm};
  const char* env = std::getenv("ADSALA_BENCH_NATIVE_OPS");
  if (env == nullptr || *env == '\0') return ops;
  ops.clear();
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
  if (ops.empty()) ops.push_back(blas::OpKind::kGemm);
  return ops;
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

    std::vector<double> speedups;
    for (const auto& shape : shapes) {
      long coords[3] = {0, 0, 0};
      core::op_traits(op).from_shape(shape, &coords[0], &coords[1],
                                     &coords[2]);
      WallTimer eval_timer;
      const int p = runtime.select_threads(op, coords[0], coords[1],
                                           coords[2]);
      const double t_eval = eval_timer.seconds();
      const double t_ml = executor.measure_op(op, shape, p, 3) + t_eval;
      const double t_max =
          executor.measure_op(op, shape, executor.max_threads(), 3);
      speedups.push_back(t_max / t_ml);
    }
    // Speedups are ratios: the geometric mean is their average (one 77x
    // outlier would dominate an arithmetic mean), and the worst decile is
    // where a tuner loses to the default.
    std::vector<double> logs;
    for (const double s : speedups) logs.push_back(std::log(s));
    const double geomean = std::exp(mean(logs));
    const double p10 = percentile(speedups, 10);
    std::printf(
        "\n%s speedup over always-max-threads on %zu fresh shapes:\n"
        "  geomean %.2f   p10 %.2f   median %.2f   min %.2f   max %.2f\n",
        blas::op_name(op), speedups.size(), geomean, p10,
        percentile(speedups, 50), min_of(speedups), max_of(speedups));

    JsonObject row;
    row["op"] = Json(blas::op_name(op));
    row["geomean_speedup"] = Json(geomean);
    row["p10_speedup"] = Json(p10);
    row["median_speedup"] = Json(percentile(speedups, 50));
    row["min_speedup"] = Json(min_of(speedups));
    row["max_speedup"] = Json(max_of(speedups));
    json.add(std::move(row));
  }

  std::printf("\n[expectation] geomean >= 1: thread selection should not "
              "lose to the max-thread default on small/medium shapes\n");
  return 0;
}
