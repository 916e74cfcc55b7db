// Serving-path latency of the in-process decision route, and the
// serve-time sampler's overhead budget as a real check.
//
// Five regimes over one trained runtime:
//   repeat  : the same shape every call      -> memo hit
//   gated   : repeat + the sampling gate with sampling OFF -> memo hit +
//             one thread-local countdown decrement per call
//   sampled : the same gated loop with 1-in-1024 sampling ON; 1 call in
//             1024 also pays the (buffered) log append
//   pingpong: two shapes alternating         -> memo hit (two memo slots)
//   stream  : a fresh shape every call       -> memo miss, full model argmin
//
// The acceptance bars are that `repeat` stays in the tens of nanoseconds
// (one atomic pointer load + one atomic word probe), `pingpong` matches
// `repeat` instead of `stream`, and turning sampling on costs < 5 % of the
// gated loop. That last one is checked, not just printed: a single
// gated/sampled pair at ~10 ns per call swings by tens of percent either
// way on a shared host, so the overhead is the median of paired rounds,
// alternating which regime runs first, reported with its IQR:
//   median < 5 %           -> pass
//   whole IQR above 5 %    -> fail (exit 1)
//   otherwise              -> "unresolvable at this noise" (exit 0)
// `sampling_overhead_pct` and its quartiles go into the BENCH json.
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <vector>

#include "bench_util.h"
#include "common/stats.h"
#include "core/adsala.h"
#include "core/executor.h"
#include "core/gather.h"
#include "core/telemetry_log.h"
#include "core/trainer.h"

using namespace adsala;

namespace {

constexpr double kSamplingBudgetPct = 5.0;

core::AdsalaGemm make_runtime() {
  core::SimulatedExecutor ex(
      simarch::MachineModel(simarch::tiny_topology(), 42));
  core::GatherConfig cfg;
  cfg.n_samples = 40;
  cfg.iterations = 3;
  cfg.domain.memory_cap_bytes = 64ull * 1024 * 1024;
  cfg.domain.dim_max = 8000;
  cfg.domain.seed = 7;
  core::TrainOptions opts;
  opts.candidates = {"decision_tree"};
  opts.tune = false;
  return core::AdsalaGemm(
      core::train_and_select(core::gather_timings(ex, cfg), opts));
}

long g_sink = 0;  // keeps the timed loops observable

/// Wall-clock ns per call of one pass of `iters` calls.
template <typename Fn>
double one_pass_ns(Fn&& fn, long iters) {
  const auto t0 = std::chrono::steady_clock::now();
  for (long i = 0; i < iters; ++i) g_sink += fn(i);
  const auto t1 = std::chrono::steady_clock::now();
  return std::chrono::duration<double, std::nano>(t1 - t0).count() /
         static_cast<double>(iters);
}

template <typename Fn>
double ns_per_call(Fn&& fn, long iters) {
  // Best-of-3: noise only ever adds time, so the min is the estimator. The
  // first pass doubles as warm-up (populates the memo).
  double best = 0.0;
  for (int pass = 0; pass < 3; ++pass) {
    const double ns = one_pass_ns(fn, iters);
    if (pass == 0 || ns < best) best = ns;
  }
  return best;
}

}  // namespace

int main() {
  core::AdsalaGemm runtime = make_runtime();

  const double repeat = ns_per_call(
      [&](long) { return runtime.select_threads(512, 512, 512); }, 2000000);

  // The sampled regime drives a real log file exactly as a production
  // caller would: gate every call, wall-time + append only the 1-in-1024
  // that the gate picks (the measured-ns value is a placeholder — the point
  // is the gate + amortised append cost, not the GEMM underneath).
  //
  // Both regimes run ONE lambda — select + gate + conditional record —
  // with sampling off and then on. The BLAS execution wrappers compile the
  // gate in unconditionally, so "what does enabling sampling cost" is
  // off-vs-on through identical machine code.
  auto gated = [&](long) {
    const int p = runtime.select_threads(512, 512, 512);
    if (runtime.sample_tick()) {
      runtime.record_sample(blas::OpKind::kGemm, 512, 512, 512, 4, p, 100);
    }
    return p;
  };

  const std::string log_path = "bench_serve_latency_telemetry.bin";
  std::filesystem::remove(log_path);
  auto opened = core::TelemetryLog::open(log_path);
  if (!opened.ok()) {
    std::fprintf(stderr, "telemetry log open failed: %s\n",
                 opened.error().message.c_str());
    return 1;
  }
  auto log = std::make_shared<core::TelemetryLog>(std::move(opened).value());

  constexpr int kRounds = 41;
  constexpr long kRoundIters = 200000;
  (void)one_pass_ns(gated, kRoundIters);  // warm-up
  std::vector<double> gated_ns, sampled_ns, overhead_pct;
  for (int round = 0; round < kRounds; ++round) {
    double off = 0.0, on = 0.0;
    auto run_on = [&] {
      runtime.enable_sampling(log, 1024);
      on = one_pass_ns(gated, kRoundIters);
      runtime.disable_sampling();
    };
    if (round % 2 == 0) {
      off = one_pass_ns(gated, kRoundIters);
      run_on();
    } else {
      run_on();
      off = one_pass_ns(gated, kRoundIters);
    }
    gated_ns.push_back(off);
    sampled_ns.push_back(on);
    overhead_pct.push_back((on - off) / off * 100.0);
  }
  log.reset();
  std::filesystem::remove(log_path);
  const double overhead_p25 = percentile(overhead_pct, 25.0);
  const double overhead_p50 = percentile(overhead_pct, 50.0);
  const double overhead_p75 = percentile(overhead_pct, 75.0);
  const double repeat_gated = percentile(gated_ns, 50.0);
  const double repeat_sampled = percentile(sampled_ns, 50.0);

  const double pingpong = ns_per_call(
      [&](long i) {
        return (i & 1) ? runtime.select_threads(512, 512, 512)
                       : runtime.select_threads(384, 384, 384);
      },
      2000000);

  const double stream = ns_per_call(
      [&](long i) {
        const long m = 1 + (i * 7) % 4096;
        const long k = 1 + (i * 13) % 4096;
        const long n = 1 + (i * 29) % 4096;
        return runtime.select_threads(m, k, n);
      },
      50000);

  const char* verdict = "unresolvable at this noise";
  int exit_code = 0;
  if (overhead_p50 < kSamplingBudgetPct) {
    verdict = "pass";
  } else if (overhead_p25 > kSamplingBudgetPct) {
    verdict = "FAIL";
    exit_code = 1;
  }

  std::printf("serve latency (ns/query), model=%s platform=%s\n",
              runtime.model_name().c_str(), runtime.platform().c_str());
  std::printf("  %-28s %10.1f\n", "repeat (memo hit)", repeat);
  std::printf("  %-28s %10.1f\n", "repeat + gate (sampling off)", repeat_gated);
  std::printf("  %-28s %10.1f\n", "repeat + 1/1024 sampling", repeat_sampled);
  std::printf("  %-28s %10.1f\n", "pingpong (memo hit, 2 keys)", pingpong);
  std::printf("  %-28s %10.1f\n", "stream (memo miss, argmin)", stream);
  std::printf("  hit/miss ratio: %.1fx\n", stream / repeat);
  std::printf("  sampling overhead: median %+.2f%%, IQR [%+.2f%%, %+.2f%%] "
              "over %d paired rounds (budget < %.0f%%): %s\n",
              overhead_p50, overhead_p25, overhead_p75, kRounds,
              kSamplingBudgetPct, verdict);

  bench::BenchJson json("serve_latency");
  json.meta("platform", Json(runtime.platform()));
  json.meta("model", Json(runtime.model_name()));
  json.meta("sampling_period", Json(1024));
  json.meta("sampling_rounds", Json(kRounds));
  json.meta("sampling_overhead_pct", Json(overhead_p50));
  json.meta("sampling_overhead_p25_pct", Json(overhead_p25));
  json.meta("sampling_overhead_p75_pct", Json(overhead_p75));
  json.meta("sampling_verdict", Json(verdict));
  auto row = [&](const char* regime, double ns) {
    JsonObject r;
    r["regime"] = Json(regime);
    r["ns_per_call"] = Json(ns);
    json.add(std::move(r));
  };
  row("repeat", repeat);
  row("repeat_gated", repeat_gated);
  row("repeat_sampled", repeat_sampled);
  row("pingpong", pingpong);
  row("stream", stream);
  if (g_sink == 42) std::printf("\n");
  return exit_code;
}
