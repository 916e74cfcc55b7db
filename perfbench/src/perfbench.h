// Shared pieces of the repository benchmark (see perfbench/NOTES.md).
//
// The benchmark drives the public entry points of core::AdsalaGemm,
// blas::* and common::ThreadPool from one process, in closed loops: a
// caller issues its next call only after the previous one returned. Every
// rate is wall-clock (std::chrono::steady_clock); ratios are combined with
// the geometric mean.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "blas/op.h"
#include "common/aligned_buffer.h"
#include "common/stats.h"
#include "core/adsala.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

// ------------------------------------------------------------ statistics

inline double median(const std::vector<double>& xs) {
  return adsala::percentile(xs, 50.0);
}
double geomean(const std::vector<double>& xs);

/// The highest percentile that still has at least ten samples beyond it
/// (the maximum when there are fewer than eleven samples).
struct Tail {
  double value = 0.0;
  double percentile = 100.0;
  std::size_t samples = 0;
};
Tail tail_of(std::vector<double> xs);

// ---------------------------------------------------------------- tracing

/// In-memory span recorder for the traced run: spans carry a name, start,
/// end and the id of the span that caused them (0 = root). Only the calling
/// thread records; the file is written once, when the benchmark ends.
class Tracer {
 public:
  struct Span {
    std::uint32_t id = 0;
    std::uint32_t parent = 0;
    const char* name = "";
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
  };

  void set_enabled(bool on) { enabled_ = on; }

  /// Opens a span under the innermost open one; returns its id (0 when off).
  std::uint32_t open(const char* name);
  void close(std::uint32_t id);
  /// Records an already-measured child interval of the innermost open span.
  void record(const char* name, std::int64_t start_ns, std::int64_t end_ns);

  const std::vector<Span>& spans() const { return spans_; }
  /// Self time per span name: duration minus the time its children cover.
  std::vector<std::pair<std::string, double>> self_ns_by_name() const;
  void write(const std::string& path, const std::string& provenance) const;

 private:
  bool enabled_ = false;
  std::vector<Span> spans_;
  std::vector<std::uint32_t> stack_;
};

/// RAII span guard.
class Scope {
 public:
  Scope(Tracer& tracer, const char* name)
      : tracer_(tracer), id_(tracer.open(name)) {}
  ~Scope() { tracer_.close(id_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Tracer& tracer_;
  std::uint32_t id_;
};

// ------------------------------------------------------------------ calls

/// One level-3 call in its family coordinates: GEMM (m, k, n); SYRK (n, k);
/// TRSM / SYMM / TRMM (n, m) — the coordinates AdsalaGemm::select_threads
/// takes.
struct Call {
  adsala::blas::OpKind op = adsala::blas::OpKind::kGemm;
  int elem = 4;  ///< 4 = fp32, 8 = fp64
  long x = 0, y = 0, z = 0;
  long repeats = 1;  ///< calls per appearance in a pass

  double flops() const;
  std::string label() const;
};

/// Operand storage shared by every call of a workload: calls run one at a
/// time, so each carves its A, B and C from the same regions, sized for the
/// largest call. A holds small off-diagonal values, which keeps the unit
/// triangular systems well conditioned; B keeps a pristine copy that the
/// in-place ops (TRSM, TRMM) are restored from after each call.
template <typename T>
struct Operands {
  adsala::AlignedBuffer<T> a, b, b_pristine, c;
  void reserve(const std::vector<Call>& calls, std::uint64_t seed);
};

struct Workspace {
  Operands<float> f32;
  Operands<double> f64;
  explicit Workspace(const std::vector<Call>& calls, std::uint64_t seed);
};

/// How a call picks its thread count.
enum class Path {
  kAdsala,  ///< AdsalaGemm entry points (TRMM: select_threads + blas::trmm)
  kFixed,   ///< plain blas::* at an explicit thread count
  kTraced,  ///< select_threads then blas::*, each inside its own span
};

/// Runs `call` once on `path` (threads only used by kFixed) and restores
/// in-place operands afterwards. Returns the wall time of the call alone.
double run_call(const Call& call, Workspace& ws, adsala::core::AdsalaGemm& rt,
                Path path, int threads, Tracer* tracer = nullptr);

/// Runs `call` once on `path`, then checks the result with a two-sided
/// Freivalds test (random vectors on both sides, O(n^2)) and, for small
/// calls, element-wise against the naive blas::reference_* routine.
/// Returns false on a mismatch; a throw propagates to the caller.
bool check_call(const Call& call, Workspace& ws, adsala::core::AdsalaGemm& rt,
                Path path, int threads, std::uint64_t seed);

/// Compares AdsalaGemm::query with a direct predict_best_grid_index argmin
/// on the currently published snapshot.
bool check_decision(const adsala::core::AdsalaGemm& rt, const Call& call);

// ------------------------------------------------------------------ output

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// A double with all 17 significant digits.
std::string num(double v);

}  // namespace perfbench
