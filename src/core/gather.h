// Installation-time data gathering (paper Fig. 2, "Data gathering part").
//
// Samples shapes from the memory-capped domain with a scrambled Halton
// sequence, times each shape at every thread count of a probe grid, and
// keeps the full per-shape runtime curves. Since the operation-aware gather
// (PR 2) a campaign can cover several level-3 operations; each op's domain
// sampler and measure path come from its registry row (core/op_registry.h),
// with shapes stored as equivalent-GEMM conventions (docs/OPERATIONS.md).
// Every record is tagged with the operation and the micro-kernel variant
// active while it was timed, and a campaign can A/B kernel variants
// (GatherConfig::variants) so the kernel_* feature columns carry signal.
//
// The curves serve two purposes: rows (shape x thread-count -> runtime)
// become the ML training set — flattened by to_dataset() into the op-aware
// feature schema defined in preprocess/features.h — and the per-shape
// argmin/max-thread runtimes are the ground truth for speedup estimation and
// for the optimal-thread-count histogram/heatmap figures.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "blas/kernels/kernel_set.h"
#include "blas/op.h"
#include "core/executor.h"
#include "ml/dataset.h"
#include "sampling/domain.h"

namespace adsala::core {

/// Full runtime curve of one shape over the probe thread grid.
struct GatherRecord {
  simarch::GemmShape shape;  ///< SYRK records carry the m == n convention
  blas::OpKind op = blas::OpKind::kGemm;
  /// Micro-kernel variant active when the curve was timed (a concrete
  /// variant, never kAuto); becomes the kernel_* one-hot columns.
  blas::kernels::Variant variant = blas::kernels::Variant::kGeneric;
  std::vector<int> threads;
  std::vector<double> runtime;  ///< seconds, same order as `threads`

  int optimal_threads() const;    ///< grid thread count with min runtime
  double optimal_runtime() const;
  double max_thread_runtime() const;  ///< runtime at the last (max) grid entry
};

struct GatherConfig {
  std::size_t n_samples = 400;  ///< shapes per operation
  int iterations = 10;
  std::vector<int> thread_grid;  ///< empty -> default_thread_grid(max)
  sampling::DomainConfig domain;
  /// Operations to cover, each over the same domain config. The default is
  /// a GEMM-only campaign, whose model answers the other families through
  /// the GEMM proxy; append any registered op (or blas::all_ops()) for an
  /// op-aware campaign.
  std::vector<blas::OpKind> ops = {blas::OpKind::kGemm};
  /// Kernel variants to A/B within the campaign: each operation's shapes are
  /// timed once per listed variant (set_variant() around the sub-campaign,
  /// previous dispatch restored afterwards), which makes the kernel_* one-hot
  /// columns informative instead of constant. Entries must be concrete
  /// (resolve kAuto first) and host-supported. Empty -> the active variant
  /// only, without touching the dispatch state.
  std::vector<blas::kernels::Variant> variants;
};

struct GatherData {
  std::string platform;
  int max_threads = 0;
  std::vector<int> thread_grid;
  std::vector<GatherRecord> records;

  /// Flattens to the op-aware feature dataset (see preprocess/features.h for
  /// the column list): one row per (record, threads) pair; SYRK rows compute
  /// the numeric features from the equivalent-GEMM shape (n, k, n).
  ml::Dataset to_dataset() const;

  /// Train/test split *by shape* (no leakage of a shape's curve across the
  /// split), stratified on log optimal runtime.
  void split(double test_fraction, std::uint64_t seed, GatherData* train,
             GatherData* test) const;

  /// CSV columns: m, k, n, elem_bytes, threads, runtime, op, variant (the
  /// last two as the integer codes from blas/op.h and kernels::Variant).
  /// load_csv throws on any other header.
  void save_csv(const std::string& path) const;
  static GatherData load_csv(const std::string& path);
};

/// Runs the gathering campaign on the given executor, one sub-campaign per
/// configured operation.
GatherData gather_timings(GemmExecutor& executor, const GatherConfig& config);

}  // namespace adsala::core
