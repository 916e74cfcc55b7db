// Analytical GEMM runtime model over a CpuTopology.
//
// Substitutes for running MKL/BLIS on the paper's Setonix and Gadi nodes.
// The model decomposes a multi-threaded GEMM call into the same three
// components the paper's VTune profiling isolates (Table VII) --
// synchronisation, data copy (packing), kernel FLOPs -- plus thread spawn,
// and reproduces the mechanisms that make the optimal thread count vary:
//   - parallel FLOP rate with SMT marginal gain and SIMD-tile efficiency
//     loss on skinny dimensions,
//   - roofline memory bound with socket bandwidth saturation and NUMA
//     interleave efficiency,
//   - ceil-division load imbalance over micro-tiles,
//   - log2(p) barriers per cache-block iteration (worse across sockets),
//   - per-thread workspace setup and a p^2 copy-contention term that bites
//     only on small footprints (the paper's 64x2048x64 pathology),
//   - single-thread fast path with no packing or sync (Table VII, p=1 row).
// measure_gemm applies deterministic log-normal noise seeded from the inputs
// so repeated experiments are reproducible.
#pragma once

#include <cstdint>

#include "simarch/topology.h"

namespace adsala::simarch {

/// GEMM problem shape; elem_bytes = 4 (SGEMM) or 8 (DGEMM).
struct GemmShape {
  long m = 0;
  long k = 0;
  long n = 0;
  int elem_bytes = 4;

  double flops() const { return 2.0 * double(m) * double(k) * double(n); }
  double bytes() const {
    return double(elem_bytes) *
           (double(m) * k + double(k) * n + double(m) * n);
  }
};

/// OpenMP-style placement policy (paper SS V-B.4: OMP_PLACES=cores|threads).
enum class Affinity { kCores, kThreads };

struct ExecPolicy {
  int nthreads = 0;  ///< <=0 means the platform maximum
  Affinity affinity = Affinity::kCores;
  bool allow_smt = true;        ///< hyper-threading enabled (Tables V vs VI)
  bool numa_interleave = true;  ///< paper's benchmark NUMA memory policy
};

/// Per-component wall-time in seconds (Table VII columns).
struct TimingBreakdown {
  double spawn_s = 0.0;
  double sync_s = 0.0;
  double copy_s = 0.0;
  double kernel_s = 0.0;

  double total() const { return spawn_s + sync_s + copy_s + kernel_s; }
};

/// Declarative deviation of one operation's cost from the GEMM model. The
/// op registry (core/op_registry.cpp) carries one per operation, so the
/// analytic measure path of a new op is a literal, not a new method:
///   - triangle_kernel: only the uplo triangle's micro-tiles execute, so the
///     kernel component scales by (d + 1) / (2d) with d the triangle
///     dimension (shape.n under the SYRK m == n convention, shape.m under
///     the triangular m == k one — identical for in-convention shapes);
///   - serial_diag_chain: TRSM's diagonal-block solves run at single-thread
///     rate (an Amdahl term that vanishes at p = 1);
///   - copy_mult / sync_mult: packing surcharges (SYMM's mirrored strided
///     reads, TRMM's B pre-copy) and extra barrier sweeps (TRSM's per-panel
///     re-joins);
///   - noise_salt decorrelates the op's measurement noise stream from the
///     GEMM one, so mixed-op campaigns never share draws.
struct OpCostModel {
  bool triangle_kernel = false;
  bool serial_diag_chain = false;
  double copy_mult = 1.0;
  double sync_mult = 1.0;
  std::uint64_t noise_salt = 0;
};

/// Canonical cost models of the built-in family. The op registry
/// (core/op_registry.cpp) references these same constants, so the
/// time_syrk/trsm/symm convenience methods and the registry path cannot
/// drift; an op added after this header froze keeps its cost model in its
/// registry row alone.
inline constexpr OpCostModel kGemmCostModel{};
inline constexpr OpCostModel kSyrkCostModel{
    .triangle_kernel = true, .noise_salt = 0x53595246ull /* "SYRK" */};
inline constexpr OpCostModel kTrsmCostModel{.triangle_kernel = true,
                                            .serial_diag_chain = true,
                                            .sync_mult = 2.0,
                                            .noise_salt =
                                                0x5452534dull /* "TRSM" */};
/// SYMM: same FLOP volume as the equivalent GEMM; the packing stream is
/// slower because the mirrored half of every packed A block is read
/// transposed (strided) out of the stored triangle.
inline constexpr OpCostModel kSymmCostModel{
    .copy_mult = 1.3, .noise_salt = 0x53594d4dull /* "SYMM" */};

class MachineModel {
 public:
  explicit MachineModel(CpuTopology topo, std::uint64_t noise_seed = 42,
                        double noise_sigma = 0.08);

  const CpuTopology& topology() const { return topo_; }

  /// Threads actually used for a request (clamped to the platform maximum).
  int resolve_threads(const ExecPolicy& policy) const;

  /// Noise-free analytical breakdown of one GEMM call.
  TimingBreakdown time_gemm(const GemmShape& shape,
                            const ExecPolicy& policy) const;

  /// Noise-free breakdown of one call of an operation described by an
  /// OpCostModel, applied on top of the GEMM breakdown of the stored
  /// equivalent-GEMM shape. The identity cost model reproduces time_gemm.
  TimingBreakdown time_op(const GemmShape& shape, const ExecPolicy& policy,
                          const OpCostModel& cost) const;

  /// Mean of `iterations` noisy total-time draws of an OpCostModel-described
  /// operation; the cost model's noise salt keeps the stream decorrelated
  /// from every other op's. Deterministic in (inputs, seed).
  double measure_op(const GemmShape& shape, const ExecPolicy& policy,
                    const OpCostModel& cost, int iterations = 10) const;

  /// Noise-free breakdown of one SYRK call, given as the equivalent-GEMM
  /// shape (m == n; A is n x k). SYRK shares GEMM's packing, barrier, and
  /// spawn structure (our substrate runs it on the same packed-panel
  /// machinery, and A is packed into both panel roles), but only the
  /// triangle's micro-tiles execute: the kernel component scales by
  /// (n + 1) / (2n).
  TimingBreakdown time_syrk(const GemmShape& shape,
                            const ExecPolicy& policy) const;

  /// Mean of `iterations` noisy total-time draws (the paper times 10
  /// iterations per configuration, SS V-B.3). Deterministic in (inputs, seed).
  double measure_gemm(const GemmShape& shape, const ExecPolicy& policy,
                      int iterations = 10) const;

  /// SYRK sibling of measure_gemm; noise stream is decorrelated from the
  /// GEMM stream so mixed-op campaigns do not share draws.
  double measure_syrk(const GemmShape& shape, const ExecPolicy& policy,
                      int iterations = 10) const;

  /// Noise-free breakdown of one left-side TRSM, given as the
  /// equivalent-GEMM shape (m == k == triangle n; shape.n = RHS columns).
  /// The trailing updates are plain GEMMs over the triangle (kernel scales
  /// by (n + 1) / (2n) like SYRK), but the diagonal-block solves form a
  /// sequential dependency chain: their work runs at single-thread rate no
  /// matter the team size, and the chain inserts an extra barrier sweep per
  /// panel (sync doubles). Both push the TRSM optimum below the GEMM one.
  /// This models the schedule blas::trsm had before it split the columns
  /// across one region; it stays because the tracked simulated baselines
  /// depend on it.
  TimingBreakdown time_trsm(const GemmShape& shape,
                            const ExecPolicy& policy) const;

  /// Noise-free breakdown of one left-side SYMM, equivalent-GEMM shape
  /// (m == k == symmetric n; shape.n = B/C columns). Same FLOPs as GEMM;
  /// the packing stream pays for the symmetric expansion (the mirrored half
  /// of every packed A block is a strided transposed read), so the copy
  /// component carries a constant surcharge.
  TimingBreakdown time_symm(const GemmShape& shape,
                            const ExecPolicy& policy) const;

  /// TRSM sibling of measure_gemm (decorrelated noise stream).
  double measure_trsm(const GemmShape& shape, const ExecPolicy& policy,
                      int iterations = 10) const;

  /// SYMM sibling of measure_gemm (decorrelated noise stream).
  double measure_symm(const GemmShape& shape, const ExecPolicy& policy,
                      int iterations = 10) const;

  /// Exhaustive argmin of measure_gemm over 1..max_threads. Returns the
  /// optimal thread count; if best_time is non-null stores its runtime.
  int optimal_threads(const GemmShape& shape, ExecPolicy policy,
                      double* best_time = nullptr) const;

 private:
  double effective_bandwidth(int cores_used, int sockets_used,
                             bool interleave) const;

  CpuTopology topo_;
  std::uint64_t noise_seed_;
  double noise_sigma_;
};

}  // namespace adsala::simarch
