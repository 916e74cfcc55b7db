// Tests of the analytical machine model: breakdown structure, qualitative
// phenomena the paper measures, determinism, and preset sanity.
#include <gtest/gtest.h>

#include "simarch/machine_model.h"

namespace adsala::simarch {
namespace {

GemmShape shape(long m, long k, long n, int elem = 4) {
  return GemmShape{m, k, n, elem};
}

TEST(Topology, PresetShapes) {
  const auto setonix = setonix_topology();
  EXPECT_EQ(setonix.total_cores(), 128);
  EXPECT_EQ(setonix.max_threads(), 256);
  EXPECT_EQ(setonix.max_threads(false), 128);
  const auto gadi = gadi_topology();
  EXPECT_EQ(gadi.total_cores(), 48);
  EXPECT_EQ(gadi.max_threads(), 96);
}

TEST(MachineModel, SingleThreadHasNoParallelOverhead) {
  // Table VII, p=1 row: sync and copy are exactly zero.
  MachineModel model(gadi_topology());
  const auto t = model.time_gemm(shape(64, 64, 4096), {.nthreads = 1});
  EXPECT_EQ(t.sync_s, 0.0);
  EXPECT_EQ(t.copy_s, 0.0);
  EXPECT_EQ(t.spawn_s, 0.0);
  EXPECT_GT(t.kernel_s, 0.0);
}

TEST(MachineModel, MultiThreadHasAllComponents) {
  MachineModel model(gadi_topology());
  const auto t = model.time_gemm(shape(512, 512, 512), {.nthreads = 16});
  EXPECT_GT(t.sync_s, 0.0);
  EXPECT_GT(t.copy_s, 0.0);
  EXPECT_GT(t.kernel_s, 0.0);
  EXPECT_GT(t.spawn_s, 0.0);
  EXPECT_NEAR(t.total(), t.sync_s + t.copy_s + t.kernel_s + t.spawn_s, 1e-15);
}

TEST(MachineModel, KernelTimeGrowsWithFlops) {
  MachineModel model(setonix_topology());
  const ExecPolicy policy{.nthreads = 32};
  double prev = 0.0;
  for (long dim : {128, 256, 512, 1024, 2048}) {
    const double t = model.time_gemm(shape(dim, dim, dim), policy).kernel_s;
    EXPECT_GT(t, prev) << "kernel time must increase with problem size";
    prev = t;
  }
}

TEST(MachineModel, DoublePrecisionSlowerThanSingle) {
  MachineModel model(gadi_topology());
  const ExecPolicy policy{.nthreads = 8};
  const double t32 = model.time_gemm(shape(1024, 1024, 1024, 4), policy).total();
  const double t64 = model.time_gemm(shape(1024, 1024, 1024, 8), policy).total();
  EXPECT_GT(t64, t32);
}

TEST(MachineModel, MaxThreadsSuboptimalForSmallGemm) {
  // The core phenomenon of the paper (Fig. 1): small GEMMs run faster well
  // below the maximum thread count.
  MachineModel model(gadi_topology());
  const GemmShape s = shape(64, 2048, 64);
  double best_time = 0.0;
  const int best = model.optimal_threads(s, {}, &best_time);
  EXPECT_LT(best, 48) << "small-GEMM optimum should be far below 96 threads";
  const double t_max = model.measure_gemm(s, {.nthreads = 96});
  EXPECT_GT(t_max / best_time, 2.0)
      << "the paper sees order-of-magnitude gains on this shape";
}

TEST(MachineModel, LargeSquareGemmWantsManyThreads) {
  MachineModel model(setonix_topology());
  const GemmShape s = shape(6000, 6000, 6000);  // ~412 MB, paper's big regime
  const int best = model.optimal_threads(s, {});
  EXPECT_GT(best, 64) << "large square shapes should use a large fraction of "
                         "the machine";
}

TEST(MachineModel, CoreAffinityBeatsThreadAffinityAtLowCounts) {
  // Paper Fig. 7: with p <= physical cores, OMP_PLACES=cores wins because
  // threads get whole cores instead of SMT siblings.
  MachineModel model(gadi_topology());
  const GemmShape s = shape(2048, 2048, 2048);
  for (int p : {4, 8, 16, 32, 48}) {
    const double t_cores = model
                               .time_gemm(s, {.nthreads = p,
                                              .affinity = Affinity::kCores})
                               .total();
    const double t_threads = model
                                 .time_gemm(s, {.nthreads = p,
                                                .affinity = Affinity::kThreads})
                                 .total();
    EXPECT_LT(t_cores, t_threads) << "p=" << p;
  }
}

TEST(MachineModel, AffinitiesConvergeAtMaxThreads) {
  MachineModel model(gadi_topology());
  const GemmShape s = shape(2048, 2048, 2048);
  const double t_cores =
      model.time_gemm(s, {.nthreads = 96, .affinity = Affinity::kCores})
          .total();
  const double t_threads =
      model.time_gemm(s, {.nthreads = 96, .affinity = Affinity::kThreads})
          .total();
  EXPECT_NEAR(t_cores / t_threads, 1.0, 1e-9)
      << "at full subscription both policies place identically";
}

TEST(MachineModel, SmtOffLimitsThreads) {
  MachineModel model(gadi_topology());
  EXPECT_EQ(model.resolve_threads({.nthreads = 0, .allow_smt = false}), 48);
  EXPECT_EQ(model.resolve_threads({.nthreads = 200, .allow_smt = true}), 96);
  EXPECT_EQ(model.resolve_threads({.nthreads = -5}), 96);
}

TEST(MachineModel, SyrkScalesKernelOnly) {
  MachineModel model(gadi_topology());
  const auto s = shape(800, 400, 800);
  const ExecPolicy policy{.nthreads = 8};
  const auto gemm = model.time_gemm(s, policy);
  const auto syrk = model.time_op(s, policy, kSyrkCostModel);
  // Kernel scales by the triangle fraction (n + 1) / (2n)...
  EXPECT_NEAR(syrk.kernel_s, gemm.kernel_s * (800.0 + 1.0) / 1600.0,
              1e-12 * gemm.kernel_s);
  // ...while packing, sync, and spawn keep the GEMM structure.
  EXPECT_DOUBLE_EQ(syrk.copy_s, gemm.copy_s);
  EXPECT_DOUBLE_EQ(syrk.sync_s, gemm.sync_s);
  EXPECT_DOUBLE_EQ(syrk.spawn_s, gemm.spawn_s);
}

TEST(MachineModel, SyrkMeasurementDeterministicAndDecorrelated) {
  MachineModel model(gadi_topology(), 42);
  const auto s = shape(500, 500, 500);
  const ExecPolicy policy{.nthreads = 16};
  EXPECT_DOUBLE_EQ(model.measure_op(s, policy, kSyrkCostModel),
                   model.measure_op(s, policy, kSyrkCostModel));
  // Distinct noise stream: the syrk/gemm ratio is not exactly the noise-free
  // kernel ratio.
  const double ratio = model.measure_op(s, policy, kSyrkCostModel) /
                       model.measure_gemm(s, policy);
  const double clean_ratio = model.time_op(s, policy, kSyrkCostModel).total() /
                             model.time_gemm(s, policy).total();
  EXPECT_NE(ratio, clean_ratio);
  EXPECT_LT(ratio, 1.0) << "syrk does half the kernel work";
}

TEST(MachineModel, TrsmPaysSerialChainAndExtraSync) {
  MachineModel model(gadi_topology());
  const GemmShape s{800, 800, 400, 4};  // triangle n = 800, 400 RHS columns
  const ExecPolicy policy{.nthreads = 8};
  const auto gemm = model.time_gemm(s, policy);
  const auto trsm = model.time_op(s, policy, kTrsmCostModel);
  // Kernel: triangle fraction of the GEMM work plus the single-thread
  // diagonal-solve chain — strictly above the pure triangle scaling, but
  // (for a multi-thread team) the chain term must actually show up.
  EXPECT_GT(trsm.kernel_s, gemm.kernel_s * (800.0 + 1.0) / 1600.0);
  // Dependency chain re-joins per panel: sync doubles, copy/spawn unchanged.
  EXPECT_DOUBLE_EQ(trsm.sync_s, 2.0 * gemm.sync_s);
  EXPECT_DOUBLE_EQ(trsm.copy_s, gemm.copy_s);
  EXPECT_DOUBLE_EQ(trsm.spawn_s, gemm.spawn_s);
}

TEST(MachineModel, TrsmSingleThreadHasNoSerialSurcharge) {
  // At p = 1 everything is serial anyway; the Amdahl term must vanish and
  // leave the pure triangle scaling.
  MachineModel model(gadi_topology());
  const GemmShape s{600, 600, 300, 4};
  const ExecPolicy policy{.nthreads = 1};
  const auto gemm = model.time_gemm(s, policy);
  const auto trsm = model.time_op(s, policy, kTrsmCostModel);
  EXPECT_NEAR(trsm.kernel_s, gemm.kernel_s * (600.0 + 1.0) / 1200.0,
              1e-12 * gemm.kernel_s);
}

TEST(MachineModel, SymmChargesThePackingStream) {
  MachineModel model(gadi_topology());
  const GemmShape s{800, 800, 400, 4};
  const ExecPolicy policy{.nthreads = 8};
  const auto gemm = model.time_gemm(s, policy);
  const auto symm = model.time_op(s, policy, kSymmCostModel);
  // Same FLOPs as GEMM; only the symmetric-expansion copy surcharge moves.
  EXPECT_DOUBLE_EQ(symm.kernel_s, gemm.kernel_s);
  EXPECT_GT(symm.copy_s, gemm.copy_s);
  EXPECT_DOUBLE_EQ(symm.sync_s, gemm.sync_s);
}

TEST(MachineModel, FamilyMeasurementsDeterministicAndDecorrelated) {
  MachineModel model(gadi_topology(), 42);
  const GemmShape s{500, 500, 500, 4};
  const ExecPolicy policy{.nthreads = 16};
  EXPECT_DOUBLE_EQ(model.measure_op(s, policy, kTrsmCostModel),
                   model.measure_op(s, policy, kTrsmCostModel));
  EXPECT_DOUBLE_EQ(model.measure_op(s, policy, kSymmCostModel),
                   model.measure_op(s, policy, kSymmCostModel));
  // Distinct noise streams: measured ratios differ from the noise-free ones.
  const auto measured = [&](const OpCostModel& cost) {
    return model.measure_op(s, policy, cost);
  };
  const auto clean = [&](const OpCostModel& cost) {
    return model.time_op(s, policy, cost).total();
  };
  EXPECT_NE(measured(kTrsmCostModel) / model.measure_gemm(s, policy),
            clean(kTrsmCostModel) / model.time_gemm(s, policy).total());
  EXPECT_NE(measured(kSymmCostModel) / measured(kTrsmCostModel),
            clean(kSymmCostModel) / clean(kTrsmCostModel));
}

TEST(MachineModel, MeasurementIsDeterministic) {
  MachineModel a(setonix_topology(), 42), b(setonix_topology(), 42);
  const GemmShape s = shape(333, 222, 111);
  EXPECT_DOUBLE_EQ(a.measure_gemm(s, {.nthreads = 7}),
                   b.measure_gemm(s, {.nthreads = 7}));
}

TEST(MachineModel, NoiseSeedChangesMeasurement) {
  MachineModel a(setonix_topology(), 1), b(setonix_topology(), 2);
  const GemmShape s = shape(333, 222, 111);
  EXPECT_NE(a.measure_gemm(s, {.nthreads = 7}),
            b.measure_gemm(s, {.nthreads = 7}));
}

TEST(MachineModel, NoiseIsSmallRelativeToSignal) {
  MachineModel model(gadi_topology(), 7, 0.04);
  const GemmShape s = shape(1024, 1024, 1024);
  const double base = model.time_gemm(s, {.nthreads = 16}).total();
  const double measured = model.measure_gemm(s, {.nthreads = 16}, 10);
  EXPECT_NEAR(measured / base, 1.0, 0.25);
}

TEST(MachineModel, CopyContentionHitsSmallFootprintsOnly) {
  // The paper's 64x2048x64 copy blow-up at 96 threads (Table VII) must not
  // occur for a 500 MB problem.
  MachineModel model(gadi_topology());
  const auto small = model.time_gemm(shape(64, 2048, 64), {.nthreads = 96});
  const auto large = model.time_gemm(shape(6000, 3000, 6000), {.nthreads = 96});
  EXPECT_GT(small.copy_s / small.total(), 0.5)
      << "copy should dominate the pathological small case";
  EXPECT_LT(large.copy_s / large.total(), 0.5)
      << "copy must not dominate large GEMMs";
}

TEST(MachineModel, BreakdownMatchesTable7Shape) {
  // (64, 2048, 64): ML picks ~14 threads on Gadi; total at 96 threads must
  // be dramatically worse than at 14 (paper: 167.7 ms vs 1.07 ms per call).
  MachineModel model(gadi_topology());
  const GemmShape s = shape(64, 2048, 64);
  const double t96 = model.time_gemm(s, {.nthreads = 96}).total();
  const double t14 = model.time_gemm(s, {.nthreads = 14}).total();
  EXPECT_GT(t96 / t14, 10.0);
}

TEST(MachineModel, DegenerateShapesHaveZeroTime) {
  MachineModel model(tiny_topology());
  EXPECT_EQ(model.time_gemm(shape(0, 10, 10), {.nthreads = 4}).total(), 0.0);
  EXPECT_EQ(model.time_gemm(shape(10, 0, 10), {.nthreads = 4}).total(), 0.0);
}

// Property: the kernel component is monotone in the n dimension for every
// thread count. (The *total* is intentionally not monotone at high p: the
// copy-contention term shrinks as footprint grows, which is exactly the
// behaviour Table VII shows — the smaller 64x2048x64 case has more copy time
// than the larger 64x64x4096 one.)
class MonotonicityTest : public ::testing::TestWithParam<int> {};

TEST_P(MonotonicityTest, KernelTimeMonotoneInN) {
  MachineModel model(setonix_topology());
  const int p = GetParam();
  double prev = 0.0;
  for (long n = 256; n <= 8192; n *= 2) {
    const double t =
        model.time_gemm(shape(512, 512, n), {.nthreads = p}).kernel_s;
    EXPECT_GE(t, prev) << "n=" << n << " p=" << p;
    prev = t;
  }
}

TEST_P(MonotonicityTest, SingleThreadTotalMonotoneInN) {
  MachineModel model(setonix_topology());
  double prev = 0.0;
  for (long n = 256; n <= 8192; n *= 2) {
    const double t =
        model.time_gemm(shape(512, 512, n), {.nthreads = 1}).total();
    EXPECT_GE(t, prev) << "n=" << n;
    prev = t;
  }
}

INSTANTIATE_TEST_SUITE_P(ThreadCounts, MonotonicityTest,
                         ::testing::Values(1, 4, 16, 64, 128, 256));

}  // namespace
}  // namespace adsala::simarch
