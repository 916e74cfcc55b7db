// Registry completeness and the TRMM proof-of-architecture: every blas/op.h
// row must have a full OpTraits row whose pieces (shape canonicalisation,
// sampler, analytic cost, native closure) agree with the conventions of
// docs/OPERATIONS.md, and a newly registered op (TRMM) must be served by the
// whole pipeline — including graceful GEMM-proxy fallback on artefacts that
// predate it (23/21/17-column schemas).
#include <gtest/gtest.h>

#include <filesystem>

#include "core/adsala.h"
#include "core/gather.h"
#include "core/op_registry.h"
#include "core/trainer.h"
#include "preprocess/features.h"

namespace adsala::core {
namespace {

// ---------------------------------------------------------- completeness --
// (The row-per-op and table-order invariants are additionally enforced at
// compile time by static_asserts inside op_registry.cpp.)

TEST(OpRegistry, EveryRegisteredOpHasACompleteTraitsRow) {
  ASSERT_EQ(op_registry().size(), blas::kNumOps);
  for (const blas::OpKind op : blas::all_ops()) {
    const OpTraits& traits = op_traits(op);
    EXPECT_EQ(traits.op, op) << blas::op_name(op);
    EXPECT_TRUE(traits.family_dims == 2 || traits.family_dims == 3);
    for (int d = 0; d < traits.family_dims; ++d) {
      ASSERT_NE(traits.coord_names[d], nullptr) << blas::op_name(op);
    }
    ASSERT_NE(traits.to_shape, nullptr) << blas::op_name(op);
    ASSERT_NE(traits.from_shape, nullptr) << blas::op_name(op);
    ASSERT_NE(traits.make_sampler, nullptr) << blas::op_name(op);
    ASSERT_NE(traits.measure_native, nullptr) << blas::op_name(op);
  }
}

TEST(OpRegistry, ShapeCanonicalisationRoundTrips) {
  for (const blas::OpKind op : blas::all_ops()) {
    const OpTraits& traits = op_traits(op);
    const simarch::GemmShape shape = traits.to_shape(40, 30, 20, 8);
    EXPECT_EQ(shape.elem_bytes, 8) << blas::op_name(op);
    long x = 0, y = 0, z = 20;  // z untouched for 2-D families
    traits.from_shape(shape, &x, &y, &z);
    EXPECT_EQ(x, 40) << blas::op_name(op);
    EXPECT_EQ(y, 30) << blas::op_name(op);
    if (traits.family_dims == 3) EXPECT_EQ(z, 20) << blas::op_name(op);
    if (traits.family_dims == 2) {
      // The 2-D conventions carry the family marker in the stored shape.
      EXPECT_TRUE(shape.m == shape.n || shape.m == shape.k)
          << blas::op_name(op);
    }
  }
}

TEST(OpRegistry, SamplersRespectTheStoredConventions) {
  sampling::DomainConfig domain;
  domain.memory_cap_bytes = 64ull * 1024 * 1024;
  domain.dim_max = 8000;
  domain.seed = 7;
  for (const blas::OpKind op : blas::all_ops()) {
    const OpTraits& traits = op_traits(op);
    const auto shapes = traits.make_sampler(domain)->sample(25);
    ASSERT_EQ(shapes.size(), 25u) << blas::op_name(op);
    for (const auto& s : shapes) {
      // Round-tripping through the family coordinates must be lossless:
      // the sampler emits exactly the canonical stored shapes.
      long x = 0, y = 0, z = 0;
      traits.from_shape(s, &x, &y, &z);
      const simarch::GemmShape back = traits.to_shape(x, y, z, s.elem_bytes);
      EXPECT_EQ(back.m, s.m) << blas::op_name(op);
      EXPECT_EQ(back.k, s.k) << blas::op_name(op);
      EXPECT_EQ(back.n, s.n) << blas::op_name(op);
    }
  }
}

TEST(OpRegistry, RegistrySamplersMatchTheNamedOnes) {
  // The registry rows of the pre-registry families alias the named samplers;
  // the draws must be bit-identical so no artefact or baseline shifts.
  sampling::DomainConfig domain;
  domain.memory_cap_bytes = 64ull * 1024 * 1024;
  domain.dim_max = 8000;
  const auto via_registry =
      op_traits(blas::OpKind::kSyrk).make_sampler(domain)->sample(20);
  const auto direct = sampling::SyrkDomainSampler(domain).sample(20);
  for (std::size_t i = 0; i < 20; ++i) {
    EXPECT_EQ(via_registry[i].n, direct[i].n);
    EXPECT_EQ(via_registry[i].k, direct[i].k);
  }
}

TEST(OpRegistry, CostModelsAreTheMachineModelConstants) {
  // The registry rows of the built-in family evaluate the simarch cost
  // constants exactly, and GEMM's identity cost model is time_gemm.
  simarch::MachineModel model(simarch::gadi_topology(), 42);
  const simarch::GemmShape tri{800, 800, 400, 4};  // m == k family shape
  const simarch::GemmShape syrk{800, 400, 800, 4};  // m == n family shape
  const simarch::ExecPolicy policy{.nthreads = 16};
  EXPECT_DOUBLE_EQ(
      model.measure_op(syrk, policy, op_traits(blas::OpKind::kSyrk).cost),
      model.measure_op(syrk, policy, simarch::kSyrkCostModel));
  EXPECT_DOUBLE_EQ(
      model.measure_op(tri, policy, op_traits(blas::OpKind::kTrsm).cost),
      model.measure_op(tri, policy, simarch::kTrsmCostModel));
  EXPECT_DOUBLE_EQ(
      model.measure_op(tri, policy, op_traits(blas::OpKind::kSymm).cost),
      model.measure_op(tri, policy, simarch::kSymmCostModel));
  EXPECT_DOUBLE_EQ(
      model.measure_op(tri, policy, op_traits(blas::OpKind::kGemm).cost),
      model.measure_gemm(tri, policy));
}

TEST(OpRegistry, TrmmCostSitsBetweenTriangleAndGemm) {
  // TRMM does triangle-fraction kernel work with a packing surcharge: its
  // noise-free time must be below the equivalent GEMM's and its copy above.
  simarch::MachineModel model(simarch::gadi_topology());
  const simarch::GemmShape s{800, 800, 400, 4};
  const simarch::ExecPolicy policy{.nthreads = 8};
  const auto gemm = model.time_gemm(s, policy);
  const auto trmm =
      model.time_op(s, policy, op_traits(blas::OpKind::kTrmm).cost);
  EXPECT_LT(trmm.kernel_s, gemm.kernel_s);
  EXPECT_GT(trmm.copy_s, gemm.copy_s);
  EXPECT_DOUBLE_EQ(trmm.sync_s, gemm.sync_s);
  // Decorrelated noise stream, deterministic draws.
  EXPECT_DOUBLE_EQ(
      model.measure_op(s, policy, op_traits(blas::OpKind::kTrmm).cost),
      model.measure_op(s, policy, op_traits(blas::OpKind::kTrmm).cost));
  EXPECT_NE(model.measure_op(s, policy, op_traits(blas::OpKind::kTrmm).cost),
            model.measure_op(s, policy, op_traits(blas::OpKind::kTrsm).cost));
}

// -------------------------------------------------- TRMM through the stack --

SimulatedExecutor tiny_executor() {
  return SimulatedExecutor(
      simarch::MachineModel(simarch::tiny_topology(), 42));
}

GatherConfig tiny_gather_config(std::size_t n_samples) {
  GatherConfig cfg;
  cfg.n_samples = n_samples;
  cfg.iterations = 3;
  cfg.domain.memory_cap_bytes = 64ull * 1024 * 1024;
  cfg.domain.dim_max = 8000;
  cfg.domain.seed = 7;
  return cfg;
}

TEST(OpRegistry, FreshAllOpModelServesTrmmFirstClass) {
  auto ex = tiny_executor();
  GatherConfig cfg = tiny_gather_config(40);
  const auto ops = blas::all_ops();
  cfg.ops.assign(ops.begin(), ops.end());
  const auto data = gather_timings(ex, cfg);
  TrainOptions opts;
  opts.candidates = {"xgboost"};
  opts.tune = false;
  AdsalaGemm adsala(train_and_select(data, opts));
  ASSERT_TRUE(adsala.op_aware());
  ASSERT_EQ(adsala.pipeline().n_input_features(),
            preprocess::kNumOpAwareFeatures);

  int n_diff = 0;
  for (const auto& rec : data.records) {
    if (rec.op != blas::OpKind::kTrmm) continue;
    const int p = adsala.select_threads(blas::OpKind::kTrmm, rec.shape.m,
                                        rec.shape.n);
    EXPECT_GE(p, 1);
    EXPECT_LE(p, 16);
    n_diff +=
        (p != adsala.select_threads(rec.shape.m, rec.shape.m, rec.shape.n));
  }
  EXPECT_GT(n_diff, 0)
      << "trmm-family rows must influence thread selection";
}

TEST(OpRegistry, TrmmArtefactsSurviveSaveLoad) {
  auto ex = tiny_executor();
  GatherConfig cfg = tiny_gather_config(30);
  const auto ops = blas::all_ops();
  cfg.ops.assign(ops.begin(), ops.end());
  TrainOptions opts;
  opts.candidates = {"xgboost"};
  opts.tune = false;
  AdsalaGemm original(train_and_select(gather_timings(ex, cfg), opts));
  const std::string model_path = "/tmp/adsala_test_trmm_model.json";
  const std::string config_path = "/tmp/adsala_test_trmm_config.json";
  original.save(model_path, config_path);
  AdsalaGemm restored(model_path, config_path);
  for (long n : {64L, 300L, 900L}) {
    EXPECT_EQ(restored.select_threads(blas::OpKind::kTrmm, n, 2 * n),
              original.select_threads(blas::OpKind::kTrmm, n, 2 * n));
  }
  std::filesystem::remove(model_path);
  std::filesystem::remove(config_path);
}

}  // namespace
}  // namespace adsala::core
