// Tests for the extension features: SYRK / TRSM / SYMM (the BLAS-3 family
// beyond GEMM), SVR (completing the Table I model inventory), the
// library-internal dynamic threading heuristic, the pipeline feature
// whitelist, and the sampler's Cranley-Patterson rotation.
#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "blas/symm.h"
#include "blas/syrk.h"
#include "blas/trsm.h"
#include "common/rng.h"
#include "ml/metrics.h"
#include "ml/registry.h"
#include "ml/svr.h"
#include "preprocess/features.h"
#include "preprocess/pipeline.h"
#include "sampling/domain.h"
#include "simarch/machine_model.h"

namespace adsala {
namespace {

// -------------------------------------------------------------------- SYRK

template <typename T>
std::vector<T> random_values(std::size_t count, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<T> out(count);
  for (auto& v : out) v = static_cast<T>(rng.uniform(-2.0, 2.0));
  return out;
}

template <typename T>
void expect_syrk_matches_reference(blas::Uplo uplo, blas::Trans trans, int n,
                                   int k, T alpha, T beta, int threads) {
  const int a_rows = trans == blas::Trans::kNo ? n : k;
  const int a_cols = trans == blas::Trans::kNo ? k : n;
  const auto a = random_values<T>(std::size_t(a_rows) * a_cols, 1);
  auto c = random_values<T>(std::size_t(n) * n, 2);
  auto c_ref = c;

  blas::syrk<T>(uplo, trans, n, k, alpha, a.data(), a_cols, beta, c.data(), n,
                threads);
  blas::reference_syrk<T>(uplo, trans, n, k, alpha, a.data(), a_cols, beta,
                          c_ref.data(), n);

  const double tol =
      (std::is_same_v<T, float> ? 1e-4 : 1e-11) * std::max(1, k);
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j < n; ++j) {
      ASSERT_NEAR(double(c[i * n + j]), double(c_ref[i * n + j]), tol)
          << "i=" << i << " j=" << j;
    }
  }
}

TEST(Syrk, LowerTriangleSmall) {
  expect_syrk_matches_reference<float>(blas::Uplo::kLower, blas::Trans::kNo,
                                       5, 3, 1.0f, 0.0f, 1);
}

TEST(Syrk, UpperTriangleSmall) {
  expect_syrk_matches_reference<float>(blas::Uplo::kUpper, blas::Trans::kNo,
                                       5, 3, 2.0f, 0.5f, 1);
}

TEST(Syrk, TransposedInput) {
  expect_syrk_matches_reference<double>(blas::Uplo::kLower, blas::Trans::kYes,
                                        17, 23, -1.5, 2.0, 2);
}

TEST(Syrk, OppositeTriangleUntouched) {
  const int n = 6, k = 4;
  const auto a = random_values<float>(n * k, 3);
  std::vector<float> c(n * n, -77.0f);
  blas::ssyrk(blas::Uplo::kLower, blas::Trans::kNo, n, k, 1.0f, a.data(), k,
              0.0f, c.data(), n, 2);
  for (int i = 0; i < n; ++i) {
    for (int j = i + 1; j < n; ++j) {
      EXPECT_FLOAT_EQ(c[i * n + j], -77.0f)
          << "strict upper part must not be written";
    }
  }
}

TEST(Syrk, DiagonalIsSumOfSquares) {
  const int n = 3, k = 5;
  const auto a = random_values<double>(n * k, 4);
  std::vector<double> c(n * n, 0.0);
  blas::dsyrk(blas::Uplo::kLower, blas::Trans::kNo, n, k, 1.0, a.data(), k,
              0.0, c.data(), n, 1);
  for (int i = 0; i < n; ++i) {
    double expect = 0.0;
    for (int p = 0; p < k; ++p) expect += a[i * k + p] * a[i * k + p];
    EXPECT_NEAR(c[i * n + i], expect, 1e-12);
    EXPECT_GE(c[i * n + i], 0.0) << "diagonal of A*A^T is non-negative";
  }
}

TEST(Syrk, KZeroIsBetaPass) {
  std::vector<float> c = {2, 9, 4, 6};  // 2x2, lower = {2, 4, 6}
  blas::ssyrk(blas::Uplo::kLower, blas::Trans::kNo, 2, 0, 1.0f, nullptr, 1,
              0.5f, c.data(), 2, 2);
  EXPECT_FLOAT_EQ(c[0], 1.0f);
  EXPECT_FLOAT_EQ(c[1], 9.0f);  // upper untouched
  EXPECT_FLOAT_EQ(c[2], 2.0f);
  EXPECT_FLOAT_EQ(c[3], 3.0f);
}

TEST(Syrk, NegativeDimensionThrows) {
  EXPECT_THROW(blas::ssyrk(blas::Uplo::kLower, blas::Trans::kNo, -1, 2, 1.0f,
                           nullptr, 2, 0.0f, nullptr, 1, 1),
               std::invalid_argument);
}

class SyrkShapeTest
    : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(SyrkShapeTest, LowerFloatMatchesReference) {
  const auto [n, k, threads] = GetParam();
  expect_syrk_matches_reference<float>(blas::Uplo::kLower, blas::Trans::kNo,
                                       n, k, 1.0f, 1.0f, threads);
}

TEST_P(SyrkShapeTest, UpperDoubleMatchesReference) {
  const auto [n, k, threads] = GetParam();
  expect_syrk_matches_reference<double>(blas::Uplo::kUpper, blas::Trans::kNo,
                                        n, k, 0.5, -1.0, threads);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, SyrkShapeTest,
    ::testing::Values(std::tuple{1, 1, 1}, std::tuple{2, 7, 2},
                      std::tuple{33, 17, 3}, std::tuple{64, 64, 4},
                      std::tuple{129, 65, 8}, std::tuple{200, 31, 16}));

TEST(Syrk, FlopCount) {
  EXPECT_DOUBLE_EQ(blas::syrk_flops(10, 5), 10.0 * 11.0 * 5.0);
}

// -------------------------------------------------------------------- TRSM

TEST(Trsm, IdentityTriangleIsAlphaScale) {
  const int n = 5, m = 3;
  std::vector<double> a(n * n, 0.0);
  for (int i = 0; i < n; ++i) a[i * n + i] = 1.0;
  auto b = random_values<double>(std::size_t(n) * m, 10);
  const auto orig = b;
  blas::dtrsm(blas::Uplo::kLower, blas::Trans::kNo, blas::Diag::kNonUnit, n,
              m, 2.0, a.data(), n, b.data(), m, 2);
  for (int i = 0; i < n * m; ++i) EXPECT_NEAR(b[i], 2.0 * orig[i], 1e-12);
}

TEST(Trsm, SolveThenMultiplyRecoversRhs) {
  // op(A) * X == alpha * B is the defining property; verify it directly
  // with a reference multiply instead of a reference solve.
  const int n = 23, m = 11;
  auto a = random_values<double>(std::size_t(n) * n, 11);
  for (int i = 0; i < n; ++i) a[i * n + i] = n + 3.0;
  const auto b0 = random_values<double>(std::size_t(n) * m, 12);
  auto x = b0;
  blas::dtrsm(blas::Uplo::kUpper, blas::Trans::kNo, blas::Diag::kNonUnit, n,
              m, 1.5, a.data(), n, x.data(), m, 3);
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j < m; ++j) {
      double acc = 0.0;
      for (int p = i; p < n; ++p) acc += a[i * n + p] * x[p * m + j];
      EXPECT_NEAR(acc, 1.5 * b0[i * m + j], 1e-9) << "i=" << i << " j=" << j;
    }
  }
}

TEST(Trsm, UnitDiagonalIgnoresStoredDiagonal) {
  const int n = 4, m = 2;
  std::vector<float> a = {9, 0, 0, 0,    // stored diagonal must be ignored
                          2, 9, 0, 0,
                          1, 3, 9, 0,
                          4, 1, 2, 9};
  auto b = random_values<float>(std::size_t(n) * m, 13);
  auto b_ref = b;
  blas::strsm(blas::Uplo::kLower, blas::Trans::kNo, blas::Diag::kUnit, n, m,
              1.0f, a.data(), n, b.data(), m, 1);
  blas::reference_trsm<float>(blas::Uplo::kLower, blas::Trans::kNo,
                              blas::Diag::kUnit, n, m, 1.0f, a.data(), n,
                              b_ref.data(), m);
  for (int i = 0; i < n * m; ++i) EXPECT_NEAR(b[i], b_ref[i], 1e-5);
}

TEST(Trsm, AlphaZeroZeroesRhs) {
  const int n = 3, m = 4;
  const auto a = random_values<float>(n * n, 14);
  auto b = random_values<float>(std::size_t(n) * m, 15);
  blas::strsm(blas::Uplo::kLower, blas::Trans::kNo, blas::Diag::kNonUnit, n,
              m, 0.0f, a.data(), n, b.data(), m, 2);
  for (float v : b) EXPECT_EQ(v, 0.0f);
}

TEST(Trsm, NegativeDimensionThrows) {
  EXPECT_THROW(blas::strsm(blas::Uplo::kLower, blas::Trans::kNo,
                           blas::Diag::kNonUnit, -1, 2, 1.0f, nullptr, 1,
                           nullptr, 2, 1),
               std::invalid_argument);
}

TEST(Trsm, FlopCount) {
  EXPECT_DOUBLE_EQ(blas::trsm_flops(10, 5), 10.0 * 10.0 * 5.0);
}

// -------------------------------------------------------------------- SYMM

TEST(Symm, MatchesDenseGemmOnExplicitlySymmetricMatrix) {
  // Build a full symmetric A; symm over either stored triangle must agree
  // with a dense GEMM using the whole matrix.
  const int n = 19, m = 13;
  auto a = random_values<double>(std::size_t(n) * n, 20);
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j < i; ++j) a[j * n + i] = a[i * n + j];
  }
  const auto b = random_values<double>(std::size_t(n) * m, 21);
  std::vector<double> c_gemm(std::size_t(n) * m, 0.0);
  blas::reference_gemm<double>(blas::Trans::kNo, blas::Trans::kNo, n, m, n,
                               1.0, a.data(), n, b.data(), m, 0.0,
                               c_gemm.data(), m);
  for (const blas::Uplo uplo : {blas::Uplo::kLower, blas::Uplo::kUpper}) {
    std::vector<double> c(std::size_t(n) * m, 0.0);
    blas::dsymm(uplo, n, m, 1.0, a.data(), n, b.data(), m, 0.0, c.data(), m,
                3);
    for (int i = 0; i < n * m; ++i) {
      ASSERT_NEAR(c[i], c_gemm[i], 1e-10) << "index " << i;
    }
  }
}

TEST(Symm, OppositeTriangleNeverRead) {
  // Poison the non-stored triangle: the result must be finite and equal to
  // the reference that only reads the stored half.
  const int n = 7, m = 5;
  auto a = random_values<float>(std::size_t(n) * n, 22);
  for (int i = 0; i < n; ++i) {
    for (int j = i + 1; j < n; ++j) a[i * n + j] = std::nanf("");
  }
  const auto b = random_values<float>(std::size_t(n) * m, 23);
  std::vector<float> c(std::size_t(n) * m, 0.0f), c_ref(std::size_t(n) * m,
                                                        0.0f);
  blas::ssymm(blas::Uplo::kLower, n, m, 1.0f, a.data(), n, b.data(), m, 0.0f,
              c.data(), m, 2);
  blas::reference_symm<float>(blas::Uplo::kLower, n, m, 1.0f, a.data(), n,
                              b.data(), m, 0.0f, c_ref.data(), m);
  for (int i = 0; i < n * m; ++i) {
    ASSERT_FALSE(std::isnan(c[i])) << "poisoned upper triangle was read";
    ASSERT_NEAR(c[i], c_ref[i], 1e-4);
  }
}

TEST(Symm, NegativeDimensionThrows) {
  EXPECT_THROW(blas::ssymm(blas::Uplo::kLower, -1, 2, 1.0f, nullptr, 1,
                           nullptr, 2, 0.0f, nullptr, 2, 1),
               std::invalid_argument);
}

TEST(Symm, FlopCount) {
  EXPECT_DOUBLE_EQ(blas::symm_flops(10, 5), 2.0 * 10.0 * 10.0 * 5.0);
}

// --------------------------------------------------------------------- SVR

ml::Dataset linear_standardised(std::size_t count, double noise,
                                std::uint64_t seed) {
  ml::Dataset data({"x0", "x1"});
  Rng rng(seed);
  for (std::size_t i = 0; i < count; ++i) {
    const double x0 = rng.normal();
    const double x1 = rng.normal();
    data.add_row(std::vector<double>{x0, x1},
                 2.0 * x0 - 1.0 * x1 + 0.5 + rng.normal(0.0, noise));
  }
  return data;
}

TEST(Svr, FitsLinearTarget) {
  ml::SvrRegressor model({{"c", 10.0}, {"epsilon", 0.01}, {"epochs", 200}});
  const auto train = linear_standardised(400, 0.05, 1);
  const auto test = linear_standardised(200, 0.05, 2);
  model.fit(train);
  EXPECT_LT(ml::normalized_rmse(test.labels(), model.predict(test)), 0.25);
}

TEST(Svr, EpsilonTubeIgnoresSmallResiduals) {
  // With a huge epsilon no residual ever exceeds the tube, so the weights
  // only shrink: the model predicts ~ the label mean.
  ml::SvrRegressor model({{"c", 1.0}, {"epsilon", 100.0}, {"epochs", 50}});
  const auto train = linear_standardised(200, 0.0, 3);
  model.fit(train);
  for (double w : model.coefficients()) EXPECT_NEAR(w, 0.0, 1e-6);
}

TEST(Svr, DeterministicForSeed) {
  ml::SvrRegressor a({{"seed", 5}}), b({{"seed", 5}});
  const auto data = linear_standardised(150, 0.2, 4);
  a.fit(data);
  b.fit(data);
  const std::vector<double> x = {0.3, -0.8};
  EXPECT_DOUBLE_EQ(a.predict_one(x), b.predict_one(x));
}

TEST(Svr, InRegistry) {
  auto model = ml::make_model("svr");
  EXPECT_EQ(model->name(), "svr");
  model->fit(linear_standardised(50, 0.1, 7));
  auto restored = ml::load_model(model->save(), 2);
  EXPECT_EQ(restored->name(), "svr");
  EXPECT_NO_THROW(ml::default_grid("svr"));
}

// -------------------------------------------- dynamic threading heuristic

TEST(DynamicThreading, TinyGemmCollapsesToSingleThread) {
  // flops below the per-thread target -> the library runs it single
  // threaded regardless of the request: zero sync/copy, spawn for the
  // parked team only.
  simarch::MachineModel model(simarch::gadi_topology());
  const simarch::GemmShape tiny{16, 16, 16, 4};  // 8 kFLOP
  const auto bd = model.time_gemm(tiny, {.nthreads = 96});
  EXPECT_EQ(bd.sync_s, 0.0);
  EXPECT_EQ(bd.copy_s, 0.0);
  EXPECT_GT(bd.spawn_s, 0.0);
}

TEST(DynamicThreading, LargeKShapeEscapesTheCap) {
  // The paper's pathological family: k inflates FLOPs, so the flop-based
  // heuristic keeps the full team and the copy blow-up happens.
  simarch::MachineModel model(simarch::gadi_topology());
  const simarch::GemmShape pathological{64, 2048, 64, 4};  // 33 MFLOP
  const auto bd = model.time_gemm(pathological, {.nthreads = 96});
  EXPECT_GT(bd.copy_s, 0.05) << "full team must engage and thrash";
}

TEST(DynamicThreading, PlateauPenalisesOverRequesting) {
  // On the capped plateau, requesting more threads still costs wake-ups, so
  // the noise-free runtime is strictly increasing in the request.
  simarch::MachineModel model(simarch::gadi_topology());
  const simarch::GemmShape small{100, 100, 100, 4};  // 2 MFLOP -> cap 8
  const double t8 = model.time_gemm(small, {.nthreads = 8}).total();
  const double t48 = model.time_gemm(small, {.nthreads = 48}).total();
  const double t96 = model.time_gemm(small, {.nthreads = 96}).total();
  EXPECT_LT(t8, t48);
  EXPECT_LT(t48, t96);
}

TEST(DynamicThreading, TallSkinnyShapeIsNotPathological) {
  // m large: every thread owns whole rows of C -> no contention even at the
  // full team (this is what keeps the paper's Table V maxima moderate).
  simarch::MachineModel model(simarch::gadi_topology());
  const simarch::GemmShape tall{4000, 300, 20, 4};
  const auto bd = model.time_gemm(tall, {.nthreads = 96});
  EXPECT_LT(bd.copy_s, 0.01);
}

// --------------------------------------------------- pipeline whitelist

TEST(PipelineWhitelist, RestrictsToGroupOne) {
  ml::Dataset data(preprocess::feature_names());
  Rng rng(8);
  for (int i = 0; i < 120; ++i) {
    const auto f = preprocess::make_features(
        rng.uniform(1, 4000), rng.uniform(1, 4000), rng.uniform(1, 4000),
        double(rng.range(1, 96)));
    data.add_row(f, rng.uniform(0.1, 10.0));
  }
  preprocess::PipelineConfig cfg;
  cfg.lof = false;
  cfg.feature_whitelist = preprocess::group1_indices();
  preprocess::Pipeline pipe(cfg);
  const auto out = pipe.fit_transform(data);
  const auto g1 = preprocess::group1_indices();
  const std::set<std::size_t> allowed(g1.begin(), g1.end());
  for (std::size_t j : pipe.kept_features()) {
    EXPECT_TRUE(allowed.count(j)) << "feature " << j << " not whitelisted";
  }
  EXPECT_LE(out.n_features(), g1.size());
  EXPECT_GE(out.n_features(), 1u);
}

// ------------------------------------------------------ sampler rotation

TEST(SamplerRotation, AvoidsCorrelatedSliverShapes) {
  // Without the Cranley-Patterson rotation, bases 2 and 4 align near zero
  // at power-of-four indices and the sampler emits degenerate m=n=2 shapes
  // far more often than an uncorrelated sampler would.
  sampling::DomainConfig cfg;
  cfg.memory_cap_bytes = 500ull * 1024 * 1024;
  cfg.seed = 31337;
  sampling::GemmDomainSampler sampler(cfg);
  int double_small = 0;
  for (const auto& s : sampler.sample(500)) {
    int small_dims = (s.m <= 8) + (s.k <= 8) + (s.n <= 8);
    if (small_dims >= 2) ++double_small;
  }
  // P(two dims <= 8) is ~0.01% per sample for independent sqrt-scaled
  // coordinates; allow a generous margin.
  EXPECT_LE(double_small, 3);
}

TEST(SamplerRotation, DifferentSeedsGiveDifferentStreams) {
  sampling::DomainConfig a_cfg, b_cfg;
  a_cfg.seed = 1;
  b_cfg.seed = 2;
  sampling::GemmDomainSampler a(a_cfg), b(b_cfg);
  const auto sa = a.sample(20), sb = b.sample(20);
  int diff = 0;
  for (std::size_t i = 0; i < 20; ++i) diff += (sa[i].m != sb[i].m);
  EXPECT_GT(diff, 10);
}

}  // namespace
}  // namespace adsala
