// Tests for the linear model family: exact recovery, regularisation
// behaviour, and serialisation round trips.
#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.h"
#include "ml/linalg.h"
#include "ml/linear.h"
#include "ml/metrics.h"

namespace adsala::ml {
namespace {

/// y = 3*x0 - 2*x1 + 5 (+ optional noise).
Dataset make_linear_data(std::size_t n, double noise_sd, std::uint64_t seed) {
  Dataset data({"x0", "x1"});
  Rng rng(seed);
  for (std::size_t i = 0; i < n; ++i) {
    const double x0 = rng.uniform(-5.0, 5.0);
    const double x1 = rng.uniform(-5.0, 5.0);
    const double y = 3.0 * x0 - 2.0 * x1 + 5.0 + rng.normal(0.0, noise_sd);
    data.add_row(std::vector<double>{x0, x1}, y);
  }
  return data;
}

TEST(Linalg, CholeskySolvesSpdSystem) {
  // A = [[4,2],[2,3]], b = [10, 8] -> x = [1.75, 1.5]
  std::vector<double> a = {4, 2, 2, 3};
  const auto x = solve_spd(a, 2, {10, 8});
  EXPECT_NEAR(x[0], 1.75, 1e-12);
  EXPECT_NEAR(x[1], 1.5, 1e-12);
}

TEST(Linalg, CholeskyRejectsIndefinite) {
  std::vector<double> a = {1, 2, 2, 1};  // eigenvalues 3, -1
  EXPECT_FALSE(cholesky_factor(a, 2));
}

TEST(Linalg, JitterRecoversSingularSystem) {
  std::vector<double> a = {1, 1, 1, 1};  // rank 1
  EXPECT_NO_THROW(solve_spd(a, 2, {2, 2}));
}

TEST(LinearRegression, RecoversExactCoefficients) {
  const Dataset data = make_linear_data(200, 0.0, 1);
  LinearRegression model;
  model.fit(data);
  ASSERT_EQ(model.coefficients().size(), 2u);
  EXPECT_NEAR(model.coefficients()[0], 3.0, 1e-8);
  EXPECT_NEAR(model.coefficients()[1], -2.0, 1e-8);
  EXPECT_NEAR(model.intercept(), 5.0, 1e-8);
}

TEST(LinearRegression, PredictsUnseenPoints) {
  const Dataset data = make_linear_data(200, 0.01, 2);
  LinearRegression model;
  model.fit(data);
  EXPECT_NEAR(model.predict_one(std::vector<double>{1.0, 1.0}), 6.0, 0.05);
  EXPECT_NEAR(model.predict_one(std::vector<double>{-2.0, 3.0}), -7.0, 0.05);
}

TEST(LinearRegression, RidgeShrinksCoefficients) {
  const Dataset data = make_linear_data(50, 0.5, 3);
  LinearRegression ols({{"alpha", 0.0}});
  LinearRegression ridge({{"alpha", 1000.0}});
  ols.fit(data);
  ridge.fit(data);
  EXPECT_LT(std::fabs(ridge.coefficients()[0]),
            std::fabs(ols.coefficients()[0]));
}

TEST(LinearRegression, HandlesCollinearFeatures) {
  Dataset data({"x", "x_copy"});
  Rng rng(5);
  for (int i = 0; i < 60; ++i) {
    const double x = rng.uniform(-1.0, 1.0);
    data.add_row(std::vector<double>{x, x}, 2.0 * x);
  }
  LinearRegression model;
  EXPECT_NO_THROW(model.fit(data));  // jitter handles the singular Gram
  EXPECT_NEAR(model.predict_one(std::vector<double>{0.5, 0.5}), 1.0, 1e-4);
}

TEST(LinearRegression, EmptyDatasetThrows) {
  Dataset data({"x"});
  LinearRegression model;
  EXPECT_THROW(model.fit(data), std::invalid_argument);
}

TEST(ElasticNet, LassoZeroesIrrelevantFeature) {
  // x2 is pure noise; a strong L1 penalty must zero its coefficient.
  Dataset data({"x0", "x1", "noise"});
  Rng rng(11);
  for (int i = 0; i < 300; ++i) {
    const double x0 = rng.uniform(-2.0, 2.0);
    const double x1 = rng.uniform(-2.0, 2.0);
    const double xn = rng.uniform(-2.0, 2.0);
    data.add_row(std::vector<double>{x0, x1, xn}, 4.0 * x0 + 1.0 * x1);
  }
  ElasticNet model({{"alpha", 0.5}, {"l1_ratio", 1.0}});
  model.fit(data);
  EXPECT_NEAR(model.coefficients()[2], 0.0, 1e-6);
  EXPECT_GT(model.coefficients()[0], 2.0);
}

TEST(ElasticNet, TinyPenaltyApproachesOls) {
  const Dataset data = make_linear_data(200, 0.0, 13);
  ElasticNet model({{"alpha", 1e-8}, {"l1_ratio", 0.5},
                    {"max_iter", 5000}, {"tol", 1e-10}});
  model.fit(data);
  EXPECT_NEAR(model.coefficients()[0], 3.0, 1e-3);
  EXPECT_NEAR(model.coefficients()[1], -2.0, 1e-3);
  EXPECT_NEAR(model.intercept(), 5.0, 1e-3);
}

TEST(ElasticNet, StrongPenaltyShrinksTowardMean) {
  const Dataset data = make_linear_data(200, 0.0, 17);
  ElasticNet model({{"alpha", 1e6}, {"l1_ratio", 0.5}});
  model.fit(data);
  EXPECT_NEAR(model.coefficients()[0], 0.0, 1e-3);
  EXPECT_NEAR(model.coefficients()[1], 0.0, 1e-3);
}

TEST(BayesianRidge, RecoversCoefficientsOnCleanData) {
  const Dataset data = make_linear_data(300, 0.05, 23);
  BayesianRidge model;
  model.fit(data);
  EXPECT_NEAR(model.predict_one(std::vector<double>{1.0, 0.0}), 8.0, 0.1);
  EXPECT_NEAR(model.predict_one(std::vector<double>{0.0, 1.0}), 3.0, 0.1);
}

TEST(BayesianRidge, NoisePrecisionTracksNoiseLevel) {
  BayesianRidge low_noise, high_noise;
  low_noise.fit(make_linear_data(400, 0.1, 29));
  high_noise.fit(make_linear_data(400, 2.0, 31));
  // alpha = 1/sigma^2: more label noise -> smaller precision.
  EXPECT_GT(low_noise.noise_precision(), high_noise.noise_precision());
}

// Property: all linear models improve on the mean predictor for a linear
// target, at any noise level below the signal.
class LinearFamilyTest : public ::testing::TestWithParam<const char*> {};

TEST_P(LinearFamilyTest, BeatsMeanPredictor) {
  const Dataset train = make_linear_data(200, 0.5, 41);
  const Dataset test = make_linear_data(100, 0.5, 43);
  auto model = [&]() -> std::unique_ptr<Regressor> {
    const std::string name = GetParam();
    if (name == "linear") return std::make_unique<LinearRegression>();
    if (name == "elastic") {
      return std::make_unique<ElasticNet>(Params{{"alpha", 0.001}});
    }
    return std::make_unique<BayesianRidge>();
  }();
  model->fit(train);
  const auto pred = model->predict(test);
  EXPECT_LT(normalized_rmse(test.labels(), pred), 0.3);
}

INSTANTIATE_TEST_SUITE_P(Family, LinearFamilyTest,
                         ::testing::Values("linear", "elastic", "bayes"));

}  // namespace
}  // namespace adsala::ml
