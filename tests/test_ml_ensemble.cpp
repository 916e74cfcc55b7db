// Tests for the ensemble models: random forest, AdaBoost.R2, XGBoost-style
// GBT, LightGBM-style histogram GBT.
#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.h"
#include "ml/adaboost.h"
#include "ml/forest.h"
#include "ml/gbt.h"
#include "ml/hist_gbt.h"
#include "ml/metrics.h"
#include "ml/registry.h"
#include "ml/tree.h"

namespace adsala::ml {
namespace {

/// Non-linear target with interactions, similar in spirit to a runtime
/// surface: y = x0*x1 + step(x2) + noise.
Dataset make_surface(std::size_t n, std::uint64_t seed, double noise = 0.1) {
  Dataset data({"x0", "x1", "x2"});
  Rng rng(seed);
  for (std::size_t i = 0; i < n; ++i) {
    const double x0 = rng.uniform(-2.0, 2.0);
    const double x1 = rng.uniform(-2.0, 2.0);
    const double x2 = rng.uniform(-2.0, 2.0);
    const double y =
        x0 * x1 + (x2 > 0.5 ? 4.0 : 0.0) + rng.normal(0.0, noise);
    data.add_row(std::vector<double>{x0, x1, x2}, y);
  }
  return data;
}

template <typename Model>
double test_nrmse(Model& model, std::uint64_t train_seed = 1,
                  std::uint64_t test_seed = 2) {
  const Dataset train = make_surface(600, train_seed);
  const Dataset test = make_surface(300, test_seed);
  model.fit(train);
  return normalized_rmse(test.labels(), model.predict(test));
}

// ------------------------------------------------------------ RandomForest

TEST(RandomForest, LearnsNonLinearSurface) {
  RandomForest model({{"n_estimators", 60}});
  EXPECT_LT(test_nrmse(model), 0.35);
}

TEST(RandomForest, BeatsSingleTreeOnNoisyData) {
  const Dataset train = make_surface(400, 3, 1.0);
  const Dataset test = make_surface(200, 4, 0.0);
  DecisionTree tree({{"max_depth", 16}});
  RandomForest forest({{"n_estimators", 80}, {"max_depth", 16}});
  tree.fit(train);
  forest.fit(train);
  const double tree_err = rmse(test.labels(), tree.predict(test));
  const double forest_err = rmse(test.labels(), forest.predict(test));
  EXPECT_LT(forest_err, tree_err) << "variance reduction failed";
}

TEST(RandomForest, BuildsRequestedTreeCount) {
  RandomForest model({{"n_estimators", 13}});
  model.fit(make_surface(100, 5));
  EXPECT_EQ(model.n_trees(), 13u);
}

TEST(RandomForest, DeterministicForSeed) {
  RandomForest a({{"n_estimators", 20}, {"seed", 7}});
  RandomForest b({{"n_estimators", 20}, {"seed", 7}});
  const Dataset data = make_surface(300, 6);
  a.fit(data);
  b.fit(data);
  const std::vector<double> x = {0.5, -0.5, 1.0};
  EXPECT_DOUBLE_EQ(a.predict_one(x), b.predict_one(x));
}

// --------------------------------------------------------------- AdaBoost

TEST(AdaBoost, LearnsNonLinearSurface) {
  AdaBoostR2 model({{"n_estimators", 40}, {"max_depth", 5}});
  EXPECT_LT(test_nrmse(model), 0.4);
}

TEST(AdaBoost, ImprovesOverItsWeakLearner) {
  const Dataset train = make_surface(500, 9);
  const Dataset test = make_surface(250, 10);
  DecisionTree weak({{"max_depth", 5}});
  AdaBoostR2 boosted({{"n_estimators", 60}, {"max_depth", 5}});
  weak.fit(train);
  boosted.fit(train);
  EXPECT_LT(rmse(test.labels(), boosted.predict(test)),
            rmse(test.labels(), weak.predict(test)));
}

TEST(AdaBoost, StopsEarlyOnPerfectFit) {
  Dataset data({"x"});
  for (int i = 0; i < 50; ++i) {
    data.add_row(std::vector<double>{static_cast<double>(i)},
                 i < 25 ? 1.0 : 2.0);
  }
  AdaBoostR2 model({{"n_estimators", 100}, {"max_depth", 3}});
  model.fit(data);
  EXPECT_LT(model.n_trees(), 100u) << "perfect member should stop boosting";
}

// ---------------------------------------------------------------- XGBoost

TEST(Xgboost, LearnsNonLinearSurface) {
  XgbRegressor model({{"n_estimators", 100}, {"max_depth", 4}});
  EXPECT_LT(test_nrmse(model), 0.25);
}

TEST(Xgboost, MoreRoundsReduceTrainError) {
  const Dataset train = make_surface(400, 12);
  XgbRegressor few({{"n_estimators", 5}});
  XgbRegressor many({{"n_estimators", 100}});
  few.fit(train);
  many.fit(train);
  EXPECT_LT(rmse(train.labels(), many.predict(train)),
            rmse(train.labels(), few.predict(train)));
}

TEST(Xgboost, BaseScoreIsLabelMean) {
  Dataset data({"x"});
  data.add_row(std::vector<double>{1.0}, 2.0);
  data.add_row(std::vector<double>{2.0}, 4.0);
  XgbRegressor model({{"n_estimators", 1}});
  model.fit(data);
  EXPECT_DOUBLE_EQ(model.base_score(), 3.0);
}

TEST(Xgboost, GammaPrunesSplits) {
  const Dataset train = make_surface(300, 13, 0.5);
  XgbRegressor loose({{"n_estimators", 20}, {"gamma", 0.0}});
  XgbRegressor strict({{"n_estimators", 20}, {"gamma", 1e9}});
  loose.fit(train);
  strict.fit(train);
  // Infinite gamma forbids every split: prediction collapses to base score.
  const std::vector<double> x = {1.0, -1.0, 2.0};
  EXPECT_DOUBLE_EQ(strict.predict_one(x), strict.base_score());
  EXPECT_NE(loose.predict_one(x), loose.base_score());
}

TEST(Xgboost, SubsamplingIsDeterministicPerSeed) {
  const Dataset data = make_surface(300, 14);
  XgbRegressor a({{"n_estimators", 30}, {"subsample", 0.7},
                  {"colsample", 0.7}, {"seed", 3}});
  XgbRegressor b = a;
  a.fit(data);
  b.fit(data);
  const std::vector<double> x = {0.1, 0.2, 0.3};
  EXPECT_DOUBLE_EQ(a.predict_one(x), b.predict_one(x));
}

// --------------------------------------------------------------- LightGBM

TEST(LightGbm, LearnsNonLinearSurface) {
  LightGbmRegressor model({{"n_estimators", 100}});
  EXPECT_LT(test_nrmse(model), 0.25);
}

TEST(LightGbm, RespectsNumLeaves) {
  const Dataset train = make_surface(500, 17);
  LightGbmRegressor stump({{"n_estimators", 5}, {"num_leaves", 2}});
  stump.fit(train);
  // num_leaves=2 means each tree is a single split: 3 nodes.
  EXPECT_EQ(stump.n_trees(), 5u);
}

TEST(LightGbm, MoreLeavesFitTrainBetter) {
  const Dataset train = make_surface(500, 18);
  LightGbmRegressor small({{"n_estimators", 30}, {"num_leaves", 3}});
  LightGbmRegressor big({{"n_estimators", 30}, {"num_leaves", 63}});
  small.fit(train);
  big.fit(train);
  EXPECT_LT(rmse(train.labels(), big.predict(train)),
            rmse(train.labels(), small.predict(train)));
}

TEST(LightGbm, HandlesConstantFeature) {
  Dataset data({"const", "x"});
  Rng rng(19);
  for (int i = 0; i < 100; ++i) {
    const double x = rng.uniform(-1, 1);
    data.add_row(std::vector<double>{5.0, x}, x > 0 ? 1.0 : -1.0);
  }
  LightGbmRegressor model({{"n_estimators", 10}});
  EXPECT_NO_THROW(model.fit(data));
  EXPECT_GT(model.predict_one(std::vector<double>{5.0, 0.9}), 0.0);
}

// Property: every ensemble handles single-feature, few-row datasets.
class EnsembleEdgeTest : public ::testing::TestWithParam<const char*> {};

TEST_P(EnsembleEdgeTest, TinyDatasetDoesNotCrash) {
  Dataset data({"x"});
  data.add_row(std::vector<double>{1.0}, 1.0);
  data.add_row(std::vector<double>{2.0}, 2.0);
  data.add_row(std::vector<double>{3.0}, 3.0);
  auto model = make_model(GetParam(), {{"n_estimators", 5}});
  EXPECT_NO_THROW(model->fit(data));
  const double p = model->predict_one(std::vector<double>{2.0});
  EXPECT_GE(p, 0.5);
  EXPECT_LE(p, 3.5);
}

TEST_P(EnsembleEdgeTest, RegistryRoundTrip) {
  auto model = make_model(GetParam(), {{"n_estimators", 8}});
  model->fit(make_surface(120, 22));
  auto restored = load_model(model->save(), 3);
  EXPECT_EQ(restored->name(), model->name());
  const std::vector<double> x = {0.4, 0.6, -0.3};
  EXPECT_DOUBLE_EQ(restored->predict_one(x), model->predict_one(x));
}

INSTANTIATE_TEST_SUITE_P(Models, EnsembleEdgeTest,
                         ::testing::Values("random_forest", "adaboost",
                                           "xgboost", "lightgbm"));

}  // namespace
}  // namespace adsala::ml
