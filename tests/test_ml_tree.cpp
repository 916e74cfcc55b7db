// Tests for the CART decision tree: exact fits, hyper-parameter limits,
// weighted fitting, and invariant properties.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "common/rng.h"
#include "ml/metrics.h"
#include "ml/tree.h"

namespace adsala::ml {
namespace {

Dataset step_function_data() {
  // y = 1 for x < 0, y = 5 for x >= 0: one split suffices.
  Dataset data({"x"});
  for (int i = -10; i < 10; ++i) {
    data.add_row(std::vector<double>{static_cast<double>(i)},
                 i < 0 ? 1.0 : 5.0);
  }
  return data;
}

Dataset noisy_surface(std::size_t n, std::uint64_t seed, double noise = 0.0) {
  Dataset data({"a", "b"});
  Rng rng(seed);
  for (std::size_t i = 0; i < n; ++i) {
    const double a = rng.uniform(-3.0, 3.0);
    const double b = rng.uniform(-3.0, 3.0);
    const double y =
        std::sin(a) * 2.0 + (b > 0 ? 3.0 : -1.0) + rng.normal(0.0, noise);
    data.add_row(std::vector<double>{a, b}, y);
  }
  return data;
}

TEST(DecisionTree, FitsStepFunctionExactly) {
  DecisionTree tree({{"max_depth", 3}});
  tree.fit(step_function_data());
  EXPECT_DOUBLE_EQ(tree.predict_one(std::vector<double>{-5.0}), 1.0);
  EXPECT_DOUBLE_EQ(tree.predict_one(std::vector<double>{5.0}), 5.0);
}

TEST(DecisionTree, DepthZeroPredictsMean) {
  DecisionTree tree({{"max_depth", 0}});
  tree.fit(step_function_data());
  EXPECT_DOUBLE_EQ(tree.predict_one(std::vector<double>{0.0}), 3.0);
  EXPECT_EQ(tree.nodes().size(), 1u);
}

TEST(DecisionTree, RespectsMaxDepth) {
  for (int depth : {1, 2, 4, 6}) {
    DecisionTree tree({{"max_depth", static_cast<double>(depth)}});
    tree.fit(noisy_surface(500, 3));
    EXPECT_LE(tree.depth(), static_cast<std::size_t>(depth + 1))
        << "configured depth " << depth;
  }
}

TEST(DecisionTree, MinSamplesLeafLimitsLeafSize) {
  DecisionTree tree({{"max_depth", 20}, {"min_samples_leaf", 50}});
  const Dataset data = noisy_surface(200, 5);
  tree.fit(data);
  // With >= 50 samples per leaf and 200 rows, at most 4 leaves are possible.
  std::size_t leaves = 0;
  for (const auto& node : tree.nodes()) leaves += node.is_leaf();
  EXPECT_LE(leaves, 4u);
}

TEST(DecisionTree, PureNodeStopsSplitting) {
  Dataset data({"x"});
  for (int i = 0; i < 20; ++i) {
    data.add_row(std::vector<double>{static_cast<double>(i)}, 7.0);
  }
  DecisionTree tree({{"max_depth", 10}});
  tree.fit(data);
  EXPECT_EQ(tree.nodes().size(), 1u) << "constant labels need no splits";
  EXPECT_DOUBLE_EQ(tree.predict_one(std::vector<double>{3.0}), 7.0);
}

TEST(DecisionTree, WeightsSteerTheFit) {
  // Same x -> two conflicting labels; weights decide the leaf value.
  Dataset data({"x"});
  data.add_row(std::vector<double>{1.0}, 0.0);
  data.add_row(std::vector<double>{1.0}, 10.0);
  DecisionTree tree({{"max_depth", 2}});
  const std::vector<double> w = {9.0, 1.0};
  tree.fit_weighted(data, w);
  EXPECT_DOUBLE_EQ(tree.predict_one(std::vector<double>{1.0}), 1.0);
}

TEST(DecisionTree, ZeroWeightRowsAreIgnored) {
  Dataset data({"x"});
  for (int i = 0; i < 10; ++i) {
    data.add_row(std::vector<double>{static_cast<double>(i)}, 2.0);
  }
  data.add_row(std::vector<double>{100.0}, 1000.0);  // weighted out
  std::vector<double> w(11, 1.0);
  w[10] = 0.0;
  DecisionTree tree({{"max_depth", 4}});
  tree.fit_weighted(data, w);
  EXPECT_DOUBLE_EQ(tree.predict_one(std::vector<double>{100.0}), 2.0);
}

TEST(DecisionTree, WeightCountMismatchThrows) {
  Dataset data({"x"});
  data.add_row(std::vector<double>{1.0}, 1.0);
  DecisionTree tree;
  const std::vector<double> w = {1.0, 1.0};
  EXPECT_THROW(tree.fit_weighted(data, w), std::invalid_argument);
}

TEST(DecisionTree, DeterministicForFixedSeed) {
  const Dataset data = noisy_surface(300, 7, 0.2);
  DecisionTree a({{"seed", 5}, {"max_features", 0.5}});
  DecisionTree b({{"seed", 5}, {"max_features", 0.5}});
  a.fit(data);
  b.fit(data);
  Rng rng(9);
  for (int i = 0; i < 50; ++i) {
    const std::vector<double> x = {rng.uniform(-3, 3), rng.uniform(-3, 3)};
    EXPECT_DOUBLE_EQ(a.predict_one(x), b.predict_one(x));
  }
}

TEST(DecisionTree, UnfittedPredictsZero) {
  DecisionTree tree;
  EXPECT_DOUBLE_EQ(tree.predict_one(std::vector<double>{1.0}), 0.0);
}

// Property suite over random datasets: structural invariants.
class TreePropertyTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(TreePropertyTest, PredictionsStayWithinLabelHull) {
  const Dataset data = noisy_surface(250, GetParam(), 0.5);
  DecisionTree tree({{"max_depth", 8}});
  tree.fit(data);
  const double lo =
      *std::min_element(data.labels().begin(), data.labels().end());
  const double hi =
      *std::max_element(data.labels().begin(), data.labels().end());
  Rng rng(GetParam() + 100);
  for (int i = 0; i < 100; ++i) {
    const std::vector<double> x = {rng.uniform(-5, 5), rng.uniform(-5, 5)};
    const double p = tree.predict_one(x);
    EXPECT_GE(p, lo - 1e-9);
    EXPECT_LE(p, hi + 1e-9);
  }
}

TEST_P(TreePropertyTest, DeeperTreesFitTrainDataBetter) {
  const Dataset data = noisy_surface(300, GetParam(), 0.3);
  DecisionTree shallow({{"max_depth", 2}});
  DecisionTree deep({{"max_depth", 10}});
  shallow.fit(data);
  deep.fit(data);
  const double rmse_shallow = rmse(data.labels(), shallow.predict(data));
  const double rmse_deep = rmse(data.labels(), deep.predict(data));
  EXPECT_LE(rmse_deep, rmse_shallow + 1e-12);
}

TEST_P(TreePropertyTest, TreeStructureIsValid) {
  const Dataset data = noisy_surface(200, GetParam(), 0.4);
  DecisionTree tree({{"max_depth", 7}});
  tree.fit(data);
  const auto& nodes = tree.nodes();
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    if (nodes[i].is_leaf()) continue;
    ASSERT_GE(nodes[i].left, 0);
    ASSERT_GE(nodes[i].right, 0);
    ASSERT_LT(static_cast<std::size_t>(nodes[i].left), nodes.size());
    ASSERT_LT(static_cast<std::size_t>(nodes[i].right), nodes.size());
    EXPECT_GT(nodes[i].left, static_cast<int>(i));
    EXPECT_GT(nodes[i].right, static_cast<int>(i));
    EXPECT_LT(nodes[i].feature, static_cast<int>(data.n_features()));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, TreePropertyTest,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34));

}  // namespace
}  // namespace adsala::ml
