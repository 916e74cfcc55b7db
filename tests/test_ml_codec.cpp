// Tests for the model codec: every model in the zoo round-trips through
// save()/load() byte for byte, and the decoder refuses each structural
// defect a model file could carry (ml/model.h, ml/flat_tree.h,
// ml/linear.h) before any prediction can follow it.
#include <gtest/gtest.h>

#include <limits>
#include <string>
#include <vector>

#include "common/json.h"
#include "common/rng.h"
#include "ml/registry.h"

namespace adsala::ml {
namespace {

constexpr std::size_t kWidth = 4;

/// y = x0*x1 + step(x2) + 0.5*x3 + noise, over kWidth features.
Dataset surface(std::size_t n, std::uint64_t seed) {
  Dataset data({"x0", "x1", "x2", "x3"});
  Rng rng(seed);
  for (std::size_t i = 0; i < n; ++i) {
    const double x0 = rng.uniform(-2.0, 2.0);
    const double x1 = rng.uniform(-2.0, 2.0);
    const double x2 = rng.uniform(-2.0, 2.0);
    const double x3 = rng.uniform(-2.0, 2.0);
    data.add_row(std::vector<double>{x0, x1, x2, x3},
                 x0 * x1 + (x2 > 0.3 ? 3.0 : 0.0) + 0.5 * x3 +
                     rng.normal(0.0, 0.1));
  }
  return data;
}

/// A fitted model of `name` with small ensembles, saved.
Json fitted_blob(const std::string& name) {
  auto model = make_model(name, {{"n_estimators", 6}, {"epochs", 10}});
  model->fit(surface(200, 5));
  return model->save();
}

/// Expects load_model to refuse `blob` for a kWidth-input model.
void expect_refused(const Json& blob, std::size_t width = kWidth) {
  EXPECT_ANY_THROW(load_model(blob, width)) << blob.dump().substr(0, 200);
}

/// The first flat tree in a blob: the blob itself for decision_tree,
/// trees[0] for every ensemble.
Json& first_tree(Json& blob) {
  return blob.contains("trees") ? blob["trees"].as_array()[0] : blob;
}

/// Indices of the internal nodes of a flat tree.
std::vector<std::size_t> splits(const Json& tree) {
  std::vector<std::size_t> out;
  const auto& features = tree.at("feature").as_array();
  for (std::size_t i = 0; i < features.size(); ++i) {
    if (features[i].as_int() >= 0) out.push_back(i);
  }
  EXPECT_FALSE(out.empty()) << "tree has no split";
  return out;
}

std::size_t first_split(const Json& tree) { return splits(tree).front(); }

// ---------------------------------------------------------- whole zoo ---

class ModelZoo : public ::testing::TestWithParam<std::string> {};

TEST_P(ModelZoo, SaveLoadSaveIsByteIdenticalAndPredictsIdentically) {
  auto model = make_model(GetParam(), {{"n_estimators", 6}, {"epochs", 10}});
  model->fit(surface(200, 5));
  const std::string first = model->save().dump(2);
  auto restored = load_model(Json::parse(first), kWidth);
  EXPECT_EQ(restored->name(), GetParam());
  EXPECT_EQ(restored->save().dump(2), first);
  const Dataset probe = surface(100, 6);
  for (std::size_t i = 0; i < probe.size(); ++i) {
    EXPECT_EQ(restored->predict_one(probe.row(i)),
              model->predict_one(probe.row(i)))
        << "probe row " << i;
  }
}

TEST_P(ModelZoo, EnvelopeNamingAnotherModelIsRefused) {
  Json blob = fitted_blob(GetParam());
  auto model = make_model(GetParam());
  blob["model"] = Json(GetParam() == "knn" ? "svr" : "knn");
  EXPECT_ANY_THROW(model->load(blob, kWidth));
}

INSTANTIATE_TEST_SUITE_P(AllModels, ModelZoo,
                         ::testing::ValuesIn(model_names()),
                         [](const auto& info) { return info.param; });

// ------------------------------------------------------ flat-tree rules ---

class TreeCodec : public ::testing::TestWithParam<std::string> {};

TEST_P(TreeCodec, ChildPointingBackIsRefused) {
  const Json good = fitted_blob(GetParam());
  Json self_loop = good;
  const std::size_t i = first_split(first_tree(self_loop));
  first_tree(self_loop)["left"].as_array()[i] = Json(static_cast<int>(i));
  expect_refused(self_loop);
  Json to_root = good;
  const std::size_t last = splits(first_tree(to_root)).back();
  ASSERT_GT(last, 0u);
  first_tree(to_root)["right"].as_array()[last] = Json(0);
  expect_refused(to_root);
}

TEST_P(TreeCodec, ChildOutsideTheArrayIsRefused) {
  Json blob = fitted_blob(GetParam());
  Json& tree = first_tree(blob);
  const std::size_t i = first_split(tree);
  const auto n = static_cast<int>(tree.at("feature").as_array().size());
  tree["right"].as_array()[i] = Json(n);
  expect_refused(blob);
  tree["right"].as_array()[i] = Json(-1);
  expect_refused(blob);
}

TEST_P(TreeCodec, FeatureAtOrPastTheWidthIsRefused) {
  Json blob = fitted_blob(GetParam());
  Json& tree = first_tree(blob);
  const std::size_t i = first_split(tree);
  tree["feature"].as_array()[i] = Json(static_cast<int>(kWidth));
  expect_refused(blob);
  // The same blob is refused for a narrower model than it was fitted on.
  expect_refused(fitted_blob(GetParam()), 1);
}

TEST_P(TreeCodec, IndexOutsideIntRangeOrFractionalIsRefused) {
  for (const double bad : {1e12, 2.5, -3e9}) {
    Json blob = fitted_blob(GetParam());
    first_tree(blob)["left"].as_array()[first_split(first_tree(blob))] =
        Json(bad);
    expect_refused(blob);
  }
}

TEST_P(TreeCodec, ShortPerNodeArrayIsRefused) {
  for (const char* key : {"feature", "threshold", "value", "left", "right"}) {
    Json blob = fitted_blob(GetParam());
    first_tree(blob)[key].as_array().pop_back();
    expect_refused(blob);
  }
}

TEST_P(TreeCodec, EditThatKeepsTheRulesStillLoads) {
  // A leaf's child slots are never followed, so editing them is harmless.
  Json blob = fitted_blob(GetParam());
  Json& tree = first_tree(blob);
  const auto& features = tree.at("feature").as_array();
  for (std::size_t i = 0; i < features.size(); ++i) {
    if (features[i].as_int() < 0) {
      tree["left"].as_array()[i] = Json(7);
      break;
    }
  }
  EXPECT_NO_THROW(load_model(blob, kWidth));
}

INSTANTIATE_TEST_SUITE_P(TreeModels, TreeCodec,
                         ::testing::Values("decision_tree", "random_forest",
                                           "adaboost", "xgboost", "lightgbm"),
                         [](const auto& info) { return info.param; });

TEST(BoosterCodec, EmptyTreeIsRefused) {
  for (const char* name : {"xgboost", "lightgbm"}) {
    Json blob = fitted_blob(name);
    Json& tree = first_tree(blob);
    for (const char* key : {"feature", "threshold", "value", "left", "right"}) {
      tree[key] = Json(JsonArray{});
    }
    expect_refused(blob);
  }
}

TEST(DecisionTreeCodec, UnfittedTreeRoundTripsAndPredictsZero) {
  auto restored = load_model(make_model("decision_tree")->save(), kWidth);
  EXPECT_EQ(restored->predict_one(std::vector<double>(kWidth, 1.0)), 0.0);
}

TEST(AdaBoostCodec, NeedsOneWeightPerTree) {
  Json blob = fitted_blob("adaboost");
  blob["beta_log"].as_array().push_back(Json(1.0));
  expect_refused(blob);
}

// ------------------------------------------------ linear and kNN rules ---

TEST(LinearCodec, CoefficientCountMustEqualTheWidth) {
  for (const char* name :
       {"linear_regression", "elastic_net", "bayesian_ridge", "svr"}) {
    const Json blob = fitted_blob(name);
    EXPECT_NO_THROW(load_model(blob, kWidth)) << name;
    expect_refused(blob, kWidth - 1);
    expect_refused(blob, kWidth + 1);
  }
}

TEST(LinearCodec, BayesianRidgePrecisionsAreRequired) {
  Json blob = fitted_blob("bayesian_ridge");
  blob.as_object().erase("lambda_precision");
  expect_refused(blob);
}

TEST(KnnCodec, TrainingMatrixMustBeWidthByLabels) {
  const Json good = fitted_blob("knn");
  expect_refused(good, kWidth - 1);
  Json short_x = good;
  short_x["x"].as_array().pop_back();
  expect_refused(short_x);
  Json zero_k = good;
  zero_k["params"]["k"] = Json(0);
  expect_refused(zero_k);
}

// ------------------------------------------------- checked integer read ---

TEST(JsonInt, OnlyWholeNumbersInIntRangeAreInts) {
  EXPECT_TRUE(Json(7).is_int());
  EXPECT_TRUE(Json(-1).is_int());
  EXPECT_TRUE(Json(static_cast<double>(std::numeric_limits<int>::max()))
                  .is_int());
  for (const Json& bad :
       {Json(2.5), Json(1e12), Json(-1e300),
        Json(std::numeric_limits<double>::quiet_NaN()),
        Json(std::numeric_limits<double>::infinity()), Json("3"), Json()}) {
    EXPECT_FALSE(bad.is_int()) << bad.dump();
    EXPECT_THROW(bad.as_int(), std::invalid_argument) << bad.dump();
  }
}

}  // namespace
}  // namespace adsala::ml
