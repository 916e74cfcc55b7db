#include "ml/registry.h"

#include <stdexcept>

#include "ml/adaboost.h"
#include "ml/forest.h"
#include "ml/gbt.h"
#include "ml/hist_gbt.h"
#include "ml/knn.h"
#include "ml/linear.h"
#include "ml/svr.h"
#include "ml/tree.h"

namespace adsala::ml {

std::unique_ptr<Regressor> make_model(const std::string& name,
                                      const Params& params) {
  if (name == "linear_regression") {
    return std::make_unique<LinearRegression>(params);
  }
  if (name == "elastic_net") return std::make_unique<ElasticNet>(params);
  if (name == "bayesian_ridge") return std::make_unique<BayesianRidge>(params);
  if (name == "decision_tree") return std::make_unique<DecisionTree>(params);
  if (name == "random_forest") return std::make_unique<RandomForest>(params);
  if (name == "adaboost") return std::make_unique<AdaBoostR2>(params);
  if (name == "xgboost") return std::make_unique<XgbRegressor>(params);
  if (name == "lightgbm") return std::make_unique<LightGbmRegressor>(params);
  if (name == "knn") return std::make_unique<KnnRegressor>(params);
  if (name == "svr") return std::make_unique<SvrRegressor>(params);
  throw std::invalid_argument("make_model: unknown model '" + name + "'");
}

std::vector<std::string> model_names() {
  return {"linear_regression", "elastic_net", "bayesian_ridge",
          "decision_tree",     "random_forest", "adaboost",
          "xgboost",           "lightgbm",      "knn",
          "svr"};
}

std::unique_ptr<Regressor> load_model(const Json& blob, std::size_t width) {
  auto model = make_model(blob.at("model").as_string());
  model->load(blob, width);
  return model;
}

ParamGrid default_grid(const std::string& name) {
  if (name == "linear_regression") {
    return {{"alpha", {0.0, 0.1, 1.0}}};
  }
  if (name == "elastic_net") {
    return {{"alpha", {0.001, 0.01, 0.1}}, {"l1_ratio", {0.2, 0.5, 0.8}}};
  }
  if (name == "bayesian_ridge") {
    return {};  // evidence maximisation self-tunes
  }
  if (name == "decision_tree") {
    return {{"max_depth", {6, 10, 14}}, {"min_samples_leaf", {1, 4}}};
  }
  if (name == "random_forest") {
    return {{"n_estimators", {100}},
            {"max_depth", {12, 18}},
            {"max_features", {0.5, 0.8}}};
  }
  if (name == "adaboost") {
    return {{"n_estimators", {50}},
            {"max_depth", {4, 6}},
            {"learning_rate", {0.5, 1.0}}};
  }
  if (name == "xgboost") {
    return {{"n_estimators", {150}},
            {"max_depth", {4, 6}},
            {"learning_rate", {0.05, 0.1}},
            {"reg_lambda", {1.0}}};
  }
  if (name == "lightgbm") {
    return {{"n_estimators", {150}},
            {"num_leaves", {31, 63}},
            {"learning_rate", {0.05, 0.1}}};
  }
  if (name == "knn") {
    return {{"k", {3, 5, 9}}, {"distance_weighted", {0.0, 1.0}}};
  }
  if (name == "svr") {
    return {{"c", {0.1, 1.0, 10.0}}, {"epsilon", {0.05, 0.1}}};
  }
  throw std::invalid_argument("default_grid: unknown model '" + name + "'");
}

}  // namespace adsala::ml
