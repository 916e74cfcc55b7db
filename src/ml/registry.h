// Model factory: name -> fresh Regressor, plus polymorphic deserialisation.
//
// The runtime library only knows the model file's "model" tag (Fig. 3 loads
// whatever installation saved); this registry turns that tag back into a
// concrete model. It also enumerates the paper's candidate zoo with the
// per-model hyper-parameter grids used by the Tables III/IV experiment.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "ml/grid_search.h"
#include "ml/model.h"

namespace adsala::ml {

/// Creates an unfitted model by registry name; throws on unknown names.
/// Known names: linear_regression, elastic_net, bayesian_ridge,
/// decision_tree, random_forest, adaboost, xgboost, lightgbm, knn.
std::unique_ptr<Regressor> make_model(const std::string& name,
                                      const Params& params = {});

/// All registered model names (the candidate zoo, paper Table I).
std::vector<std::string> model_names();

/// Restores a fitted model fed `width` inputs from its save() blob
/// (dispatches on blob["model"]); throws on any blob Regressor::load
/// refuses.
std::unique_ptr<Regressor> load_model(const Json& blob, std::size_t width);

/// Default hyper-parameter grid per model for grid_search_cv; small grids
/// for the heavyweight models keep installation-time tuning tractable.
ParamGrid default_grid(const std::string& name);

}  // namespace adsala::ml
