// Common interface for every regression model in the candidate zoo.
//
// The paper's model-selection loop (SS IV-D) needs three things from a model:
// fit on the preprocessed training set, predict fast at GEMM runtime, and
// serialise to the installation-produced model file. Hyper-parameters are a
// flat string->double map so GridSearchCV can sweep any model uniformly.
#pragma once

#include <map>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/json.h"
#include "ml/dataset.h"

namespace adsala::ml {

using Params = std::map<std::string, double>;

class Regressor {
 public:
  virtual ~Regressor() = default;

  /// Trains on the dataset; replaces any previous fit. Throws
  /// std::invalid_argument on an empty dataset.
  virtual void fit(const Dataset& data) = 0;

  /// Predicts one row (feature order must match the training set).
  virtual double predict_one(std::span<const double> x) const = 0;

  /// Batch prediction; default loops over predict_one.
  virtual std::vector<double> predict(const Dataset& data) const;

  virtual std::string name() const = 0;

  virtual Params get_params() const = 0;
  /// Unknown keys are ignored so one grid can drive several models.
  virtual void set_params(const Params& params) = 0;

  /// Serialises the fitted state inside the {"model", "params"} envelope
  /// (name and hyper-parameters); the one writer of that envelope.
  Json save() const;
  /// Restores what save() wrote, for a model fed `width` inputs (the fitted
  /// pipeline's kept features). The state is checked against `width`
  /// before it is used, so a loaded model can never read out of bounds or
  /// walk forever; any malformed blob throws.
  void load(const Json& blob, std::size_t width);

  /// Fresh unfitted copy carrying the same hyper-parameters (built by the
  /// registry from name() and get_params()).
  std::unique_ptr<Regressor> clone() const;

 protected:
  /// The model's own fitted state, written into / read from the envelope.
  virtual void save_state(Json& out) const = 0;
  virtual void load_state(const Json& blob, std::size_t width) = 0;

  static void check_fit_input(const Dataset& data);
  static double param_or(const Params& p, const std::string& key,
                         double fallback);
};

}  // namespace adsala::ml
