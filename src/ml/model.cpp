#include "ml/model.h"

#include <stdexcept>

#include "ml/registry.h"

namespace adsala::ml {

std::vector<double> Regressor::predict(const Dataset& data) const {
  std::vector<double> out;
  out.reserve(data.size());
  for (std::size_t i = 0; i < data.size(); ++i) {
    out.push_back(predict_one(data.row(i)));
  }
  return out;
}

Json Regressor::save() const {
  Json out;
  out["model"] = Json(name());
  JsonObject params;
  for (const auto& [k, v] : get_params()) params[k] = Json(v);
  out["params"] = Json(std::move(params));
  save_state(out);
  return out;
}

void Regressor::load(const Json& blob, std::size_t width) {
  if (blob.at("model").as_string() != name()) {
    throw std::invalid_argument("model blob is a '" +
                                blob.at("model").as_string() + "', not a '" +
                                name() + "'");
  }
  Params params;
  for (const auto& [k, v] : blob.at("params").as_object()) {
    params[k] = v.as_number();
  }
  set_params(params);
  load_state(blob, width);
}

std::unique_ptr<Regressor> Regressor::clone() const {
  return make_model(name(), get_params());
}

void Regressor::check_fit_input(const Dataset& data) {
  if (data.empty() || data.n_features() == 0) {
    throw std::invalid_argument("Regressor::fit: empty dataset");
  }
}

double Regressor::param_or(const Params& p, const std::string& key,
                           double fallback) {
  const auto it = p.find(key);
  return it == p.end() ? fallback : it->second;
}

}  // namespace adsala::ml
