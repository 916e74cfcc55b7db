// Minimal JSON document model, parser, and writer.
//
// Used for the ADSALA config file and trained-model serialisation (Fig. 2 of
// the paper: "two files containing the configurations together with the
// production-ready ML model will be saved"). Supports the full JSON grammar
// except \u escapes beyond the BMP; numbers are stored as double except that
// the writer emits integral doubles without a fraction.
#pragma once

#include <map>
#include <memory>
#include <string>
#include <variant>
#include <vector>

#include "common/status.h"

namespace adsala {

class Json;
using JsonArray = std::vector<Json>;
using JsonObject = std::map<std::string, Json>;

class Json {
 public:
  Json() : value_(nullptr) {}
  Json(std::nullptr_t) : value_(nullptr) {}
  Json(bool b) : value_(b) {}
  Json(double d) : value_(d) {}
  Json(int i) : value_(static_cast<double>(i)) {}
  Json(std::size_t i) : value_(static_cast<double>(i)) {}
  Json(long i) : value_(static_cast<double>(i)) {}
  Json(const char* s) : value_(std::string(s)) {}
  Json(std::string s) : value_(std::move(s)) {}
  Json(JsonArray a) : value_(std::move(a)) {}
  Json(JsonObject o) : value_(std::move(o)) {}

  bool is_null() const { return std::holds_alternative<std::nullptr_t>(value_); }
  bool is_bool() const { return std::holds_alternative<bool>(value_); }
  bool is_number() const { return std::holds_alternative<double>(value_); }
  bool is_string() const { return std::holds_alternative<std::string>(value_); }
  bool is_array() const { return std::holds_alternative<JsonArray>(value_); }
  bool is_object() const { return std::holds_alternative<JsonObject>(value_); }

  bool as_bool() const { return std::get<bool>(value_); }
  double as_number() const { return std::get<double>(value_); }
  /// True for a number that is a whole value in int range: the one rule
  /// for every integer an artefact carries (counts, indices, thread ids).
  bool is_int() const;
  /// The value as an int; throws std::invalid_argument unless is_int().
  int as_int() const;
  const std::string& as_string() const { return std::get<std::string>(value_); }
  const JsonArray& as_array() const { return std::get<JsonArray>(value_); }
  JsonArray& as_array() { return std::get<JsonArray>(value_); }
  const JsonObject& as_object() const { return std::get<JsonObject>(value_); }
  JsonObject& as_object() { return std::get<JsonObject>(value_); }

  /// Object member access; throws std::out_of_range when absent.
  const Json& at(const std::string& key) const;
  bool contains(const std::string& key) const;
  Json& operator[](const std::string& key);  ///< creates object member

  /// Convenience: build an array from a vector of doubles (and back).
  static Json from_doubles(const std::vector<double>& xs);
  std::vector<double> to_doubles() const;

  std::string dump(int indent = 0) const;

  static Json parse(const std::string& text);  ///< throws on syntax error

 private:
  void dump_impl(std::string& out, int indent, int depth) const;

  std::variant<std::nullptr_t, bool, double, std::string, JsonArray,
               JsonObject>
      value_;
};

/// File helpers; throw std::runtime_error on I/O failure.
void write_json_file(const std::string& path, const Json& value);

/// Reads and parses a JSON file; every failure message is path-qualified
/// ("<path>: json parse error at byte N: ..."), never just a byte offset.
/// Throws std::runtime_error; the serving path uses try_read_json_file.
Json read_json_file(const std::string& path);

/// Non-throwing sibling of read_json_file for the fail-safe serving layer:
/// kNotFound when the file cannot be opened, kParseError (path-qualified
/// message) when it cannot be decoded. Honours the `json-truncate`
/// failpoint (common/failpoint.h), which drops the second half of the
/// file's bytes to simulate a torn artefact write.
Expected<Json> try_read_json_file(const std::string& path);

}  // namespace adsala
