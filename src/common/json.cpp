#include "common/json.h"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <sstream>
#include <stdexcept>

#include "common/failpoint.h"

namespace adsala {

const Json& Json::at(const std::string& key) const {
  return as_object().at(key);
}

bool Json::contains(const std::string& key) const {
  return is_object() && as_object().count(key) > 0;
}

Json& Json::operator[](const std::string& key) {
  if (!is_object()) value_ = JsonObject{};
  return std::get<JsonObject>(value_)[key];
}

bool Json::is_int() const {
  if (!is_number()) return false;
  const double v = as_number();
  // The range test comes first and is false for NaN, so the cast below
  // only ever sees a value an int can hold.
  return v >= std::numeric_limits<int>::min() &&
         v <= std::numeric_limits<int>::max() &&
         static_cast<double>(static_cast<int>(v)) == v;
}

int Json::as_int() const {
  if (!is_int()) {
    throw std::invalid_argument("json: not an integer in int range");
  }
  return static_cast<int>(as_number());
}

Json Json::from_doubles(const std::vector<double>& xs) {
  JsonArray arr;
  arr.reserve(xs.size());
  for (double x : xs) arr.emplace_back(x);
  return Json(std::move(arr));
}

std::vector<double> Json::to_doubles() const {
  std::vector<double> out;
  out.reserve(as_array().size());
  for (const auto& v : as_array()) out.push_back(v.as_number());
  return out;
}

namespace {

void append_escaped(std::string& out, const std::string& s) {
  out += '"';
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  out += '"';
}

void append_number(std::string& out, double d) {
  if (std::isfinite(d) && d == std::floor(d) && std::fabs(d) < 1e15) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.0f", d);
    out += buf;
  } else if (std::isfinite(d)) {
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", d);
    out += buf;
  } else {
    // JSON has no Inf/NaN; persist as null (readers must tolerate this).
    out += "null";
  }
}

class Parser {
 public:
  explicit Parser(const std::string& text) : text_(text) {}

  Json parse() {
    Json value = parse_value();
    skip_ws();
    if (pos_ != text_.size()) fail("trailing characters");
    return value;
  }

 private:
  [[noreturn]] void fail(const std::string& what) const {
    throw std::runtime_error("json parse error at byte " +
                             std::to_string(pos_) + ": " + what);
  }

  void skip_ws() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }

  char peek() {
    if (pos_ >= text_.size()) fail("unexpected end of input");
    return text_[pos_];
  }

  void expect(char c) {
    if (peek() != c) fail(std::string("expected '") + c + "'");
    ++pos_;
  }

  bool consume_literal(const char* lit) {
    std::size_t len = 0;
    while (lit[len]) ++len;
    if (text_.compare(pos_, len, lit) == 0) {
      pos_ += len;
      return true;
    }
    return false;
  }

  Json parse_value() {
    skip_ws();
    const char c = peek();
    if (c == '{') return parse_object();
    if (c == '[') return parse_array();
    if (c == '"') return Json(parse_string());
    if (c == 't') {
      if (!consume_literal("true")) fail("bad literal");
      return Json(true);
    }
    if (c == 'f') {
      if (!consume_literal("false")) fail("bad literal");
      return Json(false);
    }
    if (c == 'n') {
      if (!consume_literal("null")) fail("bad literal");
      return Json(nullptr);
    }
    return parse_number();
  }

  Json parse_object() {
    expect('{');
    JsonObject obj;
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return Json(std::move(obj));
    }
    while (true) {
      skip_ws();
      std::string key = parse_string();
      skip_ws();
      expect(':');
      obj[std::move(key)] = parse_value();
      skip_ws();
      const char c = peek();
      if (c == ',') {
        ++pos_;
        continue;
      }
      if (c == '}') {
        ++pos_;
        return Json(std::move(obj));
      }
      fail("expected ',' or '}'");
    }
  }

  Json parse_array() {
    expect('[');
    JsonArray arr;
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      return Json(std::move(arr));
    }
    while (true) {
      arr.push_back(parse_value());
      skip_ws();
      const char c = peek();
      if (c == ',') {
        ++pos_;
        continue;
      }
      if (c == ']') {
        ++pos_;
        return Json(std::move(arr));
      }
      fail("expected ',' or ']'");
    }
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    while (true) {
      if (pos_ >= text_.size()) fail("unterminated string");
      char c = text_[pos_++];
      if (c == '"') return out;
      if (c == '\\') {
        if (pos_ >= text_.size()) fail("unterminated escape");
        const char e = text_[pos_++];
        switch (e) {
          case '"': out += '"'; break;
          case '\\': out += '\\'; break;
          case '/': out += '/'; break;
          case 'n': out += '\n'; break;
          case 't': out += '\t'; break;
          case 'r': out += '\r'; break;
          case 'b': out += '\b'; break;
          case 'f': out += '\f'; break;
          case 'u': {
            if (pos_ + 4 > text_.size()) fail("bad \\u escape");
            const unsigned code =
                std::stoul(text_.substr(pos_, 4), nullptr, 16);
            pos_ += 4;
            // BMP-only UTF-8 encoding; surrogate pairs unsupported.
            if (code < 0x80) {
              out += static_cast<char>(code);
            } else if (code < 0x800) {
              out += static_cast<char>(0xC0 | (code >> 6));
              out += static_cast<char>(0x80 | (code & 0x3F));
            } else {
              out += static_cast<char>(0xE0 | (code >> 12));
              out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
              out += static_cast<char>(0x80 | (code & 0x3F));
            }
            break;
          }
          default: fail("unknown escape");
        }
      } else {
        out += c;
      }
    }
  }

  Json parse_number() {
    const std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '+' || text_[pos_] == '-')) {
      ++pos_;
    }
    if (pos_ == start) fail("expected a value");
    try {
      return Json(std::stod(text_.substr(start, pos_ - start)));
    } catch (const std::exception&) {
      fail("malformed number");
    }
  }

  const std::string& text_;
  std::size_t pos_ = 0;
};

}  // namespace

void Json::dump_impl(std::string& out, int indent, int depth) const {
  const std::string pad =
      indent > 0 ? std::string(static_cast<std::size_t>(indent * (depth + 1)), ' ')
                 : "";
  const std::string pad_close =
      indent > 0 ? std::string(static_cast<std::size_t>(indent * depth), ' ')
                 : "";
  const char* nl = indent > 0 ? "\n" : "";
  if (is_null()) {
    out += "null";
  } else if (is_bool()) {
    out += as_bool() ? "true" : "false";
  } else if (is_number()) {
    append_number(out, as_number());
  } else if (is_string()) {
    append_escaped(out, as_string());
  } else if (is_array()) {
    const auto& arr = as_array();
    if (arr.empty()) {
      out += "[]";
      return;
    }
    out += '[';
    out += nl;
    for (std::size_t i = 0; i < arr.size(); ++i) {
      out += pad;
      arr[i].dump_impl(out, indent, depth + 1);
      if (i + 1 < arr.size()) out += ',';
      out += nl;
    }
    out += pad_close;
    out += ']';
  } else {
    const auto& obj = as_object();
    if (obj.empty()) {
      out += "{}";
      return;
    }
    out += '{';
    out += nl;
    std::size_t i = 0;
    for (const auto& [key, value] : obj) {
      out += pad;
      append_escaped(out, key);
      out += indent > 0 ? ": " : ":";
      value.dump_impl(out, indent, depth + 1);
      if (++i < obj.size()) out += ',';
      out += nl;
    }
    out += pad_close;
    out += '}';
  }
}

std::string Json::dump(int indent) const {
  std::string out;
  dump_impl(out, indent, 0);
  return out;
}

Json Json::parse(const std::string& text) { return Parser(text).parse(); }

void write_json_file(const std::string& path, const Json& value) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("write_json_file: cannot open " + path);
  out << value.dump(2) << '\n';
}

Expected<Json> try_read_json_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    return Error{ErrorCode::kNotFound,
                 "read_json_file: cannot open " + path};
  }
  std::stringstream ss;
  ss << in.rdbuf();
  std::string text = ss.str();
  if (failpoint::triggered("json-truncate")) {
    text.resize(text.size() / 2);  // simulated torn write
  }
  try {
    return Json::parse(text);
  } catch (const std::exception& e) {
    // Parse errors carry the byte offset only; a caller juggling several
    // artefact files needs to know *which* file tore.
    return Error{ErrorCode::kParseError, path + ": " + e.what()};
  }
}

Json read_json_file(const std::string& path) {
  auto result = try_read_json_file(path);
  if (!result.ok()) throw std::runtime_error(result.error().message);
  return std::move(result).value();
}

}  // namespace adsala
