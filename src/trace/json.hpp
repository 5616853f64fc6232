// json.hpp — minimal JSON reader/writer.
//
// Bench binaries emit machine-readable result blobs alongside their console
// tables, and experiment plans (scenario/plan.hpp) serialize to and load
// from JSON files; this value type covers both without pulling in a JSON
// dependency.  Numbers are written with the shortest representation that
// round-trips the double exactly (trace/parse.hpp), so a dump/parse cycle
// is bit-identical — the property the plan-file workflow depends on.
#pragma once

#include <cstdint>
#include <initializer_list>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

namespace sss::trace {

class JsonValue {
 public:
  using Array = std::vector<JsonValue>;
  using Object = std::map<std::string, JsonValue, std::less<>>;

  JsonValue() : value_(nullptr) {}
  JsonValue(std::nullptr_t) : value_(nullptr) {}
  JsonValue(bool b) : value_(b) {}
  JsonValue(double d) : value_(d) {}
  JsonValue(int i) : value_(static_cast<double>(i)) {}
  JsonValue(std::int64_t i) : value_(static_cast<double>(i)) {}
  JsonValue(std::size_t i) : value_(static_cast<double>(i)) {}
  JsonValue(const char* s) : value_(std::string(s)) {}
  JsonValue(std::string s) : value_(std::move(s)) {}
  JsonValue(Array a) : value_(std::move(a)) {}
  JsonValue(Object o) : value_(std::move(o)) {}

  [[nodiscard]] static JsonValue object() { return JsonValue(Object{}); }
  [[nodiscard]] static JsonValue array() { return JsonValue(Array{}); }
  // A 64-bit unsigned integer (a seed) as a decimal string: a JSON number
  // is a double, which holds integers exactly only up to 2^53.
  [[nodiscard]] static JsonValue from_uint64(std::uint64_t v);

  // Parse JSON text (objects, arrays, strings with escapes, numbers,
  // true/false/null).  Throws std::runtime_error with a byte offset on
  // malformed input or trailing garbage.
  [[nodiscard]] static JsonValue parse(std::string_view text);

  // Object field access (creates the field; requires object type).
  JsonValue& operator[](std::string_view key);
  // Array append (requires array type).
  void push_back(JsonValue v);

  [[nodiscard]] bool is_null() const { return std::holds_alternative<std::nullptr_t>(value_); }
  [[nodiscard]] bool is_bool() const { return std::holds_alternative<bool>(value_); }
  [[nodiscard]] bool is_number() const { return std::holds_alternative<double>(value_); }
  [[nodiscard]] bool is_string() const { return std::holds_alternative<std::string>(value_); }
  [[nodiscard]] bool is_object() const { return std::holds_alternative<Object>(value_); }
  [[nodiscard]] bool is_array() const { return std::holds_alternative<Array>(value_); }

  // Typed readers; each throws std::runtime_error when the value holds a
  // different type (the plan loader turns these into field-level errors).
  [[nodiscard]] bool as_bool() const;
  [[nodiscard]] double as_double() const;
  // A decimal string as from_uint64 writes it, or an integral number in
  // [0, 2^53] (files written before seeds were strings).
  [[nodiscard]] std::uint64_t as_uint64() const;
  [[nodiscard]] const std::string& as_string() const;
  [[nodiscard]] const Array& as_array() const;
  [[nodiscard]] const Object& as_object() const;

  // Object lookup: nullptr when `key` is absent (or this is not an object).
  [[nodiscard]] const JsonValue* find(std::string_view key) const;
  // Object lookup that throws std::runtime_error when `key` is absent.
  [[nodiscard]] const JsonValue& at(std::string_view key) const;

  // Serialize; `indent` < 0 means compact single-line output.
  [[nodiscard]] std::string dump(int indent = -1) const;

  [[nodiscard]] static std::string escape(std::string_view s);

 private:
  std::variant<std::nullptr_t, bool, double, std::string, Array, Object> value_;

  void dump_to(std::string& out, int indent, int depth) const;
};

}  // namespace sss::trace
