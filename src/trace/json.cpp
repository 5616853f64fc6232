#include "trace/json.hpp"

#include <cmath>
#include <cstdio>
#include <stdexcept>

#include "trace/parse.hpp"

namespace sss::trace {

JsonValue& JsonValue::operator[](std::string_view key) {
  if (!is_object()) throw std::logic_error("JsonValue::operator[] on non-object");
  auto& obj = std::get<Object>(value_);
  auto it = obj.find(key);
  if (it == obj.end()) {
    it = obj.emplace(std::string(key), JsonValue()).first;
  }
  return it->second;
}

void JsonValue::push_back(JsonValue v) {
  if (!is_array()) throw std::logic_error("JsonValue::push_back on non-array");
  std::get<Array>(value_).push_back(std::move(v));
}

std::string JsonValue::escape(std::string_view s) {
  std::string out = "\"";
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  out += '"';
  return out;
}

namespace {

void append_number(std::string& out, double d) {
  if (!std::isfinite(d)) {
    out += "null";  // JSON has no Inf/NaN; null is the conventional stand-in.
    return;
  }
  char buf[32];
  out += format_double_exact(d, buf);
}

void append_indent(std::string& out, int indent, int depth) {
  if (indent < 0) return;
  out += '\n';
  out.append(static_cast<std::size_t>(indent) * depth, ' ');
}

}  // namespace

void JsonValue::dump_to(std::string& out, int indent, int depth) const {
  if (std::holds_alternative<std::nullptr_t>(value_)) {
    out += "null";
  } else if (const bool* b = std::get_if<bool>(&value_)) {
    out += *b ? "true" : "false";
  } else if (const double* d = std::get_if<double>(&value_)) {
    append_number(out, *d);
  } else if (const std::string* s = std::get_if<std::string>(&value_)) {
    out += escape(*s);
  } else if (const Array* a = std::get_if<Array>(&value_)) {
    out += '[';
    bool first = true;
    for (const auto& v : *a) {
      if (!first) out += ',';
      first = false;
      append_indent(out, indent, depth + 1);
      v.dump_to(out, indent, depth + 1);
    }
    if (!a->empty()) append_indent(out, indent, depth);
    out += ']';
  } else if (const Object* o = std::get_if<Object>(&value_)) {
    out += '{';
    bool first = true;
    for (const auto& [k, v] : *o) {
      if (!first) out += ',';
      first = false;
      append_indent(out, indent, depth + 1);
      out += escape(k);
      out += indent < 0 ? ":" : ": ";
      v.dump_to(out, indent, depth + 1);
    }
    if (!o->empty()) append_indent(out, indent, depth);
    out += '}';
  }
}

std::string JsonValue::dump(int indent) const {
  std::string out;
  dump_to(out, indent, 0);
  return out;
}

// --- typed readers ---------------------------------------------------------

namespace {

[[noreturn]] void type_error(const char* want) {
  throw std::runtime_error(std::string("JsonValue: expected ") + want);
}

}  // namespace

bool JsonValue::as_bool() const {
  const bool* b = std::get_if<bool>(&value_);
  if (b == nullptr) type_error("a boolean");
  return *b;
}

double JsonValue::as_double() const {
  const double* d = std::get_if<double>(&value_);
  if (d == nullptr) type_error("a number");
  return *d;
}

JsonValue JsonValue::from_uint64(std::uint64_t v) { return JsonValue(std::to_string(v)); }

std::uint64_t JsonValue::as_uint64() const {
  if (const double* d = std::get_if<double>(&value_)) {
    if (*d >= 0.0 && *d <= 0x1p53 && *d == std::floor(*d)) {
      return static_cast<std::uint64_t>(*d);
    }
  } else if (const std::string* s = std::get_if<std::string>(&value_)) {
    if (const auto v = parse_uint64(*s)) return *v;
  }
  type_error("an unsigned integer (a decimal string, or an integral number up to 2^53)");
}

const std::string& JsonValue::as_string() const {
  const std::string* s = std::get_if<std::string>(&value_);
  if (s == nullptr) type_error("a string");
  return *s;
}

const JsonValue::Array& JsonValue::as_array() const {
  const Array* a = std::get_if<Array>(&value_);
  if (a == nullptr) type_error("an array");
  return *a;
}

const JsonValue::Object& JsonValue::as_object() const {
  const Object* o = std::get_if<Object>(&value_);
  if (o == nullptr) type_error("an object");
  return *o;
}

const JsonValue* JsonValue::find(std::string_view key) const {
  const Object* o = std::get_if<Object>(&value_);
  if (o == nullptr) return nullptr;
  const auto it = o->find(key);
  return it == o->end() ? nullptr : &it->second;
}

const JsonValue& JsonValue::at(std::string_view key) const {
  const JsonValue* v = find(key);
  if (v == nullptr) {
    throw std::runtime_error("JsonValue: missing key '" + std::string(key) + "'");
  }
  return *v;
}

// --- parser ----------------------------------------------------------------

namespace {

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  JsonValue parse_document() {
    JsonValue value = parse_value(0);
    skip_whitespace();
    if (pos_ != text_.size()) fail("trailing garbage after JSON document");
    return value;
  }

 private:
  static constexpr int kMaxDepth = 64;

  [[noreturn]] void fail(const std::string& what) const {
    throw std::runtime_error("JSON parse error at byte " + std::to_string(pos_) + ": " +
                             what);
  }

  void skip_whitespace() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
      ++pos_;
    }
  }

  char peek() {
    if (pos_ >= text_.size()) fail("unexpected end of input");
    return text_[pos_];
  }

  bool consume_literal(std::string_view literal) {
    if (text_.substr(pos_, literal.size()) != literal) return false;
    pos_ += literal.size();
    return true;
  }

  JsonValue parse_value(int depth) {
    if (depth > kMaxDepth) fail("nesting too deep");
    skip_whitespace();
    const char c = peek();
    switch (c) {
      case '{':
        return parse_object(depth);
      case '[':
        return parse_array(depth);
      case '"':
        return JsonValue(parse_string());
      case 't':
        if (consume_literal("true")) return JsonValue(true);
        fail("invalid literal");
      case 'f':
        if (consume_literal("false")) return JsonValue(false);
        fail("invalid literal");
      case 'n':
        if (consume_literal("null")) return JsonValue(nullptr);
        fail("invalid literal");
      default:
        return parse_number();
    }
  }

  JsonValue parse_object(int depth) {
    ++pos_;  // '{'
    JsonValue::Object object;
    skip_whitespace();
    if (peek() == '}') {
      ++pos_;
      return JsonValue(std::move(object));
    }
    while (true) {
      skip_whitespace();
      if (peek() != '"') fail("expected object key");
      std::string key = parse_string();
      skip_whitespace();
      if (peek() != ':') fail("expected ':' after object key");
      ++pos_;
      object.insert_or_assign(std::move(key), parse_value(depth + 1));
      skip_whitespace();
      const char c = peek();
      if (c == ',') {
        ++pos_;
        continue;
      }
      if (c == '}') {
        ++pos_;
        return JsonValue(std::move(object));
      }
      fail("expected ',' or '}' in object");
    }
  }

  JsonValue parse_array(int depth) {
    ++pos_;  // '['
    JsonValue::Array array;
    skip_whitespace();
    if (peek() == ']') {
      ++pos_;
      return JsonValue(std::move(array));
    }
    while (true) {
      array.push_back(parse_value(depth + 1));
      skip_whitespace();
      const char c = peek();
      if (c == ',') {
        ++pos_;
        continue;
      }
      if (c == ']') {
        ++pos_;
        return JsonValue(std::move(array));
      }
      fail("expected ',' or ']' in array");
    }
  }

  std::string parse_string() {
    ++pos_;  // '"'
    std::string out;
    while (true) {
      if (pos_ >= text_.size()) fail("unterminated string");
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (c != '\\') {
        out += c;
        continue;
      }
      if (pos_ >= text_.size()) fail("unterminated escape");
      const char escape = text_[pos_++];
      switch (escape) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u': out += parse_unicode_escape(); break;
        default: fail("invalid escape");
      }
    }
  }

  // \uXXXX escapes: decode the BMP code point to UTF-8.  Surrogate halves
  // are encoded individually (our own writer only emits \u for control
  // characters, so this is more than the round trip needs).
  std::string parse_unicode_escape() {
    if (pos_ + 4 > text_.size()) fail("truncated \\u escape");
    unsigned code = 0;
    for (int i = 0; i < 4; ++i) {
      const char c = text_[pos_++];
      code <<= 4;
      if (c >= '0' && c <= '9') {
        code += static_cast<unsigned>(c - '0');
      } else if (c >= 'a' && c <= 'f') {
        code += static_cast<unsigned>(c - 'a') + 10;
      } else if (c >= 'A' && c <= 'F') {
        code += static_cast<unsigned>(c - 'A') + 10;
      } else {
        fail("invalid \\u escape");
      }
    }
    std::string out;
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
    return out;
  }

  JsonValue parse_number() {
    std::size_t end = pos_;
    while (end < text_.size()) {
      const char c = text_[end];
      const bool number_char = (c >= '0' && c <= '9') || c == '-' || c == '+' ||
                               c == '.' || c == 'e' || c == 'E';
      if (!number_char) break;
      ++end;
    }
    const auto value = parse_double(text_.substr(pos_, end - pos_));
    if (!value.has_value()) fail("invalid number");
    pos_ = end;
    return JsonValue(*value);
  }

  std::string_view text_;
  std::size_t pos_ = 0;
};

}  // namespace

JsonValue JsonValue::parse(std::string_view text) {
  return Parser(text).parse_document();
}

}  // namespace sss::trace
