#include "util/json.h"

#include <cassert>
#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>

namespace mlck::util {

namespace {

[[noreturn]] void type_error(const char* expected, Json::Type actual) {
  const char* names[] = {"null", "bool", "number", "string", "array",
                         "object"};
  throw JsonError(std::string("json: expected ") + expected + ", got " +
                  names[static_cast<int>(actual)]);
}

}  // namespace

bool Json::as_bool() const {
  if (type_ != Type::kBool) type_error("bool", type_);
  return bool_;
}

double Json::as_number() const {
  if (type_ != Type::kNumber) type_error("number", type_);
  return number_;
}

const std::string& Json::as_string() const {
  if (type_ != Type::kString) type_error("string", type_);
  return string_;
}

const Json::Array& Json::as_array() const {
  if (type_ != Type::kArray) type_error("array", type_);
  return array_;
}

const Json::Object& Json::as_object() const {
  if (type_ != Type::kObject) type_error("object", type_);
  return object_;
}

Json::Array& Json::make_array() {
  if (type_ == Type::kNull) type_ = Type::kArray;
  if (type_ != Type::kArray) type_error("array", type_);
  return array_;
}

Json::Object& Json::make_object() {
  if (type_ == Type::kNull) type_ = Type::kObject;
  if (type_ != Type::kObject) type_error("object", type_);
  return object_;
}

const Json& Json::at(const std::string& key) const {
  const Json* found = find(key);
  if (found == nullptr) throw JsonError("json: missing key \"" + key + "\"");
  return *found;
}

const Json* Json::find(const std::string& key) const {
  if (type_ != Type::kObject) type_error("object", type_);
  const auto it = object_.find(key);
  return it == object_.end() ? nullptr : &it->second;
}

const Json& Json::at(std::size_t index) const {
  if (type_ != Type::kArray) type_error("array", type_);
  if (index >= array_.size()) {
    throw JsonError("json: index " + std::to_string(index) +
                    " out of range (size " + std::to_string(array_.size()) +
                    ")");
  }
  return array_[index];
}

std::size_t Json::size() const noexcept {
  if (type_ == Type::kArray) return array_.size();
  if (type_ == Type::kObject) return object_.size();
  return 0;
}

bool Json::operator==(const Json& other) const {
  if (type_ != other.type_) return false;
  switch (type_) {
    case Type::kNull: return true;
    case Type::kBool: return bool_ == other.bool_;
    case Type::kNumber: return number_ == other.number_;
    case Type::kString: return string_ == other.string_;
    case Type::kArray: return array_ == other.array_;
    case Type::kObject: return object_ == other.object_;
  }
  return false;
}

// ------------------------------------------------------------------ parsing

namespace {

/// A string byte that JSON text carries as itself: no quote, backslash or
/// control character.
bool is_plain(char c) {
  return c != '"' && c != '\\' && static_cast<unsigned char>(c) >= 0x20;
}

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  Json parse_document() {
    Json value = parse_value();
    skip_whitespace();
    if (pos_ != text_.size()) fail("trailing characters after document");
    return value;
  }

 private:
  [[noreturn]] void fail(const std::string& message) const {
    std::size_t line = 1;
    std::size_t column = 1;
    for (std::size_t i = 0; i < pos_ && i < text_.size(); ++i) {
      if (text_[i] == '\n') {
        ++line;
        column = 1;
      } else {
        ++column;
      }
    }
    throw JsonError("json parse error at " + std::to_string(line) + ":" +
                    std::to_string(column) + ": " + message);
  }

  void skip_whitespace() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c == ' ' || c == '\t' || c == '\n' || c == '\r') ++pos_;
      else break;
    }
  }

  char peek() {
    if (pos_ >= text_.size()) fail("unexpected end of input");
    return text_[pos_];
  }

  char take() {
    const char c = peek();
    ++pos_;
    return c;
  }

  void expect(char c) {
    if (take() != c) {
      --pos_;
      fail(std::string("expected '") + c + "'");
    }
  }

  bool consume_literal(std::string_view literal) {
    if (text_.substr(pos_, literal.size()) == literal) {
      pos_ += literal.size();
      return true;
    }
    return false;
  }

  Json parse_value() {
    if (++depth_ > kMaxDepth) fail("nesting too deep");
    skip_whitespace();
    const char c = peek();
    Json out;
    if (c == '{') out = parse_object();
    else if (c == '[') out = parse_array();
    else if (c == '"') out = Json(parse_string());
    else if (c == 't' || c == 'f') out = parse_bool();
    else if (c == 'n') out = parse_null();
    else out = parse_number();
    --depth_;
    return out;
  }

  Json parse_null() {
    if (!consume_literal("null")) fail("invalid literal");
    return Json();
  }

  Json parse_bool() {
    if (consume_literal("true")) return Json(true);
    if (consume_literal("false")) return Json(false);
    fail("invalid literal");
  }

  Json parse_number() {
    const std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) != 0 ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '+' || text_[pos_] == '-')) {
      ++pos_;
    }
    double value = 0.0;
    const auto [ptr, ec] =
        std::from_chars(text_.data() + start, text_.data() + pos_, value);
    if (ec != std::errc{} || ptr != text_.data() + pos_ || pos_ == start) {
      pos_ = start;
      fail("invalid number");
    }
    return Json(value);
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    for (;;) {
      // Copy the run up to the next quote, escape or control char at once.
      const std::size_t run = pos_;
      while (pos_ < text_.size() && is_plain(text_[pos_])) ++pos_;
      out.append(text_.substr(run, pos_ - run));
      if (pos_ >= text_.size()) fail("unterminated string");
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (static_cast<unsigned char>(c) < 0x20) fail("control char in string");
      if (pos_ >= text_.size()) fail("unterminated escape");
      const char esc = text_[pos_++];
      switch (esc) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u': out += parse_unicode_escape(); break;
        default: --pos_; fail("invalid escape");
      }
    }
  }

  std::string parse_unicode_escape() {
    unsigned code = 0;
    for (int i = 0; i < 4; ++i) {
      if (pos_ >= text_.size()) fail("truncated \\u escape");
      const char c = text_[pos_++];
      code <<= 4;
      if (c >= '0' && c <= '9') code |= static_cast<unsigned>(c - '0');
      else if (c >= 'a' && c <= 'f') code |= static_cast<unsigned>(c - 'a' + 10);
      else if (c >= 'A' && c <= 'F') code |= static_cast<unsigned>(c - 'A' + 10);
      else { --pos_; fail("invalid \\u escape"); }
    }
    // Encode the BMP code point as UTF-8 (surrogate pairs unsupported —
    // configuration files have no business containing astral characters).
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

  Json parse_array() {
    expect('[');
    Json::Array items;
    skip_whitespace();
    if (peek() == ']') {
      ++pos_;
      return Json(std::move(items));
    }
    for (;;) {
      items.push_back(parse_value());
      skip_whitespace();
      const char c = take();
      if (c == ']') return Json(std::move(items));
      if (c != ',') { --pos_; fail("expected ',' or ']'"); }
    }
  }

  Json parse_object() {
    expect('{');
    Json::Object members;
    skip_whitespace();
    if (peek() == '}') {
      ++pos_;
      return Json(std::move(members));
    }
    for (;;) {
      skip_whitespace();
      std::string key = parse_string();
      skip_whitespace();
      expect(':');
      members[std::move(key)] = parse_value();
      skip_whitespace();
      const char c = take();
      if (c == '}') return Json(std::move(members));
      if (c != ',') { --pos_; fail("expected ',' or '}'"); }
    }
  }

  static constexpr int kMaxDepth = 128;
  std::string_view text_;
  std::size_t pos_ = 0;
  int depth_ = 0;
};

void dump_string(std::string& out, std::string_view s) {
  out += '"';
  std::size_t run = 0;  // first byte of s not yet copied
  for (std::size_t i = 0; i < s.size(); ++i) {
    const char c = s[i];
    if (is_plain(c)) continue;
    out.append(s.substr(run, i - run));
    run = i + 1;
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default: {  // the other control characters
        char buf[8];
        std::snprintf(buf, sizeof(buf), "\\u%04x", static_cast<unsigned>(c));
        out += buf;
      }
    }
  }
  out.append(s.substr(run));
  out += '"';
}

void append_g17(std::string& out, double value) {
  // 17 significant digits fit in 24 characters: "-1.2345678901234567e-308".
  char buf[32];
  const auto end = std::to_chars(buf, buf + sizeof(buf), value,
                                 std::chars_format::general, 17)
                       .ptr;
  out.append(buf, end);
}

void dump_number(std::string& out, double value) {
  if (std::isfinite(value) && value == std::floor(value) &&
      std::abs(value) < 1e15) {
    // Integral values print without a fraction ("200", not "200.0").
    char buf[24];
    const auto end =
        std::to_chars(buf, buf + sizeof(buf), static_cast<long long>(value))
            .ptr;
    out.append(buf, end);
    return;
  }
  append_g17(out, value);
}

}  // namespace

std::string format_g17(double value) {
  std::string out;
  append_g17(out, value);
  return out;
}

Json Json::parse(std::string_view text) {
  Parser parser(text);
  return parser.parse_document();
}

std::string Json::dump(int indent) const {
  std::string out;
  dump_to(out, indent, 0);
  return out;
}

void Json::dump_to(std::string& out, int indent, int depth) const {
  const auto newline = [&](int level) {
    if (indent > 0) {
      out += '\n';
      out.append(static_cast<std::size_t>(indent * level), ' ');
    }
  };
  switch (type_) {
    case Type::kNull: out += "null"; break;
    case Type::kBool: out += bool_ ? "true" : "false"; break;
    case Type::kNumber: dump_number(out, number_); break;
    case Type::kString: dump_string(out, string_); break;
    case Type::kArray: {
      if (array_.empty()) {
        out += "[]";
        break;
      }
      out += '[';
      for (std::size_t i = 0; i < array_.size(); ++i) {
        if (i) out += indent > 0 ? "," : ",";
        newline(depth + 1);
        array_[i].dump_to(out, indent, depth + 1);
      }
      newline(depth);
      out += ']';
      break;
    }
    case Type::kObject: {
      if (object_.empty()) {
        out += "{}";
        break;
      }
      out += '{';
      bool first = true;
      for (const auto& [key, value] : object_) {
        if (!first) out += ",";
        first = false;
        newline(depth + 1);
        dump_string(out, key);
        out += indent > 0 ? ": " : ":";
        value.dump_to(out, indent, depth + 1);
      }
      newline(depth);
      out += '}';
      break;
    }
  }
}

}  // namespace mlck::util
