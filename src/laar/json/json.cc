#include "laar/json/json.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>

#include "laar/common/strings.h"

namespace laar::json {

Value Value::Bool(bool b) {
  Value v;
  v.type_ = Type::kBool;
  v.bool_ = b;
  return v;
}

Value Value::Number(double d) {
  Value v;
  v.type_ = Type::kNumber;
  v.number_ = d;
  return v;
}

Value Value::Int(int64_t i) { return Number(static_cast<double>(i)); }

Value Value::String(std::string s) {
  Value v;
  v.type_ = Type::kString;
  v.string_ = std::move(s);
  return v;
}

Value Value::MakeArray() {
  Value v;
  v.type_ = Type::kArray;
  return v;
}

Value Value::MakeObject() {
  Value v;
  v.type_ = Type::kObject;
  return v;
}

Result<bool> Value::AsBool() const {
  if (!is_bool()) return Status::InvalidArgument("JSON value is not a bool");
  return bool_;
}

Result<double> Value::AsDouble() const {
  if (!is_number()) return Status::InvalidArgument("JSON value is not a number");
  return number_;
}

Result<int64_t> Value::AsInt() const {
  if (!is_number()) return Status::InvalidArgument("JSON value is not a number");
  const double rounded = std::nearbyint(number_);
  if (rounded != number_ || std::abs(number_) > 9.007199254740992e15) {
    return Status::InvalidArgument(StrFormat("JSON number %g is not an exact integer", number_));
  }
  return static_cast<int64_t>(rounded);
}

Result<std::string> Value::AsString() const {
  if (!is_string()) return Status::InvalidArgument("JSON value is not a string");
  return string_;
}

Result<const Value*> Value::Get(std::string_view key) const {
  if (!is_object()) return Status::InvalidArgument("JSON value is not an object");
  auto it = object_.find(std::string(key));
  if (it == object_.end()) {
    return Status::NotFound(StrFormat("missing JSON key '%.*s'",
                                      static_cast<int>(key.size()), key.data()));
  }
  return &it->second;
}

const Value& Value::GetOr(std::string_view key, const Value& fallback) const {
  if (!is_object()) return fallback;
  auto it = object_.find(std::string(key));
  return it == object_.end() ? fallback : it->second;
}

bool Value::Has(std::string_view key) const {
  return is_object() && object_.count(std::string(key)) > 0;
}

void Value::Set(std::string key, Value value) {
  if (type_ == Type::kNull) type_ = Type::kObject;
  object_[std::move(key)] = std::move(value);
}

void Value::Append(Value value) {
  if (type_ == Type::kNull) type_ = Type::kArray;
  array_.push_back(std::move(value));
}

namespace {

void EscapeStringTo(const std::string& in, std::string* out) {
  out->push_back('"');
  for (char c : in) {
    switch (c) {
      case '"':
        *out += "\\\"";
        break;
      case '\\':
        *out += "\\\\";
        break;
      case '\n':
        *out += "\\n";
        break;
      case '\r':
        *out += "\\r";
        break;
      case '\t':
        *out += "\\t";
        break;
      case '\b':
        *out += "\\b";
        break;
      case '\f':
        *out += "\\f";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          *out += buf;
        } else {
          out->push_back(c);
        }
    }
  }
  out->push_back('"');
}

void NumberTo(double d, std::string* out) {
  if (d == std::nearbyint(d) && std::abs(d) < 9.007199254740992e15) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%lld", static_cast<long long>(d));
    *out += buf;
  } else {
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", d);
    *out += buf;
  }
}

void Indent(std::string* out, int indent, int depth) {
  if (indent < 0) return;
  out->push_back('\n');
  out->append(static_cast<size_t>(indent * depth), ' ');
}

}  // namespace

void Value::DumpTo(std::string* out, int indent, int depth) const {
  switch (type_) {
    case Type::kNull:
      *out += "null";
      return;
    case Type::kBool:
      *out += bool_ ? "true" : "false";
      return;
    case Type::kNumber:
      NumberTo(number_, out);
      return;
    case Type::kString:
      EscapeStringTo(string_, out);
      return;
    case Type::kArray: {
      if (array_.empty()) {
        *out += "[]";
        return;
      }
      out->push_back('[');
      for (size_t i = 0; i < array_.size(); ++i) {
        if (i > 0) out->push_back(',');
        Indent(out, indent, depth + 1);
        array_[i].DumpTo(out, indent, depth + 1);
      }
      Indent(out, indent, depth);
      out->push_back(']');
      return;
    }
    case Type::kObject: {
      if (object_.empty()) {
        *out += "{}";
        return;
      }
      out->push_back('{');
      bool first = true;
      for (const auto& [key, value] : object_) {
        if (!first) out->push_back(',');
        first = false;
        Indent(out, indent, depth + 1);
        EscapeStringTo(key, out);
        *out += indent < 0 ? ":" : ": ";
        value.DumpTo(out, indent, depth + 1);
      }
      Indent(out, indent, depth);
      out->push_back('}');
      return;
    }
  }
}

std::string Value::Dump(int indent) const {
  std::string out;
  DumpTo(&out, indent, 0);
  return out;
}

namespace {

/// Strict recursive-descent parser over the input string view.
class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  Result<Value> ParseDocument() {
    SkipWhitespace();
    LAAR_ASSIGN_OR_RETURN(Value value, ParseValue(0));
    SkipWhitespace();
    if (pos_ != text_.size()) {
      return Error("trailing characters after JSON document");
    }
    return value;
  }

 private:
  static constexpr int kMaxDepth = 200;

  Status Error(const std::string& what) const {
    return Status::InvalidArgument(StrFormat("JSON parse error at offset %zu: %s", pos_,
                                             what.c_str()));
  }

  void SkipWhitespace() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c == ' ' || c == '\t' || c == '\n' || c == '\r') {
        ++pos_;
      } else {
        break;
      }
    }
  }

  bool Consume(char c) {
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  bool ConsumeLiteral(std::string_view lit) {
    if (text_.substr(pos_, lit.size()) == lit) {
      pos_ += lit.size();
      return true;
    }
    return false;
  }

  Result<Value> ParseValue(int depth) {
    if (depth > kMaxDepth) return Error("nesting too deep");
    if (pos_ >= text_.size()) return Error("unexpected end of input");
    const char c = text_[pos_];
    switch (c) {
      case '{':
        return ParseObject(depth);
      case '[':
        return ParseArray(depth);
      case '"': {
        LAAR_ASSIGN_OR_RETURN(std::string s, ParseString());
        return Value::String(std::move(s));
      }
      case 't':
        if (ConsumeLiteral("true")) return Value::Bool(true);
        return Error("invalid literal");
      case 'f':
        if (ConsumeLiteral("false")) return Value::Bool(false);
        return Error("invalid literal");
      case 'n':
        if (ConsumeLiteral("null")) return Value::Null();
        return Error("invalid literal");
      default:
        return ParseNumber();
    }
  }

  Result<Value> ParseObject(int depth) {
    Consume('{');
    Value obj = Value::MakeObject();
    SkipWhitespace();
    if (Consume('}')) return obj;
    while (true) {
      SkipWhitespace();
      if (pos_ >= text_.size() || text_[pos_] != '"') return Error("expected object key");
      LAAR_ASSIGN_OR_RETURN(std::string key, ParseString());
      SkipWhitespace();
      if (!Consume(':')) return Error("expected ':' after object key");
      SkipWhitespace();
      LAAR_ASSIGN_OR_RETURN(Value value, ParseValue(depth + 1));
      obj.Set(std::move(key), std::move(value));
      SkipWhitespace();
      if (Consume(',')) continue;
      if (Consume('}')) return obj;
      return Error("expected ',' or '}' in object");
    }
  }

  Result<Value> ParseArray(int depth) {
    Consume('[');
    Value arr = Value::MakeArray();
    SkipWhitespace();
    if (Consume(']')) return arr;
    while (true) {
      SkipWhitespace();
      LAAR_ASSIGN_OR_RETURN(Value value, ParseValue(depth + 1));
      arr.Append(std::move(value));
      SkipWhitespace();
      if (Consume(',')) continue;
      if (Consume(']')) return arr;
      return Error("expected ',' or ']' in array");
    }
  }

  Result<std::string> ParseString() {
    Consume('"');
    std::string out;
    while (pos_ < text_.size()) {
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (c == '\\') {
        if (pos_ >= text_.size()) return Error("unterminated escape");
        const char esc = text_[pos_++];
        switch (esc) {
          case '"':
            out.push_back('"');
            break;
          case '\\':
            out.push_back('\\');
            break;
          case '/':
            out.push_back('/');
            break;
          case 'n':
            out.push_back('\n');
            break;
          case 't':
            out.push_back('\t');
            break;
          case 'r':
            out.push_back('\r');
            break;
          case 'b':
            out.push_back('\b');
            break;
          case 'f':
            out.push_back('\f');
            break;
          case 'u': {
            if (pos_ + 4 > text_.size()) return Error("truncated \\u escape");
            unsigned code = 0;
            for (int i = 0; i < 4; ++i) {
              const char h = text_[pos_++];
              code <<= 4;
              if (h >= '0' && h <= '9') {
                code |= static_cast<unsigned>(h - '0');
              } else if (h >= 'a' && h <= 'f') {
                code |= static_cast<unsigned>(h - 'a' + 10);
              } else if (h >= 'A' && h <= 'F') {
                code |= static_cast<unsigned>(h - 'A' + 10);
              } else {
                return Error("invalid \\u escape");
              }
            }
            // UTF-8 encode the BMP code point (surrogate pairs unsupported;
            // strategy files are ASCII in practice).
            if (code < 0x80) {
              out.push_back(static_cast<char>(code));
            } else if (code < 0x800) {
              out.push_back(static_cast<char>(0xC0 | (code >> 6)));
              out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
            } else {
              out.push_back(static_cast<char>(0xE0 | (code >> 12)));
              out.push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
              out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
            }
            break;
          }
          default:
            return Error("invalid escape character");
        }
      } else {
        out.push_back(c);
      }
    }
    return Error("unterminated string");
  }

  Result<Value> ParseNumber() {
    const size_t start = pos_;
    if (Consume('-')) {
    }
    while (pos_ < text_.size() &&
           ((text_[pos_] >= '0' && text_[pos_] <= '9') || text_[pos_] == '.' ||
            text_[pos_] == 'e' || text_[pos_] == 'E' || text_[pos_] == '+' ||
            text_[pos_] == '-')) {
      ++pos_;
    }
    if (pos_ == start) return Error("expected a value");
    const std::string token(text_.substr(start, pos_ - start));
    char* end = nullptr;
    const double value = std::strtod(token.c_str(), &end);
    if (end == nullptr || *end != '\0') return Error("invalid number '" + token + "'");
    // strtod turns an overflowing literal into ∞, which Dump could not
    // write back as JSON.
    if (!std::isfinite(value)) return Error("number '" + token + "' is out of range");
    return Value::Number(value);
  }

  std::string_view text_;
  size_t pos_ = 0;
};

}  // namespace

Result<Value> Parse(std::string_view text) { return Parser(text).ParseDocument(); }

Result<Value> ParseFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::IoError("cannot open " + path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  Result<Value> parsed = Parse(buffer.str());
  if (!parsed.ok()) return parsed.status().WithContext(path);
  return parsed;
}

Status WriteFile(const Value& value, const std::string& path) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) return Status::IoError("cannot open " + path + " for writing");
  out << value.Dump(2) << '\n';
  if (!out.good()) return Status::IoError("failed writing " + path);
  return Status::OK();
}

}  // namespace laar::json
