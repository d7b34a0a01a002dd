#include "src/util/json.h"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace dx {
namespace {

[[noreturn]] void TypeError(const char* want, Json::Type got) {
  static const char* kNames[] = {"null", "bool", "number", "string", "array",
                                 "object"};
  throw std::runtime_error(std::string("json: expected ") + want + ", got " +
                           kNames[static_cast<int>(got)]);
}

// Whether `json` is an object holding `key` (what the Get* fallbacks test).
bool HasKey(const Json& json, const std::string& key) {
  return json.is_object() && json.AsObject().count(key) > 0;
}

void EscapeTo(const std::string& s, std::string* out) {
  out->push_back('"');
  for (char c : s) {
    switch (c) {
      case '"': *out += "\\\""; break;
      case '\\': *out += "\\\\"; break;
      case '\n': *out += "\\n"; break;
      case '\r': *out += "\\r"; break;
      case '\t': *out += "\\t"; break;
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

// Deepest array/object nesting Parse accepts. The parser recurses once per
// level, so without a cap one hostile line of '[' (e.g. a ctl request)
// would overflow the stack; no wire message comes close to this.
constexpr int kMaxNestingDepth = 256;

class Parser {
 public:
  explicit Parser(const std::string& text) : text_(text) {}

  Json ParseDocument() {
    Json value = ParseValue();
    SkipSpace();
    if (pos_ != text_.size()) {
      Fail("trailing content after document");
    }
    return value;
  }

 private:
  [[noreturn]] void Fail(const std::string& what) {
    throw std::runtime_error("json: " + what + " at offset " +
                             std::to_string(pos_));
  }

  void SkipSpace() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
            text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  char Peek() {
    if (pos_ >= text_.size()) {
      Fail("unexpected end of input");
    }
    return text_[pos_];
  }

  void Expect(char c) {
    if (Peek() != c) {
      Fail(std::string("expected '") + c + "'");
    }
    ++pos_;
  }

  bool Consume(const char* literal) {
    size_t len = std::strlen(literal);
    if (text_.compare(pos_, len, literal) == 0) {
      pos_ += len;
      return true;
    }
    return false;
  }

  Json ParseValue() {
    SkipSpace();
    char c = Peek();
    switch (c) {
      case '{':
      case '[': {
        if (depth_ == kMaxNestingDepth) {
          Fail("nesting deeper than " + std::to_string(kMaxNestingDepth));
        }
        ++depth_;
        Json nested = c == '{' ? ParseObject() : ParseArray();
        --depth_;
        return nested;
      }
      case '"': return Json(ParseString());
      case 't':
        if (Consume("true")) return Json(true);
        Fail("invalid literal");
      case 'f':
        if (Consume("false")) return Json(false);
        Fail("invalid literal");
      case 'n':
        if (Consume("null")) return Json(nullptr);
        Fail("invalid literal");
      default: return ParseNumber();
    }
  }

  Json ParseObject() {
    Expect('{');
    Json obj = Json::Object();
    SkipSpace();
    if (Peek() == '}') {
      ++pos_;
      return obj;
    }
    while (true) {
      SkipSpace();
      std::string key = ParseString();
      SkipSpace();
      Expect(':');
      obj[key] = ParseValue();
      SkipSpace();
      char c = Peek();
      if (c == ',') {
        ++pos_;
        continue;
      }
      if (c == '}') {
        ++pos_;
        return obj;
      }
      Fail("expected ',' or '}' in object");
    }
  }

  Json ParseArray() {
    Expect('[');
    Json arr = Json::Array();
    SkipSpace();
    if (Peek() == ']') {
      ++pos_;
      return arr;
    }
    while (true) {
      arr.Append(ParseValue());
      SkipSpace();
      char c = Peek();
      if (c == ',') {
        ++pos_;
        continue;
      }
      if (c == ']') {
        ++pos_;
        return arr;
      }
      Fail("expected ',' or ']' in array");
    }
  }

  std::string ParseString() {
    Expect('"');
    std::string out;
    while (true) {
      if (pos_ >= text_.size()) {
        Fail("unterminated string");
      }
      char c = text_[pos_++];
      if (c == '"') {
        return out;
      }
      if (c != '\\') {
        out.push_back(c);
        continue;
      }
      if (pos_ >= text_.size()) {
        Fail("unterminated escape");
      }
      char e = text_[pos_++];
      switch (e) {
        case '"': out.push_back('"'); break;
        case '\\': out.push_back('\\'); break;
        case '/': out.push_back('/'); break;
        case 'b': out.push_back('\b'); break;
        case 'f': out.push_back('\f'); break;
        case 'n': out.push_back('\n'); break;
        case 'r': out.push_back('\r'); break;
        case 't': out.push_back('\t'); break;
        case 'u': {
          if (pos_ + 4 > text_.size()) {
            Fail("truncated \\u escape");
          }
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            char h = text_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') {
              code |= static_cast<unsigned>(h - '0');
            } else if (h >= 'a' && h <= 'f') {
              code |= static_cast<unsigned>(h - 'a' + 10);
            } else if (h >= 'A' && h <= 'F') {
              code |= static_cast<unsigned>(h - 'A' + 10);
            } else {
              Fail("invalid hex digit in \\u escape");
            }
          }
          // UTF-8 encode the code point (BMP only; surrogate pairs are not
          // needed by the wire protocol and decode as-is).
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
        default: Fail("invalid escape character");
      }
    }
  }

  Json ParseNumber() {
    size_t start = pos_;
    if (pos_ < text_.size() && text_[pos_] == '-') {
      ++pos_;
    }
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '+' || text_[pos_] == '-')) {
      ++pos_;
    }
    if (pos_ == start) {
      Fail("invalid value");
    }
    const std::string token = text_.substr(start, pos_ - start);
    char* end = nullptr;
    double value = std::strtod(token.c_str(), &end);
    if (end != token.c_str() + token.size()) {
      Fail("invalid number");
    }
    return Json(value);
  }

  const std::string& text_;
  size_t pos_ = 0;
  int depth_ = 0;  // Arrays/objects currently open.
};

void DumpTo(const Json& j, std::string* out) {
  switch (j.type()) {
    case Json::Type::kNull:
      *out += "null";
      break;
    case Json::Type::kBool:
      *out += j.AsBool() ? "true" : "false";
      break;
    case Json::Type::kNumber: {
      double v = j.AsNumber();
      char buf[32];
      if (std::isfinite(v) && v == std::floor(v) && std::fabs(v) < 1e15) {
        std::snprintf(buf, sizeof(buf), "%lld", static_cast<long long>(v));
      } else if (std::isfinite(v)) {
        std::snprintf(buf, sizeof(buf), "%.17g", v);
      } else {
        // JSON has no Inf/NaN; emit null like most encoders.
        std::snprintf(buf, sizeof(buf), "null");
      }
      *out += buf;
      break;
    }
    case Json::Type::kString:
      EscapeTo(j.AsString(), out);
      break;
    case Json::Type::kArray: {
      out->push_back('[');
      bool first = true;
      for (const Json& item : j.AsArray()) {
        if (!first) out->push_back(',');
        first = false;
        DumpTo(item, out);
      }
      out->push_back(']');
      break;
    }
    case Json::Type::kObject: {
      out->push_back('{');
      bool first = true;
      for (const auto& [key, value] : j.AsObject()) {
        if (!first) out->push_back(',');
        first = false;
        EscapeTo(key, out);
        out->push_back(':');
        DumpTo(value, out);
      }
      out->push_back('}');
      break;
    }
  }
}

}  // namespace

bool Json::AsBool() const {
  if (type_ != Type::kBool) TypeError("bool", type_);
  return bool_;
}

double Json::AsNumber() const {
  if (type_ != Type::kNumber) TypeError("number", type_);
  return number_;
}

int64_t Json::AsInt() const {
  // Casting a double outside int64 (or NaN/inf) is undefined, so anything
  // but a finite integral number in [-2^63, 2^63) is a type error too.
  const double v = AsNumber();
  if (!(v >= -0x1p63 && v < 0x1p63) || v != std::trunc(v)) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    throw std::runtime_error(std::string("json: expected an int64 integer, got ") + buf);
  }
  return static_cast<int64_t>(v);
}

const std::string& Json::AsString() const {
  if (type_ != Type::kString) TypeError("string", type_);
  return string_;
}

const std::vector<Json>& Json::AsArray() const {
  if (type_ != Type::kArray) TypeError("array", type_);
  return array_;
}

const std::map<std::string, Json>& Json::AsObject() const {
  if (type_ != Type::kObject) TypeError("object", type_);
  return object_;
}

const Json& Json::At(const std::string& key) const {
  const auto& obj = AsObject();
  auto it = obj.find(key);
  if (it == obj.end()) {
    throw std::runtime_error("json: missing key \"" + key + "\"");
  }
  return it->second;
}

bool Json::GetBool(const std::string& key, bool fallback) const {
  return HasKey(*this, key) ? At(key).AsBool() : fallback;
}

double Json::GetNumber(const std::string& key, double fallback) const {
  return HasKey(*this, key) ? At(key).AsNumber() : fallback;
}

int64_t Json::GetInt(const std::string& key, int64_t fallback) const {
  return HasKey(*this, key) ? At(key).AsInt() : fallback;
}

std::string Json::GetString(const std::string& key,
                            const std::string& fallback) const {
  return HasKey(*this, key) ? At(key).AsString() : fallback;
}

Json& Json::operator[](const std::string& key) {
  if (type_ == Type::kNull) {
    type_ = Type::kObject;
  }
  if (type_ != Type::kObject) TypeError("object", type_);
  return object_[key];
}

void Json::Append(Json value) {
  if (type_ == Type::kNull) {
    type_ = Type::kArray;
  }
  if (type_ != Type::kArray) TypeError("array", type_);
  array_.push_back(std::move(value));
}

std::string Json::Dump() const {
  std::string out;
  DumpTo(*this, &out);
  return out;
}

Json Json::Parse(const std::string& text) {
  Parser parser(text);
  return parser.ParseDocument();
}

}  // namespace dx
