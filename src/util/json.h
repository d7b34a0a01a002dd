#ifndef DX_UTIL_JSON_H_
#define DX_UTIL_JSON_H_

#include <cstdint>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

namespace dx {

// Minimal JSON document model for the service wire protocol. Objects keep
// their keys sorted (std::map) so Dump() output is deterministic, which the
// bit-identity tests rely on when diffing daemon responses.
class Json {
 public:
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };

  Json() : type_(Type::kNull) {}
  Json(std::nullptr_t) : type_(Type::kNull) {}
  Json(bool value) : type_(Type::kBool), bool_(value) {}
  Json(double value) : type_(Type::kNumber), number_(value) {}
  Json(int value) : type_(Type::kNumber), number_(value) {}
  Json(int64_t value) : type_(Type::kNumber), number_(static_cast<double>(value)) {}
  Json(uint64_t value) : type_(Type::kNumber), number_(static_cast<double>(value)) {}
  Json(const char* value) : type_(Type::kString), string_(value) {}
  Json(std::string value) : type_(Type::kString), string_(std::move(value)) {}

  static Json Array() {
    Json j;
    j.type_ = Type::kArray;
    return j;
  }
  static Json Object() {
    Json j;
    j.type_ = Type::kObject;
    return j;
  }

  Type type() const { return type_; }
  bool is_null() const { return type_ == Type::kNull; }
  bool is_bool() const { return type_ == Type::kBool; }
  bool is_number() const { return type_ == Type::kNumber; }
  bool is_string() const { return type_ == Type::kString; }
  bool is_array() const { return type_ == Type::kArray; }
  bool is_object() const { return type_ == Type::kObject; }

  // Typed accessors throw std::runtime_error on type mismatch: the daemon
  // turns that into a malformed-request error reply. AsInt also throws on a
  // number that is not integral or does not fit in int64.
  bool AsBool() const;
  double AsNumber() const;
  int64_t AsInt() const;
  const std::string& AsString() const;
  const std::vector<Json>& AsArray() const;
  const std::map<std::string, Json>& AsObject() const;

  // Object helpers.
  const Json& At(const std::string& key) const;  // throws if absent
  // Lookup with fallback for optional request fields.
  bool GetBool(const std::string& key, bool fallback) const;
  double GetNumber(const std::string& key, double fallback) const;
  int64_t GetInt(const std::string& key, int64_t fallback) const;
  std::string GetString(const std::string& key, const std::string& fallback) const;

  Json& operator[](const std::string& key);  // object insert/lookup
  void Append(Json value);                   // array push_back

  // Compact single-line serialization (no whitespace). Numbers that hold an
  // exact integer print without a decimal point; others use max precision so
  // round-tripped doubles are bit-exact.
  std::string Dump() const;

  // Throws std::runtime_error (with position) on malformed input. Trailing
  // content after the document is an error.
  static Json Parse(const std::string& text);

 private:
  Type type_;
  bool bool_ = false;
  double number_ = 0.0;
  std::string string_;
  std::vector<Json> array_;
  std::map<std::string, Json> object_;
};

}  // namespace dx

#endif  // DX_UTIL_JSON_H_
