#ifndef HEPQUERY_CORE_JSON_H_
#define HEPQUERY_CORE_JSON_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include "core/status.h"

namespace hepq::json {

// Minimal JSON document model + recursive-descent parser, for tooling
// that must read the repo's own machine-readable outputs (BENCH_*.json,
// bench/baselines/*.json, RunReport JSON) without external dependencies,
// and the one streaming Writer every one of those outputs is emitted by.
// Parsed numbers are doubles: the Writer emits doubles as shortest
// round-trip digits, so they parse back bit-exact (integers beyond 2^53
// do not); object key order is preserved.

class JsonValue {
 public:
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

  JsonValue() = default;
  static JsonValue Null() { return JsonValue(); }
  static JsonValue Bool(bool b) {
    JsonValue v;
    v.kind_ = Kind::kBool;
    v.bool_ = b;
    return v;
  }
  static JsonValue Number(double d) {
    JsonValue v;
    v.kind_ = Kind::kNumber;
    v.number_ = d;
    return v;
  }
  static JsonValue String(std::string s) {
    JsonValue v;
    v.kind_ = Kind::kString;
    v.string_ = std::move(s);
    return v;
  }
  static JsonValue Array() {
    JsonValue v;
    v.kind_ = Kind::kArray;
    return v;
  }
  static JsonValue Object() {
    JsonValue v;
    v.kind_ = Kind::kObject;
    return v;
  }

  Kind kind() const { return kind_; }
  bool is_null() const { return kind_ == Kind::kNull; }
  bool is_bool() const { return kind_ == Kind::kBool; }
  bool is_number() const { return kind_ == Kind::kNumber; }
  bool is_string() const { return kind_ == Kind::kString; }
  bool is_array() const { return kind_ == Kind::kArray; }
  bool is_object() const { return kind_ == Kind::kObject; }

  bool bool_value() const { return bool_; }
  double number_value() const { return number_; }
  const std::string& string_value() const { return string_; }
  const std::vector<JsonValue>& array_items() const { return array_; }
  std::vector<JsonValue>& array_items() { return array_; }
  const std::vector<std::pair<std::string, JsonValue>>& object_items() const {
    return object_;
  }
  std::vector<std::pair<std::string, JsonValue>>& object_items() {
    return object_;
  }

  /// Object member lookup (first match); nullptr when absent or not an
  /// object.
  const JsonValue* Find(const std::string& key) const;

 private:
  Kind kind_ = Kind::kNull;
  bool bool_ = false;
  double number_ = 0.0;
  std::string string_;
  std::vector<JsonValue> array_;
  std::vector<std::pair<std::string, JsonValue>> object_;
};

/// Streaming JSON writer: compact (no whitespace), commas managed per
/// open object/array. Callers pair Begin/End calls and give a Key before
/// every value inside an object; Field(key, value) is the shorthand.
/// This file holds the repo's only JSON string escaper and number
/// formatter:
///  - strings: `"` and `\` escaped, control bytes 0x00-0x1f as \b \f \n
///    \r \t or \u00XX, every other byte (UTF-8 or not) copied as is;
///  - integers: exact decimal digits;
///  - doubles: shortest round-trip digits (std::to_chars), so ParseJson
///    gives back the same bits; NaN and +-inf are written as null.
class Writer {
 public:
  Writer& BeginObject() { return Open('{'); }
  Writer& EndObject() { return Close('}'); }
  Writer& BeginArray() { return Open('['); }
  Writer& EndArray() { return Close(']'); }
  Writer& Key(std::string_view key);

  Writer& Value(std::string_view s);
  Writer& Value(const char* s) { return Value(std::string_view(s)); }
  Writer& Value(bool b);
  Writer& Value(double d);
  Writer& Value(int64_t v);
  Writer& Value(uint64_t v);
  template <typename T>
    requires(std::is_integral_v<T> && !std::is_same_v<T, bool>)
  Writer& Value(T v) {
    if constexpr (std::is_signed_v<T>) {
      return Value(static_cast<int64_t>(v));
    } else {
      return Value(static_cast<uint64_t>(v));
    }
  }
  Writer& Null();

  template <typename T>
  Writer& Field(std::string_view key, const T& value) {
    Key(key);
    return Value(value);
  }

  const std::string& str() const { return out_; }
  /// Moves the document out; the writer is not used afterwards.
  std::string Take() { return std::move(out_); }

 private:
  /// Integers exactly, doubles in shortest round-trip digits.
  template <typename T>
  Writer& Number(T v);
  Writer& Open(char c);
  Writer& Close(char c);
  /// Writes the comma owed before a new element of the open container.
  void Separate();
  void Escaped(std::string_view s);

  std::string out_;
  std::vector<bool> first_;  // per open container: no element written yet
  bool after_key_ = false;
};

/// Parses one JSON document (trailing whitespace allowed, nothing else).
/// Errors carry the byte offset of the offending input.
Result<JsonValue> ParseJson(const std::string& text);

/// ParseJson over a file's entire contents.
Result<JsonValue> ParseJsonFile(const std::string& path);

}  // namespace hepq::json

#endif  // HEPQUERY_CORE_JSON_H_
