#include "json_writer.h"

#include <cmath>
#include <cstdio>

namespace perfbench {

void JsonWriter::Separate() {
  if (after_key_) {
    after_key_ = false;
    return;
  }
  if (!first_.empty()) {
    if (!first_.back()) out_ += ',';
    first_.back() = false;
  }
}

void JsonWriter::Open(char c) {
  Separate();
  out_ += c;
  first_.push_back(true);
}

void JsonWriter::Close(char c) {
  first_.pop_back();
  out_ += c;
}

void JsonWriter::Key(const std::string& key) {
  Separate();
  AppendEscaped(key);
  out_ += ':';
  after_key_ = true;
}

void JsonWriter::String(const std::string& value) {
  Separate();
  AppendEscaped(value);
}

void JsonWriter::Number(double value) {
  Separate();
  if (!std::isfinite(value)) {
    out_ += "null";
    return;
  }
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  out_ += buf;
}

void JsonWriter::Int(int64_t value) {
  Separate();
  out_ += std::to_string(value);
}

void JsonWriter::Bool(bool value) {
  Separate();
  out_ += value ? "true" : "false";
}

void JsonWriter::AppendEscaped(const std::string& s) {
  out_ += '"';
  for (const char ch : s) {
    const unsigned char c = static_cast<unsigned char>(ch);
    switch (c) {
      case '"': out_ += "\\\""; break;
      case '\\': out_ += "\\\\"; break;
      case '\b': out_ += "\\b"; break;
      case '\f': out_ += "\\f"; break;
      case '\n': out_ += "\\n"; break;
      case '\r': out_ += "\\r"; break;
      case '\t': out_ += "\\t"; break;
      default:
        if (c < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out_ += buf;
        } else {
          out_ += ch;
        }
    }
  }
  out_ += '"';
}

}  // namespace perfbench
