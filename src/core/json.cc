#include "core/json.h"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace hepq::json {

const JsonValue* JsonValue::Find(const std::string& key) const {
  if (kind_ != Kind::kObject) return nullptr;
  for (const auto& [k, v] : object_) {
    if (k == key) return &v;
  }
  return nullptr;
}

void Writer::Separate() {
  if (after_key_) {
    after_key_ = false;
    return;
  }
  if (first_.empty()) return;
  if (!first_.back()) out_.push_back(',');
  first_.back() = false;
}

Writer& Writer::Open(char c) {
  Separate();
  out_.push_back(c);
  first_.push_back(true);
  return *this;
}

Writer& Writer::Close(char c) {
  first_.pop_back();
  out_.push_back(c);
  return *this;
}

void Writer::Escaped(std::string_view s) {
  out_.push_back('"');
  for (const char c : s) {
    switch (c) {
      case '"': out_ += "\\\""; break;
      case '\\': out_ += "\\\\"; break;
      case '\b': out_ += "\\b"; break;
      case '\f': out_ += "\\f"; break;
      case '\n': out_ += "\\n"; break;
      case '\r': out_ += "\\r"; break;
      case '\t': out_ += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          static constexpr char kHex[] = "0123456789abcdef";
          out_ += "\\u00";
          out_.push_back(kHex[(c >> 4) & 0xF]);
          out_.push_back(kHex[c & 0xF]);
        } else {
          out_.push_back(c);
        }
    }
  }
  out_.push_back('"');
}

Writer& Writer::Key(std::string_view key) {
  Separate();
  Escaped(key);
  out_.push_back(':');
  after_key_ = true;
  return *this;
}

Writer& Writer::Value(std::string_view s) {
  Separate();
  Escaped(s);
  return *this;
}

Writer& Writer::Value(bool b) {
  Separate();
  out_ += b ? "true" : "false";
  return *this;
}

template <typename T>
Writer& Writer::Number(T v) {
  Separate();
  char buf[32];
  out_.append(buf, std::to_chars(buf, buf + sizeof(buf), v).ptr);
  return *this;
}

Writer& Writer::Value(double d) {
  return std::isfinite(d) ? Number(d) : Null();
}
Writer& Writer::Value(int64_t v) { return Number(v); }
Writer& Writer::Value(uint64_t v) { return Number(v); }

Writer& Writer::Null() {
  Separate();
  out_ += "null";
  return *this;
}

namespace {

/// Hand-rolled recursive-descent parser. Depth-capped so adversarial
/// nesting cannot blow the stack.
class Parser {
 public:
  explicit Parser(const std::string& text) : text_(text) {}

  Result<JsonValue> Parse() {
    JsonValue value;
    HEPQ_ASSIGN_OR_RETURN(value, ParseValue(0));
    SkipWhitespace();
    if (pos_ != text_.size()) {
      return Error("trailing characters after JSON document");
    }
    return value;
  }

 private:
  static constexpr int kMaxDepth = 64;

  Status Error(const std::string& what) const {
    return Status::Corruption("JSON parse error at byte " +
                              std::to_string(pos_) + ": " + what);
  }

  void SkipWhitespace() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
      ++pos_;
    }
  }

  bool Consume(char c) {
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  bool ConsumeLiteral(const char* literal) {
    const size_t n = std::strlen(literal);
    if (text_.compare(pos_, n, literal) == 0) {
      pos_ += n;
      return true;
    }
    return false;
  }

  Result<JsonValue> ParseValue(int depth) {
    if (depth > kMaxDepth) return Error("nesting too deep");
    SkipWhitespace();
    if (pos_ >= text_.size()) return Error("unexpected end of input");
    const char c = text_[pos_];
    if (c == '{') return ParseObject(depth);
    if (c == '[') return ParseArray(depth);
    if (c == '"') {
      std::string s;
      HEPQ_ASSIGN_OR_RETURN(s, ParseString());
      return JsonValue::String(std::move(s));
    }
    if (ConsumeLiteral("true")) return JsonValue::Bool(true);
    if (ConsumeLiteral("false")) return JsonValue::Bool(false);
    if (ConsumeLiteral("null")) return JsonValue::Null();
    if (c == '-' || (c >= '0' && c <= '9')) return ParseNumber();
    return Error(std::string("unexpected character '") + c + "'");
  }

  Result<JsonValue> ParseNumber() {
    const char* start = text_.c_str() + pos_;
    char* end = nullptr;
    const double value = std::strtod(start, &end);
    if (end == start) return Error("malformed number");
    pos_ += static_cast<size_t>(end - start);
    return JsonValue::Number(value);
  }

  Result<std::string> ParseString() {
    if (!Consume('"')) return Error("expected '\"'");
    std::string out;
    while (pos_ < text_.size()) {
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (c != '\\') {
        out += c;
        continue;
      }
      if (pos_ >= text_.size()) break;
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
        case 'u': {
          if (pos_ + 4 > text_.size()) return Error("truncated \\u escape");
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = text_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f') code |= static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F') code |= static_cast<unsigned>(h - 'A' + 10);
            else return Error("bad \\u escape digit");
          }
          // BMP-only UTF-8 encoding; surrogate pairs are not needed by
          // any producer in this repo and decode as two replacement-ish
          // code points rather than failing the document.
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
        default:
          return Error(std::string("bad escape '\\") + esc + "'");
      }
    }
    return Error("unterminated string");
  }

  Result<JsonValue> ParseArray(int depth) {
    Consume('[');
    JsonValue array = JsonValue::Array();
    SkipWhitespace();
    if (Consume(']')) return array;
    for (;;) {
      JsonValue item;
      HEPQ_ASSIGN_OR_RETURN(item, ParseValue(depth + 1));
      array.array_items().push_back(std::move(item));
      SkipWhitespace();
      if (Consume(']')) return array;
      if (!Consume(',')) return Error("expected ',' or ']' in array");
    }
  }

  Result<JsonValue> ParseObject(int depth) {
    Consume('{');
    JsonValue object = JsonValue::Object();
    SkipWhitespace();
    if (Consume('}')) return object;
    for (;;) {
      SkipWhitespace();
      std::string key;
      HEPQ_ASSIGN_OR_RETURN(key, ParseString());
      SkipWhitespace();
      if (!Consume(':')) return Error("expected ':' after object key");
      JsonValue value;
      HEPQ_ASSIGN_OR_RETURN(value, ParseValue(depth + 1));
      object.object_items().emplace_back(std::move(key), std::move(value));
      SkipWhitespace();
      if (Consume('}')) return object;
      if (!Consume(',')) return Error("expected ',' or '}' in object");
    }
  }

  const std::string& text_;
  size_t pos_ = 0;
};

}  // namespace

Result<JsonValue> ParseJson(const std::string& text) {
  return Parser(text).Parse();
}

Result<JsonValue> ParseJsonFile(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    return Status::IoError("cannot open '" + path + "' for reading");
  }
  std::string text;
  char buf[1 << 16];
  size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) {
    text.append(buf, n);
  }
  std::fclose(f);
  auto parsed = ParseJson(text);
  if (!parsed.ok()) {
    return Status::Corruption("'" + path +
                              "': " + parsed.status().message());
  }
  return parsed;
}

}  // namespace hepq::json
