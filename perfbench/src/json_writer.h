#ifndef PERFBENCH_JSON_WRITER_H_
#define PERFBENCH_JSON_WRITER_H_

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// Streaming JSON writer with full string escaping. Commas are inserted
/// automatically; callers pair Begin/End calls and give a Key before every
/// value inside an object. Numbers are written with 17 significant digits
/// so they round-trip; a non-finite number is written as null (the output
/// validator then rejects it by name).
class JsonWriter {
 public:
  void BeginObject() { Open('{'); }
  void EndObject() { Close('}'); }
  void BeginArray() { Open('['); }
  void EndArray() { Close(']'); }

  void Key(const std::string& key);
  void String(const std::string& value);
  void Number(double value);
  void Int(int64_t value);
  void Bool(bool value);

  const std::string& str() const { return out_; }

 private:
  void Open(char c);
  void Close(char c);
  void Separate();
  void AppendEscaped(const std::string& s);

  std::string out_;
  std::vector<bool> first_;  // per open container: no element written yet
  bool after_key_ = false;
};

}  // namespace perfbench

#endif  // PERFBENCH_JSON_WRITER_H_
