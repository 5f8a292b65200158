#include "trace.h"

#include <chrono>

#include "json_writer.h"

namespace perfbench {

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

int Tracer::Begin(const char* name, int64_t exec) {
  if (!enabled_) return -1;
  Span span;
  span.name = name;
  span.parent = open_.empty() ? -1 : open_.back();
  span.exec = exec;
  span.start_ns = NowNs();
  spans_.push_back(std::move(span));
  const int id = static_cast<int>(spans_.size()) - 1;
  open_.push_back(id);
  return id;
}

void Tracer::End(int id, uint64_t bytes) {
  if (id < 0) return;
  Span& span = spans_[static_cast<size_t>(id)];
  span.end_ns = NowNs();
  span.bytes = bytes;
  // Spans close in LIFO order (RAII), so the innermost open span is `id`.
  if (!open_.empty() && open_.back() == id) open_.pop_back();
}

std::unordered_map<int64_t, double> Tracer::SecondsByExec(
    const std::string& name) const {
  std::unordered_map<int64_t, double> out;
  for (const Span& s : spans_) {
    if (s.name == name) out[s.exec] += s.seconds();
  }
  return out;
}

double Tracer::TotalSeconds(const std::string& name) const {
  double total = 0.0;
  for (const Span& s : spans_) {
    if (s.name == name) total += s.seconds();
  }
  return total;
}

uint64_t Tracer::TotalBytes(const std::string& name) const {
  uint64_t total = 0;
  for (const Span& s : spans_) {
    if (s.name == name) total += s.bytes;
  }
  return total;
}

size_t Tracer::Count(const std::string& name) const {
  size_t n = 0;
  for (const Span& s : spans_) n += s.name == name ? 1 : 0;
  return n;
}

double Tracer::SelfSecondsTotal() const {
  std::vector<double> child_seconds(spans_.size(), 0.0);
  for (const Span& s : spans_) {
    if (s.parent >= 0) {
      child_seconds[static_cast<size_t>(s.parent)] += s.seconds();
    }
  }
  double total = 0.0;
  for (size_t i = 0; i < spans_.size(); ++i) {
    total += spans_[i].seconds() - child_seconds[i];
  }
  return total;
}

std::string Tracer::ChromeTraceJson() const {
  const int64_t epoch = spans_.empty() ? 0 : spans_.front().start_ns;
  JsonWriter w;
  w.BeginObject();
  w.Key("displayTimeUnit");
  w.String("ms");
  w.Key("traceEvents");
  w.BeginArray();
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    w.BeginObject();
    w.Key("name");
    w.String(s.name);
    w.Key("ph");
    w.String("X");
    w.Key("pid");
    w.Int(1);
    w.Key("tid");
    w.Int(1);
    w.Key("ts");
    w.Number((s.start_ns - epoch) * 1e-3);
    w.Key("dur");
    w.Number((s.end_ns - s.start_ns) * 1e-3);
    w.Key("args");
    w.BeginObject();
    w.Key("id");
    w.Int(static_cast<int64_t>(i));
    w.Key("parent");
    w.Int(s.parent);
    w.Key("exec");
    w.Int(s.exec);
    w.Key("bytes");
    w.Int(static_cast<int64_t>(s.bytes));
    w.EndObject();
    w.EndObject();
  }
  w.EndArray();
  w.EndObject();
  return w.str();
}

}  // namespace perfbench
