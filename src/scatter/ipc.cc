#include "scatter/ipc.h"

#include <cstring>

#include "fileio/crc32.h"
#include "obs/metrics.h"

namespace hepq::scatter {

namespace {

// ---- little-endian wire primitives -------------------------------------

void PutU32(std::vector<uint8_t>* out, uint32_t v) {
  for (int i = 0; i < 4; ++i) out->push_back(static_cast<uint8_t>(v >> (8 * i)));
}

void PutU64(std::vector<uint8_t>* out, uint64_t v) {
  for (int i = 0; i < 8; ++i) out->push_back(static_cast<uint8_t>(v >> (8 * i)));
}

void PutI64(std::vector<uint8_t>* out, int64_t v) {
  PutU64(out, static_cast<uint64_t>(v));
}

void PutF64(std::vector<uint8_t>* out, double v) {
  uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  PutU64(out, bits);
}

void PutString(std::vector<uint8_t>* out, const std::string& s) {
  PutU32(out, static_cast<uint32_t>(s.size()));
  out->insert(out->end(), s.begin(), s.end());
}

uint32_t ReadU32(const uint8_t* p) {
  uint32_t v = 0;
  for (int i = 0; i < 4; ++i) v |= static_cast<uint32_t>(p[i]) << (8 * i);
  return v;
}

uint64_t ReadU64(const uint8_t* p) {
  uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v |= static_cast<uint64_t>(p[i]) << (8 * i);
  return v;
}

/// Bounds-checked cursor over a payload; every getter fails with
/// Corruption once the payload runs short.
class WireReader {
 public:
  WireReader(const uint8_t* data, size_t size) : data_(data), size_(size) {}

  Status GetU32(uint32_t* v) {
    HEPQ_RETURN_NOT_OK(Need(4));
    *v = ReadU32(data_ + pos_);
    pos_ += 4;
    return Status::OK();
  }

  Status GetU64(uint64_t* v) {
    HEPQ_RETURN_NOT_OK(Need(8));
    *v = ReadU64(data_ + pos_);
    pos_ += 8;
    return Status::OK();
  }

  Status GetI64(int64_t* v) {
    uint64_t u;
    HEPQ_RETURN_NOT_OK(GetU64(&u));
    *v = static_cast<int64_t>(u);
    return Status::OK();
  }

  Status GetF64(double* v) {
    uint64_t bits;
    HEPQ_RETURN_NOT_OK(GetU64(&bits));
    std::memcpy(v, &bits, sizeof(*v));
    return Status::OK();
  }

  Status GetString(std::string* s) {
    uint32_t len;
    HEPQ_RETURN_NOT_OK(GetU32(&len));
    HEPQ_RETURN_NOT_OK(Need(len));
    s->assign(reinterpret_cast<const char*>(data_ + pos_), len);
    pos_ += len;
    return Status::OK();
  }

  bool exhausted() const { return pos_ == size_; }

 private:
  Status Need(size_t n) {
    if (size_ - pos_ < n) {
      return Status::Corruption("truncated scatter frame payload");
    }
    return Status::OK();
  }

  const uint8_t* data_;
  size_t size_;
  size_t pos_ = 0;
};

constexpr size_t kHeaderSize = 4 + 4 + 4 + 8;  // magic version type len

void PutScanStats(std::vector<uint8_t>* out, const ScanStats& scan) {
  PutU64(out, scan.storage_bytes);
  PutU64(out, scan.encoded_bytes);
  PutU64(out, scan.logical_bytes_bq);
  PutU64(out, scan.ideal_bytes);
  PutU64(out, scan.chunks_read);
  PutU64(out, scan.values_read);
  PutU64(out, scan.decoded_bytes);
  PutU64(out, scan.pages_read);
  PutU64(out, scan.pages_pruned);
  PutU64(out, scan.checksum_bytes);
  PutU64(out, scan.rows_pruned);
  PutU64(out, scan.rows_read);
  PutU64(out, scan.lanes_pruned);
  PutU64(out, scan.groups_pruned);
  PutU64(out, scan.footer_cache_hits);
  PutU64(out, scan.footer_cache_misses);
  PutU64(out, scan.chunk_cache_hits);
  PutU64(out, scan.chunk_cache_misses);
  PutU64(out, scan.cache_bytes_served);
  PutU32(out, static_cast<uint32_t>(scan.leaves.size()));
  for (const LeafScanStats& leaf : scan.leaves) {
    PutString(out, leaf.path);
    PutU64(out, leaf.storage_bytes);
    PutU64(out, leaf.decoded_bytes);
    PutU64(out, leaf.chunks_read);
    PutU64(out, leaf.pages_read);
    PutU64(out, leaf.pages_pruned);
    PutU64(out, leaf.cache_bytes_served);
  }
}

Status GetScanStats(WireReader* in, ScanStats* scan) {
  HEPQ_RETURN_NOT_OK(in->GetU64(&scan->storage_bytes));
  HEPQ_RETURN_NOT_OK(in->GetU64(&scan->encoded_bytes));
  HEPQ_RETURN_NOT_OK(in->GetU64(&scan->logical_bytes_bq));
  HEPQ_RETURN_NOT_OK(in->GetU64(&scan->ideal_bytes));
  HEPQ_RETURN_NOT_OK(in->GetU64(&scan->chunks_read));
  HEPQ_RETURN_NOT_OK(in->GetU64(&scan->values_read));
  HEPQ_RETURN_NOT_OK(in->GetU64(&scan->decoded_bytes));
  HEPQ_RETURN_NOT_OK(in->GetU64(&scan->pages_read));
  HEPQ_RETURN_NOT_OK(in->GetU64(&scan->pages_pruned));
  HEPQ_RETURN_NOT_OK(in->GetU64(&scan->checksum_bytes));
  HEPQ_RETURN_NOT_OK(in->GetU64(&scan->rows_pruned));
  HEPQ_RETURN_NOT_OK(in->GetU64(&scan->rows_read));
  HEPQ_RETURN_NOT_OK(in->GetU64(&scan->lanes_pruned));
  HEPQ_RETURN_NOT_OK(in->GetU64(&scan->groups_pruned));
  HEPQ_RETURN_NOT_OK(in->GetU64(&scan->footer_cache_hits));
  HEPQ_RETURN_NOT_OK(in->GetU64(&scan->footer_cache_misses));
  HEPQ_RETURN_NOT_OK(in->GetU64(&scan->chunk_cache_hits));
  HEPQ_RETURN_NOT_OK(in->GetU64(&scan->chunk_cache_misses));
  HEPQ_RETURN_NOT_OK(in->GetU64(&scan->cache_bytes_served));
  uint32_t num_leaves;
  HEPQ_RETURN_NOT_OK(in->GetU32(&num_leaves));
  scan->leaves.resize(num_leaves);
  for (uint32_t i = 0; i < num_leaves; ++i) {
    LeafScanStats& leaf = scan->leaves[i];
    HEPQ_RETURN_NOT_OK(in->GetString(&leaf.path));
    HEPQ_RETURN_NOT_OK(in->GetU64(&leaf.storage_bytes));
    HEPQ_RETURN_NOT_OK(in->GetU64(&leaf.decoded_bytes));
    HEPQ_RETURN_NOT_OK(in->GetU64(&leaf.chunks_read));
    HEPQ_RETURN_NOT_OK(in->GetU64(&leaf.pages_read));
    HEPQ_RETURN_NOT_OK(in->GetU64(&leaf.pages_pruned));
    HEPQ_RETURN_NOT_OK(in->GetU64(&leaf.cache_bytes_served));
  }
  return Status::OK();
}

}  // namespace

std::vector<uint8_t> EncodeFrame(FrameType type,
                                 const std::vector<uint8_t>& payload) {
  static auto& frames_encoded =
      obs::metrics::GetCounter("hepq_scatter_frames_encoded_total");
  frames_encoded.Add(1);
  std::vector<uint8_t> out;
  out.reserve(kHeaderSize + payload.size() + 4);
  PutU32(&out, kFrameMagic);
  PutU32(&out, kFrameVersion);
  PutU32(&out, static_cast<uint32_t>(type));
  PutU64(&out, payload.size());
  out.insert(out.end(), payload.begin(), payload.end());
  PutU32(&out, Crc32(payload.data(), payload.size()));
  return out;
}

Result<bool> TryParseFrame(const uint8_t* data, size_t size, Frame* frame,
                           size_t* consumed) {
  *consumed = 0;
  if (size < kHeaderSize) return false;
  const uint32_t magic = ReadU32(data);
  if (magic != kFrameMagic) {
    return Status::Corruption("bad scatter frame magic");
  }
  const uint32_t version = ReadU32(data + 4);
  if (version != kFrameVersion) {
    return Status::Invalid("scatter frame version " +
                           std::to_string(version) + ", expected " +
                           std::to_string(kFrameVersion));
  }
  const uint32_t type = ReadU32(data + 8);
  if (type != static_cast<uint32_t>(FrameType::kFragment) &&
      type != static_cast<uint32_t>(FrameType::kDone) &&
      type != static_cast<uint32_t>(FrameType::kError) &&
      type != static_cast<uint32_t>(FrameType::kReport)) {
    return Status::Corruption("unknown scatter frame type " +
                              std::to_string(type));
  }
  const uint64_t payload_len = ReadU64(data + 12);
  if (payload_len > kMaxFramePayload) {
    return Status::Corruption("scatter frame payload length " +
                              std::to_string(payload_len) +
                              " exceeds the 1 GiB bound");
  }
  const size_t total = kHeaderSize + static_cast<size_t>(payload_len) + 4;
  if (size < total) return false;
  const uint8_t* payload = data + kHeaderSize;
  const uint32_t crc = ReadU32(payload + payload_len);
  if (crc != Crc32(payload, static_cast<size_t>(payload_len))) {
    static auto& crc_failures =
        obs::metrics::GetCounter("hepq_scatter_crc_failures_total");
    crc_failures.Add(1);
    return Status::Corruption("scatter frame CRC mismatch");
  }
  static auto& frames_parsed =
      obs::metrics::GetCounter("hepq_scatter_frames_parsed_total");
  frames_parsed.Add(1);
  frame->type = static_cast<FrameType>(type);
  frame->payload.assign(payload, payload + payload_len);
  *consumed = total;
  return true;
}

std::vector<uint8_t> EncodeFragmentPayload(const ShardFragment& fragment) {
  std::vector<uint8_t> out;
  PutU32(&out, static_cast<uint32_t>(fragment.file_index));
  const queries::QueryRunOutput& o = fragment.output;
  PutI64(&out, o.events_processed);
  PutF64(&out, o.wall_seconds);
  PutF64(&out, o.cpu_seconds);
  PutU64(&out, o.ops);
  PutScanStats(&out, o.scan);
  PutU32(&out, static_cast<uint32_t>(o.histograms.size()));
  for (const Histogram1D& h : o.histograms) {
    const HistogramParts parts = h.ToParts();
    PutString(&out, parts.spec.name);
    PutString(&out, parts.spec.title);
    PutU32(&out, static_cast<uint32_t>(parts.spec.num_bins));
    PutF64(&out, parts.spec.lo);
    PutF64(&out, parts.spec.hi);
    PutU32(&out, static_cast<uint32_t>(parts.bins.size()));
    for (double bin : parts.bins) PutF64(&out, bin);
    PutF64(&out, parts.underflow);
    PutF64(&out, parts.overflow);
    PutU64(&out, parts.num_entries);
    PutF64(&out, parts.sum_w);
    PutF64(&out, parts.sum_wx);
    PutF64(&out, parts.sum_wx2);
  }
  return out;
}

Result<ShardFragment> DecodeFragmentPayload(
    const std::vector<uint8_t>& payload) {
  WireReader in(payload.data(), payload.size());
  ShardFragment fragment;
  uint32_t file_index;
  HEPQ_RETURN_NOT_OK(in.GetU32(&file_index));
  fragment.file_index = static_cast<int>(file_index);
  queries::QueryRunOutput& o = fragment.output;
  HEPQ_RETURN_NOT_OK(in.GetI64(&o.events_processed));
  HEPQ_RETURN_NOT_OK(in.GetF64(&o.wall_seconds));
  HEPQ_RETURN_NOT_OK(in.GetF64(&o.cpu_seconds));
  HEPQ_RETURN_NOT_OK(in.GetU64(&o.ops));
  HEPQ_RETURN_NOT_OK(GetScanStats(&in, &o.scan));
  uint32_t num_histos;
  HEPQ_RETURN_NOT_OK(in.GetU32(&num_histos));
  o.histograms.reserve(num_histos);
  for (uint32_t h = 0; h < num_histos; ++h) {
    HistogramParts parts;
    HEPQ_RETURN_NOT_OK(in.GetString(&parts.spec.name));
    HEPQ_RETURN_NOT_OK(in.GetString(&parts.spec.title));
    uint32_t num_bins;
    HEPQ_RETURN_NOT_OK(in.GetU32(&num_bins));
    parts.spec.num_bins = static_cast<int>(num_bins);
    HEPQ_RETURN_NOT_OK(in.GetF64(&parts.spec.lo));
    HEPQ_RETURN_NOT_OK(in.GetF64(&parts.spec.hi));
    uint32_t bin_count;
    HEPQ_RETURN_NOT_OK(in.GetU32(&bin_count));
    parts.bins.resize(bin_count);
    for (uint32_t b = 0; b < bin_count; ++b) {
      HEPQ_RETURN_NOT_OK(in.GetF64(&parts.bins[b]));
    }
    HEPQ_RETURN_NOT_OK(in.GetF64(&parts.underflow));
    HEPQ_RETURN_NOT_OK(in.GetF64(&parts.overflow));
    HEPQ_RETURN_NOT_OK(in.GetU64(&parts.num_entries));
    HEPQ_RETURN_NOT_OK(in.GetF64(&parts.sum_w));
    HEPQ_RETURN_NOT_OK(in.GetF64(&parts.sum_wx));
    HEPQ_RETURN_NOT_OK(in.GetF64(&parts.sum_wx2));
    Histogram1D histo;
    HEPQ_ASSIGN_OR_RETURN(histo, Histogram1D::FromParts(parts));
    o.histograms.push_back(std::move(histo));
  }
  if (!in.exhausted()) {
    return Status::Corruption("scatter fragment payload has trailing bytes");
  }
  return fragment;
}

std::vector<uint8_t> EncodeErrorPayload(int file_index,
                                        const std::string& message) {
  std::vector<uint8_t> out;
  PutU32(&out, static_cast<uint32_t>(file_index));
  PutString(&out, message);
  return out;
}

Status DecodeErrorPayload(const std::vector<uint8_t>& payload,
                          int* file_index, std::string* message) {
  WireReader in(payload.data(), payload.size());
  uint32_t index;
  HEPQ_RETURN_NOT_OK(in.GetU32(&index));
  *file_index = static_cast<int>(index);
  return in.GetString(message);
}

std::vector<uint8_t> EncodeDonePayload(int num_fragments) {
  std::vector<uint8_t> out;
  PutU32(&out, static_cast<uint32_t>(num_fragments));
  return out;
}

Status DecodeDonePayload(const std::vector<uint8_t>& payload,
                         int* num_fragments) {
  WireReader in(payload.data(), payload.size());
  uint32_t n;
  HEPQ_RETURN_NOT_OK(in.GetU32(&n));
  *num_fragments = static_cast<int>(n);
  return Status::OK();
}

namespace {

void PutI32(std::vector<uint8_t>* out, int32_t v) {
  PutU32(out, static_cast<uint32_t>(v));
}

Status GetI32(WireReader* in, int32_t* v) {
  uint32_t u;
  HEPQ_RETURN_NOT_OK(in->GetU32(&u));
  *v = static_cast<int32_t>(u);
  return Status::OK();
}

Status GetStage(WireReader* in, obs::Stage* stage) {
  uint32_t raw;
  HEPQ_RETURN_NOT_OK(in->GetU32(&raw));
  if (raw >= static_cast<uint32_t>(obs::kNumStages)) {
    return Status::Corruption("scatter report names an unknown stage");
  }
  *stage = static_cast<obs::Stage>(raw);
  return Status::OK();
}

}  // namespace

std::vector<uint8_t> EncodeReportPayload(const obs::ProcessReport& report) {
  std::vector<uint8_t> out;
  const obs::RunReport& r = report.report;
  PutU32(&out, static_cast<uint32_t>(report.shard_begin));
  PutU32(&out, static_cast<uint32_t>(report.shard_end));
  PutI64(&out, report.session_start_ns);
  PutI64(&out, report.session_stop_ns);
  PutString(&out, r.info.query);
  PutString(&out, r.info.engine);
  PutU32(&out, static_cast<uint32_t>(r.info.threads));
  PutI64(&out, r.info.events_processed);
  PutF64(&out, r.info.wall_seconds);
  PutF64(&out, r.info.cpu_seconds);
  PutScanStats(&out, r.scan);
  PutI64(&out, r.run_span_ns);
  PutI64(&out, r.total_span_ns);
  PutI64(&out, r.window_ns);
  PutU32(&out, static_cast<uint32_t>(r.stages.size()));
  for (const obs::StageSummary& stage : r.stages) {
    PutU32(&out, static_cast<uint32_t>(stage.stage));
    PutI64(&out, stage.wall_ns);
    PutI64(&out, stage.cpu_ns);
    PutU64(&out, stage.bytes);
    PutU64(&out, stage.count);
  }
  PutU32(&out, static_cast<uint32_t>(r.workers.size()));
  for (const obs::WorkerSummary& worker : r.workers) {
    PutI32(&out, worker.worker);
    PutI64(&out, worker.busy_ns);
    PutI64(&out, worker.idle_ns);
    PutF64(&out, worker.busy_fraction);
    PutI64(&out, worker.row_groups);
    PutI64(&out, worker.max_queue_ns);
    PutI32(&out, worker.max_queue_group);
    PutU32(&out, worker.timeline_truncated ? 1 : 0);
    PutU32(&out, static_cast<uint32_t>(worker.timeline.size()));
    for (const auto& entry : worker.timeline) {
      PutI32(&out, entry.group);
      PutI32(&out, entry.slot);
      PutI64(&out, entry.start_ns);
      PutI64(&out, entry.dur_ns);
      PutI64(&out, entry.queue_ns);
      PutU64(&out, entry.bytes);
    }
  }
  PutU32(&out, static_cast<uint32_t>(r.stragglers.size()));
  for (const obs::Straggler& straggler : r.stragglers) {
    PutI32(&out, straggler.group);
    PutI32(&out, straggler.worker);
    PutI32(&out, straggler.slot);
    PutI64(&out, straggler.wall_ns);
    PutU64(&out, straggler.bytes);
  }
  PutU32(&out, static_cast<uint32_t>(r.counters.size()));
  for (const obs::CounterSummary& counter : r.counters) {
    PutString(&out, counter.name);
    PutU32(&out, static_cast<uint32_t>(counter.stage));
    PutI64(&out, counter.ns);
    PutU64(&out, counter.count);
    PutU64(&out, counter.bytes);
  }
  PutU32(&out, static_cast<uint32_t>(r.metrics.size()));
  for (const obs::metrics::MetricSample& sample : r.metrics) {
    PutString(&out, sample.name);
    PutU32(&out, static_cast<uint32_t>(sample.kind));
    PutI64(&out, sample.value);
    PutU32(&out, static_cast<uint32_t>(sample.buckets.size()));
    for (uint64_t bucket : sample.buckets) PutU64(&out, bucket);
    PutU64(&out, sample.observations);
    PutI64(&out, sample.sum_ns);
  }
  // Span name table + spans. Distinct span names are few (one literal per
  // instrument site), so the table keeps the frame compact.
  std::vector<const char*> names;
  std::vector<uint32_t> name_index(report.spans.size());
  for (size_t i = 0; i < report.spans.size(); ++i) {
    const char* name = report.spans[i].name;
    uint32_t index = 0;
    for (; index < names.size(); ++index) {
      if (std::strcmp(names[index], name) == 0) break;
    }
    if (index == names.size()) names.push_back(name);
    name_index[i] = index;
  }
  PutU32(&out, static_cast<uint32_t>(names.size()));
  for (const char* name : names) PutString(&out, name);
  PutU32(&out, static_cast<uint32_t>(report.spans.size()));
  for (size_t i = 0; i < report.spans.size(); ++i) {
    const obs::SpanRecord& span = report.spans[i];
    PutU32(&out, name_index[i]);
    PutU32(&out, static_cast<uint32_t>(span.stage));
    PutU32(&out, span.depth);
    PutU32(&out, span.thread_index);
    PutU32(&out, span.seq);
    PutI64(&out, span.start_ns);
    PutI64(&out, span.end_ns);
    PutI64(&out, span.cpu_ns);
    PutI64(&out, span.queue_ns);
    PutU64(&out, span.bytes);
    PutI32(&out, span.worker);
    PutI32(&out, span.group);
    PutI32(&out, span.slot);
    PutI32(&out, span.leaf);
  }
  return out;
}

Result<obs::ProcessReport> DecodeReportPayload(
    const std::vector<uint8_t>& payload) {
  WireReader in(payload.data(), payload.size());
  obs::ProcessReport report;
  obs::RunReport& r = report.report;
  uint32_t shard_begin, shard_end;
  HEPQ_RETURN_NOT_OK(in.GetU32(&shard_begin));
  HEPQ_RETURN_NOT_OK(in.GetU32(&shard_end));
  report.shard_begin = static_cast<int>(shard_begin);
  report.shard_end = static_cast<int>(shard_end);
  HEPQ_RETURN_NOT_OK(in.GetI64(&report.session_start_ns));
  HEPQ_RETURN_NOT_OK(in.GetI64(&report.session_stop_ns));
  HEPQ_RETURN_NOT_OK(in.GetString(&r.info.query));
  HEPQ_RETURN_NOT_OK(in.GetString(&r.info.engine));
  uint32_t threads;
  HEPQ_RETURN_NOT_OK(in.GetU32(&threads));
  r.info.threads = static_cast<int>(threads);
  HEPQ_RETURN_NOT_OK(in.GetI64(&r.info.events_processed));
  HEPQ_RETURN_NOT_OK(in.GetF64(&r.info.wall_seconds));
  HEPQ_RETURN_NOT_OK(in.GetF64(&r.info.cpu_seconds));
  HEPQ_RETURN_NOT_OK(GetScanStats(&in, &r.scan));
  HEPQ_RETURN_NOT_OK(in.GetI64(&r.run_span_ns));
  HEPQ_RETURN_NOT_OK(in.GetI64(&r.total_span_ns));
  HEPQ_RETURN_NOT_OK(in.GetI64(&r.window_ns));
  uint32_t num_stages;
  HEPQ_RETURN_NOT_OK(in.GetU32(&num_stages));
  for (uint32_t i = 0; i < num_stages; ++i) {
    obs::StageSummary stage;
    HEPQ_RETURN_NOT_OK(GetStage(&in, &stage.stage));
    HEPQ_RETURN_NOT_OK(in.GetI64(&stage.wall_ns));
    HEPQ_RETURN_NOT_OK(in.GetI64(&stage.cpu_ns));
    HEPQ_RETURN_NOT_OK(in.GetU64(&stage.bytes));
    HEPQ_RETURN_NOT_OK(in.GetU64(&stage.count));
    r.stages.push_back(stage);
  }
  uint32_t num_workers;
  HEPQ_RETURN_NOT_OK(in.GetU32(&num_workers));
  for (uint32_t i = 0; i < num_workers; ++i) {
    obs::WorkerSummary worker;
    HEPQ_RETURN_NOT_OK(GetI32(&in, &worker.worker));
    HEPQ_RETURN_NOT_OK(in.GetI64(&worker.busy_ns));
    HEPQ_RETURN_NOT_OK(in.GetI64(&worker.idle_ns));
    HEPQ_RETURN_NOT_OK(in.GetF64(&worker.busy_fraction));
    HEPQ_RETURN_NOT_OK(in.GetI64(&worker.row_groups));
    HEPQ_RETURN_NOT_OK(in.GetI64(&worker.max_queue_ns));
    HEPQ_RETURN_NOT_OK(GetI32(&in, &worker.max_queue_group));
    uint32_t truncated;
    HEPQ_RETURN_NOT_OK(in.GetU32(&truncated));
    worker.timeline_truncated = truncated != 0;
    uint32_t num_entries;
    HEPQ_RETURN_NOT_OK(in.GetU32(&num_entries));
    for (uint32_t e = 0; e < num_entries; ++e) {
      obs::WorkerSummary::TimelineEntry entry;
      HEPQ_RETURN_NOT_OK(GetI32(&in, &entry.group));
      HEPQ_RETURN_NOT_OK(GetI32(&in, &entry.slot));
      HEPQ_RETURN_NOT_OK(in.GetI64(&entry.start_ns));
      HEPQ_RETURN_NOT_OK(in.GetI64(&entry.dur_ns));
      HEPQ_RETURN_NOT_OK(in.GetI64(&entry.queue_ns));
      HEPQ_RETURN_NOT_OK(in.GetU64(&entry.bytes));
      worker.timeline.push_back(entry);
    }
    r.workers.push_back(std::move(worker));
  }
  uint32_t num_stragglers;
  HEPQ_RETURN_NOT_OK(in.GetU32(&num_stragglers));
  for (uint32_t i = 0; i < num_stragglers; ++i) {
    obs::Straggler straggler;
    HEPQ_RETURN_NOT_OK(GetI32(&in, &straggler.group));
    HEPQ_RETURN_NOT_OK(GetI32(&in, &straggler.worker));
    HEPQ_RETURN_NOT_OK(GetI32(&in, &straggler.slot));
    HEPQ_RETURN_NOT_OK(in.GetI64(&straggler.wall_ns));
    HEPQ_RETURN_NOT_OK(in.GetU64(&straggler.bytes));
    r.stragglers.push_back(straggler);
  }
  uint32_t num_counters;
  HEPQ_RETURN_NOT_OK(in.GetU32(&num_counters));
  for (uint32_t i = 0; i < num_counters; ++i) {
    obs::CounterSummary counter;
    HEPQ_RETURN_NOT_OK(in.GetString(&counter.name));
    HEPQ_RETURN_NOT_OK(GetStage(&in, &counter.stage));
    HEPQ_RETURN_NOT_OK(in.GetI64(&counter.ns));
    HEPQ_RETURN_NOT_OK(in.GetU64(&counter.count));
    HEPQ_RETURN_NOT_OK(in.GetU64(&counter.bytes));
    r.counters.push_back(std::move(counter));
  }
  uint32_t num_metrics;
  HEPQ_RETURN_NOT_OK(in.GetU32(&num_metrics));
  for (uint32_t i = 0; i < num_metrics; ++i) {
    obs::metrics::MetricSample sample;
    HEPQ_RETURN_NOT_OK(in.GetString(&sample.name));
    uint32_t kind;
    HEPQ_RETURN_NOT_OK(in.GetU32(&kind));
    if (kind > static_cast<uint32_t>(obs::metrics::MetricKind::kHistogram)) {
      return Status::Corruption("scatter report names an unknown metric kind");
    }
    sample.kind = static_cast<obs::metrics::MetricKind>(kind);
    HEPQ_RETURN_NOT_OK(in.GetI64(&sample.value));
    uint32_t num_buckets;
    HEPQ_RETURN_NOT_OK(in.GetU32(&num_buckets));
    for (uint32_t b = 0; b < num_buckets; ++b) {
      uint64_t bucket;
      HEPQ_RETURN_NOT_OK(in.GetU64(&bucket));
      sample.buckets.push_back(bucket);
    }
    HEPQ_RETURN_NOT_OK(in.GetU64(&sample.observations));
    HEPQ_RETURN_NOT_OK(in.GetI64(&sample.sum_ns));
    r.metrics.push_back(std::move(sample));
  }
  uint32_t num_names;
  HEPQ_RETURN_NOT_OK(in.GetU32(&num_names));
  std::vector<const char*> names;
  for (uint32_t i = 0; i < num_names; ++i) {
    std::string name;
    HEPQ_RETURN_NOT_OK(in.GetString(&name));
    names.push_back(report.InternName(name));
  }
  uint32_t num_spans;
  HEPQ_RETURN_NOT_OK(in.GetU32(&num_spans));
  for (uint32_t i = 0; i < num_spans; ++i) {
    obs::SpanRecord span;
    uint32_t name_index;
    HEPQ_RETURN_NOT_OK(in.GetU32(&name_index));
    if (name_index >= names.size()) {
      return Status::Corruption("scatter report span names a bad name index");
    }
    span.name = names[name_index];
    HEPQ_RETURN_NOT_OK(GetStage(&in, &span.stage));
    uint32_t depth, thread_index;
    HEPQ_RETURN_NOT_OK(in.GetU32(&depth));
    span.depth = static_cast<uint8_t>(depth);
    HEPQ_RETURN_NOT_OK(in.GetU32(&thread_index));
    span.thread_index = static_cast<uint16_t>(thread_index);
    HEPQ_RETURN_NOT_OK(in.GetU32(&span.seq));
    HEPQ_RETURN_NOT_OK(in.GetI64(&span.start_ns));
    HEPQ_RETURN_NOT_OK(in.GetI64(&span.end_ns));
    HEPQ_RETURN_NOT_OK(in.GetI64(&span.cpu_ns));
    HEPQ_RETURN_NOT_OK(in.GetI64(&span.queue_ns));
    HEPQ_RETURN_NOT_OK(in.GetU64(&span.bytes));
    HEPQ_RETURN_NOT_OK(GetI32(&in, &span.worker));
    HEPQ_RETURN_NOT_OK(GetI32(&in, &span.group));
    HEPQ_RETURN_NOT_OK(GetI32(&in, &span.slot));
    HEPQ_RETURN_NOT_OK(GetI32(&in, &span.leaf));
    report.spans.push_back(span);
  }
  if (!in.exhausted()) {
    return Status::Corruption("scatter report payload has trailing bytes");
  }
  return report;
}

}  // namespace hepq::scatter
