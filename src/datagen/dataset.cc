#include "datagen/dataset.h"

#include <sys/stat.h>

#include <cstdio>
#include <cstdlib>

#include "fileio/reader.h"

namespace hepq {

std::string DatasetSpec::FileName() const {
  char buf[128];
  std::snprintf(buf, sizeof(buf), "cms_%lldev_%lldrg_s%llu_%s.laq",
                static_cast<long long>(num_events),
                static_cast<long long>(row_group_size),
                static_cast<unsigned long long>(seed), CodecName(codec));
  return buf;
}

std::string DefaultDataDir() {
  const char* env = std::getenv("HEPQ_DATA_DIR");
  if (env != nullptr && env[0] != '\0') return env;
  return "hepq_data";
}

namespace {

bool FileExists(const std::string& path) {
  struct stat st {};
  return ::stat(path.c_str(), &st) == 0 && S_ISREG(st.st_mode);
}

/// True when `path` opens as a laq file (magics, footer CRC, metadata
/// validation) holding `num_rows` rows. A file from an older format, a
/// truncated write or stray bytes under the canonical name fails this
/// and is regenerated instead of reused. The footer cache stays out of
/// it so the check leaves no process-wide state behind.
bool ReusableDataset(const std::string& path, int64_t num_rows) {
  if (!FileExists(path)) return false;
  ReaderOptions options;
  options.footer_cache = false;
  auto reader = LaqReader::Open(path, std::move(options));
  return reader.ok() && (*reader)->total_rows() == num_rows;
}

}  // namespace

Result<std::string> EnsureDataset(const std::string& directory,
                                  const DatasetSpec& spec) {
  if (::mkdir(directory.c_str(), 0755) != 0 && errno != EEXIST) {
    return Status::IoError("cannot create data directory '" + directory +
                           "'");
  }
  const std::string path = directory + "/" + spec.FileName();
  if (ReusableDataset(path, spec.num_events)) return path;

  GeneratorConfig config;
  config.seed = spec.seed;
  EventGenerator generator(config);
  WriterOptions options;
  options.row_group_size = spec.row_group_size;
  options.codec = spec.codec;

  // Write to a temporary name first so interrupted runs never leave a
  // half-written file under the canonical name.
  const std::string tmp_path = path + ".tmp";
  std::unique_ptr<LaqWriter> writer;
  HEPQ_ASSIGN_OR_RETURN(
      writer, LaqWriter::Open(tmp_path, EventGenerator::CmsSchema(), options));
  int64_t remaining = spec.num_events;
  while (remaining > 0) {
    const int64_t n = std::min(remaining, spec.row_group_size);
    HEPQ_RETURN_NOT_OK(writer->WriteBatch(*generator.GenerateBatch(n)));
    remaining -= n;
  }
  HEPQ_RETURN_NOT_OK(writer->Close());
  if (std::rename(tmp_path.c_str(), path.c_str()) != 0) {
    return Status::IoError("cannot rename temporary data set file");
  }
  return path;
}

std::string ShardedDatasetSpec::DirName() const {
  char buf[160];
  std::snprintf(buf, sizeof(buf), "cms_%dx%lldev_%lldrg_s%llu_%s",
                num_shards, static_cast<long long>(events_per_shard),
                static_cast<long long>(row_group_size),
                static_cast<unsigned long long>(seed), CodecName(codec));
  return buf;
}

std::string ShardedDatasetSpec::ShardFileName(int shard) const {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "shard_%04d.laq", shard);
  return buf;
}

uint64_t ShardSeed(uint64_t seed, int shard) {
  // splitmix64 finalizer over seed + shard * golden-gamma: decorrelates
  // consecutive shard indices into independent-looking streams.
  uint64_t z = seed + static_cast<uint64_t>(shard) * 0x9E3779B97F4A7C15ULL;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

Result<std::string> EnsureShardedDataset(const std::string& directory,
                                         const ShardedDatasetSpec& spec) {
  if (spec.num_shards < 1) {
    return Status::Invalid("sharded dataset needs at least one shard");
  }
  if (::mkdir(directory.c_str(), 0755) != 0 && errno != EEXIST) {
    return Status::IoError("cannot create data directory '" + directory +
                           "'");
  }
  const std::string dataset_dir = directory + "/" + spec.DirName();
  if (::mkdir(dataset_dir.c_str(), 0755) != 0 && errno != EEXIST) {
    return Status::IoError("cannot create dataset directory '" +
                           dataset_dir + "'");
  }
  WriterOptions options;
  options.row_group_size = spec.row_group_size;
  options.codec = spec.codec;
  for (int shard = 0; shard < spec.num_shards; ++shard) {
    const std::string path = dataset_dir + "/" + spec.ShardFileName(shard);
    if (ReusableDataset(path, spec.events_per_shard)) continue;
    GeneratorConfig config;
    config.seed = ShardSeed(spec.seed, shard);
    config.first_event_id = shard * spec.events_per_shard;
    EventGenerator generator(config);
    const std::string tmp_path = path + ".tmp";
    std::unique_ptr<LaqWriter> writer;
    HEPQ_ASSIGN_OR_RETURN(
        writer,
        LaqWriter::Open(tmp_path, EventGenerator::CmsSchema(), options));
    int64_t remaining = spec.events_per_shard;
    while (remaining > 0) {
      const int64_t n = std::min(remaining, spec.row_group_size);
      HEPQ_RETURN_NOT_OK(writer->WriteBatch(*generator.GenerateBatch(n)));
      remaining -= n;
    }
    HEPQ_RETURN_NOT_OK(writer->Close());
    if (std::rename(tmp_path.c_str(), path.c_str()) != 0) {
      return Status::IoError("cannot rename temporary shard file '" +
                             tmp_path + "'");
    }
  }
  return dataset_dir;
}

Result<std::string> EnsureOptimizedDataset(const std::string& directory,
                                           const DatasetSpec& spec,
                                           const OptimizeOptions& options) {
  std::string input;
  HEPQ_ASSIGN_OR_RETURN(input, EnsureDataset(directory, spec));
  std::string path = input;
  const std::string suffix = ".laq";
  path.replace(path.size() - suffix.size(), suffix.size(), "_opt.laq");
  if (ReusableDataset(path, spec.num_events)) return path;
  const std::string tmp_path = path + ".tmp";
  LayoutAnalysis analysis;
  HEPQ_ASSIGN_OR_RETURN(analysis, OptimizeLaqFile(input, tmp_path, options));
  if (std::rename(tmp_path.c_str(), path.c_str()) != 0) {
    return Status::IoError("cannot rename temporary optimized data set file");
  }
  return path;
}

}  // namespace hepq
