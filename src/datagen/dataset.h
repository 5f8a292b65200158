#ifndef HEPQUERY_DATAGEN_DATASET_H_
#define HEPQUERY_DATAGEN_DATASET_H_

#include <cstdint>
#include <string>

#include "core/status.h"
#include "datagen/generator.h"
#include "fileio/layout_optimizer.h"
#include "fileio/writer.h"

namespace hepq {

struct DatasetSpec {
  int64_t num_events = 100000;
  /// Rows per row group; also the generator batch size, so groups have
  /// exactly this many events (except the last).
  int64_t row_group_size = 25000;
  uint64_t seed = 20120601;
  Codec codec = Codec::kLz;

  /// Canonical file name, e.g. "cms_100000ev_25000rg.laq".
  std::string FileName() const;
};

/// Generates the synthetic CMS data set described by `spec` into
/// `directory` (created if needed) unless a valid file already exists.
/// Returns the file path. Because the generator is deterministic, an
/// existing file with the same spec is bit-identical to a fresh one. An
/// existing file is reused only if it opens as a laq file with
/// `spec.num_events` rows; anything else (an older format, a truncated
/// or foreign file) is regenerated in place.
Result<std::string> EnsureDataset(const std::string& directory,
                                  const DatasetSpec& spec);

/// Default scratch directory for generated data sets; honours the
/// HEPQ_DATA_DIR environment variable, defaulting to "hepq_data" under the
/// current working directory.
std::string DefaultDataDir();

/// A dataset split over N shard files in one directory — the unit of
/// scale-out execution. Shard k is generated from an independent RNG
/// stream derived from (seed, k), so its bytes depend only on
/// (seed, k, events_per_shard, row_group_size, codec): generating shards
/// [0, 4) and later regenerating only shard 2 — or growing the dataset to
/// 16 shards — reproduces shard 2 bit for bit. Event ids are globally
/// unique: shard k starts at k * events_per_shard.
struct ShardedDatasetSpec {
  int num_shards = 4;
  int64_t events_per_shard = 100000;
  int64_t row_group_size = 25000;
  uint64_t seed = 20120601;
  Codec codec = Codec::kLz;

  /// Canonical directory name, e.g. "cms_4x100000ev_25000rg_s20120601_lz".
  std::string DirName() const;
  /// Canonical shard file name ("shard_0007.laq"); sorts in shard order.
  std::string ShardFileName(int shard) const;
};

/// The per-shard generator seed: a splitmix-style mix of the dataset seed
/// and the shard index, so shard streams are decorrelated and shard k's
/// content is independent of every other shard.
uint64_t ShardSeed(uint64_t seed, int shard);

/// Generates the sharded data set described by `spec` under
/// `directory/<spec.DirName()>`, skipping shards whose file already
/// exists and passes the same reuse check as EnsureDataset (determinism
/// makes them bit-identical to a fresh write). Each
/// shard is written to a ".tmp" name and renamed, so interrupted runs
/// never leave a half-written shard. Returns the dataset directory path.
Result<std::string> EnsureShardedDataset(const std::string& directory,
                                         const ShardedDatasetSpec& spec);

/// Generates the dataset described by `spec` (if needed) and rewrites it
/// through the layout optimizer (if needed), caching the optimized copy
/// next to the original under "<name>_opt.laq". Both steps are fully
/// deterministic, so existing files that pass the EnsureDataset reuse
/// check are reused as-is. The cache name does
/// not encode `options`; callers varying them should call OptimizeLaqFile
/// on a path of their own. Returns the path of the optimized copy.
Result<std::string> EnsureOptimizedDataset(const std::string& directory,
                                           const DatasetSpec& spec,
                                           const OptimizeOptions& options = {});

}  // namespace hepq

#endif  // HEPQUERY_DATAGEN_DATASET_H_
