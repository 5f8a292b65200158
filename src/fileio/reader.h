#ifndef HEPQUERY_FILEIO_READER_H_
#define HEPQUERY_FILEIO_READER_H_

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "cache/cache.h"
#include "columnar/array.h"
#include "fileio/format.h"
#include "fileio/predicate.h"

namespace hepq {

/// Per-leaf-column slice of the IO accounting: what `laq_inspect --pages`
/// shows statically, measured on a live run. Merged by `path` when stats
/// from several readers are added together.
struct LeafScanStats {
  std::string path;
  uint64_t storage_bytes = 0;
  uint64_t decoded_bytes = 0;
  uint64_t chunks_read = 0;
  uint64_t pages_read = 0;
  uint64_t pages_pruned = 0;
  /// Decoded bytes served from the process-wide chunk cache instead of
  /// storage (such chunks contribute nothing to the counters above).
  uint64_t cache_bytes_served = 0;

  void AddCounters(const LeafScanStats& o) {
    storage_bytes += o.storage_bytes;
    decoded_bytes += o.decoded_bytes;
    chunks_read += o.chunks_read;
    pages_read += o.pages_read;
    pages_pruned += o.pages_pruned;
    cache_bytes_served += o.cache_bytes_served;
  }
};

/// IO accounting of a reader, the raw material for the paper's Figure 4b
/// (bytes scanned per event) and for the two QaaS pricing models.
struct ScanStats {
  /// Bytes actually fetched from storage (compressed). This is what Athena
  /// bills ("bytes actually read from storage").
  uint64_t storage_bytes = 0;
  /// Bytes after decompression/decoding.
  uint64_t encoded_bytes = 0;
  /// BigQuery's accounting: number of entries of each *requested* value
  /// column times 8 bytes — the engine exposes only 64-bit types to the
  /// user even when the file stores 32-bit values, hence the 2x inflation
  /// the paper observes.
  uint64_t logical_bytes_bq = 0;
  /// Ideal bytes: entries of requested value leaves times their physical
  /// width (4 B for most), the "ideal" line of Figure 4b.
  uint64_t ideal_bytes = 0;
  uint64_t chunks_read = 0;
  uint64_t values_read = 0;
  /// Bytes actually decoded to physical values (num_values * width of
  /// every page or chunk that went through the decoder). This is the
  /// counter predicate pushdown + late materialization drives down:
  /// skipped pages and dead row groups decode nothing.
  uint64_t decoded_bytes = 0;
  uint64_t pages_read = 0;
  uint64_t pages_pruned = 0;
  /// Column-data bytes CRC-verified (whole chunks, or the live pages of a
  /// partially pruned chunk); 0 with validate_checksums off. Footer CRCs
  /// are timed under the checksum stage but not counted here, so the
  /// counter depends only on what the query reads, not on how many
  /// readers opened the file.
  uint64_t checksum_bytes = 0;
  /// Rows of row groups skipped whole (group zone map, or a late-
  /// materialization pre-pass that proved the group dead). Group-level
  /// only — page skips never touch it — so the invariant
  /// `rows_pruned + rows_read == total rows` holds exactly per scan.
  /// (Before PR 7 this also accrued per-leaf page-skip lanes, which
  /// double-counted rows when a dead group's pre-pass skipped pages.)
  uint64_t rows_pruned = 0;
  /// Rows of row groups that reached the decoder, counted once per
  /// ReadRowGroup/ReadRowGroupFiltered call even if every predicate
  /// leaf's pages were skipped.
  uint64_t rows_read = 0;
  /// Per-leaf value lanes of pages skipped by the page zone map
  /// (diagnostic; one row may count once per predicate leaf).
  uint64_t lanes_pruned = 0;
  uint64_t groups_pruned = 0;
  /// Footer/metadata cache outcome of this reader's Open (at most one of
  /// the two is 1 per reader; totals accumulate across readers).
  uint64_t footer_cache_hits = 0;
  uint64_t footer_cache_misses = 0;
  /// Decoded-chunk cache outcomes. A hit serves the full decoded chunk
  /// without touching storage, so it adds to none of storage/encoded/
  /// decoded_bytes; `cache_bytes_served` carries its byte volume instead.
  /// The reconciliation `decoded_bytes + cache_bytes_served == bytes
  /// consumed by the query` holds by construction.
  uint64_t chunk_cache_hits = 0;
  uint64_t chunk_cache_misses = 0;
  uint64_t cache_bytes_served = 0;
  /// Per-leaf breakdown of storage/decoded bytes and page pruning. A
  /// LaqReader sizes this once at Open (one slot per leaf of the file's
  /// layout) so updating it on the decode path is index-addressed and
  /// allocation-free.
  std::vector<LeafScanStats> leaves;

  /// Zeroes every counter. Leaf slots keep their paths (counters zeroed
  /// in place) so a reset on a warmed-up reader stays allocation-free —
  /// the micro benchmarks assert zero allocations per decoded group.
  void Reset() {
    std::vector<LeafScanStats> kept = std::move(leaves);
    for (LeafScanStats& leaf : kept) {
      leaf.storage_bytes = 0;
      leaf.decoded_bytes = 0;
      leaf.chunks_read = 0;
      leaf.pages_read = 0;
      leaf.pages_pruned = 0;
      leaf.cache_bytes_served = 0;
    }
    *this = ScanStats{};
    leaves = std::move(kept);
  }

  /// Adds `o`, merging per-leaf entries by path (readers over the same
  /// file produce identically ordered slots, so the merge is linear).
  void Add(const ScanStats& o) {
    storage_bytes += o.storage_bytes;
    encoded_bytes += o.encoded_bytes;
    logical_bytes_bq += o.logical_bytes_bq;
    ideal_bytes += o.ideal_bytes;
    chunks_read += o.chunks_read;
    values_read += o.values_read;
    decoded_bytes += o.decoded_bytes;
    pages_read += o.pages_read;
    pages_pruned += o.pages_pruned;
    checksum_bytes += o.checksum_bytes;
    rows_pruned += o.rows_pruned;
    rows_read += o.rows_read;
    lanes_pruned += o.lanes_pruned;
    groups_pruned += o.groups_pruned;
    footer_cache_hits += o.footer_cache_hits;
    footer_cache_misses += o.footer_cache_misses;
    chunk_cache_hits += o.chunk_cache_hits;
    chunk_cache_misses += o.chunk_cache_misses;
    cache_bytes_served += o.cache_bytes_served;
    for (size_t i = 0; i < o.leaves.size(); ++i) {
      if (i < leaves.size() && leaves[i].path == o.leaves[i].path) {
        leaves[i].AddCounters(o.leaves[i]);
        continue;
      }
      bool found = false;
      for (LeafScanStats& mine : leaves) {
        if (mine.path == o.leaves[i].path) {
          mine.AddCounters(o.leaves[i]);
          found = true;
          break;
        }
      }
      if (!found) leaves.push_back(o.leaves[i]);
    }
  }
};

/// Reusable decode buffers for the chunk read path. Each read resizes
/// them as needed but never releases capacity, so after a warm-up row
/// group the read+decompress+decode pipeline performs zero heap
/// allocations per chunk. One ScratchBuffers must not be shared between
/// threads; the parallel runtime keeps one per worker.
struct ScratchBuffers {
  std::vector<uint8_t> compressed;  ///< raw chunk bytes from storage
  std::vector<uint8_t> encoded;     ///< after decompression
  std::vector<uint8_t> values;      ///< after decoding (physical width)

  /// Releases all capacity (for tests that compare cold vs warm paths).
  /// Swap with a temporary: plain `v = {}` only clears the size.
  void Release() {
    std::vector<uint8_t>().swap(compressed);
    std::vector<uint8_t>().swap(encoded);
    std::vector<uint8_t>().swap(values);
  }
};

struct ReaderOptions {
  /// When false, selecting any member of a struct (top-level or inside a
  /// particle list) reads *all* members of that struct from storage — the
  /// Java Parquet limitation of Presto/Athena that the paper measures; the
  /// C++ implementation (this one) does not have the limitation, so the
  /// default is true.
  bool struct_projection_pushdown = true;
  /// Verify chunk checksums while reading.
  bool validate_checksums = true;
  /// Honor scan predicates with zone-map pruning: whole row groups whose
  /// chunk statistics cannot satisfy a predicate are skipped at
  /// ReadRowGroupFiltered time, and within surviving chunks, pages whose
  /// page statistics cannot satisfy it skip their checksum + decompress +
  /// decode work. Results are bit-identical either way (see predicate.h).
  bool scan_pushdown = true;
  /// Decode predicate-bearing columns first and evaluate the predicates
  /// over them; when no row of the group can survive, the remaining
  /// projected columns are never read at all.
  bool late_materialization = true;
  /// Upper bound on the decoded size (num_values * physical width) of any
  /// single chunk, enforced by the metadata validation pass in Open(). A
  /// footer — even one whose CRC matches — can otherwise drive multi-GiB
  /// allocations from a few mutated varint bytes. The checksum toggle does
  /// not affect this: metadata validation always runs.
  uint64_t max_chunk_decoded_bytes = 1ull << 30;
  /// Consult the process-wide footer/metadata cache in Open(): a shard
  /// whose (size, mtime, recomputed footer CRC) matches a previously
  /// validated open skips footer parse + validation. All the cheap
  /// integrity checks (magics, trailer, footer read, CRC recompute)
  /// still run on every open, so a cached open reports exactly the same
  /// error as a cold open for any corruption. Off only for tests and
  /// ablations — the cache costs no data bytes.
  bool footer_cache = true;
  /// Decoded-chunk LRU shared across readers, workers, and frontends;
  /// null disables chunk caching. Requires `footer_cache` (the cache key
  /// is the footer cache's file generation id).
  std::shared_ptr<cache::ChunkCache> chunk_cache;
};

/// Reads .laq columnar files with projection pushdown.
class LaqReader {
 public:
  ~LaqReader();

  LaqReader(const LaqReader&) = delete;
  LaqReader& operator=(const LaqReader&) = delete;

  static Result<std::unique_ptr<LaqReader>> Open(const std::string& path,
                                                 ReaderOptions options = {});

  const FileMetadata& metadata() const { return *metadata_; }
  const Schema& schema() const { return metadata_->schema; }
  int num_row_groups() const {
    return static_cast<int>(metadata_->row_groups.size());
  }
  int64_t total_rows() const { return metadata_->total_rows; }

  /// Footer-cache generation id of the bytes this reader was opened on
  /// (0 when the footer cache was bypassed). Chunk-cache keys embed it,
  /// so entries of replaced file contents are unreachable by design.
  uint64_t file_id() const { return file_id_; }

  /// Reads one row group with a column projection. Each projection entry is
  /// either a top-level column name ("MET", "Jet") selecting the whole
  /// column, or a leaf path ("Jet.pt", "Muon.charge") selecting single
  /// struct members. The returned batch's schema contains exactly the
  /// requested members (independently of how many leaves had to be read
  /// from storage, which ScanStats accounts for).
  Result<RecordBatchPtr> ReadRowGroup(
      int group_index, const std::vector<std::string>& projection);

  /// Same, decoding through caller-owned scratch buffers so repeated reads
  /// reuse allocations. `scratch` must stay private to one thread. Passing
  /// nullptr uses transient buffers (identical results, fresh allocations).
  Result<RecordBatchPtr> ReadRowGroup(int group_index,
                                      const std::vector<std::string>& projection,
                                      ScratchBuffers* scratch);

  /// Reads one row group with all columns.
  Result<RecordBatchPtr> ReadRowGroup(int group_index);

  /// Predicate-aware row-group read. Returns a *null* batch pointer when
  /// the predicates prove no row of the group can survive (the group's
  /// zone maps are disjoint from a predicate, or late materialization
  /// found no surviving row); callers must treat a null batch as "group
  /// processed, zero rows selected" and account its row count themselves.
  /// A non-null batch is bit-identical to ReadRowGroup's: pages skipped by
  /// zone maps have their lanes filled with the page minimum, a value that
  /// provably fails the gating predicate the query itself will evaluate
  /// (see predicate.h). With scan_pushdown off or no usable predicate this
  /// is exactly ReadRowGroup.
  Result<RecordBatchPtr> ReadRowGroupFiltered(
      int group_index, const std::vector<std::string>& projection,
      const ScanPredicateSet& predicates, ScratchBuffers* scratch);

  /// Runs only the storage decode path (read, checksum, decompress, decode)
  /// for one leaf chunk, leaving the decoded values in `scratch->values`.
  /// No arrays are materialized: with a warmed-up scratch this performs
  /// zero heap allocations, which the micro benchmarks assert. Updates
  /// ScanStats like any other read.
  Status ReadLeafValues(int group_index, const std::string& leaf_path,
                        ScratchBuffers* scratch);

  /// Sum of the physical widths of all value leaves times their entry
  /// counts for the given projection across the whole file — the "ideal
  /// (type width)" reference line of Figure 4b.
  Result<uint64_t> IdealBytesForProjection(
      const std::vector<std::string>& projection) const;

  /// Row-group pruning on the footer's min/max statistics: the indices of
  /// all row groups whose leaf `leaf_path` ("event", "MET.pt", "Jet.pt")
  /// may contain values in [min_value, max_value]. Groups without
  /// statistics are conservatively kept. No chunk data is read.
  Result<std::vector<int>> SelectRowGroups(const std::string& leaf_path,
                                           double min_value,
                                           double max_value) const;

  const ScanStats& scan_stats() const { return stats_; }
  void ResetScanStats() { stats_.Reset(); }

 private:
  LaqReader(std::FILE* file, std::shared_ptr<const FileMetadata> metadata,
            ReaderOptions options, uint64_t file_id)
      : file_(file),
        metadata_(std::move(metadata)),
        options_(std::move(options)),
        file_id_(file_id) {}

  /// Shorthand for the shared (possibly cache-banked) metadata.
  const FileMetadata& meta() const { return *metadata_; }

  /// Reads + decodes the chunk of leaf `leaf_index` in `group` into
  /// `scratch->values`. `billed` says whether this leaf was requested
  /// (affects logical/ideal bytes). When `pred` is non-null (a per-row
  /// predicate on this very leaf) and the chunk has pages, pages whose
  /// zone map is disjoint from the predicate skip checksum + decompress +
  /// decode and have their lanes fail-filled with the page minimum.
  Status ReadLeaf(int group, int leaf_index, bool billed,
                  ScratchBuffers* scratch,
                  const BoundScanPredicate* pred = nullptr);

  /// Adds the logical/ideal ("requested column") bytes of one leaf chunk.
  void BillLeaf(const ChunkMeta& chunk, const LeafDesc& leaf);

  /// Per-read state of a filtered read: per-row predicates plus leaf
  /// values already decoded by the late-materialization pre-pass.
  struct FilterState;

  Result<RecordBatchPtr> ReadRowGroupImpl(
      int group_index, const std::vector<std::string>& projection,
      ScratchBuffers* scratch, FilterState* filter);

  /// ReadLeaf through the filter state: consumes a cached pre-pass decode
  /// when present, otherwise reads with this leaf's predicate (if any).
  Status ReadProjectedLeaf(int group, int leaf_index, bool billed,
                           ScratchBuffers* scratch, FilterState* filter);

  struct ResolvedColumn {
    int field_index;
    std::vector<int> member_indices;  // selected struct members, or empty
    bool whole_column;
  };
  Status ResolveProjection(const std::vector<std::string>& projection,
                           std::vector<ResolvedColumn>* out) const;

  std::FILE* file_;
  /// Shared with the process-wide footer cache: metadata is parsed and
  /// validated once per file generation and referenced by every reader
  /// opened on the same bytes.
  std::shared_ptr<const FileMetadata> metadata_;
  ReaderOptions options_;
  uint64_t file_id_ = 0;
  ScanStats stats_;
};

}  // namespace hepq

#endif  // HEPQUERY_FILEIO_READER_H_
