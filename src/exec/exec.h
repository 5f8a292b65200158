#ifndef HEPQUERY_EXEC_EXEC_H_
#define HEPQUERY_EXEC_EXEC_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/status.h"
#include "fileio/reader.h"
#include "obs/trace.h"

namespace hepq::exec {

// Shared parallel execution runtime used by every frontend (rdf, the two
// SQL plan shapes, doc), all of which scan through DatasetScan::Run and
// merge through FoldGroups. Row groups are the scheduling unit, as in
// ROOT's implicit MT and every system of the paper; the work queue is
// LPT-ordered by row-group byte size so the largest groups start first
// and stragglers are minimized. Each row group accumulates into its own
// result slot and FoldGroups merges slots in layout order, which makes
// results bit-identical for 1 vs N threads regardless of scheduling.

/// A reusable fixed-size pool of worker threads. Workers are started once
/// and parked between jobs, replacing the per-Execute thread spawning the
/// frontends used to do. One job runs at a time; jobs are task index
/// ranges drained through a shared atomic cursor.
class ThreadPool {
 public:
  /// Starts `num_threads` (>= 1) parked workers.
  explicit ThreadPool(int num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int num_threads() const { return static_cast<int>(workers_.size()); }

  /// Runs fn(worker, task) for every task in [0, num_tasks), using at most
  /// `max_workers` of the pool's threads (worker ids are < max_workers).
  /// Blocks until every task completed. `fn` must not throw and must be
  /// safe to call concurrently for distinct tasks.
  void ParallelFor(int max_workers, int num_tasks,
                   const std::function<void(int worker, int task)>& fn);

  /// Grows the pool to at least `num_threads` workers (never shrinks).
  void EnsureThreads(int num_threads);

  /// Process-wide pool shared by all frontends, lazily created and grown
  /// to the largest thread count ever requested.
  static ThreadPool& Shared(int min_threads);

 private:
  struct Job {
    const std::function<void(int, int)>* fn = nullptr;
    std::atomic<int> next{0};
    std::atomic<int> done{0};
    int num_tasks = 0;
    int max_workers = 0;
  };

  void WorkerLoop(int worker);

  std::mutex mu_;
  std::condition_variable work_cv_;
  std::condition_variable done_cv_;
  std::mutex run_mu_;  // serializes ParallelFor calls
  uint64_t generation_ = 0;
  std::shared_ptr<Job> job_;  // non-null while a job is live
  bool shutdown_ = false;
  std::vector<std::thread> workers_;
};

/// One schedulable unit of scan work: a row group and its on-storage size.
struct RowGroupTask {
  int group = 0;
  uint64_t bytes = 0;
};

/// Resolved physical layout of a dataset: one .laq file, or every shard of
/// a dataset directory, with row groups numbered globally in file-major
/// order (file order is the sorted shard list — the same order the
/// scatter/gather coordinator and the tools use). The layout is the
/// frontends' one source of truth for scheduling and for the two-level
/// deterministic merge of FoldGroups.
struct DatasetLayout {
  struct Group {
    int file = 0;         // index into `files`
    int local_group = 0;  // row group index within that file
    int64_t num_rows = 0;
    uint64_t bytes = 0;   // compressed chunk bytes (the LPT weight)
  };
  std::vector<std::string> files;
  std::vector<Group> groups;  // global group order: file-major
  int64_t total_rows = 0;
  Schema schema;  // shared by every file (checked when resolving)

  int num_files() const { return static_cast<int>(files.size()); }
  int num_groups() const { return static_cast<int>(groups.size()); }
};

/// Resolves `path` — a .laq file or a dataset directory of "*.laq" shards
/// — by opening each member file once for its footer. All shards must
/// share the first file's schema.
Result<DatasetLayout> ResolveDatasetLayout(const std::string& path,
                                           const ReaderOptions& options);

/// Tasks for every global row group of `layout`.
std::vector<RowGroupTask> MakeRowGroupTasks(const DatasetLayout& layout);

/// LPT (longest processing time first) order: descending byte size, ties
/// broken by ascending group index so the order is deterministic.
void SortLpt(std::vector<RowGroupTask>* tasks);

/// Number of workers a run will actually use: `num_threads` clamped to
/// [1, num_tasks]. Callers size per-worker state with this.
int EffectiveWorkers(int num_threads, size_t num_tasks);

/// Runs process(worker, group) for every task. Tasks are LPT-ordered and
/// drained by EffectiveWorkers(num_threads, tasks.size()) workers of the
/// shared pool; a single effective worker runs inline on the calling
/// thread with worker id 0. After a failure, tasks with group index >= the
/// smallest failing group so far are skipped while smaller groups still
/// run, so the reported error is exactly that of the smallest failing
/// group — deterministic for any thread count (corruption_test relies on
/// this to assert identical errors for 1 vs N workers).
Status RunRowGroups(int num_threads, std::vector<RowGroupTask> tasks,
                    const std::function<Status(int worker, int group)>& process);

/// Per-worker readers over a dataset: each worker slot lazily opens its
/// own LaqReader (file handles are not shareable across threads) and owns
/// a ScratchBuffers pool so decode buffers are reused across all row
/// groups the worker processes. A slot keeps at most ONE file of the
/// dataset open at a time — switching files closes the previous reader
/// after banking its scan stats — so per-worker memory and descriptor
/// usage stay bounded by a single shard's working set no matter how many
/// shards the dataset has (the out-of-core contract of the scale-out
/// runtime).
class WorkerReaders {
 public:
  WorkerReaders(const DatasetLayout& layout, ReaderOptions options,
                int num_workers);

  /// The worker's reader over dataset file `file`, opened on first use.
  /// Only worker `worker` may call this with its own id during a parallel
  /// run. Opening a different file than the slot currently holds closes
  /// the held reader (its ScanStats are retained).
  Result<LaqReader*> reader(int worker, int file);

  /// The worker's scratch buffer pool.
  ScratchBuffers* scratch(int worker) {
    return &slots_[static_cast<size_t>(worker)].scratch;
  }

  /// Opaque per-worker engine state riding alongside the decode scratch
  /// (e.g. the expression VM's register and selection buffers, and the
  /// 64-byte-aligned strip-block storage of the fused kernel tier —
  /// engine::VexprScratch). The slot starts empty; the engine creates its
  /// state on the worker's first row group and reuses it for the rest of
  /// the run, keeping the hot path allocation-free and every worker's
  /// kernel scratch thread-private. exec stays ignorant of the concrete
  /// type.
  std::shared_ptr<void>& engine_scratch(int worker) {
    return slots_[static_cast<size_t>(worker)].engine_scratch;
  }

  /// Sum of the scan stats of every reader this run opened, including
  /// readers already closed by a file switch. Integer counters, so the
  /// total is independent of scheduling. Call only after a run.
  ScanStats TotalScanStats() const;

 private:
  struct Slot {
    std::unique_ptr<LaqReader> reader;
    int open_file = -1;
    /// Stats banked from readers this slot closed on a file switch.
    ScanStats closed_stats;
    ScratchBuffers scratch;
    std::shared_ptr<void> engine_scratch;
  };

  std::vector<std::string> files_;
  ReaderOptions options_;
  std::vector<Slot> slots_;
};

/// One row group handed to a frontend by DatasetScan::Run: which worker
/// runs it, where it sits in the layout, and that worker's reader and
/// pooled buffers.
struct ScanGroup {
  int worker = 0;
  int group = 0;  // global index into DatasetLayout::groups
  const DatasetLayout::Group* loc = nullptr;
  LaqReader* reader = nullptr;  // the worker's reader over loc->file
  ScratchBuffers* scratch = nullptr;
  std::shared_ptr<void>* engine_scratch = nullptr;

  /// The worker's engine state (WorkerReaders::engine_scratch) as a `T`,
  /// created on the worker's first row group.
  template <typename T>
  T* EngineScratch() const {
    if (*engine_scratch == nullptr) *engine_scratch = std::make_shared<T>();
    return static_cast<T*>(engine_scratch->get());
  }
};

/// The one dataset scan every frontend runs through: a resolved layout
/// plus the reader options to scan it with.
class DatasetScan {
 public:
  DatasetScan() = default;

  /// Resolves `path` (ResolveDatasetLayout).
  static Result<DatasetScan> Open(const std::string& path,
                                  ReaderOptions options);

  const DatasetLayout& layout() const { return layout_; }

  /// Runs process(group) for every row group of the layout through
  /// RunRowGroups (LPT order, deterministic first error) with
  /// EffectiveWorkers(num_threads, groups) workers, each with its own
  /// WorkerReaders slot. Returns the summed scan stats of the run.
  Result<ScanStats> Run(
      int num_threads,
      const std::function<Status(const ScanGroup& group)>& process) const;

 private:
  DatasetLayout layout_;
  ReaderOptions options_;
};

/// The two-level deterministic merge of per-group partials: groups fold
/// into a per-file subtotal in local group order, and file subtotals fold
/// into the result in file order. A P-process scatter/gather run gathers
/// exactly those per-file subtotals in the same order, so single-process
/// and multi-process results are bit-identical by construction — for any
/// thread count, since the order never depends on scheduling.
///
/// make_subtotal() returns an empty subtotal; add_group(&subtotal, group)
/// adds global group `group`'s partial to it; add_subtotal(subtotal) adds
/// a finished file subtotal to the result.
template <typename MakeSubtotal, typename AddGroup, typename AddSubtotal>
Status FoldGroups(const DatasetLayout& layout,
                  const MakeSubtotal& make_subtotal,
                  const AddGroup& add_group,
                  const AddSubtotal& add_subtotal) {
  obs::ScopedSpan merge_span("merge", obs::Stage::kMerge);
  size_t g = 0;
  for (int file = 0; file < layout.num_files(); ++file) {
    auto subtotal = make_subtotal();
    for (; g < layout.groups.size() && layout.groups[g].file == file; ++g) {
      HEPQ_RETURN_NOT_OK(add_group(&subtotal, static_cast<int>(g)));
    }
    HEPQ_RETURN_NOT_OK(add_subtotal(subtotal));
  }
  return Status::OK();
}

}  // namespace hepq::exec

#endif  // HEPQUERY_EXEC_EXEC_H_
