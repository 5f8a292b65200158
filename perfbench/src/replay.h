#ifndef PERFBENCH_REPLAY_H_
#define PERFBENCH_REPLAY_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/status.h"
#include "fileio/reader.h"
#include "trace.h"

namespace perfbench {

/// Buffers reused across replays (the replay itself then allocates only
/// while they grow).
struct ReplayScratch {
  std::vector<uint8_t> compressed;
  std::vector<std::vector<uint8_t>> pages;
  std::vector<uint8_t> values;
  hepq::ScratchBuffers leaf;
};

/// Re-does, under spans, the storage work one query execution did, so the
/// fileio layer can be timed from outside the program:
///   fileio.open       LaqReader::Open of each file, footer cache bypassed
///                     (parse + validate every time, as a cold open does)
///   fileio.fetch      reading the chunk bytes
///   fileio.checksum   Crc32 over each chunk (checked against the footer)
///   fileio.decompress Decompress of each page
///   fileio.decode     DecodeValues of each page
///   fileio.read_leaf  LaqReader::ReadLeafValues over the same chunks, the
///                     reader's own end-to-end path for the split above
/// Which leaves were read, and how many chunks of each, comes from the
/// execution's ScanStats (per-leaf chunks_read); chunks are taken in
/// (file, row group) order. Chunks served by the chunk cache have no
/// chunks_read and are not replayed; page-level pruning is ignored (every
/// replayed chunk is decoded whole, as ReadLeafValues does).
hepq::Status ReplayFileio(const std::vector<std::string>& files,
                          const hepq::ScanStats& scan, int64_t exec,
                          Tracer& tracer, ReplayScratch* scratch);

}  // namespace perfbench

#endif  // PERFBENCH_REPLAY_H_
