#ifndef HEPQUERY_FILEIO_DATASET_READER_H_
#define HEPQUERY_FILEIO_DATASET_READER_H_

#include <string>
#include <vector>

#include "fileio/reader.h"

namespace hepq {

/// True if `path` names an existing directory (a sharded dataset root).
bool IsDirectory(const std::string& path);

/// Every "*.laq" file in `directory`, sorted by name — the canonical shard
/// order shared by the exec dataset runtime, the scatter/gather
/// coordinator, and the dataset-aware tools (all of them must agree on
/// shard numbering). A missing or empty directory is an Invalid error
/// naming the path.
Result<std::vector<std::string>> ListLaqFiles(const std::string& directory);

}  // namespace hepq

#endif  // HEPQUERY_FILEIO_DATASET_READER_H_
