// hepq_datagen: generate (or top up) a sharded benchmark dataset.
//
// Usage: hepq_datagen --shards=N --events-per-shard=M
//                     [--dir=path] [--row-group=R] [--seed=S]
//
// Writes N shard files ("shard_0000.laq" ...) under
// <dir>/<canonical dataset name>/ and prints the dataset directory path.
// Shard k's bytes depend only on (seed, k, M, R): regenerating any subset
// of shards, in any order, or growing N later reproduces existing shards
// bit for bit, so a 54M-event paper-scale dataset can be built
// incrementally or in parallel across machines. Existing shard files are
// skipped. N, M and R must be positive integers (exit 2 otherwise).

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "datagen/dataset.h"
#include "queries/adl.h"

int main(int argc, char** argv) {
  hepq::ShardedDatasetSpec spec;
  std::string dir = hepq::DefaultDataDir();
  bool have_shards = false;
  for (int i = 1; i < argc; ++i) {
    bool ok = true;
    if (std::strncmp(argv[i], "--shards=", 9) == 0) {
      ok = hepq::queries::ParsePositiveInt(argv[i] + 9, &spec.num_shards);
      have_shards = true;
    } else if (std::strncmp(argv[i], "--events-per-shard=", 19) == 0) {
      ok = hepq::queries::ParsePositiveInt(argv[i] + 19,
                                           &spec.events_per_shard);
    } else if (std::strncmp(argv[i], "--row-group=", 12) == 0) {
      ok = hepq::queries::ParsePositiveInt(argv[i] + 12,
                                           &spec.row_group_size);
    } else if (std::strncmp(argv[i], "--seed=", 7) == 0) {
      spec.seed = std::strtoull(argv[i] + 7, nullptr, 10);
    } else if (std::strncmp(argv[i], "--dir=", 6) == 0) {
      dir = argv[i] + 6;
    } else {
      std::fprintf(stderr,
                   "usage: %s --shards=N --events-per-shard=M [--dir=path]"
                   " [--row-group=R] [--seed=S]\n",
                   argv[0]);
      return 2;
    }
    if (!ok) {
      const std::string arg = argv[i];
      std::fprintf(stderr, "%s needs a positive integer\n",
                   arg.substr(0, arg.find('=')).c_str());
      return 2;
    }
  }
  if (!have_shards) {
    std::fprintf(stderr, "--shards=N is required\n");
    return 2;
  }
  auto path = hepq::EnsureShardedDataset(dir, spec);
  if (!path.ok()) {
    std::fprintf(stderr, "error: %s\n", path.status().ToString().c_str());
    return 1;
  }
  std::printf("%s\n", path->c_str());
  return 0;
}
