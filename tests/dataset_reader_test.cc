#include <sys/stat.h>

#include <fstream>

#include <gtest/gtest.h>

#include "datagen/generator.h"
#include "fileio/dataset_reader.h"
#include "fileio/writer.h"

namespace hepq {
namespace {

// fileio/dataset_reader.h keeps the directory helpers every dataset-aware
// caller shares: IsDirectory and ListLaqFiles. The dataset-level scan
// behaviours (layout, global group numbering, summed scan stats) are tested
// on exec::DatasetScan in exec_test.

void WriteSmallLaq(const std::string& path) {
  EventGenerator generator;
  WriteLaqFile(path, EventGenerator::CmsSchema(),
               {generator.GenerateBatch(10)})
      .Check();
}

TEST(DatasetReaderTest, IsDirectoryDistinguishesDirsFilesAndMissing) {
  const std::string dir = ::testing::TempDir() + "/hepq_isdir";
  ::mkdir(dir.c_str(), 0755);
  const std::string file = dir + "/one.laq";
  WriteSmallLaq(file);
  EXPECT_TRUE(IsDirectory(dir));
  EXPECT_FALSE(IsDirectory(file));
  EXPECT_FALSE(IsDirectory(dir + "/no_such"));
}

TEST(DatasetReaderTest, ListLaqFilesSortsByNameAndSkipsOtherFiles) {
  const std::string dir = ::testing::TempDir() + "/hepq_list_laq";
  ::mkdir(dir.c_str(), 0755);
  // Written out of name order, next to files that are not shards.
  WriteSmallLaq(dir + "/part-2.laq");
  WriteSmallLaq(dir + "/part-0.laq");
  WriteSmallLaq(dir + "/part-1.laq");
  std::ofstream(dir + "/notes.txt") << "not a shard";
  std::ofstream(dir + "/part-3.laq.tmp") << "partial write";
  std::ofstream(dir + "/.laq") << "no stem";

  const auto files = ListLaqFiles(dir);
  ASSERT_TRUE(files.ok()) << files.status().message();
  const std::vector<std::string> expected = {
      dir + "/part-0.laq", dir + "/part-1.laq", dir + "/part-2.laq"};
  EXPECT_EQ(*files, expected);
}

TEST(DatasetReaderTest, ListLaqFilesRejectsMissingAndEmptyDirectories) {
  const std::string missing = ::testing::TempDir() + "/hepq_list_missing";
  const auto no_such = ListLaqFiles(missing);
  EXPECT_EQ(no_such.status().code(), StatusCode::kInvalid);
  EXPECT_NE(no_such.status().message().find(missing), std::string::npos)
      << no_such.status().message();

  const std::string empty_dir = ::testing::TempDir() + "/hepq_list_empty";
  ::mkdir(empty_dir.c_str(), 0755);
  std::ofstream(empty_dir + "/readme.txt") << "no shards here";
  const auto empty = ListLaqFiles(empty_dir);
  EXPECT_EQ(empty.status().code(), StatusCode::kInvalid);
  EXPECT_NE(empty.status().message().find(empty_dir), std::string::npos)
      << empty.status().message();
  EXPECT_NE(empty.status().message().find("no .laq files"),
            std::string::npos)
      << empty.status().message();
}

}  // namespace
}  // namespace hepq
