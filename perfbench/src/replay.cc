#include "replay.h"

#include <cstdio>
#include <memory>

#include "fileio/compression.h"
#include "fileio/crc32.h"
#include "fileio/encoding.h"

namespace perfbench {

namespace {

struct FileCloser {
  void operator()(std::FILE* f) const { std::fclose(f); }
};
using FilePtr = std::unique_ptr<std::FILE, FileCloser>;

/// One chunk to replay: which file, row group and leaf.
struct ChunkRef {
  size_t file = 0;
  int group = 0;
  int leaf = 0;
};

}  // namespace

hepq::Status ReplayFileio(const std::vector<std::string>& files,
                          const hepq::ScanStats& scan, int64_t exec,
                          Tracer& tracer, ReplayScratch* scratch) {
  ScopedSpan replay(tracer, "replay", exec);
  hepq::ReaderOptions options;
  options.footer_cache = false;
  std::vector<std::unique_ptr<hepq::LaqReader>> readers;
  std::vector<FilePtr> raw;
  for (const std::string& path : files) {
    {
      ScopedSpan open(tracer, "fileio.open", exec);
      auto reader = hepq::LaqReader::Open(path, options);
      if (!reader.ok()) return reader.status();
      readers.push_back(std::move(*reader));
    }
    raw.emplace_back(std::fopen(path.c_str(), "rb"));
    if (raw.back() == nullptr) {
      return hepq::Status::IoError("cannot reopen '" + path + "'");
    }
  }

  // The dataset's row groups in (file, group) order; shards share a schema,
  // so leaf indices agree across files.
  std::vector<std::pair<size_t, int>> groups;
  for (size_t f = 0; f < readers.size(); ++f) {
    for (int g = 0; g < readers[f]->num_row_groups(); ++g) {
      groups.emplace_back(f, g);
    }
  }
  std::vector<ChunkRef> chunks;
  for (const hepq::LeafScanStats& leaf : scan.leaves) {
    if (leaf.chunks_read == 0 || groups.empty()) continue;
    const int index = readers.front()->metadata().LeafIndex(leaf.path);
    if (index < 0) {
      return hepq::Status::KeyError("replay: no leaf '" + leaf.path + "'");
    }
    for (uint64_t c = 0; c < leaf.chunks_read; ++c) {
      const auto& [file, group] = groups[c % groups.size()];
      chunks.push_back(ChunkRef{file, group, index});
    }
  }

  std::vector<hepq::PageMeta> unpaged(1);
  for (const ChunkRef& ref : chunks) {
    const hepq::FileMetadata& meta = readers[ref.file]->metadata();
    const hepq::ChunkMeta& chunk =
        meta.row_groups[static_cast<size_t>(ref.group)]
            .chunks[static_cast<size_t>(ref.leaf)];
    const hepq::LeafDesc& desc = meta.layout[static_cast<size_t>(ref.leaf)];
    const size_t width =
        static_cast<size_t>(hepq::PrimitiveWidth(desc.physical));
    {
      ScopedSpan fetch(tracer, "fileio.fetch", exec);
      scratch->compressed.resize(chunk.compressed_size);
      std::FILE* file = raw[ref.file].get();
      if (std::fseek(file, static_cast<long>(chunk.file_offset), SEEK_SET) !=
              0 ||
          std::fread(scratch->compressed.data(), 1, chunk.compressed_size,
                     file) != chunk.compressed_size) {
        return hepq::Status::IoError("replay: short read of " + desc.path);
      }
      fetch.set_bytes(chunk.compressed_size);
    }
    {
      ScopedSpan checksum(tracer, "fileio.checksum", exec);
      if (hepq::Crc32(scratch->compressed.data(), chunk.compressed_size) !=
          chunk.crc32) {
        return hepq::Status::Corruption("replay: checksum mismatch in " +
                                        desc.path);
      }
      checksum.set_bytes(chunk.compressed_size);
    }
    // An unpaged chunk decodes as one page.
    unpaged[0].num_values = chunk.num_values;
    unpaged[0].compressed_size = chunk.compressed_size;
    unpaged[0].encoded_size = chunk.encoded_size;
    const std::vector<hepq::PageMeta>& pages =
        chunk.pages.empty() ? unpaged : chunk.pages;
    if (scratch->pages.size() < pages.size()) {
      scratch->pages.resize(pages.size());
    }
    {
      ScopedSpan decompress(tracer, "fileio.decompress", exec);
      size_t offset = 0;
      for (size_t p = 0; p < pages.size(); ++p) {
        HEPQ_RETURN_NOT_OK(hepq::Decompress(
            chunk.codec, scratch->compressed.data() + offset,
            pages[p].compressed_size, pages[p].encoded_size,
            &scratch->pages[p]));
        offset += pages[p].compressed_size;
      }
      decompress.set_bytes(chunk.encoded_size);
    }
    {
      ScopedSpan decode(tracer, "fileio.decode", exec);
      scratch->values.resize(chunk.num_values * width);
      size_t value_offset = 0;
      for (size_t p = 0; p < pages.size(); ++p) {
        const std::vector<uint8_t>& encoded = scratch->pages[p];
        HEPQ_RETURN_NOT_OK(hepq::DecodeValues(
            desc.physical, chunk.encoding, encoded.data(), encoded.size(),
            pages[p].num_values,
            scratch->values.data() + value_offset * width));
        value_offset += pages[p].num_values;
      }
      decode.set_bytes(chunk.num_values * width);
    }
  }

  ScopedSpan read_leaf(tracer, "fileio.read_leaf", exec);
  uint64_t decoded = 0;
  for (const ChunkRef& ref : chunks) {
    hepq::LaqReader& reader = *readers[ref.file];
    HEPQ_RETURN_NOT_OK(reader.ReadLeafValues(
        ref.group, reader.metadata().layout[static_cast<size_t>(ref.leaf)].path,
        &scratch->leaf));
    decoded += scratch->leaf.values.size();
  }
  read_leaf.set_bytes(decoded);
  return hepq::Status::OK();
}

}  // namespace perfbench
