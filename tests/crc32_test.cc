// Cross-checks every CRC-32 kernel (the dispatched Crc32, the portable
// slicing-by-8 kernel and, where the CPU has it, the carry-less-multiply
// kernel) against the byte-at-a-time oracle over lengths, alignments,
// seeds and chaining.

#include <gtest/gtest.h>

#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

#include "core/rng.h"
#include "fileio/crc32.h"

namespace hepq {
namespace {

using Kernel = uint32_t (*)(const void*, size_t, uint32_t);

struct NamedKernel {
  const char* name;
  Kernel fn;
  friend void PrintTo(const NamedKernel& k, std::ostream* os) {
    *os << k.name;
  }
};

std::vector<uint8_t> RandomBytes(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<uint8_t> out(n);
  for (uint8_t& b : out) b = static_cast<uint8_t>(rng.NextBelow(256));
  return out;
}

class Crc32KernelTest : public ::testing::TestWithParam<NamedKernel> {
 protected:
  void SetUp() override {
#if HEPQ_CRC32_HAS_CLMUL
    if (GetParam().fn == &detail::Crc32Clmul &&
        !detail::Crc32ClmulSupported()) {
      GTEST_SKIP() << "CPU lacks PCLMULQDQ/SSE4.1";
    }
#endif
  }
  uint32_t Run(const void* data, size_t n, uint32_t seed = 0) const {
    return GetParam().fn(data, n, seed);
  }
};

TEST_P(Crc32KernelTest, KnownVector) {
  const char* check = "123456789";
  EXPECT_EQ(Run(check, 9), 0xCBF43926u);
  EXPECT_EQ(Run(check, 0), 0u);
  // The same vector chained byte by byte through the seed.
  uint32_t c = 0;
  for (int i = 0; i < 9; ++i) c = Run(check + i, 1, c);
  EXPECT_EQ(c, 0xCBF43926u);
}

TEST_P(Crc32KernelTest, EveryLengthUpTo4096) {
  const auto data = RandomBytes(4096, 1);
  for (size_t n = 0; n <= data.size(); ++n) {
    ASSERT_EQ(Run(data.data(), n), detail::Crc32Reference(data.data(), n))
        << "length " << n;
  }
}

TEST_P(Crc32KernelTest, BlockBoundariesAndLargeInputs) {
  const size_t lengths[] = {16,  63,        64,          65, 127,
                            128, 129,       1u << 20,    (1u << 20) + 13};
  const auto data = RandomBytes((1u << 20) + 13, 2);
  for (size_t n : lengths) {
    EXPECT_EQ(Run(data.data(), n), detail::Crc32Reference(data.data(), n))
        << "length " << n;
  }
}

TEST_P(Crc32KernelTest, EveryStartOffset) {
  const auto data = RandomBytes(64 + 1024, 3);
  for (size_t offset = 0; offset < 64; ++offset) {
    for (size_t n = 0; n <= 1024; n += n < 200 ? 1 : 103) {
      ASSERT_EQ(Run(data.data() + offset, n),
                detail::Crc32Reference(data.data() + offset, n))
          << "offset " << offset << " length " << n;
    }
  }
}

TEST_P(Crc32KernelTest, RandomOffsetsLengthsAndSeeds) {
  const auto data = RandomBytes(1 << 16, 4);
  Rng rng(5);
  for (int i = 0; i < 2000; ++i) {
    const size_t offset = rng.NextBelow(64);
    const size_t n = rng.NextBelow(data.size() - offset);
    const uint32_t seed = static_cast<uint32_t>(rng.NextU64());
    ASSERT_EQ(Run(data.data() + offset, n, seed),
              detail::Crc32Reference(data.data() + offset, n, seed))
        << "offset " << offset << " length " << n << " seed " << seed;
  }
}

// The writer chains per-page CRCs into a chunk CRC through the seed, so
// Crc32(b, Crc32(a)) must equal the CRC of the concatenation.
TEST_P(Crc32KernelTest, ChainingEqualsConcatenation) {
  const auto data = RandomBytes(5000, 6);
  const uint32_t whole = detail::Crc32Reference(data.data(), data.size());
  for (size_t split : {size_t{0}, size_t{1}, size_t{15}, size_t{64},
                       size_t{100}, size_t{2048}, size_t{4999},
                       size_t{5000}}) {
    const uint32_t head = Run(data.data(), split);
    EXPECT_EQ(Run(data.data() + split, data.size() - split, head), whole)
        << "split " << split;
  }
}

const NamedKernel kKernels[] = {
    {"dispatch", &Crc32},
    {"portable", &detail::Crc32Portable},
#if HEPQ_CRC32_HAS_CLMUL
    {"clmul", &detail::Crc32Clmul},
#endif
};

INSTANTIATE_TEST_SUITE_P(
    Kernels, Crc32KernelTest, ::testing::ValuesIn(kKernels),
    [](const ::testing::TestParamInfo<NamedKernel>& info) {
      return std::string(info.param.name);
    });

TEST(Crc32ReferenceTest, KnownVectors) {
  EXPECT_EQ(detail::Crc32Reference("123456789", 9), 0xCBF43926u);
  EXPECT_EQ(detail::Crc32Reference("", 0), 0u);
  EXPECT_EQ(detail::Crc32Reference("a", 1), 0xE8B7BE43u);
}

}  // namespace
}  // namespace hepq
