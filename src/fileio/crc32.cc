#include "fileio/crc32.h"

#include <array>
#include <bit>
#include <cstring>

#if HEPQ_CRC32_HAS_CLMUL
#include <immintrin.h>
#endif

namespace hepq {

namespace {

/// kTables[0] is the classic byte table for the reflected polynomial
/// 0xedb88320; kTables[k][i] is the CRC of byte i followed by k zero
/// bytes, which is what lets slicing-by-8 consume a word per step.
using Crc32Tables = std::array<std::array<uint32_t, 256>, 8>;

constexpr Crc32Tables MakeTables() {
  Crc32Tables t{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1u) ? 0xedb88320u ^ (c >> 1) : c >> 1;
    }
    t[0][i] = c;
  }
  for (size_t k = 1; k < t.size(); ++k) {
    for (uint32_t i = 0; i < 256; ++i) {
      t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xffu];
    }
  }
  return t;
}

constexpr Crc32Tables kTables = MakeTables();

// The helpers below work on the raw CRC register (seed ^ ~0), so they
// chain without the pre/post inversion the public entry points apply.

uint32_t UpdateBytewise(const uint8_t* p, size_t n, uint32_t c) {
  for (size_t i = 0; i < n; ++i) {
    c = kTables[0][(c ^ p[i]) & 0xffu] ^ (c >> 8);
  }
  return c;
}

uint32_t UpdateSliceBy8(const uint8_t* p, size_t n, uint32_t c) {
  for (; n >= 8; p += 8, n -= 8) {
    uint64_t word;
    std::memcpy(&word, p, 8);
    if constexpr (std::endian::native == std::endian::big) {
      word = __builtin_bswap64(word);
    }
    word ^= c;
    c = kTables[7][word & 0xffu] ^ kTables[6][(word >> 8) & 0xffu] ^
        kTables[5][(word >> 16) & 0xffu] ^ kTables[4][(word >> 24) & 0xffu] ^
        kTables[3][(word >> 32) & 0xffu] ^ kTables[2][(word >> 40) & 0xffu] ^
        kTables[1][(word >> 48) & 0xffu] ^ kTables[0][word >> 56];
  }
  return UpdateBytewise(p, n, c);
}

#if HEPQ_CRC32_HAS_CLMUL

#define HEPQ_CLMUL_TARGET __attribute__((target("pclmul,sse4.1")))

HEPQ_CLMUL_TARGET inline __m128i Load128(const uint8_t* at) {
  return _mm_loadu_si128(reinterpret_cast<const __m128i*>(at));
}

/// a.lo * k.lo ^ a.hi * k.hi ^ next: moves the 128-bit lane `a` forward by
/// the distance the constant pair `k` encodes and absorbs `next`.
HEPQ_CLMUL_TARGET inline __m128i Fold128(__m128i a, __m128i k, __m128i next) {
  const __m128i lo = _mm_clmulepi64_si128(a, k, 0x00);
  const __m128i hi = _mm_clmulepi64_si128(a, k, 0x11);
  return _mm_xor_si128(_mm_xor_si128(lo, hi), next);
}

/// Folds `n` bytes (n >= 64, a multiple of 16) into the CRC register with
/// carry-less multiplies. The constants are x^k mod P(x), bit-reflected,
/// for the reflected IEEE polynomial P = 0x1db710641 (Gopal et al.,
/// "Fast CRC Computation for Generic Polynomials Using PCLMULQDQ",
/// Intel, 2009):
///   k1 = x^(4*128+32), k2 = x^(4*128-32)  fold 512 bits forward
///   k3 = x^(128+32),   k4 = x^(128-32)    fold 128 bits forward
///   k5 = x^64                              fold 96 bits to 64
///   mu = x^64 / P                          Barrett quotient
HEPQ_CLMUL_TARGET uint32_t FoldClmul(const uint8_t* p, size_t n, uint32_t c) {
  const __m128i k1k2 = _mm_set_epi64x(0x01c6e41596, 0x0154442bd4);
  const __m128i k3k4 = _mm_set_epi64x(0x00ccaa009e, 0x01751997d0);
  const __m128i k5 = _mm_set_epi64x(0, 0x0163cd6124);
  const __m128i poly_mu = _mm_set_epi64x(0x01f7011641, 0x01db710641);
  const __m128i low32 = _mm_setr_epi32(-1, 0, -1, 0);

  // Four independent 128-bit accumulators over each 64-byte block.
  __m128i x0 =
      _mm_xor_si128(Load128(p), _mm_cvtsi32_si128(static_cast<int>(c)));
  __m128i x1 = Load128(p + 16);
  __m128i x2 = Load128(p + 32);
  __m128i x3 = Load128(p + 48);
  p += 64;
  n -= 64;
  for (; n >= 64; p += 64, n -= 64) {
    x0 = Fold128(x0, k1k2, Load128(p));
    x1 = Fold128(x1, k1k2, Load128(p + 16));
    x2 = Fold128(x2, k1k2, Load128(p + 32));
    x3 = Fold128(x3, k1k2, Load128(p + 48));
  }

  // Down to one accumulator, then the remaining whole 16-byte blocks.
  x0 = Fold128(x0, k3k4, x1);
  x0 = Fold128(x0, k3k4, x2);
  x0 = Fold128(x0, k3k4, x3);
  for (; n >= 16; p += 16, n -= 16) x0 = Fold128(x0, k3k4, Load128(p));

  // 128 -> 96 bits: multiply the low half by k4 and add the high half.
  x0 = _mm_xor_si128(_mm_clmulepi64_si128(x0, k3k4, 0x10),
                     _mm_srli_si128(x0, 8));
  // 96 -> 64 bits: multiply the low 32 bits by k5 and add the rest.
  x0 = _mm_xor_si128(
      _mm_clmulepi64_si128(_mm_and_si128(x0, low32), k5, 0x00),
      _mm_srli_si128(x0, 4));
  // Barrett reduction of the 64-bit remainder to 32 bits.
  __m128i t = _mm_clmulepi64_si128(_mm_and_si128(x0, low32), poly_mu, 0x10);
  t = _mm_clmulepi64_si128(_mm_and_si128(t, low32), poly_mu, 0x00);
  x0 = _mm_xor_si128(x0, t);
  return static_cast<uint32_t>(_mm_extract_epi32(x0, 1));
}

#undef HEPQ_CLMUL_TARGET

#endif  // HEPQ_CRC32_HAS_CLMUL

}  // namespace

namespace detail {

uint32_t Crc32Reference(const void* data, size_t length, uint32_t seed) {
  return UpdateBytewise(static_cast<const uint8_t*>(data), length,
                        seed ^ 0xffffffffu) ^
         0xffffffffu;
}

uint32_t Crc32Portable(const void* data, size_t length, uint32_t seed) {
  return UpdateSliceBy8(static_cast<const uint8_t*>(data), length,
                        seed ^ 0xffffffffu) ^
         0xffffffffu;
}

#if HEPQ_CRC32_HAS_CLMUL

bool Crc32ClmulSupported() {
  __builtin_cpu_init();
  return __builtin_cpu_supports("pclmul") && __builtin_cpu_supports("sse4.1");
}

uint32_t Crc32Clmul(const void* data, size_t length, uint32_t seed) {
  const auto* p = static_cast<const uint8_t*>(data);
  uint32_t c = seed ^ 0xffffffffu;
  if (length >= 64) {
    const size_t folded = length & ~size_t{15};
    c = FoldClmul(p, folded, c);
    p += folded;
    length -= folded;
  }
  return UpdateSliceBy8(p, length, c) ^ 0xffffffffu;
}

#endif  // HEPQ_CRC32_HAS_CLMUL

}  // namespace detail

uint32_t Crc32(const void* data, size_t length, uint32_t seed) {
  using Kernel = uint32_t (*)(const void*, size_t, uint32_t);
  static const Kernel kernel = [] {
#if HEPQ_CRC32_HAS_CLMUL
    if (detail::Crc32ClmulSupported()) return &detail::Crc32Clmul;
#endif
    return &detail::Crc32Portable;
  }();
  return kernel(data, length, seed);
}

}  // namespace hepq
