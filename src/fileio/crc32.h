#ifndef HEPQUERY_FILEIO_CRC32_H_
#define HEPQUERY_FILEIO_CRC32_H_

#include <cstddef>
#include <cstdint>

namespace hepq {

/// CRC-32 (IEEE 802.3 polynomial, reflected). Every column chunk on disk
/// carries a checksum so the reader can detect corruption. `seed` is a
/// previous result, so Crc32(b, nb, Crc32(a, na)) is the CRC of a‖b.
///
/// Picks the fastest kernel the CPU supports once, on first call: the
/// carry-less-multiply folding kernel on x86-64 with PCLMULQDQ and SSE4.1,
/// else the portable slicing-by-8 kernel. Every kernel returns the same
/// value for the same input.
uint32_t Crc32(const void* data, size_t length, uint32_t seed = 0);

/// The individual kernels behind Crc32, exposed so tests and the
/// micro-benchmark can run each one directly. Same contract as Crc32.
namespace detail {

/// Byte-at-a-time table lookup: the oracle every other kernel is checked
/// against. Not used on any read or write path.
uint32_t Crc32Reference(const void* data, size_t length, uint32_t seed = 0);

/// Slicing-by-8: eight table lookups per 8-byte word. Builds on any
/// target; the fallback when the CPU lacks carry-less multiply.
uint32_t Crc32Portable(const void* data, size_t length, uint32_t seed = 0);

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define HEPQ_CRC32_HAS_CLMUL 1
/// True when the running CPU supports PCLMULQDQ and SSE4.1, i.e. when
/// Crc32Clmul may be called.
bool Crc32ClmulSupported();

/// PCLMULQDQ folding kernel (4 x 128 bits per 64-byte step, Barrett
/// reduction). Inputs under 64 bytes and the final partial 16 bytes go
/// through Crc32Portable. Only call when Crc32ClmulSupported().
uint32_t Crc32Clmul(const void* data, size_t length, uint32_t seed = 0);
#endif

}  // namespace detail

}  // namespace hepq

#endif  // HEPQUERY_FILEIO_CRC32_H_
