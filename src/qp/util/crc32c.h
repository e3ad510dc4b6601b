#ifndef QP_UTIL_CRC32C_H_
#define QP_UTIL_CRC32C_H_

#include <cstddef>
#include <cstdint>
#include <string_view>

namespace qp {
namespace crc32c {

/// CRC-32C (Castagnoli, reflected polynomial 0x82F63B78), the checksum
/// used by the storage layer to frame WAL records and snapshot files.
/// The SSE4.2 crc32 instruction where the CPU has it, else a software
/// slice-by-4; Extend(0, ...) == Value(...).
uint32_t Extend(uint32_t init_crc, const char* data, size_t n);

/// The table-driven slice-by-4 that Extend falls back to on a CPU
/// without SSE4.2, callable on any CPU so tests run it everywhere.
uint32_t ExtendPortable(uint32_t init_crc, const char* data, size_t n);

inline uint32_t Value(const char* data, size_t n) {
  return Extend(0, data, n);
}
inline uint32_t Value(std::string_view data) {
  return Extend(0, data.data(), data.size());
}

/// Masks a CRC that is about to be stored next to the data it covers.
/// Storing raw CRCs invites accidental verification successes: a run of
/// zero bytes has CRC 0, so an unwritten (zero-filled) region would look
/// like a valid empty record. The rotate+offset mask (same scheme as
/// LevelDB/RocksDB) breaks that fixed point.
inline uint32_t Mask(uint32_t crc) {
  return ((crc >> 15) | (crc << 17)) + 0xa282ead8u;
}

/// Inverse of Mask.
inline uint32_t Unmask(uint32_t masked) {
  uint32_t rot = masked - 0xa282ead8u;
  return (rot >> 17) | (rot << 15);
}

}  // namespace crc32c
}  // namespace qp

#endif  // QP_UTIL_CRC32C_H_
