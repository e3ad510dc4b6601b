// CRC32C tests: known Castagnoli vectors, incremental Extend equivalence
// and the mask scheme that keeps zero-filled regions from verifying.

#include <cstring>
#include <string>

#include "gtest/gtest.h"
#include "qp/util/crc32c.h"

namespace qp {
namespace crc32c {
namespace {

TEST(Crc32cTest, KnownVectors) {
  // The canonical CRC-32C check value.
  EXPECT_EQ(Value("123456789"), 0xE3069283u);
  // iSCSI test vectors (RFC 3720 appendix B.4).
  std::string zeros(32, '\0');
  EXPECT_EQ(Value(zeros), 0x8A9136AAu);
  std::string ones(32, '\xff');
  EXPECT_EQ(Value(ones), 0x62A8AB43u);
  std::string ascending(32, '\0');
  for (int i = 0; i < 32; ++i) ascending[i] = static_cast<char>(i);
  EXPECT_EQ(Value(ascending), 0x46DD794Eu);
}

TEST(Crc32cTest, MatchesABitwiseReferenceAtEveryLengthAndAlignment) {
  // Extend takes eight bytes per step where the CPU allows, the portable
  // fallback four, and both the rest one at a time; a bit-at-a-time
  // reference checks every split of both.
  const auto reference = [](const char* data, size_t n) {
    uint32_t crc = ~0u;
    for (size_t i = 0; i < n; ++i) {
      crc ^= static_cast<unsigned char>(data[i]);
      for (int bit = 0; bit < 8; ++bit) {
        crc = (crc & 1) ? (crc >> 1) ^ 0x82F63B78u : crc >> 1;
      }
    }
    return ~crc;
  };
  std::string data(80, '\0');
  for (size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<char>(i * 151 + 13);
  }
  for (size_t offset = 0; offset < 8; ++offset) {
    for (size_t n = 0; offset + n <= data.size(); ++n) {
      const uint32_t expected = reference(data.data() + offset, n);
      EXPECT_EQ(Value(data.data() + offset, n), expected)
          << "offset " << offset << " length " << n;
      EXPECT_EQ(ExtendPortable(0, data.data() + offset, n), expected)
          << "offset " << offset << " length " << n;
    }
  }
}

TEST(Crc32cTest, EmptyInputIsZero) {
  EXPECT_EQ(Value(""), 0u);
}

TEST(Crc32cTest, ExtendMatchesOneShot) {
  const std::string data = "the quick brown fox jumps over the lazy dog";
  const uint32_t whole = Value(data);
  for (size_t split = 0; split <= data.size(); ++split) {
    uint32_t crc = Extend(0, data.data(), split);
    crc = Extend(crc, data.data() + split, data.size() - split);
    EXPECT_EQ(crc, whole) << "split at " << split;
  }
}

TEST(Crc32cTest, SensitiveToEveryBit) {
  std::string data = "payload";
  const uint32_t base = Value(data);
  for (size_t i = 0; i < data.size(); ++i) {
    for (int bit = 0; bit < 8; ++bit) {
      std::string flipped = data;
      flipped[i] = static_cast<char>(flipped[i] ^ (1 << bit));
      EXPECT_NE(Value(flipped), base) << "byte " << i << " bit " << bit;
    }
  }
}

TEST(Crc32cTest, MaskRoundTripsAndDisplaces) {
  const uint32_t crc = Value("some record body");
  EXPECT_EQ(Unmask(Mask(crc)), crc);
  EXPECT_NE(Mask(crc), crc);
  EXPECT_NE(Mask(Mask(crc)), crc);
  // The fixed point the mask exists to break: an unwritten (zero-filled)
  // header region must not verify as "CRC 0 stored next to CRC-0 data".
  EXPECT_NE(Mask(0u), 0u);
}

}  // namespace
}  // namespace crc32c
}  // namespace qp
