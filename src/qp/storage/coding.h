#ifndef QP_STORAGE_CODING_H_
#define QP_STORAGE_CODING_H_

#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>

namespace qp {
namespace storage {

/// Little-endian fixed-width integer framing for the binary profile
/// codec, the one format every profile at rest uses: WAL records and
/// snapshot bodies alike. Doubles travel as their raw IEEE-754 bit
/// pattern, so degrees of interest and literals round-trip exactly.

inline void PutFixed32(std::string* dst, uint32_t v) {
  char buf[4];
  buf[0] = static_cast<char>(v & 0xff);
  buf[1] = static_cast<char>((v >> 8) & 0xff);
  buf[2] = static_cast<char>((v >> 16) & 0xff);
  buf[3] = static_cast<char>((v >> 24) & 0xff);
  dst->append(buf, 4);
}

inline void PutFixed64(std::string* dst, uint64_t v) {
  PutFixed32(dst, static_cast<uint32_t>(v & 0xffffffffu));
  PutFixed32(dst, static_cast<uint32_t>(v >> 32));
}

inline void PutDouble(std::string* dst, double v) {
  uint64_t bits;
  static_assert(sizeof bits == sizeof v);
  std::memcpy(&bits, &v, sizeof bits);
  PutFixed64(dst, bits);
}

inline void PutLengthPrefixed(std::string* dst, std::string_view s) {
  PutFixed32(dst, static_cast<uint32_t>(s.size()));
  dst->append(s.data(), s.size());
}

inline uint32_t DecodeFixed32(const char* p) {
  return static_cast<uint32_t>(static_cast<unsigned char>(p[0])) |
         (static_cast<uint32_t>(static_cast<unsigned char>(p[1])) << 8) |
         (static_cast<uint32_t>(static_cast<unsigned char>(p[2])) << 16) |
         (static_cast<uint32_t>(static_cast<unsigned char>(p[3])) << 24);
}

inline uint64_t DecodeFixed64(const char* p) {
  return static_cast<uint64_t>(DecodeFixed32(p)) |
         (static_cast<uint64_t>(DecodeFixed32(p + 4)) << 32);
}

/// Cursor-style reader over an encoded buffer. Get* methods return false
/// (without advancing) when the remaining bytes cannot satisfy the read,
/// which decoders surface as a corruption Status.
class Decoder {
 public:
  explicit Decoder(std::string_view data) : data_(data) {}

  size_t remaining() const { return data_.size() - pos_; }
  bool empty() const { return remaining() == 0; }

  bool GetFixed32(uint32_t* v) {
    if (remaining() < 4) return false;
    *v = DecodeFixed32(data_.data() + pos_);
    pos_ += 4;
    return true;
  }

  bool GetFixed64(uint64_t* v) {
    if (remaining() < 8) return false;
    *v = DecodeFixed64(data_.data() + pos_);
    pos_ += 8;
    return true;
  }

  bool GetDouble(double* v) {
    uint64_t bits;
    if (!GetFixed64(&bits)) return false;
    std::memcpy(v, &bits, sizeof *v);
    return true;
  }

  bool GetByte(uint8_t* v) {
    if (remaining() < 1) return false;
    *v = static_cast<uint8_t>(data_[pos_++]);
    return true;
  }

  bool GetLengthPrefixed(std::string_view* s) {
    uint32_t n;
    if (!GetFixed32(&n)) return false;
    if (remaining() < n) {
      pos_ -= 4;
      return false;
    }
    *s = data_.substr(pos_, n);
    pos_ += n;
    return true;
  }

 private:
  std::string_view data_;
  size_t pos_ = 0;
};

}  // namespace storage
}  // namespace qp

#endif  // QP_STORAGE_CODING_H_
