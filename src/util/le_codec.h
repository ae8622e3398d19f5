#ifndef CONVOY_UTIL_LE_CODEC_H_
#define CONVOY_UTIL_LE_CODEC_H_

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>

namespace convoy {

// Little-endian byte coding, shared by the wire protocol (server/protocol)
// and the write-ahead log (wal/wal). Explicit byte shifts keep the bytes
// independent of host endianness, and -Wconversion-clean by staying in
// unsigned space.

inline void PutU8(std::string* out, uint8_t v) {
  out->push_back(static_cast<char>(v));
}

inline void PutU32(std::string* out, uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    out->push_back(static_cast<char>((v >> (8 * i)) & 0xffu));
  }
}

inline void PutU64(std::string* out, uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    out->push_back(static_cast<char>((v >> (8 * i)) & 0xffu));
  }
}

inline void PutI64(std::string* out, int64_t v) {
  PutU64(out, static_cast<uint64_t>(v));
}

inline void PutF64(std::string* out, double v) {
  uint64_t bits = 0;
  static_assert(sizeof(bits) == sizeof(v));
  std::memcpy(&bits, &v, sizeof(bits));
  PutU64(out, bits);
}

/// Bounds-checked sequential reader over untrusted bytes: a network
/// payload, or disk bytes that a torn write or bit rot may have mangled.
/// Every getter returns false once a read would run past the end, and
/// `failed()` latches, so a decoder can check once at the end.
class ByteReader {
 public:
  explicit ByteReader(std::string_view data) : data_(data) {}

  bool GetU8(uint8_t* v) {
    if (!Need(1)) return false;
    *v = static_cast<uint8_t>(data_[pos_]);
    ++pos_;
    return true;
  }

  bool GetU32(uint32_t* v) {
    if (!Need(4)) return false;
    uint32_t out = 0;
    for (size_t i = 0; i < 4; ++i) {
      out |= static_cast<uint32_t>(static_cast<uint8_t>(data_[pos_ + i]))
             << (8 * i);
    }
    pos_ += 4;
    *v = out;
    return true;
  }

  bool GetU64(uint64_t* v) {
    if (!Need(8)) return false;
    uint64_t out = 0;
    for (size_t i = 0; i < 8; ++i) {
      out |= static_cast<uint64_t>(static_cast<uint8_t>(data_[pos_ + i]))
             << (8 * i);
    }
    pos_ += 8;
    *v = out;
    return true;
  }

  bool GetI64(int64_t* v) {
    uint64_t raw = 0;
    if (!GetU64(&raw)) return false;
    *v = static_cast<int64_t>(raw);
    return true;
  }

  bool GetF64(double* v) {
    uint64_t bits = 0;
    if (!GetU64(&bits)) return false;
    std::memcpy(v, &bits, sizeof(*v));
    return true;
  }

  /// The next `n` bytes, borrowed from the input.
  bool GetBytes(size_t n, std::string_view* v) {
    if (!Need(n)) return false;
    *v = data_.substr(pos_, n);
    pos_ += n;
    return true;
  }

  /// True when at least `n` more bytes remain; otherwise latches failure.
  /// Lets a decoder reject a hostile count before allocating for it.
  bool Need(size_t n) {
    if (failed_ || data_.size() - pos_ < n) {
      failed_ = true;
      return false;
    }
    return true;
  }

  bool AtEnd() const { return pos_ == data_.size() && !failed_; }
  bool failed() const { return failed_; }
  size_t remaining() const { return data_.size() - pos_; }

 private:
  std::string_view data_;
  size_t pos_ = 0;
  bool failed_ = false;
};

}  // namespace convoy

#endif  // CONVOY_UTIL_LE_CODEC_H_
