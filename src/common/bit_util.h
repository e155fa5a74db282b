#ifndef FUSION_COMMON_BIT_UTIL_H_
#define FUSION_COMMON_BIT_UTIL_H_

#include <cstdint>
#include <cstring>

namespace fusion {
namespace bit_util {

/// Number of bytes needed to hold `bits` bits.
inline int64_t BytesForBits(int64_t bits) { return (bits + 7) / 8; }

inline bool GetBit(const uint8_t* bits, int64_t i) {
  return (bits[i >> 3] >> (i & 7)) & 1;
}

inline void SetBit(uint8_t* bits, int64_t i) { bits[i >> 3] |= uint8_t(1) << (i & 7); }

inline void ClearBit(uint8_t* bits, int64_t i) {
  bits[i >> 3] &= uint8_t(~(uint8_t(1) << (i & 7)));
}

inline void SetBitTo(uint8_t* bits, int64_t i, bool value) {
  if (value) {
    SetBit(bits, i);
  } else {
    ClearBit(bits, i);
  }
}

/// Count set bits in the first `length` bits of `bits`. `bits` may be
/// null, in which case all bits are considered set.
inline int64_t CountSetBits(const uint8_t* bits, int64_t length) {
  if (bits == nullptr) return length;
  int64_t count = 0;
  int64_t i = 0;
  // Full word popcounts for the bulk of the bitmap.
  const int64_t full_words = length / 64;
  for (int64_t w = 0; w < full_words; ++w) {
    uint64_t word;
    std::memcpy(&word, bits + w * 8, 8);
    count += __builtin_popcountll(word);
  }
  i = full_words * 64;
  for (; i < length; ++i) {
    count += GetBit(bits, i);
  }
  return count;
}

/// Copy bits [src_offset, src_offset + length) of `src` to `dst` from
/// bit `dst_offset` on. Reads no byte of `src` past the last copied bit.
inline void CopyBits(const uint8_t* src, int64_t src_offset, uint8_t* dst,
                     int64_t dst_offset, int64_t length) {
  // Bit by bit up to a destination byte boundary, then whole
  // destination bytes, each from at most two source bytes.
  for (; length > 0 && (dst_offset & 7) != 0; --length) {
    SetBitTo(dst, dst_offset++, GetBit(src, src_offset++));
  }
  const int64_t bytes = length >> 3;
  const uint8_t* s = src + (src_offset >> 3);
  uint8_t* d = dst + (dst_offset >> 3);
  const int shift = static_cast<int>(src_offset & 7);
  if (shift == 0) {
    if (bytes > 0) std::memcpy(d, s, static_cast<size_t>(bytes));
  } else {
    for (int64_t i = 0; i < bytes; ++i) {
      d[i] = static_cast<uint8_t>((s[i] >> shift) | (s[i + 1] << (8 - shift)));
    }
  }
  src_offset += bytes * 8;
  dst_offset += bytes * 8;
  for (length -= bytes * 8; length > 0; --length) {
    SetBitTo(dst, dst_offset++, GetBit(src, src_offset++));
  }
}

inline int64_t RoundUpToMultipleOf64(int64_t n) { return (n + 63) & ~int64_t(63); }

/// Next power of two >= n (n must be > 0).
inline uint64_t NextPowerOfTwo(uint64_t n) {
  if (n <= 1) return 1;
  return uint64_t(1) << (64 - __builtin_clzll(n - 1));
}

}  // namespace bit_util
}  // namespace fusion

#endif  // FUSION_COMMON_BIT_UTIL_H_
