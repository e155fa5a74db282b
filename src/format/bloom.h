#ifndef FUSION_FORMAT_BLOOM_H_
#define FUSION_FORMAT_BLOOM_H_

#include <cstdint>
#include <vector>

namespace fusion {
namespace format {

/// \brief Split-block Bloom filter (the scheme used by Apache Parquet):
/// 32-byte blocks of 8 x u32 lanes, one bit set per lane per key.
/// False-positive rate ~1% at 16 bits/key.
class BloomFilter {
 public:
  /// Serialized filters are whole blocks of this many bytes.
  static constexpr int64_t kBlockBytes = 32;

  /// Sized for roughly `expected_keys` distinct keys.
  explicit BloomFilter(int64_t expected_keys);
  /// Reconstruct from serialized blocks.
  explicit BloomFilter(std::vector<uint32_t> blocks);

  void Insert(uint64_t hash);
  bool MightContain(uint64_t hash) const;

  const std::vector<uint32_t>& blocks() const { return blocks_; }
  int64_t size_bytes() const { return static_cast<int64_t>(blocks_.size()) * 4; }

 private:
  // 8 lanes per 32-byte block.
  static constexpr int kLanes = 8;
  void Mask(uint64_t hash, uint32_t out[kLanes]) const;

  std::vector<uint32_t> blocks_;  // multiple of 8
  uint64_t num_blocks_ = 0;
};

}  // namespace format
}  // namespace fusion

#endif  // FUSION_FORMAT_BLOOM_H_
