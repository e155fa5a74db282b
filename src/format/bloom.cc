#include "format/bloom.h"

#include "common/bit_util.h"

namespace fusion {
namespace format {

namespace {
// Salt constants from the Parquet split-block bloom specification.
constexpr uint32_t kSalt[8] = {0x47b6137bU, 0x44974d91U, 0x8824ad5bU, 0xa2b7289dU,
                               0x705495c7U, 0x2df1424bU, 0x9efc4947U, 0x5c6bfb31U};
}  // namespace

BloomFilter::BloomFilter(int64_t expected_keys) {
  // ~16 bits per key, rounded to a power-of-two block count for cheap
  // modulo-by-mask indexing.
  int64_t bits = expected_keys * 16;
  int64_t blocks = bits / 256;  // 256 bits per block
  num_blocks_ = bit_util::NextPowerOfTwo(static_cast<uint64_t>(std::max<int64_t>(blocks, 1)));
  blocks_.assign(num_blocks_ * kLanes, 0);
}

BloomFilter::BloomFilter(std::vector<uint32_t> blocks) : blocks_(std::move(blocks)) {
  num_blocks_ = blocks_.size() / kLanes;
}

void BloomFilter::Mask(uint64_t hash, uint32_t out[kLanes]) const {
  uint32_t x = static_cast<uint32_t>(hash);
  for (int i = 0; i < kLanes; ++i) {
    uint32_t y = x * kSalt[i];
    out[i] = uint32_t(1) << (y >> 27);
  }
}

void BloomFilter::Insert(uint64_t hash) {
  uint64_t block = (hash >> 32) & (num_blocks_ - 1);
  uint32_t mask[kLanes];
  Mask(hash, mask);
  uint32_t* b = blocks_.data() + block * kLanes;
  for (int i = 0; i < kLanes; ++i) b[i] |= mask[i];
}

bool BloomFilter::MightContain(uint64_t hash) const {
  uint64_t block = (hash >> 32) & (num_blocks_ - 1);
  uint32_t mask[kLanes];
  Mask(hash, mask);
  const uint32_t* b = blocks_.data() + block * kLanes;
  for (int i = 0; i < kLanes; ++i) {
    if ((b[i] & mask[i]) != mask[i]) return false;
  }
  return true;
}

}  // namespace format
}  // namespace fusion
