#ifndef FUSION_COMPUTE_GROUP_TABLE_H_
#define FUSION_COMPUTE_GROUP_TABLE_H_

#include <cstdint>
#include <vector>

#include "arrow/array.h"
#include "common/result.h"
#include "row/row_format.h"

namespace fusion {
namespace compute {

/// \brief Vectorized group table (paper §6.3/§6.6): a flat
/// open-addressing hash table (power-of-two capacity, linear probing)
/// mapping multi-column group keys to dense group ids.
///
/// Keys live in a bump-allocated arena (one contiguous byte buffer,
/// addressed by (offset,len) slots) instead of per-row heap strings;
/// each slot also stores the key's full 64-bit hash so probes reject
/// mismatches without touching key bytes. Batches are encoded in bulk
/// via row::GroupKeyEncoder::EncodeColumnsToArena, so the per-row work
/// of MapBatch is one probe loop with no allocation.
class GroupTable {
 public:
  explicit GroupTable(std::vector<DataType> key_types);

  /// Map every row of `key_columns` to a dense group id, inserting
  /// unseen keys. `hashes` is the per-row output of HashColumns over
  /// the same columns (the caller usually already has it for radix
  /// routing); `group_ids` is resized to the row count.
  Status MapBatch(const std::vector<ArrayPtr>& key_columns,
                  const std::vector<uint64_t>& hashes,
                  std::vector<uint32_t>* group_ids);

  int64_t num_groups() const { return static_cast<int64_t>(groups_.size()); }

  /// The stored 64-bit key hash of group `g` (the value HashColumns
  /// produced when the group was first inserted).
  uint64_t group_hash(uint32_t g) const { return groups_[g].hash; }

  /// The GroupKeyEncoder bytes of group `g`'s key.
  std::string_view group_key(uint32_t g) const {
    return {reinterpret_cast<const char*>(arena_.data()) + groups_[g].key.offset,
            groups_[g].key.length};
  }

  /// Radix bucket of a key hash for `num_buckets`-way partitioned
  /// merging: a range partition of the high 32 bits. Deliberately
  /// disjoint from SlotFor's Fibonacci spread of the full hash, so a
  /// table holding only one bucket's keys still fills its slots evenly.
  static uint32_t RadixBucket(uint64_t hash, uint32_t num_buckets) {
    return static_cast<uint32_t>(((hash >> 32) * num_buckets) >> 32);
  }

  /// Merge the groups of `other` listed in `indices` into this table:
  /// each entry's stored hash and arena-backed key bytes are probed
  /// directly (no re-encode through GroupKeyEncoder — the arena encoding
  /// is byte-identical across tables, including the dictionary fast
  /// path). `target_ids[i]` receives this table's group id for
  /// `other`'s group `indices[i]`. `other` must outlive the call and
  /// must not be this table.
  Status MergeFrom(const GroupTable& other, const std::vector<uint32_t>& indices,
                   std::vector<uint32_t>* target_ids);

  /// Decode the group keys back into one array per key column
  /// (row g = group g).
  Result<std::vector<ArrayPtr>> DecodeGroupKeys() const;

  /// Bytes held by the table, arena and scratch buffers (memory-pool
  /// accounting).
  int64_t SizeBytes() const;

  const std::vector<DataType>& key_types() const { return encoder_.types(); }

 private:
  struct GroupEntry {
    uint64_t hash = 0;
    row::KeySlice key;
  };

  /// Slot index for a hash: multiplicative (Fibonacci) spread of the
  /// full hash, deliberately independent of RadixBucket's range of the
  /// high bits — a merge partition sees only one bucket's hashes, and
  /// indexing by those bits alone would cluster them into a fraction of
  /// the slots.
  size_t SlotFor(uint64_t hash) const {
    return static_cast<size_t>((hash * 0x9e3779b97f4a7c15ULL) >> shift_) &
           (capacity_ - 1);
  }

  void Grow();

  /// Probe/insert one encoded key; shared by the generic arena path and
  /// the dictionary fast path.
  uint32_t FindOrInsert(uint64_t hash, const uint8_t* key, uint32_t len);

  /// Single dictionary key column: resolve each distinct code to a group
  /// id once per dictionary instance, then map rows by gather.
  Status MapDictBatch(const DictionaryArray& keys, std::vector<uint32_t>* group_ids);

  row::GroupKeyEncoder encoder_;
  /// Open-addressing slots: group id per slot (kEmptySlot = vacant).
  /// The slot's key hash lives in its GroupEntry.
  std::vector<uint32_t> slots_;
  size_t capacity_ = 0;   // power of two
  int shift_ = 0;         // 64 - log2(capacity)
  std::vector<GroupEntry> groups_;  // id -> (hash, arena slice)
  std::vector<uint8_t> arena_;      // encoded key bytes of all groups
  /// Per-batch scratch: freshly encoded candidate keys (only inserted
  /// rows are copied into the persistent arena).
  std::vector<uint8_t> scratch_arena_;
  std::vector<row::KeySlice> scratch_slices_;
  /// Dictionary fast-path cache: group id per code of the most recent
  /// dictionary instance (codes resolve lazily, so unreferenced entries
  /// never create groups). The shared_ptr keeps the pointer-identity
  /// check sound across batches.
  std::shared_ptr<StringArray> cached_dict_;
  std::vector<uint32_t> cached_dict_group_ids_;
};

/// \brief The same flat-table core specialized for hash joins: an
/// open-addressing multimap from 64-bit key hashes to "head" entry ids,
/// with duplicate hashes chained through a caller-owned next[] array
/// (HashJoinExec's build rows). Replaces std::unordered_map buckets:
/// probing is linear over two flat arrays, and inserts allocate nothing.
class HashChainTable {
 public:
  HashChainTable();

  /// Insert entry `id` under `hash`. Returns the previous head for the
  /// hash (-1 if none), which the caller stores as next[id].
  int64_t Insert(uint64_t hash, int64_t id);

  /// Head entry id for `hash`, or -1 when absent.
  int64_t Find(uint64_t hash) const {
    size_t slot = SlotFor(hash);
    for (;;) {
      int64_t head = heads_[slot];
      if (head < 0) return -1;
      if (hashes_[slot] == hash) return head;
      slot = (slot + 1) & (capacity_ - 1);
    }
  }

  /// Pre-size for an expected number of distinct hashes.
  void Reserve(int64_t distinct_hashes);

  int64_t SizeBytes() const {
    return static_cast<int64_t>(capacity_ * (sizeof(uint64_t) + sizeof(int64_t)));
  }

 private:
  size_t SlotFor(uint64_t hash) const {
    return static_cast<size_t>((hash * 0x9e3779b97f4a7c15ULL) >> shift_) &
           (capacity_ - 1);
  }

  void Grow();

  std::vector<uint64_t> hashes_;
  std::vector<int64_t> heads_;  // -1 = empty slot
  size_t capacity_ = 0;
  int shift_ = 0;
  size_t size_ = 0;  // occupied slots (distinct hashes)
};

}  // namespace compute
}  // namespace fusion

#endif  // FUSION_COMPUTE_GROUP_TABLE_H_
