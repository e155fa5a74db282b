#include "compute/group_table.h"

#include <cstring>

#include "common/hash_util.h"

namespace fusion {
namespace compute {

namespace {

constexpr uint32_t kEmptySlot = 0xffffffffu;
constexpr size_t kInitialCapacity = 64;

int ShiftFor(size_t capacity) {
  int log2 = 0;
  while ((size_t(1) << log2) < capacity) ++log2;
  return 64 - log2;
}

}  // namespace

GroupTable::GroupTable(std::vector<DataType> key_types)
    : encoder_(std::move(key_types)),
      slots_(kInitialCapacity, kEmptySlot),
      capacity_(kInitialCapacity),
      shift_(ShiftFor(kInitialCapacity)) {}

void GroupTable::Grow() {
  capacity_ *= 2;
  shift_ = ShiftFor(capacity_);
  slots_.assign(capacity_, kEmptySlot);
  // Rehash by reinserting every group's stored hash; keys stay put in
  // the arena.
  for (uint32_t g = 0; g < groups_.size(); ++g) {
    size_t slot = SlotFor(groups_[g].hash);
    while (slots_[slot] != kEmptySlot) slot = (slot + 1) & (capacity_ - 1);
    slots_[slot] = g;
  }
}

uint32_t GroupTable::FindOrInsert(uint64_t hash, const uint8_t* key,
                                  uint32_t len) {
  // Keep the load factor below 1/2 even if every remaining row is a
  // new group (checked per probe: the loop relies on a free slot).
  if ((groups_.size() + 1) * 2 > capacity_) Grow();
  size_t slot = SlotFor(hash);
  for (;;) {
    const uint32_t g = slots_[slot];
    if (g == kEmptySlot) {
      // New group: copy the encoded key into the arena.
      const uint32_t id = static_cast<uint32_t>(groups_.size());
      GroupEntry entry;
      entry.hash = hash;
      entry.key.offset = arena_.size();
      entry.key.length = len;
      arena_.insert(arena_.end(), key, key + len);
      groups_.push_back(entry);
      slots_[slot] = id;
      return id;
    }
    const GroupEntry& entry = groups_[g];
    if (entry.hash == hash && entry.key.length == len &&
        std::memcmp(arena_.data() + entry.key.offset, key, len) == 0) {
      return g;
    }
    slot = (slot + 1) & (capacity_ - 1);
  }
}

Status GroupTable::MapDictBatch(const DictionaryArray& keys,
                                std::vector<uint32_t>* group_ids) {
  const int64_t rows = keys.length();
  group_ids->resize(static_cast<size_t>(rows));
  if (rows == 0) return Status::OK();

  const std::shared_ptr<StringArray>& dict = keys.dictionary();
  if (cached_dict_ != dict) {
    cached_dict_ = dict;
    cached_dict_group_ids_.assign(static_cast<size_t>(dict->length()),
                                  kEmptySlot);
  }
  uint32_t* code_gids = cached_dict_group_ids_.data();
  const int32_t* codes = keys.raw_codes();
  const bool has_nulls = keys.null_count() > 0;
  uint32_t null_gid = kEmptySlot;
  std::string scratch;
  for (int64_t r = 0; r < rows; ++r) {
    if (has_nulls && keys.IsNull(r)) {
      if (null_gid == kEmptySlot) {
        const uint8_t null_key = 0;  // '\x00': same bytes as EncodeColumnsToArena
        null_gid = FindOrInsert(0x9e3779b97f4a7c15ULL, &null_key, 1);
      }
      (*group_ids)[r] = null_gid;
      continue;
    }
    const int32_t code = codes[r];
    uint32_t gid = code_gids[code];
    if (gid == kEmptySlot) {
      // First time this code appears: encode '\x01' + u32 len + bytes
      // (identical to the generic arena encoding) and probe once.
      std::string_view v = dict->Value(code);
      const uint32_t len = static_cast<uint32_t>(v.size());
      scratch.clear();
      scratch.push_back('\x01');
      scratch.append(reinterpret_cast<const char*>(&len), 4);
      scratch.append(v.data(), v.size());
      gid = FindOrInsert(hash_util::HashString(v),
                         reinterpret_cast<const uint8_t*>(scratch.data()),
                         static_cast<uint32_t>(scratch.size()));
      code_gids[code] = gid;
    }
    (*group_ids)[r] = gid;
  }
  return Status::OK();
}

Status GroupTable::MapBatch(const std::vector<ArrayPtr>& key_columns,
                            const std::vector<uint64_t>& hashes,
                            std::vector<uint32_t>* group_ids) {
  // Single dictionary key: group ids resolve per distinct code, not per
  // row, and the per-row loop degenerates to a gather (paper §6.6's
  // "group on codes" optimization). Hashes are per-entry HashString
  // values, matching what HashColumns produced for the same rows.
  if (key_columns.size() == 1 && key_columns[0]->type().is_dictionary()) {
    return MapDictBatch(checked_cast<DictionaryArray>(*key_columns[0]),
                        group_ids);
  }

  scratch_arena_.clear();
  FUSION_RETURN_NOT_OK(encoder_.EncodeColumnsToArena(key_columns, &scratch_arena_,
                                                     &scratch_slices_));
  const int64_t rows = static_cast<int64_t>(scratch_slices_.size());
  if (static_cast<int64_t>(hashes.size()) != rows) {
    return Status::Invalid("GroupTable: hash count does not match row count");
  }
  group_ids->resize(static_cast<size_t>(rows));

  for (int64_t r = 0; r < rows; ++r) {
    const row::KeySlice probe = scratch_slices_[r];
    (*group_ids)[r] = FindOrInsert(hashes[r], scratch_arena_.data() + probe.offset,
                                   probe.length);
  }
  return Status::OK();
}

Status GroupTable::MergeFrom(const GroupTable& other,
                             const std::vector<uint32_t>& indices,
                             std::vector<uint32_t>* target_ids) {
  if (&other == this) {
    return Status::Invalid("GroupTable::MergeFrom: cannot merge a table into itself");
  }
  if (other.encoder_.types() != encoder_.types()) {
    return Status::Invalid("GroupTable::MergeFrom: key type mismatch");
  }
  target_ids->resize(indices.size());
  for (size_t i = 0; i < indices.size(); ++i) {
    const uint32_t g = indices[i];
    if (g >= other.groups_.size()) {
      return Status::Invalid("GroupTable::MergeFrom: group index out of range");
    }
    const GroupEntry& entry = other.groups_[g];
    (*target_ids)[i] = FindOrInsert(
        entry.hash, other.arena_.data() + entry.key.offset, entry.key.length);
  }
  return Status::OK();
}

Result<std::vector<ArrayPtr>> GroupTable::DecodeGroupKeys() const {
  std::vector<std::string_view> keys;
  keys.reserve(groups_.size());
  for (uint32_t g = 0; g < groups_.size(); ++g) keys.push_back(group_key(g));
  return encoder_.DecodeKeyViews(keys);
}

int64_t GroupTable::SizeBytes() const {
  return static_cast<int64_t>(slots_.capacity() * sizeof(uint32_t) +
                              groups_.capacity() * sizeof(GroupEntry) +
                              arena_.capacity() + scratch_arena_.capacity() +
                              scratch_slices_.capacity() * sizeof(row::KeySlice) +
                              cached_dict_group_ids_.capacity() * sizeof(uint32_t));
}

HashChainTable::HashChainTable()
    : hashes_(kInitialCapacity, 0),
      heads_(kInitialCapacity, -1),
      capacity_(kInitialCapacity),
      shift_(ShiftFor(kInitialCapacity)) {}

void HashChainTable::Reserve(int64_t distinct_hashes) {
  size_t needed = kInitialCapacity;
  while (static_cast<int64_t>(needed) < 2 * distinct_hashes) needed *= 2;
  if (needed <= capacity_) return;
  std::vector<uint64_t> old_hashes = std::move(hashes_);
  std::vector<int64_t> old_heads = std::move(heads_);
  const size_t old_capacity = capacity_;
  capacity_ = needed;
  shift_ = ShiftFor(capacity_);
  hashes_.assign(capacity_, 0);
  heads_.assign(capacity_, -1);
  for (size_t s = 0; s < old_capacity; ++s) {
    if (old_heads[s] < 0) continue;
    size_t slot = SlotFor(old_hashes[s]);
    while (heads_[slot] >= 0) slot = (slot + 1) & (capacity_ - 1);
    hashes_[slot] = old_hashes[s];
    heads_[slot] = old_heads[s];
  }
}

void HashChainTable::Grow() { Reserve(static_cast<int64_t>(size_ + 1)); }

int64_t HashChainTable::Insert(uint64_t hash, int64_t id) {
  if ((size_ + 1) * 2 > capacity_) Grow();
  size_t slot = SlotFor(hash);
  for (;;) {
    if (heads_[slot] < 0) {
      hashes_[slot] = hash;
      heads_[slot] = id;
      ++size_;
      return -1;
    }
    if (hashes_[slot] == hash) {
      int64_t prev = heads_[slot];
      heads_[slot] = id;
      return prev;
    }
    slot = (slot + 1) & (capacity_ - 1);
  }
}

}  // namespace compute
}  // namespace fusion
