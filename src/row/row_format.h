#ifndef FUSION_ROW_ROW_FORMAT_H_
#define FUSION_ROW_ROW_FORMAT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "arrow/array.h"
#include "arrow/record_batch.h"
#include "common/result.h"

namespace fusion {
namespace row {

/// Per-column sort options (SQL ASC/DESC, NULLS FIRST/LAST).
struct SortOptions {
  bool descending = false;
  bool nulls_first = false;  // SQL default: NULLS LAST for ASC

  bool operator==(const SortOptions&) const = default;
};

/// A double's place in ORDER BY's order, as an unsigned integer: -0.0
/// below 0.0, and every NaN, whatever its sign bit, above +inf.
uint64_t OrderableBitsDouble(double v);

/// \brief Normalized-key encoder (paper §6.6): encodes one row of the
/// key columns into a byte string whose memcmp order equals the logical
/// multi-column sort order.
///
/// Encoding per column:
///  - a marker byte placing nulls before/after values per SortOptions
///  - integers: big-endian with the sign bit flipped
///  - floats: IEEE bits mapped to a totally ordered integer
///  - strings: 0x00-escaped bytes with a two-byte terminator so that
///    prefixes order correctly
///  - DESC columns: all payload bytes inverted
class RowEncoder {
 public:
  RowEncoder(std::vector<DataType> types, std::vector<SortOptions> options);

  /// Encode all rows of `columns` (parallel to the configured types),
  /// appending one key per row to `keys`.
  Status EncodeColumns(const std::vector<ArrayPtr>& columns,
                       std::vector<std::string>* keys) const;

  /// Encode a single row.
  Status EncodeRow(const std::vector<ArrayPtr>& columns, int64_t row,
                   std::string* key) const;

  const std::vector<DataType>& types() const { return types_; }
  const std::vector<SortOptions>& options() const { return options_; }

 private:
  std::vector<DataType> types_;
  std::vector<SortOptions> options_;
};

/// An encoded key's position inside a bump-allocated arena buffer.
struct KeySlice {
  uint64_t offset = 0;
  uint32_t length = 0;
};

/// \brief Equality-only row encoding for grouping and join keys: faster
/// than the sortable encoding (no escaping), not memcmp-ordered.
/// Layout per column: 1 null byte, then fixed-width raw value or
/// u32 length + bytes for strings. Doubles are canonicalized
/// (-0.0 -> 0.0, any NaN -> one quiet NaN) so byte equality matches
/// grouping equality.
class GroupKeyEncoder {
 public:
  explicit GroupKeyEncoder(std::vector<DataType> types);

  /// Append the encoded key for `row` to `*key` (caller clears).
  void EncodeRow(const std::vector<ArrayPtr>& columns, int64_t row,
                 std::string* key) const;

  /// Bulk path for the vectorized group table: encode every row of
  /// `columns` into `*arena` (appended; existing bytes are kept) and
  /// record each row's (offset,len) slot in `*slices` (overwritten).
  /// Column-at-a-time fill: per-row widths are sized in one pass per
  /// column, then values are written through running cursors, so the
  /// hot loop performs no heap allocation.
  Status EncodeColumnsToArena(const std::vector<ArrayPtr>& columns,
                              std::vector<uint8_t>* arena,
                              std::vector<KeySlice>* slices) const;

  /// Split `bytes`, keys encoded back to back, appending one view per
  /// key to `*keys`. A key cut short by the end of `bytes` is an error,
  /// never a read past it: the bytes may come back from a spill file.
  Status SplitKeys(std::string_view bytes, std::vector<std::string_view>* keys) const;

  /// Decode `num_keys` keys back into one array per key column.
  Result<std::vector<ArrayPtr>> DecodeKeys(const std::vector<std::string>& keys) const;

  /// Decode from string_views (e.g. hash table keys).
  Result<std::vector<ArrayPtr>> DecodeKeyViews(
      const std::vector<std::string_view>& keys) const;

  const std::vector<DataType>& types() const { return types_; }

 private:
  std::vector<DataType> types_;
};

/// Compare row `li` of `left_cols` with row `ri` of `right_cols` under
/// `options` without encoding (the oracle the RowEncoder is tested
/// against, TIE's sort comparator, and the test for window partitions
/// and peers). Returns <0, 0, >0.
int CompareRows(const std::vector<ArrayPtr>& left_cols, int64_t li,
                const std::vector<ArrayPtr>& right_cols, int64_t ri,
                const std::vector<SortOptions>& options);

}  // namespace row
}  // namespace fusion

#endif  // FUSION_ROW_ROW_FORMAT_H_
