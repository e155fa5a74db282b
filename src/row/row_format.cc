#include "row/row_format.h"

#include <algorithm>
#include <functional>
#include <cstring>
#include <limits>
#include <type_traits>

#include "arrow/builder.h"
#include "common/hash_util.h"

namespace fusion {
namespace row {

namespace {

// Marker bytes chosen so memcmp places nulls per SortOptions.
constexpr char kNullFirstMarker = '\x00';
constexpr char kValidAfterNullMarker = '\x01';
constexpr char kValidBeforeNullMarker = '\x00';
constexpr char kNullLastMarker = '\x01';

void AppendBigEndian(uint64_t bits, int width, bool invert, std::string* out) {
  for (int b = width - 1; b >= 0; --b) {
    char byte = static_cast<char>((bits >> (b * 8)) & 0xff);
    out->push_back(invert ? static_cast<char>(~byte) : byte);
  }
}

uint64_t OrderableBitsInt(int64_t v, int width) {
  // Flip the sign bit so negative values order below positive ones.
  uint64_t bits = static_cast<uint64_t>(v);
  bits ^= uint64_t(1) << (width * 8 - 1);
  return bits;
}

void AppendBigEndianDecimal(Decimal128 v, bool invert, std::string* out) {
  // High limb first with the sign bit flipped, then the unsigned low
  // limb: byte-wise memcmp then orders the full 128-bit value.
  AppendBigEndian(OrderableBitsInt(v.hi, 8), 8, invert, out);
  AppendBigEndian(v.lo, 8, invert, out);
}

void AppendEscapedString(std::string_view s, bool invert, std::string* out) {
  // 0x00 -> 0x00 0xFF, terminator 0x00 0x00 so "a" sorts before "ab".
  for (char c : s) {
    if (c == '\x00') {
      out->push_back(invert ? static_cast<char>(~'\x00') : '\x00');
      out->push_back(invert ? static_cast<char>(~'\xff') : '\xff');
    } else {
      out->push_back(invert ? static_cast<char>(~c) : c);
    }
  }
  out->push_back(invert ? static_cast<char>(~'\x00') : '\x00');
  out->push_back(invert ? static_cast<char>(~'\x00') : '\x00');
}

}  // namespace

uint64_t OrderableBitsDouble(double v) {
  if (v != v) v = std::numeric_limits<double>::quiet_NaN();
  uint64_t bits;
  std::memcpy(&bits, &v, 8);
  // Negative floats: invert all bits; positives: set the sign bit.
  if (bits & (uint64_t(1) << 63)) {
    return ~bits;
  }
  return bits | (uint64_t(1) << 63);
}

namespace {

Status EncodeValue(const Array& col, int64_t row, const SortOptions& opt,
                   std::string* key) {
  const bool null = col.IsNull(row);
  if (opt.nulls_first) {
    key->push_back(null ? kNullFirstMarker : kValidAfterNullMarker);
  } else {
    key->push_back(null ? kNullLastMarker : kValidBeforeNullMarker);
  }
  if (null) return Status::OK();
  const bool inv = opt.descending;
  switch (col.type().id()) {
    case TypeId::kBool: {
      char b = checked_cast<BooleanArray>(col).Value(row) ? '\x01' : '\x00';
      key->push_back(inv ? static_cast<char>(~b) : b);
      return Status::OK();
    }
    case TypeId::kInt32:
    case TypeId::kDate32:
      AppendBigEndian(
          OrderableBitsInt(checked_cast<Int32Array>(col).Value(row), 4), 4, inv, key);
      return Status::OK();
    case TypeId::kInt64:
    case TypeId::kTimestamp:
      AppendBigEndian(
          OrderableBitsInt(checked_cast<Int64Array>(col).Value(row), 8), 8, inv, key);
      return Status::OK();
    case TypeId::kFloat64:
      AppendBigEndian(OrderableBitsDouble(checked_cast<Float64Array>(col).Value(row)),
                      8, inv, key);
      return Status::OK();
    case TypeId::kDecimal128:
      AppendBigEndianDecimal(checked_cast<Decimal128Array>(col).Value(row), inv,
                             key);
      return Status::OK();
    case TypeId::kString:
    case TypeId::kDictionary:
      AppendEscapedString(StringLikeValue(col, row), inv, key);
      return Status::OK();
    case TypeId::kNull:
      return Status::OK();
  }
  return Status::TypeError("RowEncoder: unsupported type " + col.type().ToString());
}

}  // namespace

RowEncoder::RowEncoder(std::vector<DataType> types, std::vector<SortOptions> options)
    : types_(std::move(types)), options_(std::move(options)) {
  if (options_.size() < types_.size()) options_.resize(types_.size());
}

Status RowEncoder::EncodeRow(const std::vector<ArrayPtr>& columns, int64_t row,
                             std::string* key) const {
  for (size_t c = 0; c < columns.size(); ++c) {
    FUSION_RETURN_NOT_OK(EncodeValue(*columns[c], row, options_[c], key));
  }
  return Status::OK();
}

Status RowEncoder::EncodeColumns(const std::vector<ArrayPtr>& columns,
                                 std::vector<std::string>* keys) const {
  if (columns.empty()) return Status::Invalid("RowEncoder: no columns");
  const int64_t rows = columns[0]->length();
  size_t base = keys->size();
  keys->resize(base + rows);
  // Estimate per-row width to reserve and avoid growth in the hot loop.
  size_t fixed = 0;
  for (const auto& t : types_) fixed += 1 + t.byte_width();
  for (int64_t r = 0; r < rows; ++r) {
    std::string& key = (*keys)[base + r];
    key.reserve(fixed + 16);
    FUSION_RETURN_NOT_OK(EncodeRow(columns, r, &key));
  }
  return Status::OK();
}

GroupKeyEncoder::GroupKeyEncoder(std::vector<DataType> types)
    : types_(std::move(types)) {}

void GroupKeyEncoder::EncodeRow(const std::vector<ArrayPtr>& columns, int64_t row,
                                std::string* key) const {
  for (size_t c = 0; c < columns.size(); ++c) {
    const Array& col = *columns[c];
    if (col.IsNull(row)) {
      key->push_back('\x00');
      continue;
    }
    key->push_back('\x01');
    switch (col.type().id()) {
      case TypeId::kBool:
        key->push_back(checked_cast<BooleanArray>(col).Value(row) ? '\x01' : '\x00');
        break;
      case TypeId::kInt32:
      case TypeId::kDate32: {
        int32_t v = checked_cast<Int32Array>(col).Value(row);
        key->append(reinterpret_cast<const char*>(&v), 4);
        break;
      }
      case TypeId::kInt64:
      case TypeId::kTimestamp: {
        int64_t v = checked_cast<Int64Array>(col).Value(row);
        key->append(reinterpret_cast<const char*>(&v), 8);
        break;
      }
      case TypeId::kFloat64: {
        double v = hash_util::CanonicalizeDouble(
            checked_cast<Float64Array>(col).Value(row));
        key->append(reinterpret_cast<const char*>(&v), 8);
        break;
      }
      case TypeId::kDecimal128: {
        Decimal128 v = checked_cast<Decimal128Array>(col).Value(row);
        key->append(reinterpret_cast<const char*>(&v), 16);
        break;
      }
      // Dictionary rows encode the referenced string so key bytes are
      // identical whichever physical encoding a batch arrived in.
      case TypeId::kString:
      case TypeId::kDictionary: {
        std::string_view v = StringLikeValue(col, row);
        uint32_t len = static_cast<uint32_t>(v.size());
        key->append(reinterpret_cast<const char*>(&len), 4);
        key->append(v.data(), v.size());
        break;
      }
      case TypeId::kNull:
        break;
    }
  }
}

namespace {

/// Add each row's encoded width for one column (validity byte + payload).
void AddColumnWidths(const Array& col, std::vector<uint64_t>* widths) {
  const int64_t rows = col.length();
  uint32_t fixed = 0;
  switch (col.type().id()) {
    case TypeId::kBool: fixed = 1; break;
    case TypeId::kInt32:
    case TypeId::kDate32: fixed = 4; break;
    case TypeId::kInt64:
    case TypeId::kTimestamp:
    case TypeId::kFloat64: fixed = 8; break;
    case TypeId::kDecimal128: fixed = 16; break;
    case TypeId::kString: {
      const auto& arr = checked_cast<StringArray>(col);
      const int32_t* offs = arr.raw_offsets();
      if (col.null_count() == 0) {
        for (int64_t r = 0; r < rows; ++r) {
          (*widths)[r] += 5 + static_cast<uint32_t>(offs[r + 1] - offs[r]);
        }
      } else {
        for (int64_t r = 0; r < rows; ++r) {
          (*widths)[r] +=
              col.IsNull(r) ? 1 : 5 + static_cast<uint32_t>(offs[r + 1] - offs[r]);
        }
      }
      return;
    }
    case TypeId::kDictionary: {
      // Width per distinct entry computed once; rows index the table.
      const auto& arr = checked_cast<DictionaryArray>(col);
      const int32_t* doffs = arr.dictionary()->raw_offsets();
      const int32_t* codes = arr.raw_codes();
      if (col.null_count() == 0) {
        for (int64_t r = 0; r < rows; ++r) {
          (*widths)[r] +=
              5 + static_cast<uint32_t>(doffs[codes[r] + 1] - doffs[codes[r]]);
        }
      } else {
        for (int64_t r = 0; r < rows; ++r) {
          (*widths)[r] +=
              col.IsNull(r)
                  ? 1
                  : 5 + static_cast<uint32_t>(doffs[codes[r] + 1] - doffs[codes[r]]);
        }
      }
      return;
    }
    case TypeId::kNull:
      for (int64_t r = 0; r < rows; ++r) (*widths)[r] += 1;
      return;
  }
  if (col.null_count() == 0) {
    for (int64_t r = 0; r < rows; ++r) (*widths)[r] += 1 + fixed;
  } else {
    for (int64_t r = 0; r < rows; ++r) {
      (*widths)[r] += col.IsNull(r) ? 1 : 1 + fixed;
    }
  }
}

template <typename CType>
void FillFixedColumn(const NumericArray<CType>& arr, uint8_t* data,
                     std::vector<uint64_t>* cursors) {
  const CType* values = arr.raw_values();
  const int64_t rows = arr.length();
  for (int64_t r = 0; r < rows; ++r) {
    uint64_t& cur = (*cursors)[r];
    if (arr.IsNull(r)) {
      data[cur++] = 0;
      continue;
    }
    data[cur++] = 1;
    CType v = values[r];
    if constexpr (std::is_same_v<CType, double>) {
      v = hash_util::CanonicalizeDouble(v);
    }
    std::memcpy(data + cur, &v, sizeof(CType));
    cur += sizeof(CType);
  }
}

}  // namespace

Status GroupKeyEncoder::EncodeColumnsToArena(const std::vector<ArrayPtr>& columns,
                                             std::vector<uint8_t>* arena,
                                             std::vector<KeySlice>* slices) const {
  if (columns.size() != types_.size()) {
    return Status::Invalid("GroupKeyEncoder: column count mismatch");
  }
  if (columns.empty()) return Status::Invalid("GroupKeyEncoder: no key columns");
  const int64_t rows = columns[0]->length();
  slices->assign(static_cast<size_t>(rows), KeySlice{});
  if (rows == 0) return Status::OK();

  // Pass 1: per-row widths, accumulated column-at-a-time.
  std::vector<uint64_t> cursors(static_cast<size_t>(rows), 0);
  for (const auto& col : columns) AddColumnWidths(*col, &cursors);

  // Turn widths into arena offsets; `cursors` becomes each row's write
  // position for pass 2.
  const uint64_t base = arena->size();
  uint64_t total = 0;
  for (int64_t r = 0; r < rows; ++r) {
    (*slices)[r].offset = base + total;
    (*slices)[r].length = static_cast<uint32_t>(cursors[r]);
    total += cursors[r];
    cursors[r] = (*slices)[r].offset;
  }
  arena->resize(base + total);
  uint8_t* data = arena->data();

  // Pass 2: fill values column-at-a-time through the running cursors.
  for (const auto& colp : columns) {
    const Array& col = *colp;
    switch (col.type().id()) {
      case TypeId::kBool: {
        const auto& arr = checked_cast<BooleanArray>(col);
        for (int64_t r = 0; r < rows; ++r) {
          uint64_t& cur = cursors[r];
          if (col.IsNull(r)) {
            data[cur++] = 0;
          } else {
            data[cur++] = 1;
            data[cur++] = arr.Value(r) ? 1 : 0;
          }
        }
        break;
      }
      case TypeId::kInt32:
      case TypeId::kDate32:
        FillFixedColumn(checked_cast<Int32Array>(col), data, &cursors);
        break;
      case TypeId::kInt64:
      case TypeId::kTimestamp:
        FillFixedColumn(checked_cast<Int64Array>(col), data, &cursors);
        break;
      case TypeId::kFloat64:
        FillFixedColumn(checked_cast<Float64Array>(col), data, &cursors);
        break;
      case TypeId::kDecimal128:
        FillFixedColumn(checked_cast<Decimal128Array>(col), data, &cursors);
        break;
      case TypeId::kString: {
        const auto& arr = checked_cast<StringArray>(col);
        for (int64_t r = 0; r < rows; ++r) {
          uint64_t& cur = cursors[r];
          if (col.IsNull(r)) {
            data[cur++] = 0;
            continue;
          }
          data[cur++] = 1;
          std::string_view v = arr.Value(r);
          uint32_t len = static_cast<uint32_t>(v.size());
          std::memcpy(data + cur, &len, 4);
          cur += 4;
          std::memcpy(data + cur, v.data(), v.size());
          cur += v.size();
        }
        break;
      }
      case TypeId::kDictionary: {
        // Dictionary-aware path: resolve each entry's bytes once, then
        // copy per row by code. Emits bytes identical to the kString
        // case, so dictionary and dense batches group together.
        const auto& arr = checked_cast<DictionaryArray>(col);
        const StringArray& dict = *arr.dictionary();
        const int32_t* doffs = dict.raw_offsets();
        const char* dbytes = reinterpret_cast<const char*>(dict.data()->data());
        const int32_t* codes = arr.raw_codes();
        for (int64_t r = 0; r < rows; ++r) {
          uint64_t& cur = cursors[r];
          if (col.IsNull(r)) {
            data[cur++] = 0;
            continue;
          }
          data[cur++] = 1;
          const int32_t code = codes[r];
          const uint32_t len = static_cast<uint32_t>(doffs[code + 1] - doffs[code]);
          std::memcpy(data + cur, &len, 4);
          cur += 4;
          std::memcpy(data + cur, dbytes + doffs[code], len);
          cur += len;
        }
        break;
      }
      case TypeId::kNull:
        for (int64_t r = 0; r < rows; ++r) data[cursors[r]++] = 0;
        break;
    }
  }
  return Status::OK();
}

Status GroupKeyEncoder::SplitKeys(std::string_view bytes,
                                  std::vector<std::string_view>* keys) const {
  if (types_.empty()) return Status::Invalid("GroupKeyEncoder: no key columns");
  size_t pos = 0;
  while (pos < bytes.size()) {
    const size_t start = pos;
    for (DataType t : types_) {
      if (pos == bytes.size()) return Status::Invalid("GroupKeyEncoder: short key");
      if (bytes[pos++] != '\x01') continue;  // a null is its marker byte alone
      uint64_t width = 0;
      switch (t.id()) {
        case TypeId::kNull: break;
        case TypeId::kBool: width = 1; break;
        case TypeId::kInt32:
        case TypeId::kDate32: width = 4; break;
        case TypeId::kInt64:
        case TypeId::kTimestamp:
        case TypeId::kFloat64: width = 8; break;
        case TypeId::kDecimal128: width = 16; break;
        case TypeId::kString:
        case TypeId::kDictionary: {
          uint32_t len = 0;
          if (bytes.size() - pos < 4) return Status::Invalid("GroupKeyEncoder: short key");
          std::memcpy(&len, bytes.data() + pos, 4);
          width = 4 + uint64_t{len};
          break;
        }
      }
      if (width > bytes.size() - pos) return Status::Invalid("GroupKeyEncoder: short key");
      pos += width;
    }
    keys->push_back(bytes.substr(start, pos - start));
  }
  return Status::OK();
}

namespace {

Result<std::vector<ArrayPtr>> DecodeKeysImpl(
    const std::vector<DataType>& types,
    const std::function<std::string_view(size_t)>& get, size_t num_keys) {
  std::vector<std::unique_ptr<ArrayBuilder>> builders;
  builders.reserve(types.size());
  for (DataType t : types) {
    FUSION_ASSIGN_OR_RAISE(auto b, MakeBuilder(t));
    builders.push_back(std::move(b));
  }
  for (size_t k = 0; k < num_keys; ++k) {
    std::string_view key = get(k);
    size_t pos = 0;
    for (size_t c = 0; c < types.size(); ++c) {
      if (pos >= key.size()) return Status::Internal("GroupKeyEncoder: short key");
      const bool valid = key[pos++] == '\x01';
      if (!valid) {
        builders[c]->AppendNull();
        continue;
      }
      switch (types[c].id()) {
        case TypeId::kBool:
          static_cast<BooleanBuilder*>(builders[c].get())
              ->Append(key[pos++] == '\x01');
          break;
        case TypeId::kInt32:
        case TypeId::kDate32: {
          int32_t v;
          std::memcpy(&v, key.data() + pos, 4);
          pos += 4;
          static_cast<NumericBuilder<int32_t>*>(builders[c].get())->Append(v);
          break;
        }
        case TypeId::kInt64:
        case TypeId::kTimestamp: {
          int64_t v;
          std::memcpy(&v, key.data() + pos, 8);
          pos += 8;
          static_cast<NumericBuilder<int64_t>*>(builders[c].get())->Append(v);
          break;
        }
        case TypeId::kFloat64: {
          double v;
          std::memcpy(&v, key.data() + pos, 8);
          pos += 8;
          static_cast<Float64Builder*>(builders[c].get())->Append(v);
          break;
        }
        case TypeId::kDecimal128: {
          Decimal128 v;
          std::memcpy(&v, key.data() + pos, 16);
          pos += 16;
          static_cast<Decimal128Builder*>(builders[c].get())->Append(v);
          break;
        }
        case TypeId::kString: {
          uint32_t len;
          std::memcpy(&len, key.data() + pos, 4);
          pos += 4;
          static_cast<StringBuilder*>(builders[c].get())
              ->Append(key.substr(pos, len));
          pos += len;
          break;
        }
        case TypeId::kDictionary: {
          // Same key bytes as kString; re-intern on decode.
          uint32_t len;
          std::memcpy(&len, key.data() + pos, 4);
          pos += 4;
          static_cast<DictionaryBuilder*>(builders[c].get())
              ->Append(key.substr(pos, len));
          pos += len;
          break;
        }
        case TypeId::kNull:
          builders[c]->AppendNull();
          break;
      }
    }
  }
  std::vector<ArrayPtr> out;
  out.reserve(builders.size());
  for (auto& b : builders) {
    FUSION_ASSIGN_OR_RAISE(auto arr, b->Finish());
    out.push_back(std::move(arr));
  }
  return out;
}

}  // namespace

Result<std::vector<ArrayPtr>> GroupKeyEncoder::DecodeKeys(
    const std::vector<std::string>& keys) const {
  return DecodeKeysImpl(types_, [&](size_t i) { return std::string_view(keys[i]); },
                        keys.size());
}

Result<std::vector<ArrayPtr>> GroupKeyEncoder::DecodeKeyViews(
    const std::vector<std::string_view>& keys) const {
  return DecodeKeysImpl(types_, [&](size_t i) { return keys[i]; }, keys.size());
}

int CompareRows(const std::vector<ArrayPtr>& left_cols, int64_t li,
                const std::vector<ArrayPtr>& right_cols, int64_t ri,
                const std::vector<SortOptions>& options) {
  for (size_t c = 0; c < left_cols.size(); ++c) {
    const SortOptions opt = c < options.size() ? options[c] : SortOptions{};
    const Array& l = *left_cols[c];
    const Array& r = *right_cols[c];
    const bool ln = l.IsNull(li);
    const bool rn = r.IsNull(ri);
    if (ln || rn) {
      if (ln && rn) continue;
      int null_cmp = ln ? -1 : 1;               // null "smaller" if nulls_first
      if (!opt.nulls_first) null_cmp = -null_cmp;  // nulls last: null "larger"
      if (null_cmp != 0) return null_cmp;
      continue;
    }
    int cmp = 0;
    if (l.type().is_string_like()) {
      int c3 = StringLikeValue(l, li).compare(StringLikeValue(r, ri));
      if (c3 != 0) return opt.descending ? (c3 < 0 ? 1 : -1) : (c3 < 0 ? -1 : 1);
      continue;
    }
    switch (l.type().id()) {
      case TypeId::kBool: {
        int a = checked_cast<BooleanArray>(l).Value(li);
        int b = checked_cast<BooleanArray>(r).Value(ri);
        cmp = a - b;
        break;
      }
      case TypeId::kInt32:
      case TypeId::kDate32: {
        int32_t a = checked_cast<Int32Array>(l).Value(li);
        int32_t b = checked_cast<Int32Array>(r).Value(ri);
        cmp = a < b ? -1 : (a > b ? 1 : 0);
        break;
      }
      case TypeId::kInt64:
      case TypeId::kTimestamp: {
        int64_t a = checked_cast<Int64Array>(l).Value(li);
        int64_t b = checked_cast<Int64Array>(r).Value(ri);
        cmp = a < b ? -1 : (a > b ? 1 : 0);
        break;
      }
      case TypeId::kFloat64: {
        // As OrderableBitsDouble orders keys: NaN equals every NaN and
        // sorts above +inf.
        double a = checked_cast<Float64Array>(l).Value(li);
        double b = checked_cast<Float64Array>(r).Value(ri);
        if (a != a || b != b) {
          cmp = static_cast<int>(a != a) - static_cast<int>(b != b);
        } else {
          cmp = a < b ? -1 : (a > b ? 1 : 0);
        }
        break;
      }
      case TypeId::kDecimal128: {
        Decimal128 a = checked_cast<Decimal128Array>(l).Value(li);
        Decimal128 b = checked_cast<Decimal128Array>(r).Value(ri);
        cmp = a < b ? -1 : (a > b ? 1 : 0);
        break;
      }
      case TypeId::kString:
      case TypeId::kDictionary:
        break;  // string-like columns handled above the switch
      case TypeId::kNull:
        cmp = 0;
        break;
    }
    if (cmp != 0) return opt.descending ? -cmp : cmp;
  }
  return 0;
}

}  // namespace row
}  // namespace fusion
