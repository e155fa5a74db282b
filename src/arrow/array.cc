#include "arrow/array.h"

#include <sstream>

namespace fusion {

BufferPtr Array::SliceValidity(const BufferPtr& validity, int64_t offset,
                               int64_t length) {
  if (validity == nullptr) return nullptr;
  auto out = std::make_shared<Buffer>(bit_util::BytesForBits(length));
  // Byte-aligned fast path is not worth it here; slices are rare and cold.
  for (int64_t i = 0; i < length; ++i) {
    bit_util::SetBitTo(out->mutable_data(), i,
                       bit_util::GetBit(validity->data(), offset + i));
  }
  return out;
}

template <typename CType>
std::string NumericArray<CType>::ValueToString(int64_t i) const {
  if (this->IsNull(i)) return "null";
  if constexpr (std::is_floating_point_v<CType>) {
    std::ostringstream out;
    out << Value(i);
    return out.str();
  } else if constexpr (std::is_same_v<CType, Decimal128>) {
    return DecimalToString(Value(i), type_.scale());
  } else {
    return std::to_string(Value(i));
  }
}

template class NumericArray<int32_t>;
template class NumericArray<int64_t>;
template class NumericArray<double>;
template class NumericArray<Decimal128>;

int64_t BooleanArray::TrueCount() const {
  if (validity_ == nullptr) return bit_util::CountSetBits(values_->data(), length_);
  int64_t count = 0;
  for (int64_t i = 0; i < length_; ++i) {
    if (IsValid(i) && Value(i)) ++count;
  }
  return count;
}

ArrayPtr BooleanArray::Slice(int64_t offset, int64_t length) const {
  auto values = std::make_shared<Buffer>(bit_util::BytesForBits(length));
  for (int64_t i = 0; i < length; ++i) {
    bit_util::SetBitTo(values->mutable_data(), i,
                       bit_util::GetBit(values_->data(), offset + i));
  }
  BufferPtr validity = SliceValidity(validity_, offset, length);
  int64_t nulls =
      validity ? length - bit_util::CountSetBits(validity->data(), length) : 0;
  return std::make_shared<BooleanArray>(length, std::move(values), std::move(validity),
                                        nulls);
}

std::string BooleanArray::ValueToString(int64_t i) const {
  if (IsNull(i)) return "null";
  return Value(i) ? "true" : "false";
}

ArrayPtr StringArray::Slice(int64_t offset, int64_t length) const {
  const int32_t* offs = raw_offsets();
  auto new_offsets = std::make_shared<Buffer>((length + 1) * sizeof(int32_t));
  int32_t* no = new_offsets->mutable_data_as<int32_t>();
  int32_t base = offs[offset];
  for (int64_t i = 0; i <= length; ++i) {
    no[i] = offs[offset + i] - base;
  }
  auto new_data = Buffer::CopyOf(data_->data() + base, offs[offset + length] - base);
  BufferPtr validity = SliceValidity(validity_, offset, length);
  int64_t nulls =
      validity ? length - bit_util::CountSetBits(validity->data(), length) : 0;
  return std::make_shared<StringArray>(length, std::move(new_offsets),
                                       std::move(new_data), std::move(validity), nulls);
}

std::string StringArray::ValueToString(int64_t i) const {
  if (IsNull(i)) return "null";
  return std::string(Value(i));
}

ArrayPtr DictionaryArray::Densify() const {
  const int32_t* codes = raw_codes();
  int64_t total_bytes = 0;
  for (int64_t i = 0; i < length_; ++i) {
    if (IsValid(i)) total_bytes += static_cast<int64_t>(Value(i).size());
  }
  auto offsets = std::make_shared<Buffer>((length_ + 1) * sizeof(int32_t));
  auto data = std::make_shared<Buffer>(total_bytes);
  int32_t* offs = offsets->mutable_data_as<int32_t>();
  uint8_t* out = data->mutable_data();
  int32_t pos = 0;
  offs[0] = 0;
  for (int64_t i = 0; i < length_; ++i) {
    if (IsValid(i)) {
      std::string_view v = dictionary_->Value(codes[i]);
      std::memcpy(out + pos, v.data(), v.size());
      pos += static_cast<int32_t>(v.size());
    }
    offs[i + 1] = pos;
  }
  BufferPtr validity =
      validity_ ? Buffer::CopyOf(validity_->data(), validity_->size()) : nullptr;
  return std::make_shared<StringArray>(length_, std::move(offsets), std::move(data),
                                       std::move(validity), null_count_);
}

ArrayPtr DictionaryArray::Slice(int64_t offset, int64_t length) const {
  auto codes = Buffer::CopyOf(raw_codes() + offset, length * sizeof(int32_t));
  BufferPtr validity = SliceValidity(validity_, offset, length);
  int64_t nulls =
      validity ? length - bit_util::CountSetBits(validity->data(), length) : 0;
  return std::make_shared<DictionaryArray>(length, std::move(codes), dictionary_,
                                           std::move(validity), nulls);
}

std::string DictionaryArray::ValueToString(int64_t i) const {
  if (IsNull(i)) return "null";
  return std::string(Value(i));
}

NullArray::NullArray(int64_t length)
    : Array(null_type(), length, nullptr, length) {
  // A NullArray's validity is implicit: every slot is null. We keep a
  // bitmap of zeros so IsNull() works uniformly.
  auto validity = std::make_shared<Buffer>(bit_util::BytesForBits(length));
  validity_ = std::move(validity);
}

ArrayPtr NullArray::Slice(int64_t, int64_t length) const {
  return std::make_shared<NullArray>(length);
}

std::string NullArray::ValueToString(int64_t) const { return "null"; }

Result<ArrayPtr> MakeArrayOfNulls(DataType type, int64_t length) {
  auto validity = std::make_shared<Buffer>(bit_util::BytesForBits(length));
  switch (type.id()) {
    case TypeId::kNull:
      return ArrayPtr(std::make_shared<NullArray>(length));
    case TypeId::kBool: {
      auto values = std::make_shared<Buffer>(bit_util::BytesForBits(length));
      return ArrayPtr(std::make_shared<BooleanArray>(length, std::move(values),
                                                     std::move(validity), length));
    }
    case TypeId::kInt32:
    case TypeId::kDate32: {
      auto values = std::make_shared<Buffer>(length * 4);
      return ArrayPtr(std::make_shared<Int32Array>(type, length, std::move(values),
                                                   std::move(validity), length));
    }
    case TypeId::kInt64:
    case TypeId::kTimestamp: {
      auto values = std::make_shared<Buffer>(length * 8);
      return ArrayPtr(std::make_shared<Int64Array>(type, length, std::move(values),
                                                   std::move(validity), length));
    }
    case TypeId::kFloat64: {
      auto values = std::make_shared<Buffer>(length * 8);
      return ArrayPtr(std::make_shared<Float64Array>(type, length, std::move(values),
                                                     std::move(validity), length));
    }
    case TypeId::kDecimal128: {
      auto values = std::make_shared<Buffer>(length * 16);
      return ArrayPtr(std::make_shared<Decimal128Array>(
          type, length, std::move(values), std::move(validity), length));
    }
    case TypeId::kString: {
      auto offsets = std::make_shared<Buffer>((length + 1) * sizeof(int32_t));
      auto data = std::make_shared<Buffer>(0);
      return ArrayPtr(std::make_shared<StringArray>(length, std::move(offsets),
                                                    std::move(data),
                                                    std::move(validity), length));
    }
    // Null codes into an empty dictionary: the type a dictionary field's
    // schema asks for.
    case TypeId::kDictionary: {
      FUSION_ASSIGN_OR_RAISE(auto dict, MakeArrayOfNulls(utf8(), 0));
      return ArrayPtr(std::make_shared<DictionaryArray>(
          length, std::make_shared<Buffer>(length * 4),
          std::static_pointer_cast<StringArray>(dict), std::move(validity), length));
    }
  }
  return Status::TypeError("MakeArrayOfNulls: unsupported type " + type.ToString());
}

bool ArrayElementsEqual(const Array& a, int64_t ai, const Array& b, int64_t bi) {
  const bool a_null = a.IsNull(ai);
  const bool b_null = b.IsNull(bi);
  if (a_null || b_null) return a_null == b_null;
  // Strings compare by logical value across physical encodings (a
  // dictionary array from one FPQ row group vs a dense array from
  // another must still test equal).
  if (a.type().is_string_like() || b.type().is_string_like()) {
    return a.type().is_string_like() && b.type().is_string_like() &&
           StringLikeValue(a, ai) == StringLikeValue(b, bi);
  }
  switch (a.type().id()) {
    case TypeId::kNull:
      return true;
    case TypeId::kBool:
      return checked_cast<BooleanArray>(a).Value(ai) ==
             checked_cast<BooleanArray>(b).Value(bi);
    case TypeId::kInt32:
    case TypeId::kDate32:
      return checked_cast<Int32Array>(a).Value(ai) ==
             checked_cast<Int32Array>(b).Value(bi);
    case TypeId::kInt64:
    case TypeId::kTimestamp:
      return checked_cast<Int64Array>(a).Value(ai) ==
             checked_cast<Int64Array>(b).Value(bi);
    case TypeId::kFloat64:
      return checked_cast<Float64Array>(a).Value(ai) ==
             checked_cast<Float64Array>(b).Value(bi);
    case TypeId::kDecimal128:
      return checked_cast<Decimal128Array>(a).Value(ai) ==
             checked_cast<Decimal128Array>(b).Value(bi);
    case TypeId::kString:
    case TypeId::kDictionary:
      return false;  // string-like pairs handled above
  }
  return false;
}

bool ArraysEqual(const Array& a, const Array& b) {
  if (a.length() != b.length()) return false;
  if (a.type() != b.type() &&
      !(a.type().is_string_like() && b.type().is_string_like())) {
    return false;
  }
  for (int64_t i = 0; i < a.length(); ++i) {
    if (!ArrayElementsEqual(a, i, b, i)) return false;
  }
  return true;
}

namespace {

template <typename CType>
Result<ArrayPtr> ConcatenateNumeric(DataType type,
                                    const std::vector<ArrayPtr>& arrays,
                                    int64_t total, int64_t nulls) {
  auto values = std::make_shared<Buffer>(total * static_cast<int64_t>(sizeof(CType)));
  BufferPtr validity;
  if (nulls > 0) {
    validity = std::make_shared<Buffer>(bit_util::BytesForBits(total));
    std::memset(validity->mutable_data(), 0xff,
                static_cast<size_t>(validity->size()));
  }
  int64_t pos = 0;
  for (const auto& arr : arrays) {
    const auto& na = checked_cast<NumericArray<CType>>(*arr);
    if (arr->length() > 0) {
      std::memcpy(values->mutable_data_as<CType>() + pos, na.raw_values(),
                  static_cast<size_t>(arr->length()) * sizeof(CType));
    }
    if (nulls > 0) {
      for (int64_t i = 0; i < arr->length(); ++i) {
        if (arr->IsNull(i)) bit_util::ClearBit(validity->mutable_data(), pos + i);
      }
    }
    pos += arr->length();
  }
  return ArrayPtr(std::make_shared<NumericArray<CType>>(
      type, total, std::move(values), std::move(validity), nulls));
}

}  // namespace

Result<ArrayPtr> Concatenate(const std::vector<ArrayPtr>& arrays) {
  if (arrays.empty()) return Status::Invalid("Concatenate: no input arrays");
  if (arrays.size() == 1) return arrays[0];
  DataType type = arrays[0]->type();
  int64_t total = 0;
  int64_t nulls = 0;
  for (const auto& a : arrays) {
    if (a->type() != type &&
        !(a->type().is_string_like() && type.is_string_like())) {
      return Status::TypeError("Concatenate: mixed types");
    }
    total += a->length();
    nulls += a->null_count();
  }
  if (type.is_dictionary()) {
    // When every input shares one dictionary instance, only the 4-byte
    // codes are copied and the result stays encoded. Mixed encodings or
    // distinct dictionaries (e.g. different FPQ chunks) fall back to
    // the dense representation below.
    const auto& first = checked_cast<DictionaryArray>(*arrays[0]);
    bool same_dict = true;
    for (const auto& a : arrays) {
      if (!a->type().is_dictionary() ||
          checked_cast<DictionaryArray>(*a).dictionary() != first.dictionary()) {
        same_dict = false;
        break;
      }
    }
    if (same_dict) {
      auto codes = std::make_shared<Buffer>(total * sizeof(int32_t));
      BufferPtr validity;
      if (nulls > 0) {
        validity = std::make_shared<Buffer>(bit_util::BytesForBits(total));
        std::memset(validity->mutable_data(), 0xff,
                    static_cast<size_t>(validity->size()));
      }
      int64_t pos = 0;
      for (const auto& arr : arrays) {
        const auto& da = checked_cast<DictionaryArray>(*arr);
        if (arr->length() > 0) {
          std::memcpy(codes->mutable_data_as<int32_t>() + pos, da.raw_codes(),
                      static_cast<size_t>(arr->length()) * sizeof(int32_t));
        }
        if (nulls > 0) {
          for (int64_t i = 0; i < arr->length(); ++i) {
            if (arr->IsNull(i)) {
              bit_util::ClearBit(validity->mutable_data(), pos + i);
            }
          }
        }
        pos += arr->length();
      }
      return ArrayPtr(std::make_shared<DictionaryArray>(
          total, std::move(codes), first.dictionary(), std::move(validity), nulls));
    }
  }
  if (type.is_string_like()) {
    bool any_dict = false;
    for (const auto& a : arrays) any_dict |= a->type().is_dictionary();
    if (any_dict) {
      std::vector<ArrayPtr> dense;
      dense.reserve(arrays.size());
      for (const auto& a : arrays) {
        dense.push_back(a->type().is_dictionary()
                            ? checked_cast<DictionaryArray>(*a).Densify()
                            : a);
      }
      return Concatenate(dense);
    }
  }
  switch (type.id()) {
    case TypeId::kNull:
      return ArrayPtr(std::make_shared<NullArray>(total));
    case TypeId::kInt32:
    case TypeId::kDate32:
      return ConcatenateNumeric<int32_t>(type, arrays, total, nulls);
    case TypeId::kInt64:
    case TypeId::kTimestamp:
      return ConcatenateNumeric<int64_t>(type, arrays, total, nulls);
    case TypeId::kFloat64:
      return ConcatenateNumeric<double>(type, arrays, total, nulls);
    case TypeId::kDecimal128:
      return ConcatenateNumeric<Decimal128>(type, arrays, total, nulls);
    case TypeId::kBool: {
      auto values = std::make_shared<Buffer>(bit_util::BytesForBits(total));
      BufferPtr validity;
      if (nulls > 0) {
        validity = std::make_shared<Buffer>(bit_util::BytesForBits(total));
        std::memset(validity->mutable_data(), 0xff,
                    static_cast<size_t>(validity->size()));
      }
      int64_t pos = 0;
      for (const auto& arr : arrays) {
        const auto& ba = checked_cast<BooleanArray>(*arr);
        for (int64_t i = 0; i < arr->length(); ++i) {
          bit_util::SetBitTo(values->mutable_data(), pos + i, ba.Value(i));
          if (nulls > 0 && arr->IsNull(i)) {
            bit_util::ClearBit(validity->mutable_data(), pos + i);
          }
        }
        pos += arr->length();
      }
      return ArrayPtr(std::make_shared<BooleanArray>(total, std::move(values),
                                                     std::move(validity), nulls));
    }
    case TypeId::kString: {
      int64_t total_bytes = 0;
      for (const auto& arr : arrays) {
        const auto& sa = checked_cast<StringArray>(*arr);
        total_bytes += sa.raw_offsets()[arr->length()];
      }
      auto offsets = std::make_shared<Buffer>((total + 1) * sizeof(int32_t));
      auto data = std::make_shared<Buffer>(total_bytes);
      BufferPtr validity;
      if (nulls > 0) {
        validity = std::make_shared<Buffer>(bit_util::BytesForBits(total));
        std::memset(validity->mutable_data(), 0xff,
                    static_cast<size_t>(validity->size()));
      }
      int32_t* off_out = offsets->mutable_data_as<int32_t>();
      int64_t pos = 0;
      int32_t byte_pos = 0;
      off_out[0] = 0;
      for (const auto& arr : arrays) {
        const auto& sa = checked_cast<StringArray>(*arr);
        const int32_t* offs = sa.raw_offsets();
        int32_t len_bytes = offs[arr->length()];
        if (len_bytes > 0) {
          std::memcpy(data->mutable_data() + byte_pos, sa.data()->data(),
                      static_cast<size_t>(len_bytes));
        }
        for (int64_t i = 0; i < arr->length(); ++i) {
          off_out[pos + i + 1] = byte_pos + offs[i + 1];
          if (nulls > 0 && arr->IsNull(i)) {
            bit_util::ClearBit(validity->mutable_data(), pos + i);
          }
        }
        pos += arr->length();
        byte_pos += len_bytes;
      }
      return ArrayPtr(std::make_shared<StringArray>(total, std::move(offsets),
                                                    std::move(data),
                                                    std::move(validity), nulls));
    }
    case TypeId::kDictionary:
      break;  // fully handled by the encoding-aware paths above
  }
  return Status::TypeError("Concatenate: unsupported type " + type.ToString());
}

}  // namespace fusion
