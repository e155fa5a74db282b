#include "arrow/scalar.h"

#include <algorithm>
#include <cstring>
#include <sstream>

#include "arrow/builder.h"
#include "common/hash_util.h"

namespace fusion {

Scalar Scalar::FromArray(const Array& arr, int64_t i) {
  if (arr.IsNull(i)) {
    // Scalars are always logical values; dictionary encoding does not
    // survive extraction.
    return Scalar::Null(arr.type().is_dictionary() ? utf8() : arr.type());
  }
  switch (arr.type().id()) {
    case TypeId::kNull:
      return Scalar();
    case TypeId::kBool:
      return Scalar::Bool(checked_cast<BooleanArray>(arr).Value(i));
    case TypeId::kInt32:
      return Scalar::Int32(checked_cast<Int32Array>(arr).Value(i));
    case TypeId::kDate32:
      return Scalar::Date32(checked_cast<Int32Array>(arr).Value(i));
    case TypeId::kInt64:
      return Scalar::Int64(checked_cast<Int64Array>(arr).Value(i));
    case TypeId::kTimestamp:
      return Scalar::Timestamp(checked_cast<Int64Array>(arr).Value(i));
    case TypeId::kFloat64:
      return Scalar::Float64(checked_cast<Float64Array>(arr).Value(i));
    case TypeId::kDecimal128:
      return Scalar::Decimal(checked_cast<Decimal128Array>(arr).Value(i),
                             arr.type());
    case TypeId::kString:
    case TypeId::kDictionary:
      return Scalar::String(std::string(StringLikeValue(arr, i)));
  }
  return Scalar();
}

int Scalar::Compare(const Scalar& other) const {
  if (is_null_ || other.is_null_) {
    if (is_null_ && other.is_null_) return 0;
    return is_null_ ? -1 : 1;
  }
  // Decimal pairs of different scale compare exactly when a common
  // scale fits in 128 bits, falling back to double beyond that.
  if (type_.is_decimal() && other.type_.is_decimal() && type_ != other.type_) {
    int common = std::max(type_.scale(), other.type_.scale());
    Decimal128 a, b;
    if (DecimalRescale(decimal_value(), type_.scale(), common, &a) &&
        DecimalRescale(other.decimal_value(), other.type_.scale(), common, &b)) {
      return a < b ? -1 : (b < a ? 1 : 0);
    }
  }
  // Numeric cross-type comparison goes through double; exact for the
  // value ranges used by statistics pruning.
  if ((type_.is_numeric() || type_.is_decimal()) &&
      (other.type_.is_numeric() || other.type_.is_decimal()) &&
      type_ != other.type_) {
    double a = AsDouble();
    double b = other.AsDouble();
    return a < b ? -1 : (a > b ? 1 : 0);
  }
  switch (type_.id()) {
    case TypeId::kNull:
      return 0;
    case TypeId::kBool:
      return static_cast<int>(bool_value()) - static_cast<int>(other.bool_value());
    case TypeId::kInt32:
    case TypeId::kInt64:
    case TypeId::kDate32:
    case TypeId::kTimestamp: {
      int64_t a = int_value();
      int64_t b = other.int_value();
      return a < b ? -1 : (a > b ? 1 : 0);
    }
    case TypeId::kFloat64: {
      double a = double_value();
      double b = other.double_value();
      return a < b ? -1 : (a > b ? 1 : 0);
    }
    case TypeId::kDecimal128: {
      const Decimal128& a = decimal_value();
      const Decimal128& b = other.decimal_value();
      return a < b ? -1 : (b < a ? 1 : 0);
    }
    // Scalars are always materialized values; a dictionary-typed scalar
    // never exists, but compare as a string if one ever does.
    case TypeId::kString:
    case TypeId::kDictionary:
      return string_value().compare(other.string_value());
  }
  return 0;
}

bool Scalar::Equals(const Scalar& other) const {
  if (is_null_ != other.is_null_) return false;
  if (is_null_) return type_ == other.type_;
  if (type_ != other.type_) return false;
  return Compare(other) == 0;
}

uint64_t Scalar::Hash() const {
  if (is_null_) return 0x9e3779b97f4a7c15ULL;
  switch (type_.id()) {
    case TypeId::kBool:
      return hash_util::HashInt64(bool_value() ? 1 : 0);
    case TypeId::kFloat64: {
      double d = double_value();
      uint64_t bits;
      std::memcpy(&bits, &d, 8);
      return hash_util::HashInt64(bits);
    }
    case TypeId::kString:
      return hash_util::HashString(string_value());
    case TypeId::kDecimal128:
      return decimal_value().Hash();
    default:
      return hash_util::HashInt64(static_cast<uint64_t>(int_value()));
  }
}

std::string Scalar::ToString() const {
  if (is_null_) return "NULL";
  switch (type_.id()) {
    case TypeId::kNull:
      return "NULL";
    case TypeId::kBool:
      return bool_value() ? "true" : "false";
    case TypeId::kInt32:
    case TypeId::kInt64:
    case TypeId::kDate32:
    case TypeId::kTimestamp:
      return std::to_string(int_value());
    case TypeId::kFloat64: {
      std::ostringstream out;
      out << double_value();
      return out.str();
    }
    case TypeId::kDecimal128:
      return DecimalToString(decimal_value(), type_.scale());
    case TypeId::kString:
    case TypeId::kDictionary:
      return string_value();
  }
  return "?";
}

Result<ArrayPtr> Scalar::MakeArray(int64_t length) const {
  if (is_null_) return MakeArrayOfNulls(type_, length);
  FUSION_ASSIGN_OR_RAISE(auto builder, MakeBuilder(type_));
  builder->Reserve(length);
  switch (type_.id()) {
    case TypeId::kBool:
      for (int64_t i = 0; i < length; ++i) {
        static_cast<BooleanBuilder*>(builder.get())->Append(bool_value());
      }
      break;
    case TypeId::kInt32:
    case TypeId::kDate32:
      for (int64_t i = 0; i < length; ++i) {
        static_cast<NumericBuilder<int32_t>*>(builder.get())
            ->Append(static_cast<int32_t>(int_value()));
      }
      break;
    case TypeId::kInt64:
    case TypeId::kTimestamp:
      for (int64_t i = 0; i < length; ++i) {
        static_cast<NumericBuilder<int64_t>*>(builder.get())->Append(int_value());
      }
      break;
    case TypeId::kFloat64:
      for (int64_t i = 0; i < length; ++i) {
        static_cast<Float64Builder*>(builder.get())->Append(double_value());
      }
      break;
    case TypeId::kString:
      for (int64_t i = 0; i < length; ++i) {
        static_cast<StringBuilder*>(builder.get())->Append(string_value());
      }
      break;
    case TypeId::kDecimal128:
      for (int64_t i = 0; i < length; ++i) {
        static_cast<Decimal128Builder*>(builder.get())->Append(decimal_value());
      }
      break;
    default:
      return Status::TypeError("Scalar::MakeArray: unsupported type");
  }
  return builder->Finish();
}

}  // namespace fusion
