#ifndef FUSION_ARROW_SCALAR_H_
#define FUSION_ARROW_SCALAR_H_

#include <cstdint>
#include <string>
#include <variant>

#include "arrow/array.h"
#include "arrow/decimal.h"
#include "arrow/type.h"
#include "common/result.h"

namespace fusion {

/// \brief A single typed value (possibly null). Used for literals in
/// expressions, statistics (min/max), and aggregate intermediate state.
class Scalar {
 public:
  /// Null scalar of null type.
  Scalar() : type_(null_type()), is_null_(true) {}

  /// Null scalar of a concrete type.
  static Scalar Null(DataType type) {
    Scalar s;
    s.type_ = type;
    s.is_null_ = true;
    return s;
  }

  static Scalar Bool(bool v) { return Scalar(boolean(), v); }
  static Scalar Int32(int32_t v) { return Scalar(int32(), static_cast<int64_t>(v)); }
  static Scalar Int64(int64_t v) { return Scalar(int64(), v); }
  static Scalar Float64(double v) { return Scalar(float64(), v); }
  static Scalar String(std::string v) { return Scalar(utf8(), std::move(v)); }
  static Scalar Date32(int32_t days) {
    return Scalar(date32(), static_cast<int64_t>(days));
  }
  static Scalar Timestamp(int64_t micros) { return Scalar(timestamp(), micros); }
  /// `value` is the unscaled integer: Decimal(12345, 15, 2) is 123.45.
  static Scalar Decimal(Decimal128 value, int precision, int scale) {
    return Scalar(decimal128(precision, scale), value);
  }
  static Scalar Decimal(Decimal128 value, DataType type) {
    return Scalar(type, value);
  }

  DataType type() const { return type_; }
  bool is_null() const { return is_null_; }

  bool bool_value() const { return std::get<bool>(value_); }
  /// Integer value (also used for date32/timestamp payloads).
  int64_t int_value() const { return std::get<int64_t>(value_); }
  double double_value() const { return std::get<double>(value_); }
  const std::string& string_value() const { return std::get<std::string>(value_); }
  /// Unscaled decimal value; scale lives in type().scale().
  const Decimal128& decimal_value() const { return std::get<Decimal128>(value_); }

  /// Numeric value as double (ints are widened, decimals divided by
  /// 10^scale); invalid for other types.
  double AsDouble() const {
    if (std::holds_alternative<double>(value_)) return std::get<double>(value_);
    if (std::holds_alternative<Decimal128>(value_)) {
      return std::get<Decimal128>(value_).ToDouble() /
             DecimalPowerOfTen(type_.scale()).ToDouble();
    }
    return static_cast<double>(int_value());
  }

  /// Value at position i of an array, as a Scalar.
  static Scalar FromArray(const Array& arr, int64_t i);

  /// Total ordering consistent with SQL comparison over non-null values;
  /// nulls compare equal to nulls and less than everything else (callers
  /// normally handle nulls explicitly).
  int Compare(const Scalar& other) const;

  bool Equals(const Scalar& other) const;
  bool operator==(const Scalar& other) const { return Equals(other); }

  uint64_t Hash() const;

  std::string ToString() const;

  /// Build an array of `length` copies of this scalar.
  Result<ArrayPtr> MakeArray(int64_t length) const;

 private:
  template <typename V>
  Scalar(DataType type, V value) : type_(type), is_null_(false), value_(std::move(value)) {}

  DataType type_;
  bool is_null_;
  std::variant<std::monostate, bool, int64_t, double, std::string, Decimal128>
      value_;
};

}  // namespace fusion

#endif  // FUSION_ARROW_SCALAR_H_
