#include "compute/aggregate_kernels.h"

namespace fusion {
namespace compute {

namespace {

template <typename CType>
Scalar MakeNumericScalar(const DataType& type, CType v) {
  if constexpr (std::is_same_v<CType, int32_t>) {
    return type.id() == TypeId::kDate32 ? Scalar::Date32(v) : Scalar::Int32(v);
  } else if constexpr (std::is_same_v<CType, int64_t>) {
    return type.id() == TypeId::kTimestamp ? Scalar::Timestamp(v)
                                           : Scalar::Int64(v);
  } else if constexpr (std::is_same_v<CType, double>) {
    return Scalar::Float64(v);
  } else {
    static_assert(std::is_same_v<CType, Decimal128>);
    return Scalar::Decimal(v, type);
  }
}

template <typename CType, bool kMin>
Result<Scalar> MinMaxImpl(const Array& input) {
  const auto& arr = checked_cast<NumericArray<CType>>(input);
  bool seen = false;
  CType best{};
  for (int64_t i = 0; i < input.length(); ++i) {
    if (input.IsNull(i)) continue;
    CType v = arr.Value(i);
    if (!seen || (kMin ? v < best : v > best)) {
      best = v;
      seen = true;
    }
  }
  if (!seen) return Scalar::Null(input.type());
  return MakeNumericScalar<CType>(input.type(), best);
}

template <bool kMin>
Result<Scalar> MinMaxString(const Array& input) {
  bool seen = false;
  std::string_view best;
  for (int64_t i = 0; i < input.length(); ++i) {
    if (input.IsNull(i)) continue;
    std::string_view v = StringLikeValue(input, i);
    if (!seen || (kMin ? v < best : v > best)) {
      best = v;
      seen = true;
    }
  }
  if (!seen) return Scalar::Null(utf8());
  return Scalar::String(std::string(best));
}

template <bool kMin>
Result<Scalar> MinMaxDispatch(const Array& input) {
  switch (input.type().id()) {
    case TypeId::kInt32:
    case TypeId::kDate32:
      return MinMaxImpl<int32_t, kMin>(input);
    case TypeId::kInt64:
    case TypeId::kTimestamp:
      return MinMaxImpl<int64_t, kMin>(input);
    case TypeId::kFloat64:
      return MinMaxImpl<double, kMin>(input);
    case TypeId::kDecimal128:
      return MinMaxImpl<Decimal128, kMin>(input);
    case TypeId::kString:
    case TypeId::kDictionary:
      return MinMaxString<kMin>(input);
    case TypeId::kNull:
      return Scalar();
    case TypeId::kBool:
      break;
  }
  return Status::TypeError("MinMax: unsupported type " +
                           input.type().ToString());
}

}  // namespace

Result<Scalar> MinArray(const Array& input) { return MinMaxDispatch<true>(input); }
Result<Scalar> MaxArray(const Array& input) { return MinMaxDispatch<false>(input); }

}  // namespace compute
}  // namespace fusion
