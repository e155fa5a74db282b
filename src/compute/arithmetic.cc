#include "compute/arithmetic.h"

#include <algorithm>
#include <cmath>

#include "compute/kernel_util.h"

namespace fusion {
namespace compute {

namespace {

template <typename CType>
Result<ArrayPtr> ArithmeticImpl(ArithmeticOp op, DataType out_type, int64_t length,
                                const CType* a, const CType* b, BufferPtr validity,
                                int64_t null_count) {
  auto values = std::make_shared<Buffer>(length * static_cast<int64_t>(sizeof(CType)));
  CType* out = values->mutable_data_as<CType>();
  switch (op) {
    case ArithmeticOp::kAdd:
      for (int64_t i = 0; i < length; ++i) out[i] = a[i] + b[i];
      break;
    case ArithmeticOp::kSubtract:
      for (int64_t i = 0; i < length; ++i) out[i] = a[i] - b[i];
      break;
    case ArithmeticOp::kMultiply:
      for (int64_t i = 0; i < length; ++i) out[i] = a[i] * b[i];
      break;
    case ArithmeticOp::kDivide:
      if constexpr (std::is_integral_v<CType>) {
        // Division by zero nulls the slot instead of trapping.
        for (int64_t i = 0; i < length; ++i) {
          if (b[i] == 0) {
            if (validity == nullptr) {
              validity = AllSetBitmap(length);
            }
            bit_util::ClearBit(validity->mutable_data(), i);
            ++null_count;
            out[i] = CType{};
          } else {
            out[i] = a[i] / b[i];
          }
        }
      } else {
        for (int64_t i = 0; i < length; ++i) out[i] = a[i] / b[i];
      }
      break;
    case ArithmeticOp::kModulo:
      if constexpr (std::is_integral_v<CType>) {
        for (int64_t i = 0; i < length; ++i) {
          if (b[i] == 0) {
            if (validity == nullptr) {
              validity = AllSetBitmap(length);
            }
            bit_util::ClearBit(validity->mutable_data(), i);
            ++null_count;
            out[i] = CType{};
          } else {
            out[i] = a[i] % b[i];
          }
        }
      } else {
        for (int64_t i = 0; i < length; ++i) {
          out[i] = static_cast<CType>(std::fmod(static_cast<double>(a[i]),
                                                static_cast<double>(b[i])));
        }
      }
      break;
  }
  return ArrayPtr(std::make_shared<NumericArray<CType>>(
      out_type, length, std::move(values), std::move(validity), null_count));
}

// Decimal arithmetic ----------------------------------------------------
//
// Unlike the primitive kernels, operands may carry *different* scales;
// the result type comes from DecimalBinaryResultType and values are
// checked for 128-bit overflow (overflow is an error, not a wrap —
// money sums that silently wrap are worse than queries that fail).

Status DecimalOverflow(const char* what) {
  return Status::Invalid(std::string("decimal arithmetic overflow in ") + what);
}

Result<ArrayPtr> DecimalArithmetic(ArithmeticOp op, DataType out_type,
                                   int64_t length, const Decimal128* a,
                                   int scale_a, const Decimal128* b, int scale_b,
                                   BufferPtr validity, int64_t null_count) {
  auto values = std::make_shared<Buffer>(length * int64_t{16});
  Decimal128* out = values->mutable_data_as<Decimal128>();
  const int out_scale = out_type.scale();
  const uint8_t* valid_bits = validity ? validity->data() : nullptr;
  auto is_valid = [&](int64_t i) {
    return valid_bits == nullptr || bit_util::GetBit(valid_bits, i);
  };
  switch (op) {
    case ArithmeticOp::kAdd:
    case ArithmeticOp::kSubtract: {
      const bool negate = op == ArithmeticOp::kSubtract;
      for (int64_t i = 0; i < length; ++i) {
        if (!is_valid(i)) continue;
        Decimal128 la, lb, r;
        if (!DecimalRescale(a[i], scale_a, out_scale, &la) ||
            !DecimalRescale(b[i], scale_b, out_scale, &lb)) {
          return DecimalOverflow("rescale");
        }
        if (negate ? Decimal128::SubtractWithOverflow(la, lb, &r)
                   : Decimal128::AddWithOverflow(la, lb, &r)) {
          return DecimalOverflow(negate ? "subtract" : "add");
        }
        out[i] = r;
      }
      break;
    }
    case ArithmeticOp::kMultiply:
      // Scales add under multiplication, so no operand rescaling at all:
      // (a·10^-s1)(b·10^-s2) = ab·10^-(s1+s2) and out_scale == s1+s2.
      for (int64_t i = 0; i < length; ++i) {
        if (!is_valid(i)) continue;
        Decimal128 r;
        if (Decimal128::MultiplyWithOverflow(a[i], b[i], &r)) {
          return DecimalOverflow("multiply");
        }
        out[i] = r;
      }
      break;
    case ArithmeticOp::kDivide: {
      // a/b at out_scale: widen the dividend by 10^(out_scale - s1 + s2),
      // divide, round half away from zero. Division by zero nulls the
      // slot (same convention as the integer kernel).
      const int shift = out_scale - scale_a + scale_b;
      if (shift < 0) {
        // Cannot happen with DecimalBinaryResultType's rule (out_scale
        // >= s1 + 4); reject rather than silently losing digits.
        return Status::Invalid("decimal divide: result scale too small");
      }
      for (int64_t i = 0; i < length; ++i) {
        if (!is_valid(i)) continue;
        if (b[i] == Decimal128(0)) {
          if (validity == nullptr) {
            validity = AllSetBitmap(length);
            valid_bits = validity->data();
          }
          bit_util::ClearBit(validity->mutable_data(), i);
          ++null_count;
          out[i] = Decimal128{};
          continue;
        }
        __int128 numer = a[i].ToInt128();
        if (shift > 0) {
          if (__builtin_mul_overflow(numer, DecimalPowerOfTen(shift).ToInt128(),
                                     &numer)) {
            return DecimalOverflow("divide");
          }
        }
        __int128 denom = b[i].ToInt128();
        __int128 q = numer / denom;
        __int128 rem = numer % denom;
        // Round half away from zero.
        __int128 abs_denom = denom < 0 ? -denom : denom;
        __int128 abs_rem2 = (rem < 0 ? -rem : rem) * 2;
        if (abs_rem2 >= abs_denom) {
          q += ((numer < 0) != (denom < 0)) ? -1 : 1;
        }
        out[i] = Decimal128::FromInt128(q);
      }
      break;
    }
    case ArithmeticOp::kModulo:
      for (int64_t i = 0; i < length; ++i) {
        if (!is_valid(i)) continue;
        Decimal128 la, lb;
        if (!DecimalRescale(a[i], scale_a, out_scale, &la) ||
            !DecimalRescale(b[i], scale_b, out_scale, &lb)) {
          return DecimalOverflow("rescale");
        }
        if (lb == Decimal128(0)) {
          if (validity == nullptr) {
            validity = AllSetBitmap(length);
            valid_bits = validity->data();
          }
          bit_util::ClearBit(validity->mutable_data(), i);
          ++null_count;
          out[i] = Decimal128{};
          continue;
        }
        out[i] = la % lb;
      }
      break;
  }
  return ArrayPtr(std::make_shared<Decimal128Array>(
      out_type, length, std::move(values), std::move(validity), null_count));
}

template <typename CType>
std::vector<CType> BroadcastScalar(const Scalar& s, int64_t length) {
  CType v;
  if constexpr (std::is_floating_point_v<CType>) {
    v = static_cast<CType>(s.AsDouble());
  } else {
    v = static_cast<CType>(s.int_value());
  }
  return std::vector<CType>(static_cast<size_t>(length), v);
}

}  // namespace

Result<DataType> DecimalBinaryResultType(ArithmeticOp op, DataType left,
                                         DataType right) {
  if (!left.is_decimal() || !right.is_decimal()) {
    return Status::TypeError("DecimalBinaryResultType: both operands must be decimal");
  }
  const int p1 = left.precision(), s1 = left.scale();
  const int p2 = right.precision(), s2 = right.scale();
  int p = 0, s = 0;
  switch (op) {
    case ArithmeticOp::kAdd:
    case ArithmeticOp::kSubtract:
      s = std::max(s1, s2);
      p = std::min(kDecimalMaxPrecision, std::max(p1 - s1, p2 - s2) + s + 1);
      break;
    case ArithmeticOp::kMultiply:
      s = s1 + s2;
      p = std::min(kDecimalMaxPrecision, p1 + p2 + 1);
      if (s > kDecimalMaxPrecision) {
        return Status::Invalid("decimal multiply: combined scale " +
                               std::to_string(s) + " exceeds 38");
      }
      break;
    case ArithmeticOp::kDivide:
      s = std::min(kDecimalMaxPrecision, std::max(6, s1 + 4));
      p = kDecimalMaxPrecision;
      break;
    case ArithmeticOp::kModulo:
      s = std::max(s1, s2);
      p = std::min(kDecimalMaxPrecision, std::max(p1 - s1, p2 - s2) + s);
      break;
  }
  if (p < s) p = s;
  if (p < 1) p = 1;
  return decimal128(p, s);
}

Result<ArrayPtr> Arithmetic(ArithmeticOp op, const Array& lhs, const Array& rhs) {
  if (lhs.length() != rhs.length()) {
    return Status::Invalid("Arithmetic: mismatched lengths");
  }
  if (lhs.type().is_decimal() && rhs.type().is_decimal()) {
    FUSION_ASSIGN_OR_RAISE(DataType out_type,
                           DecimalBinaryResultType(op, lhs.type(), rhs.type()));
    auto [validity, nulls] = IntersectValidity(lhs, rhs);
    return DecimalArithmetic(op, out_type, lhs.length(),
                             checked_cast<Decimal128Array>(lhs).raw_values(),
                             lhs.type().scale(),
                             checked_cast<Decimal128Array>(rhs).raw_values(),
                             rhs.type().scale(), std::move(validity), nulls);
  }
  if (lhs.type() != rhs.type()) {
    return Status::TypeError("Arithmetic: mismatched types " + lhs.type().ToString() +
                             " vs " + rhs.type().ToString());
  }
  auto [validity, nulls] = IntersectValidity(lhs, rhs);
  switch (lhs.type().id()) {
    case TypeId::kInt32:
    case TypeId::kDate32:
      return ArithmeticImpl<int32_t>(op, lhs.type(), lhs.length(),
                                     checked_cast<Int32Array>(lhs).raw_values(),
                                     checked_cast<Int32Array>(rhs).raw_values(),
                                     std::move(validity), nulls);
    case TypeId::kInt64:
    case TypeId::kTimestamp:
      return ArithmeticImpl<int64_t>(op, lhs.type(), lhs.length(),
                                     checked_cast<Int64Array>(lhs).raw_values(),
                                     checked_cast<Int64Array>(rhs).raw_values(),
                                     std::move(validity), nulls);
    case TypeId::kFloat64:
      return ArithmeticImpl<double>(op, lhs.type(), lhs.length(),
                                    checked_cast<Float64Array>(lhs).raw_values(),
                                    checked_cast<Float64Array>(rhs).raw_values(),
                                    std::move(validity), nulls);
    case TypeId::kNull:
    case TypeId::kBool:
    case TypeId::kString:
    case TypeId::kDictionary:
    case TypeId::kDecimal128:  // handled by the decimal path above
      break;
  }
  return Status::TypeError("Arithmetic: unsupported type " +
                           lhs.type().ToString());
}

Result<ArrayPtr> ArithmeticScalar(ArithmeticOp op, const Array& lhs,
                                  const Scalar& rhs) {
  if (lhs.type().is_decimal() && rhs.type().is_decimal()) {
    if (rhs.is_null()) {
      FUSION_ASSIGN_OR_RAISE(DataType out_type,
                             DecimalBinaryResultType(op, lhs.type(), rhs.type()));
      return MakeArrayOfNulls(out_type, lhs.length());
    }
    FUSION_ASSIGN_OR_RAISE(auto rhs_arr, rhs.MakeArray(lhs.length()));
    return Arithmetic(op, lhs, *rhs_arr);
  }
  if (rhs.is_null()) return MakeArrayOfNulls(lhs.type(), lhs.length());
  auto [validity, nulls] = CopyValidity(lhs);
  switch (lhs.type().id()) {
    case TypeId::kInt32:
    case TypeId::kDate32: {
      auto b = BroadcastScalar<int32_t>(rhs, lhs.length());
      return ArithmeticImpl<int32_t>(op, lhs.type(), lhs.length(),
                                     checked_cast<Int32Array>(lhs).raw_values(),
                                     b.data(), std::move(validity), nulls);
    }
    case TypeId::kInt64:
    case TypeId::kTimestamp: {
      auto b = BroadcastScalar<int64_t>(rhs, lhs.length());
      return ArithmeticImpl<int64_t>(op, lhs.type(), lhs.length(),
                                     checked_cast<Int64Array>(lhs).raw_values(),
                                     b.data(), std::move(validity), nulls);
    }
    case TypeId::kFloat64: {
      auto b = BroadcastScalar<double>(rhs, lhs.length());
      return ArithmeticImpl<double>(op, lhs.type(), lhs.length(),
                                    checked_cast<Float64Array>(lhs).raw_values(),
                                    b.data(), std::move(validity), nulls);
    }
    case TypeId::kNull:
    case TypeId::kBool:
    case TypeId::kString:
    case TypeId::kDictionary:
    case TypeId::kDecimal128:  // handled by the decimal path above
      break;
  }
  return Status::TypeError("ArithmeticScalar: unsupported type " +
                           lhs.type().ToString());
}

Result<ArrayPtr> ScalarArithmetic(ArithmeticOp op, const Scalar& lhs,
                                  const Array& rhs) {
  if (lhs.type().is_decimal() && rhs.type().is_decimal()) {
    if (lhs.is_null()) {
      FUSION_ASSIGN_OR_RAISE(DataType out_type,
                             DecimalBinaryResultType(op, lhs.type(), rhs.type()));
      return MakeArrayOfNulls(out_type, rhs.length());
    }
    FUSION_ASSIGN_OR_RAISE(auto lhs_arr, lhs.MakeArray(rhs.length()));
    return Arithmetic(op, *lhs_arr, rhs);
  }
  if (lhs.is_null()) return MakeArrayOfNulls(rhs.type(), rhs.length());
  auto [validity, nulls] = CopyValidity(rhs);
  switch (rhs.type().id()) {
    case TypeId::kInt32:
    case TypeId::kDate32: {
      auto a = BroadcastScalar<int32_t>(lhs, rhs.length());
      return ArithmeticImpl<int32_t>(op, rhs.type(), rhs.length(), a.data(),
                                     checked_cast<Int32Array>(rhs).raw_values(),
                                     std::move(validity), nulls);
    }
    case TypeId::kInt64:
    case TypeId::kTimestamp: {
      auto a = BroadcastScalar<int64_t>(lhs, rhs.length());
      return ArithmeticImpl<int64_t>(op, rhs.type(), rhs.length(), a.data(),
                                     checked_cast<Int64Array>(rhs).raw_values(),
                                     std::move(validity), nulls);
    }
    case TypeId::kFloat64: {
      auto a = BroadcastScalar<double>(lhs, rhs.length());
      return ArithmeticImpl<double>(op, rhs.type(), rhs.length(), a.data(),
                                    checked_cast<Float64Array>(rhs).raw_values(),
                                    std::move(validity), nulls);
    }
    case TypeId::kNull:
    case TypeId::kBool:
    case TypeId::kString:
    case TypeId::kDictionary:
    case TypeId::kDecimal128:  // handled by the decimal path above
      break;
  }
  return Status::TypeError("ScalarArithmetic: unsupported type " +
                           rhs.type().ToString());
}

namespace {
template <typename CType>
Result<ArrayPtr> NegateImpl(const Array& input) {
  auto [validity, nulls] = CopyValidity(input);
  auto values =
      std::make_shared<Buffer>(input.length() * static_cast<int64_t>(sizeof(CType)));
  const CType* in = checked_cast<NumericArray<CType>>(input).raw_values();
  CType* out = values->mutable_data_as<CType>();
  for (int64_t i = 0; i < input.length(); ++i) out[i] = -in[i];
  return ArrayPtr(std::make_shared<NumericArray<CType>>(
      input.type(), input.length(), std::move(values), std::move(validity), nulls));
}
}  // namespace

Result<ArrayPtr> Negate(const Array& input) {
  switch (input.type().id()) {
    case TypeId::kInt32:
      return NegateImpl<int32_t>(input);
    case TypeId::kInt64:
      return NegateImpl<int64_t>(input);
    case TypeId::kFloat64:
      return NegateImpl<double>(input);
    case TypeId::kDecimal128:
      return NegateImpl<Decimal128>(input);
    case TypeId::kNull:
      return MakeArrayOfNulls(null_type(), input.length());
    case TypeId::kBool:
    case TypeId::kString:
    case TypeId::kDate32:
    case TypeId::kTimestamp:
    case TypeId::kDictionary:
      break;
  }
  return Status::TypeError("Negate: unsupported type " + input.type().ToString());
}

}  // namespace compute
}  // namespace fusion
