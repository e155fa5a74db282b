#include "compute/cast.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdlib>

#include "arrow/builder.h"
#include "arrow/scalar.h"
#include "compute/kernel_util.h"
#include "compute/temporal.h"

namespace fusion {
namespace compute {

namespace {

/// Number -> number. A value the target cannot hold becomes null, as an
/// unparsable string does.
template <typename InT, typename OutT>
Result<ArrayPtr> NumericCast(const Array& input, DataType target) {
  auto [validity, nulls] = CopyValidity(input);
  const InT* in = checked_cast<NumericArray<InT>>(input).raw_values();
  auto values =
      std::make_shared<Buffer>(input.length() * static_cast<int64_t>(sizeof(OutT)));
  OutT* out = values->mutable_data_as<OutT>();
  for (int64_t i = 0; i < input.length(); ++i) {
    if (FitsIn<OutT>(in[i])) {
      out[i] = static_cast<OutT>(in[i]);
      continue;
    }
    if (validity == nullptr) validity = AllSetBitmap(input.length());
    if (bit_util::GetBit(validity->data(), i)) {
      bit_util::ClearBit(validity->mutable_data(), i);
      ++nulls;
    }
  }
  return ArrayPtr(std::make_shared<NumericArray<OutT>>(
      target, input.length(), std::move(values), std::move(validity), nulls));
}

/// Number -> bool: nonzero (NaN too) is true.
template <typename InT>
Result<ArrayPtr> NumericToBool(const Array& input) {
  auto [validity, nulls] = CopyValidity(input);
  const InT* in = checked_cast<NumericArray<InT>>(input).raw_values();
  auto bits = std::make_shared<Buffer>(bit_util::BytesForBits(input.length()));
  for (int64_t i = 0; i < input.length(); ++i) {
    if (in[i] != 0) bit_util::SetBit(bits->mutable_data(), i);
  }
  return ArrayPtr(std::make_shared<BooleanArray>(input.length(), std::move(bits),
                                                 std::move(validity), nulls));
}

template <typename InT>
Result<ArrayPtr> DispatchOut(const Array& input, DataType target) {
  switch (target.id()) {
    case TypeId::kInt32:
    case TypeId::kDate32:
      return NumericCast<InT, int32_t>(input, target);
    case TypeId::kInt64:
    case TypeId::kTimestamp:
      return NumericCast<InT, int64_t>(input, target);
    case TypeId::kFloat64:
      return NumericCast<InT, double>(input, target);
    case TypeId::kBool:
      if (input.type().is_numeric()) return NumericToBool<InT>(input);
      break;
    case TypeId::kNull:
    case TypeId::kString:
    case TypeId::kDecimal128:  // numeric sources take NumericToDecimal
    case TypeId::kDictionary:
      break;
  }
  return Status::TypeError("Cast: unsupported numeric target " +
                           target.ToString());
}

Result<ArrayPtr> ToStringArray(const Array& input) {
  StringBuilder builder;
  builder.Reserve(input.length());
  for (int64_t i = 0; i < input.length(); ++i) {
    if (input.IsNull(i)) {
      builder.AppendNull();
    } else {
      builder.Append(input.ValueToString(i));
    }
  }
  return builder.Finish();
}

Result<ArrayPtr> BoolToNumeric(const BooleanArray& input, DataType target) {
  FUSION_ASSIGN_OR_RAISE(auto builder, MakeBuilder(target));
  for (int64_t i = 0; i < input.length(); ++i) {
    if (input.IsNull(i)) {
      builder->AppendNull();
    } else if (target.id() == TypeId::kFloat64) {
      static_cast<Float64Builder*>(builder.get())->Append(input.Value(i) ? 1.0 : 0.0);
    } else if (target.byte_width() == 4) {
      static_cast<NumericBuilder<int32_t>*>(builder.get())
          ->Append(input.Value(i) ? 1 : 0);
    } else {
      static_cast<NumericBuilder<int64_t>*>(builder.get())
          ->Append(input.Value(i) ? 1 : 0);
    }
  }
  return builder->Finish();
}

/// Unscaled value of `v` at `scale`, rounded half away from zero; false
/// for NaN, infinities and values beyond 128 bits.
bool DecimalFromDouble(double v, int scale, Decimal128* out) {
  if (std::isnan(v) || std::isinf(v)) return false;
  double scaled = std::round(v * DecimalPowerOfTen(scale).ToDouble());
  // 1.7e38 < 2^127; anything beyond cannot fit 38 digits anyway.
  if (std::abs(scaled) >= 1.7e38) return false;
  *out = Decimal128::FromInt128(static_cast<__int128>(scaled));
  return true;
}

Status DecimalCastError(DataType from, DataType to, const std::string& value) {
  return Status::Invalid("cast: value " + value + " does not fit " +
                         to.ToString() + " (from " + from.ToString() + ")");
}

/// string -> decimal: false when `text` is no decimal number (null, as
/// for the other numbers); an error when `type` cannot hold it.
Result<bool> ParseDecimal(std::string_view text, DataType type, Decimal128* out) {
  text = NumberText(text);
  Decimal128 raw;
  int precision = 0, scale = 0;
  if (!DecimalFromString(text, &raw, &precision, &scale)) return false;
  if (!DecimalRescale(raw, scale, type.scale(), out) ||
      !DecimalFitsPrecision(*out, type.precision())) {
    return DecimalCastError(utf8(), type, std::string(text));
  }
  return true;
}

/// string -> number, decimal, date or timestamp, value by value.
Result<ArrayPtr> StringToParsed(const StringArray& input, DataType target) {
  FUSION_ASSIGN_OR_RAISE(auto builder, MakeBuilder(target));
  builder->Reserve(input.length());
  for (int64_t i = 0; i < input.length(); ++i) {
    if (input.IsNull(i)) {
      builder->AppendNull();
    } else {
      FUSION_RETURN_NOT_OK(AppendCastText(input.Value(i), target, builder.get()));
    }
  }
  return builder->Finish();
}

/// int/double -> decimal. Doubles round half away from zero; values
/// that do not fit the target are errors.
Result<ArrayPtr> NumericToDecimal(const Array& input, DataType target) {
  auto [validity, nulls] = CopyValidity(input);
  const int64_t n = input.length();
  auto values = std::make_shared<Buffer>(n * int64_t{16});
  Decimal128* out = values->mutable_data_as<Decimal128>();
  for (int64_t i = 0; i < n; ++i) {
    if (input.IsNull(i)) continue;
    bool fits;
    if (input.type().is_floating()) {
      fits = DecimalFromDouble(checked_cast<Float64Array>(input).Value(i),
                               target.scale(), &out[i]);
    } else {
      const int64_t v = input.type().id() == TypeId::kInt32
                            ? checked_cast<Int32Array>(input).Value(i)
                            : checked_cast<Int64Array>(input).Value(i);
      fits = DecimalRescale(Decimal128(v), 0, target.scale(), &out[i]);
    }
    if (!fits || !DecimalFitsPrecision(out[i], target.precision())) {
      return DecimalCastError(input.type(), target, input.ValueToString(i));
    }
  }
  return ArrayPtr(std::make_shared<Decimal128Array>(
      target, n, std::move(values), std::move(validity), nulls));
}

/// decimal -> decimal rescale on raw values (the hot path for coercion
/// casts inserted by the planner); overflow is an error.
Result<ArrayPtr> DecimalToDecimal(const Array& input, DataType target) {
  auto [validity, nulls] = CopyValidity(input);
  const int64_t n = input.length();
  const Decimal128* in = checked_cast<Decimal128Array>(input).raw_values();
  const int from_scale = input.type().scale();
  const int to_scale = target.scale();
  auto values = std::make_shared<Buffer>(n * int64_t{16});
  Decimal128* out = values->mutable_data_as<Decimal128>();
  const uint8_t* valid_bits = validity ? validity->data() : nullptr;
  for (int64_t i = 0; i < n; ++i) {
    if (valid_bits != nullptr && !bit_util::GetBit(valid_bits, i)) continue;
    if (!DecimalRescale(in[i], from_scale, to_scale, &out[i]) ||
        !DecimalFitsPrecision(out[i], target.precision())) {
      return DecimalCastError(input.type(), target,
                              DecimalToString(in[i], from_scale));
    }
  }
  return ArrayPtr(std::make_shared<Decimal128Array>(
      target, n, std::move(values), std::move(validity), nulls));
}

/// decimal -> int/double. Fractional digits round half away from zero
/// for integer targets; a value outside the target's range is null, as
/// in NumericCast.
Result<ArrayPtr> DecimalToNumeric(const Array& input, DataType target) {
  auto [validity, nulls] = CopyValidity(input);
  const int64_t n = input.length();
  const auto& da = checked_cast<Decimal128Array>(input);
  const Decimal128* in = da.raw_values();
  const int scale = input.type().scale();
  const uint8_t* valid_bits = validity ? validity->data() : nullptr;
  auto is_valid = [&](int64_t i) {
    return valid_bits == nullptr || bit_util::GetBit(valid_bits, i);
  };
  if (target.id() == TypeId::kFloat64) {
    auto values = std::make_shared<Buffer>(n * int64_t{8});
    double* out = values->mutable_data_as<double>();
    const double divisor = DecimalPowerOfTen(scale).ToDouble();
    for (int64_t i = 0; i < n; ++i) {
      if (is_valid(i)) out[i] = in[i].ToDouble() / divisor;
    }
    return ArrayPtr(std::make_shared<Float64Array>(
        target, n, std::move(values), std::move(validity), nulls));
  }
  const bool narrow = target.byte_width() == 4;
  auto values = std::make_shared<Buffer>(n * (narrow ? int64_t{4} : int64_t{8}));
  for (int64_t i = 0; i < n; ++i) {
    if (!is_valid(i)) continue;
    Decimal128 t;
    if (!DecimalRescale(in[i], scale, 0, &t) || !t.FitsInInt64() ||
        (narrow && !FitsIn<int32_t>(static_cast<int64_t>(t.ToInt128())))) {
      if (validity == nullptr) validity = AllSetBitmap(n);
      bit_util::ClearBit(validity->mutable_data(), i);
      ++nulls;
      continue;
    }
    const int64_t v = static_cast<int64_t>(t.ToInt128());
    if (narrow) {
      values->mutable_data_as<int32_t>()[i] = static_cast<int32_t>(v);
    } else {
      values->mutable_data_as<int64_t>()[i] = v;
    }
  }
  if (narrow) {
    return ArrayPtr(std::make_shared<Int32Array>(target, n, std::move(values),
                                                 std::move(validity), nulls));
  }
  return ArrayPtr(std::make_shared<Int64Array>(target, n, std::move(values),
                                               std::move(validity), nulls));
}

}  // namespace

Status AppendCastText(std::string_view text, DataType type, ArrayBuilder* builder) {
  switch (type.id()) {
    case TypeId::kInt32:
    case TypeId::kInt64: {
      int64_t v = 0;
      if (!ParseInt64(text, &v)) break;
      if (type.id() == TypeId::kInt64) {
        static_cast<NumericBuilder<int64_t>*>(builder)->Append(v);
      } else if (FitsIn<int32_t>(v)) {
        static_cast<NumericBuilder<int32_t>*>(builder)->Append(static_cast<int32_t>(v));
      } else {
        break;
      }
      return Status::OK();
    }
    case TypeId::kFloat64: {
      double v = 0;
      if (!ParseFloat64(text, &v)) break;
      static_cast<Float64Builder*>(builder)->Append(v);
      return Status::OK();
    }
    case TypeId::kDecimal128: {
      Decimal128 v;
      FUSION_ASSIGN_OR_RAISE(bool parsed, ParseDecimal(text, type, &v));
      if (!parsed) break;
      static_cast<Decimal128Builder*>(builder)->Append(v);
      return Status::OK();
    }
    case TypeId::kDate32: {
      auto days = ParseDate32(std::string(text));
      if (!days.ok()) break;
      static_cast<NumericBuilder<int32_t>*>(builder)->Append(*days);
      return Status::OK();
    }
    case TypeId::kTimestamp: {
      auto micros = ParseTimestamp(std::string(text));
      if (!micros.ok()) break;
      static_cast<NumericBuilder<int64_t>*>(builder)->Append(*micros);
      return Status::OK();
    }
    default:
      return Status::TypeError("cast: text does not parse as " + type.ToString());
  }
  builder->AppendNull();
  return Status::OK();
}

Result<ArrayPtr> Cast(const Array& input, DataType target) {
  if (input.type() == target) {
    // Arrays are immutable; sharing is safe. Callers hold shared_ptrs, so
    // go through a cheap full-range slice only when we lack the pointer.
    return input.Slice(0, input.length());
  }
  if (input.type().is_null()) return MakeArrayOfNulls(target, input.length());
  if (input.type().is_dictionary()) {
    // The universal fallback: decode once, then cast the dense form if
    // the target is anything other than the logical string type.
    ArrayPtr dense = checked_cast<DictionaryArray>(input).Densify();
    if (target.is_string()) return dense;
    return Cast(*dense, target);
  }
  if (input.type().is_numeric() && target.is_decimal()) {
    return NumericToDecimal(input, target);
  }
  switch (input.type().id()) {
    case TypeId::kInt32:
    case TypeId::kDate32:
      if (input.type().id() == TypeId::kDate32 && target.id() == TypeId::kTimestamp) {
        // days -> microseconds
        auto [validity, nulls] = CopyValidity(input);
        const int32_t* in = checked_cast<Int32Array>(input).raw_values();
        auto values = std::make_shared<Buffer>(input.length() * 8);
        int64_t* out = values->mutable_data_as<int64_t>();
        for (int64_t i = 0; i < input.length(); ++i) {
          out[i] = static_cast<int64_t>(in[i]) * 86400LL * 1000000LL;
        }
        return ArrayPtr(std::make_shared<Int64Array>(timestamp(), input.length(),
                                                     std::move(values),
                                                     std::move(validity), nulls));
      }
      if (target.is_string()) return ToStringArray(input);
      return DispatchOut<int32_t>(input, target);
    case TypeId::kInt64:
    case TypeId::kTimestamp:
      if (target.is_string()) return ToStringArray(input);
      return DispatchOut<int64_t>(input, target);
    case TypeId::kFloat64:
      if (target.is_string()) return ToStringArray(input);
      return DispatchOut<double>(input, target);
    case TypeId::kDecimal128:
      if (target.is_decimal()) return DecimalToDecimal(input, target);
      if (target.is_string()) return ToStringArray(input);
      if (target.is_numeric()) return DecimalToNumeric(input, target);
      break;
    case TypeId::kString:
      if (target.is_decimal() || target.is_numeric() || target.is_temporal()) {
        return StringToParsed(checked_cast<StringArray>(input), target);
      }
      break;
    case TypeId::kBool:
      if (target.is_numeric()) {
        return BoolToNumeric(checked_cast<BooleanArray>(input), target);
      }
      if (target.is_string()) return ToStringArray(input);
      break;
    case TypeId::kNull:
    case TypeId::kDictionary:
      break;  // handled before the switch
  }
  return Status::TypeError("Cast: unsupported cast " + input.type().ToString() +
                           " -> " + target.ToString());
}

Result<Scalar> CastScalar(const Scalar& value, DataType target) {
  if (value.type() == target) return value;
  FUSION_ASSIGN_OR_RAISE(auto one, value.MakeArray(1));
  FUSION_ASSIGN_OR_RAISE(auto out, Cast(*one, target));
  return Scalar::FromArray(*out, 0);
}

ArrayPtr EnsureDense(const ArrayPtr& input) {
  if (!input->type().is_dictionary()) return input;
  return checked_cast<DictionaryArray>(*input).Densify();
}

RecordBatchPtr EnsureDenseBatch(const RecordBatchPtr& batch) {
  bool any_dict = false;
  for (int i = 0; i < batch->num_columns(); ++i) {
    any_dict |= batch->column(i)->type().is_dictionary();
  }
  if (!any_dict) return batch;
  std::vector<ArrayPtr> cols;
  cols.reserve(static_cast<size_t>(batch->num_columns()));
  for (int i = 0; i < batch->num_columns(); ++i) {
    cols.push_back(EnsureDense(batch->column(i)));
  }
  return std::make_shared<RecordBatch>(batch->schema(), batch->num_rows(),
                                       std::move(cols));
}

Result<DataType> CommonType(DataType a, DataType b) {
  // Dictionary is a physical encoding of string; coercion rules only
  // see logical types.
  if (a.is_dictionary()) a = utf8();
  if (b.is_dictionary()) b = utf8();
  if (a == b) return a;
  if (a.is_null()) return b;
  if (b.is_null()) return a;
  if (a.is_decimal() || b.is_decimal()) {
    // Exactness survives against integers and strings; doubles pull the
    // result into the approximate domain.
    if (a.is_floating() || b.is_floating()) return float64();
    DataType d = a.is_decimal() ? a : b;
    DataType o = a.is_decimal() ? b : a;
    if (o.is_decimal()) {
      const int s = std::max(d.scale(), o.scale());
      const int ip = std::max(d.precision() - d.scale(), o.precision() - o.scale());
      return decimal128(std::min(kDecimalMaxPrecision, ip + s), s);
    }
    if (o.is_integer()) {
      // Widen the integer part to hold any int of that width.
      const int int_digits = o.id() == TypeId::kInt64 ? 19 : 10;
      const int ip = std::max(d.precision() - d.scale(), int_digits);
      const int p = std::min(kDecimalMaxPrecision, ip + d.scale());
      return decimal128(p, std::min(d.scale(), p));
    }
    if (o.is_string()) return d;
    return Status::TypeError("no common type for " + a.ToString() + " and " +
                             b.ToString());
  }
  if (a.is_numeric() && b.is_numeric()) {
    if (a.id() == TypeId::kFloat64 || b.id() == TypeId::kFloat64) return float64();
    if (a.id() == TypeId::kInt64 || b.id() == TypeId::kInt64) return int64();
    return int32();
  }
  if (a.is_temporal() && b.is_temporal()) return timestamp();
  // date/timestamp vs integer: compare in the temporal domain.
  if (a.is_temporal() && b.is_integer()) return a;
  if (b.is_temporal() && a.is_integer()) return b;
  // string vs temporal: parsed literals arrive as strings.
  if (a.is_string() && b.is_temporal()) return b;
  if (b.is_string() && a.is_temporal()) return a;
  if (a.is_string() && b.is_numeric()) return b;
  if (b.is_string() && a.is_numeric()) return a;
  return Status::TypeError("no common type for " + a.ToString() + " and " +
                           b.ToString());
}

}  // namespace compute
}  // namespace fusion
