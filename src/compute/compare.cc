#include "compute/compare.h"

#include <unordered_set>

#include "compute/cast.h"
#include "compute/kernel_util.h"

namespace fusion {
namespace compute {

namespace {

template <typename Get>
ArrayPtr MakeBoolResult(int64_t length, BufferPtr validity, int64_t nulls, Get&& get) {
  auto values = std::make_shared<Buffer>(bit_util::BytesForBits(length));
  uint8_t* bits = values->mutable_data();
  for (int64_t i = 0; i < length; ++i) {
    if (get(i)) bit_util::SetBit(bits, i);
  }
  return std::make_shared<BooleanArray>(length, std::move(values), std::move(validity),
                                        nulls);
}

template <typename T, typename GetA, typename GetB>
ArrayPtr CompareLoop(CompareOp op, int64_t length, BufferPtr validity, int64_t nulls,
                     GetA&& a, GetB&& b) {
  switch (op) {
    case CompareOp::kEq:
      return MakeBoolResult(length, std::move(validity), nulls,
                            [&](int64_t i) { return a(i) == b(i); });
    case CompareOp::kNeq:
      return MakeBoolResult(length, std::move(validity), nulls,
                            [&](int64_t i) { return a(i) != b(i); });
    case CompareOp::kLt:
      return MakeBoolResult(length, std::move(validity), nulls,
                            [&](int64_t i) { return a(i) < b(i); });
    case CompareOp::kLtEq:
      return MakeBoolResult(length, std::move(validity), nulls,
                            [&](int64_t i) { return a(i) <= b(i); });
    case CompareOp::kGt:
      return MakeBoolResult(length, std::move(validity), nulls,
                            [&](int64_t i) { return a(i) > b(i); });
    case CompareOp::kGtEq:
      return MakeBoolResult(length, std::move(validity), nulls,
                            [&](int64_t i) { return a(i) >= b(i); });
  }
  return nullptr;
}

bool CompareValues(CompareOp op, std::string_view a, std::string_view b) {
  switch (op) {
    case CompareOp::kEq:
      return a == b;
    case CompareOp::kNeq:
      return a != b;
    case CompareOp::kLt:
      return a < b;
    case CompareOp::kLtEq:
      return a <= b;
    case CompareOp::kGt:
      return a > b;
    case CompareOp::kGtEq:
      return a >= b;
  }
  return false;
}

}  // namespace

Result<ArrayPtr> Compare(CompareOp op, const Array& lhs, const Array& rhs) {
  if (lhs.type() != rhs.type() &&
      !(lhs.type().is_string_like() && rhs.type().is_string_like())) {
    return Status::TypeError("Compare: mismatched types " + lhs.type().ToString() +
                             " vs " + rhs.type().ToString());
  }
  if (lhs.length() != rhs.length()) {
    return Status::Invalid("Compare: mismatched lengths");
  }
  auto [validity, nulls] = IntersectValidity(lhs, rhs);
  const int64_t n = lhs.length();
  // String comparisons work on logical values whatever the physical
  // encoding of either side (dense vs dictionary, including mixed).
  if (lhs.type().is_string_like()) {
    return CompareLoop<std::string_view>(
        op, n, std::move(validity), nulls,
        [&](int64_t i) { return lhs.IsValid(i) ? StringLikeValue(lhs, i)
                                               : std::string_view(); },
        [&](int64_t i) { return rhs.IsValid(i) ? StringLikeValue(rhs, i)
                                               : std::string_view(); });
  }
  switch (lhs.type().id()) {
    case TypeId::kInt32:
    case TypeId::kDate32: {
      const int32_t* a = checked_cast<Int32Array>(lhs).raw_values();
      const int32_t* b = checked_cast<Int32Array>(rhs).raw_values();
      return CompareLoop<int32_t>(op, n, std::move(validity), nulls,
                                  [a](int64_t i) { return a[i]; },
                                  [b](int64_t i) { return b[i]; });
    }
    case TypeId::kInt64:
    case TypeId::kTimestamp: {
      const int64_t* a = checked_cast<Int64Array>(lhs).raw_values();
      const int64_t* b = checked_cast<Int64Array>(rhs).raw_values();
      return CompareLoop<int64_t>(op, n, std::move(validity), nulls,
                                  [a](int64_t i) { return a[i]; },
                                  [b](int64_t i) { return b[i]; });
    }
    case TypeId::kFloat64: {
      const double* a = checked_cast<Float64Array>(lhs).raw_values();
      const double* b = checked_cast<Float64Array>(rhs).raw_values();
      return CompareLoop<double>(op, n, std::move(validity), nulls,
                                 [a](int64_t i) { return a[i]; },
                                 [b](int64_t i) { return b[i]; });
    }
    case TypeId::kDecimal128: {
      // Same (precision, scale) on both sides — the planner coerces
      // mixed-scale comparisons to a common decimal type — so unscaled
      // values order correctly.
      const Decimal128* a = checked_cast<Decimal128Array>(lhs).raw_values();
      const Decimal128* b = checked_cast<Decimal128Array>(rhs).raw_values();
      return CompareLoop<Decimal128>(op, n, std::move(validity), nulls,
                                     [a](int64_t i) { return a[i]; },
                                     [b](int64_t i) { return b[i]; });
    }
    case TypeId::kString: {
      const auto& a = checked_cast<StringArray>(lhs);
      const auto& b = checked_cast<StringArray>(rhs);
      return CompareLoop<std::string_view>(op, n, std::move(validity), nulls,
                                           [&](int64_t i) { return a.Value(i); },
                                           [&](int64_t i) { return b.Value(i); });
    }
    case TypeId::kBool: {
      const auto& a = checked_cast<BooleanArray>(lhs);
      const auto& b = checked_cast<BooleanArray>(rhs);
      return CompareLoop<bool>(op, n, std::move(validity), nulls,
                               [&](int64_t i) { return a.Value(i); },
                               [&](int64_t i) { return b.Value(i); });
    }
    case TypeId::kNull:
    case TypeId::kDictionary:  // handled by the string-like path above
      break;
  }
  return Status::TypeError("Compare: unsupported type " + lhs.type().ToString());
}

Result<ArrayPtr> CompareScalar(CompareOp op, const Array& lhs, const Scalar& rhs) {
  if (rhs.is_null()) {
    // Comparison with NULL is NULL for every row.
    return MakeArrayOfNulls(boolean(), lhs.length());
  }
  if (lhs.type().is_dictionary()) {
    // Constant predicate fast path: resolve the comparison against each
    // distinct dictionary entry once, then answer per row by code.
    const auto& da = checked_cast<DictionaryArray>(lhs);
    FUSION_ASSIGN_OR_RAISE(Scalar coerced, CastScalar(rhs, utf8()));
    const std::string_view b = coerced.string_value();
    const StringArray& dict = *da.dictionary();
    std::vector<bool> match(static_cast<size_t>(dict.length()));
    for (int64_t c = 0; c < dict.length(); ++c) {
      match[static_cast<size_t>(c)] = CompareValues(op, dict.Value(c), b);
    }
    auto [validity, nulls] = CopyValidity(lhs);
    const int32_t* codes = da.raw_codes();
    return MakeBoolResult(lhs.length(), std::move(validity), nulls,
                          [&](int64_t i) {
                            return da.IsValid(i) &&
                                   match[static_cast<size_t>(codes[i])];
                          });
  }
  FUSION_ASSIGN_OR_RAISE(Scalar coerced, CastScalar(rhs, lhs.type()));
  if (coerced.is_null()) return MakeArrayOfNulls(boolean(), lhs.length());
  auto [validity, nulls] = CopyValidity(lhs);
  const int64_t n = lhs.length();
  switch (lhs.type().id()) {
    case TypeId::kInt32:
    case TypeId::kDate32: {
      const int32_t* a = checked_cast<Int32Array>(lhs).raw_values();
      int32_t b = static_cast<int32_t>(coerced.int_value());
      return CompareLoop<int32_t>(op, n, std::move(validity), nulls,
                                  [a](int64_t i) { return a[i]; },
                                  [b](int64_t) { return b; });
    }
    case TypeId::kInt64:
    case TypeId::kTimestamp: {
      const int64_t* a = checked_cast<Int64Array>(lhs).raw_values();
      int64_t b = coerced.int_value();
      return CompareLoop<int64_t>(op, n, std::move(validity), nulls,
                                  [a](int64_t i) { return a[i]; },
                                  [b](int64_t) { return b; });
    }
    case TypeId::kFloat64: {
      const double* a = checked_cast<Float64Array>(lhs).raw_values();
      double b = coerced.double_value();
      return CompareLoop<double>(op, n, std::move(validity), nulls,
                                 [a](int64_t i) { return a[i]; },
                                 [b](int64_t) { return b; });
    }
    case TypeId::kDecimal128: {
      const Decimal128* a = checked_cast<Decimal128Array>(lhs).raw_values();
      Decimal128 b = coerced.decimal_value();
      return CompareLoop<Decimal128>(op, n, std::move(validity), nulls,
                                     [a](int64_t i) { return a[i]; },
                                     [b](int64_t) { return b; });
    }
    case TypeId::kString: {
      const auto& a = checked_cast<StringArray>(lhs);
      std::string_view b = coerced.string_value();
      return CompareLoop<std::string_view>(op, n, std::move(validity), nulls,
                                           [&](int64_t i) { return a.Value(i); },
                                           [b](int64_t) { return b; });
    }
    case TypeId::kBool: {
      const auto& a = checked_cast<BooleanArray>(lhs);
      bool b = coerced.bool_value();
      return CompareLoop<bool>(op, n, std::move(validity), nulls,
                               [&](int64_t i) { return a.Value(i); },
                               [b](int64_t) { return b; });
    }
    case TypeId::kNull:
    case TypeId::kDictionary:  // handled by the dictionary path above
      break;
  }
  return Status::TypeError("CompareScalar: unsupported type " +
                           lhs.type().ToString());
}

ArrayPtr IsNull(const Array& input) {
  const int64_t n = input.length();
  auto values = std::make_shared<Buffer>(bit_util::BytesForBits(n));
  for (int64_t i = 0; i < n; ++i) {
    if (input.IsNull(i)) bit_util::SetBit(values->mutable_data(), i);
  }
  return std::make_shared<BooleanArray>(n, std::move(values), nullptr, 0);
}

ArrayPtr IsNotNull(const Array& input) {
  const int64_t n = input.length();
  auto values = std::make_shared<Buffer>(bit_util::BytesForBits(n));
  for (int64_t i = 0; i < n; ++i) {
    if (input.IsValid(i)) bit_util::SetBit(values->mutable_data(), i);
  }
  return std::make_shared<BooleanArray>(n, std::move(values), nullptr, 0);
}

Result<ArrayPtr> InList(const Array& input, const std::vector<Scalar>& set) {
  const int64_t n = input.length();
  if (input.type().is_null()) return MakeArrayOfNulls(boolean(), n);
  // Items are compared in the input's domain: int32 widens to int64 so
  // an out-of-range item cannot wrap onto a value, and dictionary
  // strings compare as strings.
  DataType domain = input.type();
  if (domain == int32()) domain = int64();
  if (domain.is_dictionary()) domain = utf8();
  std::vector<Scalar> items;
  bool has_null = false;
  for (const auto& s : set) {
    auto c = CastScalar(s, domain);
    if (!c.ok()) {
      // A decimal item that does not fit the column's (precision,
      // scale), e.g. 1.234 against decimal(15,2), can never match.
      if (domain.is_decimal()) continue;
      return c.status();
    }
    if (c->is_null()) {
      // A NULL item, or a string `=` cannot read as a number ('abc'),
      // makes an unmatched row NULL. A number the domain cannot hold
      // (1e20 or NaN against an integer column) matches nothing.
      if (s.is_null() || s.type().is_string_like()) has_null = true;
      continue;
    }
    // As with `=`, a number the domain cannot hold exactly (5.5 against
    // an integer column) matches nothing; a string is parsed as `=` does.
    if (!s.type().is_string_like()) {
      auto back = CastScalar(*c, s.type());
      if (!back.ok() || !back->Equals(s)) continue;
    }
    items.push_back(std::move(*c));
  }

  // Three-valued answer: a matching row is true; any other valid row is
  // false, or NULL when the list holds a NULL; a NULL row stays NULL.
  auto membership = [&](auto&& matches) -> ArrayPtr {
    auto bits = std::make_shared<Buffer>(bit_util::BytesForBits(n));
    int64_t matched = 0;
    for (int64_t i = 0; i < n; ++i) {
      if (input.IsValid(i) && matches(i)) {
        bit_util::SetBit(bits->mutable_data(), i);
        ++matched;
      }
    }
    if (has_null && matched < n) {
      BufferPtr validity = Buffer::CopyOf(bits->data(), bits->size());
      return std::make_shared<BooleanArray>(n, std::move(bits), std::move(validity),
                                            n - matched);
    }
    auto [validity, nulls] = CopyValidity(input);
    return std::make_shared<BooleanArray>(n, std::move(bits), std::move(validity),
                                          nulls);
  };

  if (input.type().is_integer() || input.type().is_temporal()) {
    std::unordered_set<int64_t> values;
    for (const auto& s : items) values.insert(s.int_value());
    if (input.type().byte_width() == 4) {
      const int32_t* raw = checked_cast<Int32Array>(input).raw_values();
      return membership([&](int64_t i) { return values.count(raw[i]) != 0; });
    }
    const int64_t* raw = checked_cast<Int64Array>(input).raw_values();
    return membership([&](int64_t i) { return values.count(raw[i]) != 0; });
  }
  if (input.type().is_decimal()) {
    std::unordered_set<Decimal128> values;
    for (const auto& s : items) values.insert(s.decimal_value());
    const Decimal128* raw = checked_cast<Decimal128Array>(input).raw_values();
    return membership([&](int64_t i) { return values.count(raw[i]) != 0; });
  }
  if (input.type().is_floating()) {
    // Equality as in `=`: NaN matches nothing, -0.0 matches 0.0.
    std::unordered_set<double> values;
    for (const auto& s : items) values.insert(s.double_value());
    const double* raw = checked_cast<Float64Array>(input).raw_values();
    return membership([&](int64_t i) { return values.count(raw[i]) != 0; });
  }
  if (input.type().is_bool()) {
    bool want[2] = {false, false};
    for (const auto& s : items) want[s.bool_value() ? 1 : 0] = true;
    const auto& ba = checked_cast<BooleanArray>(input);
    return membership([&](int64_t i) { return want[ba.Value(i) ? 1 : 0]; });
  }
  if (input.type().is_string_like()) {
    std::unordered_set<std::string_view> values;
    for (const auto& s : items) values.insert(s.string_value());
    if (input.type().is_dictionary()) {
      // Membership resolves once per dictionary entry, then per row by
      // code.
      const auto& da = checked_cast<DictionaryArray>(input);
      const StringArray& dict = *da.dictionary();
      std::vector<bool> match(static_cast<size_t>(dict.length()));
      for (int64_t c = 0; c < dict.length(); ++c) {
        match[static_cast<size_t>(c)] = values.count(dict.Value(c)) != 0;
      }
      const int32_t* codes = da.raw_codes();
      return membership(
          [&](int64_t i) { return match[static_cast<size_t>(codes[i])]; });
    }
    const auto& sa = checked_cast<StringArray>(input);
    return membership([&](int64_t i) { return values.count(sa.Value(i)) != 0; });
  }
  return Status::TypeError("InList: unsupported type " + input.type().ToString());
}

}  // namespace compute
}  // namespace fusion
