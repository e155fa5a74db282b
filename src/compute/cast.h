#ifndef FUSION_COMPUTE_CAST_H_
#define FUSION_COMPUTE_CAST_H_

#include <charconv>
#include <cstdlib>
#include <limits>
#include <string>
#include <string_view>
#include <type_traits>

#include "arrow/array.h"
#include "arrow/builder.h"
#include "arrow/record_batch.h"
#include "arrow/scalar.h"
#include "common/result.h"

namespace fusion {
namespace compute {

/// True when `v` converts to OutT: every number to a double, an integer
/// that is in range, and a double that truncates into range (NaN and the
/// infinities never do). An integer cast of a value that does not fit is
/// NULL, whatever the source type.
template <typename OutT, typename InT>
bool FitsIn(InT v) {
  if constexpr (std::is_floating_point_v<OutT>) {
    return true;
  } else if constexpr (std::is_floating_point_v<InT>) {
    // -2^31 or -2^63, exact as a double, and so is its negation. For
    // int64, kMin - 1.0 rounds back to kMin, hence the equality test.
    constexpr double kMin = static_cast<double>(std::numeric_limits<OutT>::min());
    return v < -kMin && (v > kMin - 1.0 || v == kMin);
  } else if constexpr (sizeof(InT) <= sizeof(OutT)) {
    return true;
  } else {
    return v >= std::numeric_limits<OutT>::min() &&
           v <= std::numeric_limits<OutT>::max();
  }
}

/// The rules a cast from utf8 applies to one value, for readers that
/// parse text (CSV) without building a string column first. A number is
/// all of the text but leading and trailing whitespace: '12abc', '1.5x'
/// and, as an integer, '1e3' do not parse. Inline: CSV parses every
/// field through them.
inline std::string_view NumberText(std::string_view text) {
  auto space = [](char c) { return c == ' ' || (c >= '\t' && c <= '\r'); };
  while (!text.empty() && space(text.front())) text.remove_prefix(1);
  while (!text.empty() && space(text.back())) text.remove_suffix(1);
  return text;
}

inline bool ParseInt64(std::string_view text, int64_t* out) {
  auto whole = [out](std::string_view t) {
    auto res = std::from_chars(t.data(), t.data() + t.size(), *out);
    return res.ec == std::errc() && res.ptr == t.data() + t.size();
  };
  // Untrimmed first: from_chars takes no whitespace, so a whole parse of
  // the raw text is the parse of the trimmed text.
  return whole(text) || whole(NumberText(text));
}

inline bool ParseFloat64(std::string_view text, double* out) {
  // from_chars for double is not universally available; strtod needs a
  // NUL-terminated buffer, so copy.
  const std::string tmp(NumberText(text));
  char* end = nullptr;
  *out = std::strtod(tmp.c_str(), &end);
  return !tmp.empty() && end == tmp.c_str() + tmp.size();
}

/// Append `text` cast to `type` (an integer, float64, decimal, date32 or
/// timestamp) to `builder`, a builder of that type: NULL when the text
/// does not parse, NULL for an integer `type` cannot hold (FitsIn), an
/// error for a decimal number `type` cannot hold. Dates and timestamps
/// parse as SQL's DATE and TIMESTAMP literals.
Status AppendCastText(std::string_view text, DataType type, ArrayBuilder* builder);

/// Cast an array to a target type. Supported casts: any numeric <->
/// numeric, numeric -> string, string -> numeric or temporal
/// (unparsable -> null, and so is a value an integer cannot hold, see
/// FitsIn), date32 <-> timestamp, bool <-> numeric (nonzero is true),
/// null -> anything, identity.
Result<ArrayPtr> Cast(const Array& input, DataType target);

/// Cast one value exactly as Cast casts a one-row array: the cast of
/// every constant and coerced literal.
Result<Scalar> CastScalar(const Scalar& value, DataType target);

/// Decode a dictionary-encoded array into its dense representation;
/// any other array passes through unchanged. This is the single
/// densify boundary for operators without a dictionary fast path
/// (sort normalized keys, window frames, scalar functions, writers).
ArrayPtr EnsureDense(const ArrayPtr& input);

/// EnsureDense over every column; returns the input batch pointer
/// unchanged when no column is dictionary-encoded.
RecordBatchPtr EnsureDenseBatch(const RecordBatchPtr& batch);

/// Implicit-coercion result type for binary operations, following the
/// SQL numeric tower (int32 < int64 < float64); temporal types coerce
/// with each other via timestamp. Returns error if no common type.
Result<DataType> CommonType(DataType a, DataType b);

}  // namespace compute
}  // namespace fusion

#endif  // FUSION_COMPUTE_CAST_H_
