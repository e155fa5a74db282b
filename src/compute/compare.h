#ifndef FUSION_COMPUTE_COMPARE_H_
#define FUSION_COMPUTE_COMPARE_H_

#include "arrow/array.h"
#include "arrow/scalar.h"
#include "common/result.h"

namespace fusion {
namespace compute {

enum class CompareOp { kEq, kNeq, kLt, kLtEq, kGt, kGtEq };

/// Element-wise comparison of two equal-length arrays of the same type.
/// Result is a BooleanArray; null inputs produce null outputs.
Result<ArrayPtr> Compare(CompareOp op, const Array& lhs, const Array& rhs);

/// Array compared against a scalar (broadcast on the right).
Result<ArrayPtr> CompareScalar(CompareOp op, const Array& lhs, const Scalar& rhs);

/// IS NULL / IS NOT NULL — never null, bool output.
ArrayPtr IsNull(const Array& input);
ArrayPtr IsNotNull(const Array& input);

/// x IN (set), with items cast to x's type as Cast casts them. A null x
/// yields null; a non-null x absent from the set yields false, or null
/// when the set holds a null item or a string that casts to null. A
/// number x's type cannot hold (1e20 for an integer x) matches nothing.
Result<ArrayPtr> InList(const Array& input, const std::vector<Scalar>& set);

}  // namespace compute
}  // namespace fusion

#endif  // FUSION_COMPUTE_COMPARE_H_
