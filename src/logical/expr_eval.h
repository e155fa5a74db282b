#ifndef FUSION_LOGICAL_EXPR_EVAL_H_
#define FUSION_LOGICAL_EXPR_EVAL_H_

#include "arrow/scalar.h"
#include "common/result.h"
#include "logical/expr.h"

namespace fusion {
namespace logical {

/// Evaluate a constant (column-free) expression to a Scalar with the
/// physical expression and kernels that evaluate columns, so a folded
/// constant and a column give the same value, type or error. Used by
/// constant folding, scan-predicate lowering and interval arithmetic.
Result<Scalar> EvaluateConstantExpr(const ExprPtr& expr);

/// date/timestamp plus a (months, days) interval via civil-calendar math.
Result<Scalar> AddInterval(const Scalar& temporal, int64_t months, int64_t days,
                           bool negate);

}  // namespace logical
}  // namespace fusion

#endif  // FUSION_LOGICAL_EXPR_EVAL_H_
