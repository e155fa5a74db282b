#include "logical/expr_eval.h"

#include <algorithm>

#include "compute/temporal.h"
#include "physical/physical_expr.h"

namespace fusion {
namespace logical {

Result<Scalar> AddInterval(const Scalar& temporal, int64_t months, int64_t days,
                           bool negate) {
  if (temporal.is_null()) return temporal;
  if (negate) {
    months = -months;
    days = -days;
  }
  if (temporal.type().id() == TypeId::kDate32) {
    int32_t d = static_cast<int32_t>(temporal.int_value());
    compute::CivilDate c = compute::CivilFromDays(d);
    int64_t total_months = (c.year * 12LL + (c.month - 1)) + months;
    int32_t year = static_cast<int32_t>(total_months / 12);
    int32_t month = static_cast<int32_t>(total_months % 12) + 1;
    if (month < 1) {
      month += 12;
      --year;
    }
    // Clamp the day (e.g. Jan 31 + 1 month -> Feb 28/29 handled by clamp).
    static const int kDays[] = {31, 28, 31, 30, 31, 30, 31, 31, 30, 31, 30, 31};
    int32_t max_day = kDays[month - 1];
    bool leap = (year % 4 == 0 && year % 100 != 0) || year % 400 == 0;
    if (month == 2 && leap) max_day = 29;
    int32_t day = std::min(c.day, max_day);
    int32_t out = compute::DaysFromCivil(year, month, day) +
                  static_cast<int32_t>(days);
    return Scalar::Date32(out);
  }
  if (temporal.type().id() == TypeId::kTimestamp) {
    // Apply month part via date, keep time-of-day, add day part.
    constexpr int64_t kDayMicros = 86400LL * 1000000LL;
    int64_t micros = temporal.int_value();
    int64_t d = micros / kDayMicros;
    int64_t rem = micros % kDayMicros;
    if (rem < 0) {
      rem += kDayMicros;
      --d;
    }
    FUSION_ASSIGN_OR_RAISE(
        Scalar new_date,
        AddInterval(Scalar::Date32(static_cast<int32_t>(d)), months, days, false));
    return Scalar::Timestamp(new_date.int_value() * kDayMicros + rem);
  }
  return Status::TypeError("interval arithmetic requires a temporal operand");
}

Result<Scalar> EvaluateConstantExpr(const ExprPtr& expr) {
  // Compile against no columns and run over one row of none: a constant
  // folds through the kernels that evaluate columns.
  FUSION_ASSIGN_OR_RAISE(auto compiled, physical::CreatePhysicalExpr(expr, PlanSchema()));
  const RecordBatch one_row(std::make_shared<Schema>(), 1, {});
  FUSION_ASSIGN_OR_RAISE(ColumnarValue value, compiled->Evaluate(one_row));
  if (value.is_scalar()) return value.scalar();
  return Scalar::FromArray(*value.array(), 0);
}

}  // namespace logical
}  // namespace fusion
