#include "format/predicate.h"

#include <functional>

#include "compute/cast.h"
#include "compute/compare.h"

namespace fusion {
namespace format {

std::string ColumnPredicate::ToString() const {
  const char* op_name = "?";
  switch (op) {
    case Op::kEq: op_name = "="; break;
    case Op::kNeq: op_name = "!="; break;
    case Op::kLt: op_name = "<"; break;
    case Op::kLtEq: op_name = "<="; break;
    case Op::kGt: op_name = ">"; break;
    case Op::kGtEq: op_name = ">="; break;
    case Op::kIn: op_name = "IN"; break;
    case Op::kIsNull: return column + " IS NULL";
    case Op::kIsNotNull: return column + " IS NOT NULL";
  }
  std::string out = column;
  out += " ";
  out += op_name;
  out += " ";
  if (op == Op::kIn) {
    out += "(";
    for (size_t i = 0; i < values.size(); ++i) {
      if (i > 0) out += ", ";
      out += values[i].ToString();
    }
    out += ")";
  } else if (!values.empty()) {
    out += values[0].ToString();
  }
  return out;
}

namespace {

/// Compare scalars after coercing `value` to the stats' type domain.
/// Returns nullopt when the comparison is not meaningful.
std::optional<int> CompareToStat(const Scalar& value, const Scalar& stat) {
  if (value.is_null() || stat.is_null()) return std::nullopt;
  if (value.type() == stat.type()) return value.Compare(stat);
  auto casted = compute::CastScalar(value, stat.type());
  if (!casted.ok() || casted->is_null()) return std::nullopt;
  return casted->Compare(stat);
}

}  // namespace

bool StatsMayMatch(const ColumnPredicate& pred, const ColumnStats& stats) {
  switch (pred.op) {
    case ColumnPredicate::Op::kIsNull:
      return stats.null_count > 0;
    case ColumnPredicate::Op::kIsNotNull:
      return stats.null_count < stats.row_count;
    default:
      break;
  }
  if (pred.values.empty()) return true;
  // A predicate over only-null data can never match.
  if (stats.row_count > 0 && stats.null_count == stats.row_count) return false;
  const Scalar& v = pred.values[0];
  switch (pred.op) {
    case ColumnPredicate::Op::kEq: {
      auto lo = CompareToStat(v, stats.min);
      auto hi = CompareToStat(v, stats.max);
      if (lo && *lo < 0) return false;  // v < min
      if (hi && *hi > 0) return false;  // v > max
      return true;
    }
    case ColumnPredicate::Op::kNeq:
      // Prunable only if min == max == v.
      if (auto lo = CompareToStat(v, stats.min); lo && *lo == 0) {
        if (auto hi = CompareToStat(v, stats.max); hi && *hi == 0) return false;
      }
      return true;
    case ColumnPredicate::Op::kLt: {
      auto lo = CompareToStat(v, stats.min);
      return !(lo && *lo <= 0);  // prune when v <= min
    }
    case ColumnPredicate::Op::kLtEq: {
      auto lo = CompareToStat(v, stats.min);
      return !(lo && *lo < 0);  // prune when v < min
    }
    case ColumnPredicate::Op::kGt: {
      auto hi = CompareToStat(v, stats.max);
      return !(hi && *hi >= 0);  // prune when v >= max
    }
    case ColumnPredicate::Op::kGtEq: {
      auto hi = CompareToStat(v, stats.max);
      return !(hi && *hi > 0);  // prune when v > max
    }
    case ColumnPredicate::Op::kIn:
      for (const auto& val : pred.values) {
        ColumnPredicate eq{pred.column, ColumnPredicate::Op::kEq, {val}};
        if (StatsMayMatch(eq, stats)) return true;
      }
      return false;
    default:
      return true;
  }
}

bool ConjunctionMayMatch(
    const std::vector<ColumnPredicate>& preds,
    const std::function<const ColumnStats*(const std::string&)>& stats_for_column) {
  for (const auto& pred : preds) {
    const ColumnStats* stats = stats_for_column(pred.column);
    if (stats == nullptr) continue;  // unknown column stats: cannot prune
    if (!StatsMayMatch(pred, *stats)) return false;
  }
  return true;
}

Result<ArrayPtr> EvaluatePredicate(const ColumnPredicate& pred, const Array& column) {
  using Op = ColumnPredicate::Op;
  switch (pred.op) {
    case Op::kIsNull:
      return compute::IsNull(column);
    case Op::kIsNotNull:
      return compute::IsNotNull(column);
    case Op::kIn:
      return compute::InList(column, pred.values);
    default:
      break;
  }
  if (pred.values.empty()) {
    return Status::Invalid("predicate missing comparison value");
  }
  compute::CompareOp op;
  switch (pred.op) {
    case Op::kEq: op = compute::CompareOp::kEq; break;
    case Op::kNeq: op = compute::CompareOp::kNeq; break;
    case Op::kLt: op = compute::CompareOp::kLt; break;
    case Op::kLtEq: op = compute::CompareOp::kLtEq; break;
    case Op::kGt: op = compute::CompareOp::kGt; break;
    case Op::kGtEq: op = compute::CompareOp::kGtEq; break;
    default:
      return Status::Internal("unexpected predicate op");
  }
  return compute::CompareScalar(op, column, pred.values[0]);
}

}  // namespace format
}  // namespace fusion
