#include "optimizer/cardinality.h"

#include <algorithm>

#include "logical/interval_analysis.h"

namespace fusion {
namespace optimizer {

using logical::Expr;
using logical::ExprPtr;
using logical::JoinKind;
using logical::PlanKind;
using logical::PlanPtr;

namespace {

/// Distinct-value estimate for output column `idx` of `plan`, traced
/// positionally to a leaf's column statistics; -1 when unknown.
double ColumnNdvByIndex(const PlanPtr& plan, int idx) {
  if (idx < 0 || idx >= plan->schema().num_fields()) return -1;
  switch (plan->kind) {
    case PlanKind::kTableScan: {
      auto stats = plan->provider->statistics();
      int table_idx = idx;
      if (!plan->scan_projection.empty()) {
        if (idx >= static_cast<int>(plan->scan_projection.size())) return -1;
        table_idx = plan->scan_projection[idx];
      }
      if (table_idx < 0 ||
          table_idx >= static_cast<int>(stats.column_stats.size())) {
        return -1;
      }
      int64_t ndv = stats.column_stats[table_idx].ndv;
      if (ndv < 0) return -1;
      // Cap at the unfiltered row count, NOT EstimateRows(plan): the
      // scan's row estimate consults filter selectivities, which in turn
      // ask for column NDVs — capping by it here would recurse forever.
      double rows = stats.num_rows.has_value()
                        ? static_cast<double>(*stats.num_rows)
                        : static_cast<double>(ndv);
      return std::min(static_cast<double>(ndv), rows);
    }
    case PlanKind::kFilter:
    case PlanKind::kSort:
    case PlanKind::kLimit:
    case PlanKind::kSubqueryAlias:
    case PlanKind::kDistinct: {
      double ndv = ColumnNdvByIndex(plan->child(0), idx);
      if (ndv < 0) return -1;
      return std::min(ndv, EstimateRows(plan));
    }
    case PlanKind::kProjection: {
      if (idx >= static_cast<int>(plan->exprs.size())) return -1;
      const ExprPtr& u = logical::Unalias(plan->exprs[idx]);
      if (u->kind != Expr::Kind::kColumn) return -1;
      auto child_idx = plan->child(0)->schema().IndexOf(u->qualifier, u->name);
      if (!child_idx.ok()) return -1;
      return ColumnNdvByIndex(plan->child(0), *child_idx);
    }
    case PlanKind::kAggregate: {
      // Group keys come first in the aggregate's output schema.
      if (idx >= static_cast<int>(plan->group_exprs.size())) return -1;
      const ExprPtr& u = logical::Unalias(plan->group_exprs[idx]);
      if (u->kind != Expr::Kind::kColumn) return -1;
      auto child_idx = plan->child(0)->schema().IndexOf(u->qualifier, u->name);
      if (!child_idx.ok()) return -1;
      double ndv = ColumnNdvByIndex(plan->child(0), *child_idx);
      if (ndv < 0) return -1;
      return std::min(ndv, EstimateRows(plan));
    }
    case PlanKind::kJoin: {
      // Joins never mint new key values; trace into the producing side.
      // Semi/anti joins expose only the preserved side's schema, the
      // rest concatenate left-then-right.
      double ndv;
      if (plan->join_kind == JoinKind::kLeftSemi ||
          plan->join_kind == JoinKind::kLeftAnti) {
        ndv = ColumnNdvByIndex(plan->child(0), idx);
      } else if (plan->join_kind == JoinKind::kRightSemi ||
                 plan->join_kind == JoinKind::kRightAnti) {
        ndv = ColumnNdvByIndex(plan->child(1), idx);
      } else {
        const int left_fields = plan->child(0)->schema().num_fields();
        ndv = idx < left_fields
                  ? ColumnNdvByIndex(plan->child(0), idx)
                  : ColumnNdvByIndex(plan->child(1), idx - left_fields);
      }
      if (ndv < 0) return -1;
      return std::min(ndv, EstimateRows(plan));
    }
    default:
      return -1;
  }
}

/// Selectivity of one pushed-down scan filter: 1/ndv for an equality
/// against a column with known distinct count, the interval-analysis
/// heuristic otherwise.
double ScanFilterSelectivity(const PlanPtr& plan, const ExprPtr& filter) {
  const ExprPtr& u = logical::Unalias(filter);
  if (u->kind == Expr::Kind::kBinary && u->op == logical::BinaryOp::kEq) {
    const ExprPtr& a = logical::Unalias(u->children[0]);
    const ExprPtr& b = logical::Unalias(u->children[1]);
    const ExprPtr* col = nullptr;
    if (a->kind == Expr::Kind::kColumn && b->kind == Expr::Kind::kLiteral) {
      col = &a;
    } else if (b->kind == Expr::Kind::kColumn &&
               a->kind == Expr::Kind::kLiteral) {
      col = &b;
    }
    if (col != nullptr) {
      auto idx = plan->schema().IndexOf((*col)->qualifier, (*col)->name);
      if (idx.ok()) {
        double ndv = ColumnNdvByIndex(plan, *idx);
        if (ndv >= 1.0) return 1.0 / ndv;
      }
    }
  }
  return logical::EstimateSelectivity(filter);
}

}  // namespace

double EstimateJoinRows(
    const PlanPtr& left, const PlanPtr& right,
    const std::vector<std::pair<ExprPtr, ExprPtr>>& on, JoinKind kind) {
  const double l = EstimateRows(left);
  const double r = EstimateRows(right);
  if (kind == JoinKind::kCross || on.empty()) return l * r;
  if (kind == JoinKind::kLeftSemi || kind == JoinKind::kLeftAnti) {
    return std::max(l * 0.5, 1.0);
  }
  // |L JOIN R| = l*r / prod over keys of max(ndv_l, ndv_r). Keys with no
  // statistics on either side contribute nothing; if none have any, fall
  // back to the FK heuristic max(l, r) the engine always used.
  double denom = 1.0;
  int known_keys = 0;
  for (const auto& [lk, rk] : on) {
    double dl = EstimateColumnNdv(left, lk);
    double dr = EstimateColumnNdv(right, rk);
    double d = std::max(dl, dr);
    if (d >= 1.0) {
      denom *= d;
      ++known_keys;
    }
  }
  // Several keys need not be independent, and a side's combined key NDV
  // cannot exceed its rows: capping keeps a multi-key estimate at least
  // min(l, r).
  if (known_keys > 1) denom = std::min(denom, std::max(l, r));
  double out = known_keys > 0 ? (l * r) / denom : std::max(l, r);
  out = std::min(out, l * r);
  // Outer joins preserve at least one side.
  switch (kind) {
    case JoinKind::kLeft:
      out = std::max(out, l);
      break;
    case JoinKind::kRight:
      out = std::max(out, r);
      break;
    case JoinKind::kFull:
      out = std::max(out, std::max(l, r));
      break;
    default:
      break;
  }
  return std::max(out, 1.0);
}

double EstimateColumnNdv(const PlanPtr& plan, const ExprPtr& key) {
  const ExprPtr& u = logical::Unalias(key);
  if (u->kind != Expr::Kind::kColumn) return -1;
  auto idx = plan->schema().IndexOf(u->qualifier, u->name);
  if (!idx.ok()) return -1;
  return ColumnNdvByIndex(plan, *idx);
}

double EstimateRows(const PlanPtr& plan) {
  switch (plan->kind) {
    case PlanKind::kTableScan: {
      auto stats = plan->provider->statistics();
      double rows =
          stats.num_rows.has_value() ? static_cast<double>(*stats.num_rows) : 1e6;
      for (const auto& f : plan->scan_filters) {
        rows *= ScanFilterSelectivity(plan, f);
      }
      if (plan->scan_limit >= 0) {
        rows = std::min(rows, static_cast<double>(plan->scan_limit));
      }
      return std::max(rows, 1.0);
    }
    case PlanKind::kFilter:
      return std::max(EstimateRows(plan->child(0)) *
                          logical::EstimateSelectivity(plan->predicate),
                      1.0);
    case PlanKind::kProjection:
    case PlanKind::kSort:
    case PlanKind::kSubqueryAlias:
    case PlanKind::kWindow:
      return EstimateRows(plan->child(0));
    case PlanKind::kLimit:
      return plan->fetch >= 0 ? std::min(EstimateRows(plan->child(0)),
                                         static_cast<double>(plan->fetch))
                              : EstimateRows(plan->child(0));
    case PlanKind::kAggregate: {
      // Grouped output = product of the group keys' distinct counts when
      // known, the old 10% heuristic otherwise.
      double input = EstimateRows(plan->child(0));
      if (plan->group_exprs.empty()) return 1.0;
      double groups = 1.0;
      bool any_known = false;
      for (const auto& g : plan->group_exprs) {
        double ndv = EstimateColumnNdv(plan->child(0), g);
        if (ndv >= 1.0) {
          groups *= ndv;
          any_known = true;
        }
      }
      if (!any_known) return std::max(input * 0.1, 1.0);
      return std::max(std::min(groups, input), 1.0);
    }
    case PlanKind::kDistinct:
      return std::max(EstimateRows(plan->child(0)) * 0.5, 1.0);
    case PlanKind::kJoin:
      return EstimateJoinRows(plan->child(0), plan->child(1), plan->join_on,
                              plan->join_kind);
    case PlanKind::kUnion: {
      double total = 0;
      for (const auto& c : plan->children) total += EstimateRows(c);
      return total;
    }
    default:
      return 1000.0;
  }
}

}  // namespace optimizer
}  // namespace fusion
