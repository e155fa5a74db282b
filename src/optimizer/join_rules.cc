#include <algorithm>
#include <map>

#include "logical/interval_analysis.h"
#include "logical/sql_planner.h"
#include "optimizer/cardinality.h"
#include "optimizer/optimizer.h"

namespace fusion {
namespace optimizer {

using logical::Expr;
using logical::ExprPtr;
using logical::JoinKind;
using logical::LogicalPlan;
using logical::PlanKind;
using logical::PlanPtr;

namespace {

bool ResolvesOn(const ExprPtr& e, const logical::PlanSchema& schema) {
  std::vector<ExprPtr> cols;
  logical::CollectColumns(e, &cols);
  if (cols.empty()) return false;
  for (const auto& c : cols) {
    if (!schema.IndexOf(c->qualifier, c->name).ok()) return false;
  }
  return true;
}

struct JoinEdge {
  ExprPtr left_key;
  ExprPtr right_key;
};

/// Flatten a tree of inner equi-joins and cross joins (without residual
/// filters) into base relations + equi edges. A comma join leaves a
/// cross join between tables that share no predicate; Reorder joins
/// them through the rest of the tree, or crosses them again if nothing
/// connects them.
void Flatten(const PlanPtr& plan, std::vector<PlanPtr>* relations,
             std::vector<JoinEdge>* edges) {
  if (plan->kind == PlanKind::kJoin && plan->join_filter == nullptr &&
      ((plan->join_kind == JoinKind::kInner && !plan->join_on.empty()) ||
       plan->join_kind == JoinKind::kCross)) {
    Flatten(plan->child(0), relations, edges);
    Flatten(plan->child(1), relations, edges);
    for (const auto& [l, r] : plan->join_on) {
      edges->push_back({l, r});
    }
    return;
  }
  relations->push_back(plan);
}

/// Greedy left-deep reordering: start from the smallest relation, then
/// repeatedly join the connected relation whose join produces the
/// smallest estimated output (NDV-based; falls back to smallest-input
/// when no key statistics exist, the pre-statistics behavior).
Result<PlanPtr> Reorder(std::vector<PlanPtr> relations,
                        std::vector<JoinEdge> edges) {
  std::vector<double> sizes;
  sizes.reserve(relations.size());
  for (const auto& r : relations) sizes.push_back(EstimateRows(r));

  size_t start = 0;
  for (size_t i = 1; i < relations.size(); ++i) {
    if (sizes[i] < sizes[start]) start = i;
  }
  PlanPtr current = relations[start];
  std::vector<bool> used(relations.size(), false);
  used[start] = true;
  std::vector<bool> edge_used(edges.size(), false);
  size_t joined = 1;

  // The unused equi edges between `current` and relation `r`, oriented
  // (current key, rel key). Does not mark edges used.
  auto gather_on = [&](const PlanPtr& rel) {
    std::vector<std::pair<ExprPtr, ExprPtr>> on;
    for (size_t e = 0; e < edges.size(); ++e) {
      if (edge_used[e]) continue;
      const bool l_cur = ResolvesOn(edges[e].left_key, current->schema());
      const bool r_rel = ResolvesOn(edges[e].right_key, rel->schema());
      const bool r_cur = ResolvesOn(edges[e].right_key, current->schema());
      const bool l_rel = ResolvesOn(edges[e].left_key, rel->schema());
      if (l_cur && r_rel) {
        on.emplace_back(edges[e].left_key, edges[e].right_key);
      } else if (r_cur && l_rel) {
        on.emplace_back(edges[e].right_key, edges[e].left_key);
      }
    }
    return on;
  };

  while (joined < relations.size()) {
    // Among relations connected to `current` by at least one unused
    // edge, pick the one minimizing the estimated join output (input
    // size breaks ties so stats-less plans reorder as before).
    int best_rel = -1;
    double best_est = 0;
    double best_size = 0;
    for (size_t r = 0; r < relations.size(); ++r) {
      if (used[r]) continue;
      auto on = gather_on(relations[r]);
      if (on.empty()) continue;
      double est =
          EstimateJoinRows(current, relations[r], on, JoinKind::kInner);
      if (best_rel < 0 || est < best_est ||
          (est == best_est && sizes[r] < best_size)) {
        best_rel = static_cast<int>(r);
        best_est = est;
        best_size = sizes[r];
      }
    }
    if (best_rel < 0) {
      // Disconnected: cross join with the smallest remaining relation.
      for (size_t r = 0; r < relations.size(); ++r) {
        if (used[r]) continue;
        if (best_rel < 0 || sizes[r] < best_size) {
          best_rel = static_cast<int>(r);
          best_size = sizes[r];
        }
      }
      FUSION_ASSIGN_OR_RAISE(current,
                             logical::MakeCrossJoin(current, relations[best_rel]));
      used[best_rel] = true;
      ++joined;
      continue;
    }
    // Claim the edges between current and the chosen relation.
    std::vector<std::pair<ExprPtr, ExprPtr>> on;
    const PlanPtr& rel = relations[best_rel];
    for (size_t e = 0; e < edges.size(); ++e) {
      if (edge_used[e]) continue;
      const bool l_cur = ResolvesOn(edges[e].left_key, current->schema());
      const bool r_rel = ResolvesOn(edges[e].right_key, rel->schema());
      const bool r_cur = ResolvesOn(edges[e].right_key, current->schema());
      const bool l_rel = ResolvesOn(edges[e].left_key, rel->schema());
      if (l_cur && r_rel) {
        on.emplace_back(edges[e].left_key, edges[e].right_key);
        edge_used[e] = true;
      } else if (r_cur && l_rel) {
        on.emplace_back(edges[e].right_key, edges[e].left_key);
        edge_used[e] = true;
      }
    }
    FUSION_ASSIGN_OR_RAISE(
        current, logical::MakeJoin(current, rel, JoinKind::kInner, std::move(on)));
    used[best_rel] = true;
    ++joined;
  }
  // Any edge whose endpoints both landed inside the final plan without
  // being used becomes a post-join filter.
  std::vector<ExprPtr> leftover;
  for (size_t e = 0; e < edges.size(); ++e) {
    if (edge_used[e]) continue;
    leftover.push_back(
        logical::Binary(edges[e].left_key, logical::BinaryOp::kEq,
                        edges[e].right_key));
  }
  if (!leftover.empty()) {
    FUSION_ASSIGN_OR_RAISE(
        current, logical::MakeFilter(current, logical::Conjunction(leftover)));
  }
  return current;
}

class JoinReorderRule : public OptimizerRule {
 public:
  std::string name() const override { return "join_reorder"; }

  Result<PlanPtr> Apply(const PlanPtr& plan) override {
    return logical::TransformPlan(plan, [&](const PlanPtr& node) -> Result<PlanPtr> {
      if (node->kind != PlanKind::kJoin || node->join_kind != JoinKind::kInner ||
          node->join_filter != nullptr || node->join_on.empty()) {
        return node;
      }
      // Only fire at the top of a join chain (the parent is not an
      // inner join itself).
      std::vector<PlanPtr> relations;
      std::vector<JoinEdge> edges;
      Flatten(node, &relations, &edges);
      if (relations.size() < 3) return node;
      // The output schema of the reordered join is a permutation of the
      // original columns; wrap in a projection restoring the original
      // column order.
      const logical::PlanSchema& schema = node->schema();
      FUSION_ASSIGN_OR_RAISE(PlanPtr reordered,
                             Reorder(std::move(relations), std::move(edges)));
      // Idempotence: if the greedy order matches the existing plan, keep
      // the original node (avoids stacking restore-projections).
      if (reordered->ToString() == node->ToString()) return node;
      std::vector<ExprPtr> restore;
      for (int i = 0; i < schema.num_fields(); ++i) {
        restore.push_back(
            logical::Col(schema.qualifier(i), schema.field(i).name()));
      }
      return logical::MakeProjection(std::move(reordered), restore);
    });
  }
};

/// LEFT/RIGHT -> INNER when a filter above rejects nulls from the
/// null-extended side (paper §6.1: outer-to-inner join conversion).
class OuterToInnerJoinRule : public OptimizerRule {
 public:
  std::string name() const override { return "outer_to_inner_join"; }

  Result<PlanPtr> Apply(const PlanPtr& plan) override {
    return logical::TransformPlan(plan, [](const PlanPtr& node) -> Result<PlanPtr> {
      if (node->kind != PlanKind::kFilter) return node;
      const PlanPtr& child = node->child(0);
      if (child->kind != PlanKind::kJoin) return node;
      if (child->join_kind != JoinKind::kLeft &&
          child->join_kind != JoinKind::kRight) {
        return node;
      }
      const PlanPtr& nullable_side =
          child->join_kind == JoinKind::kLeft ? child->child(1) : child->child(0);
      std::vector<ExprPtr> conjuncts;
      logical::SplitConjunction(node->predicate, &conjuncts);
      bool null_rejecting = false;
      for (const auto& c : conjuncts) {
        const ExprPtr& u = logical::Unalias(c);
        // Comparisons and IS NOT NULL over a nullable-side column reject
        // null-extended rows.
        bool rejects = (u->kind == Expr::Kind::kBinary &&
                        logical::IsComparisonOp(u->op)) ||
                       u->kind == Expr::Kind::kIsNotNull ||
                       u->kind == Expr::Kind::kLike ||
                       u->kind == Expr::Kind::kInList;
        if (!rejects) continue;
        std::vector<ExprPtr> cols;
        logical::CollectColumns(u, &cols);
        for (const auto& col : cols) {
          if (nullable_side->schema().IndexOf(col->qualifier, col->name).ok()) {
            null_rejecting = true;
            break;
          }
        }
        if (null_rejecting) break;
      }
      if (!null_rejecting) return node;
      FUSION_ASSIGN_OR_RAISE(
          PlanPtr inner,
          logical::MakeJoin(child->child(0), child->child(1), JoinKind::kInner,
                            child->join_on, child->join_filter));
      return logical::MakeFilter(std::move(inner), node->predicate);
    });
  }
};

/// Factor repeated non-trivial subexpressions of a projection into a
/// lower projection evaluated once (paper §6.1: CSE).
class CommonSubexprEliminationRule : public OptimizerRule {
 public:
  std::string name() const override { return "common_subexpr_elimination"; }

  Result<PlanPtr> Apply(const PlanPtr& plan) override {
    return logical::TransformPlan(plan, [](const PlanPtr& node) -> Result<PlanPtr> {
      if (node->kind != PlanKind::kProjection) return node;
      // Count candidate subexpressions across all projection exprs.
      std::map<std::string, std::pair<ExprPtr, int>> counts;
      for (const auto& e : node->exprs) {
        logical::VisitExpr(e, [&](const ExprPtr& sub) {
          switch (sub->kind) {
            case Expr::Kind::kColumn:
            case Expr::Kind::kLiteral:
            case Expr::Kind::kAlias:
            case Expr::Kind::kAggregate:
            case Expr::Kind::kWindow:
              return true;
            default:
              break;
          }
          auto [it, inserted] = counts.emplace(sub->ToString(), std::make_pair(sub, 0));
          ++it->second.second;
          return true;
        });
      }
      std::vector<ExprPtr> common;
      for (const auto& [key, entry] : counts) {
        if (entry.second >= 2) common.push_back(entry.first);
      }
      if (common.empty()) return node;
      // Drop candidates nested inside other candidates (factor only the
      // outermost ones).
      std::vector<ExprPtr> outer;
      for (const auto& c : common) {
        bool nested = false;
        for (const auto& other : common) {
          if (other == c) continue;
          bool contains = false;
          logical::VisitExpr(other, [&](const ExprPtr& sub) {
            if (sub != other && sub->ToString() == c->ToString()) contains = true;
            return true;
          });
          if (contains) {
            nested = true;
            break;
          }
        }
        if (!nested) outer.push_back(c);
      }
      if (outer.empty()) return node;

      // Lower projection: all input columns + factored exprs.
      const logical::PlanSchema& in = node->child(0)->schema();
      std::vector<ExprPtr> lower;
      for (int i = 0; i < in.num_fields(); ++i) {
        lower.push_back(logical::Col(in.qualifier(i), in.field(i).name()));
      }
      std::vector<ExprPtr> sources;
      std::vector<std::string> names;
      for (size_t i = 0; i < outer.size(); ++i) {
        std::string name = "__cse_" + std::to_string(i);
        lower.push_back(logical::AliasExpr(outer[i], name));
        sources.push_back(outer[i]);
        names.push_back(std::move(name));
      }
      FUSION_ASSIGN_OR_RAISE(PlanPtr lower_proj,
                             logical::MakeProjection(node->child(0), lower));
      std::vector<ExprPtr> upper;
      for (const auto& e : node->exprs) {
        FUSION_ASSIGN_OR_RAISE(auto rewritten,
                               logical::RewriteToColumns(e, sources, names));
        // Preserve output naming.
        if (rewritten->DisplayName() != e->DisplayName()) {
          rewritten = logical::AliasExpr(rewritten, e->DisplayName());
        }
        upper.push_back(std::move(rewritten));
      }
      return logical::MakeProjection(std::move(lower_proj), upper);
    });
  }
};

}  // namespace

OptimizerRulePtr MakeJoinReorderRule() { return std::make_shared<JoinReorderRule>(); }

OptimizerRulePtr MakeOuterToInnerJoinRule() {
  return std::make_shared<OuterToInnerJoinRule>();
}

OptimizerRulePtr MakeCommonSubexprEliminationRule() {
  return std::make_shared<CommonSubexprEliminationRule>();
}

}  // namespace optimizer
}  // namespace fusion
