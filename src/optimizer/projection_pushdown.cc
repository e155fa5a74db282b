#include <set>

#include "optimizer/optimizer.h"

namespace fusion {
namespace optimizer {

using logical::Expr;
using logical::ExprPtr;
using logical::LogicalPlan;
using logical::PlanKind;
using logical::PlanPtr;

namespace {

using NameSet = std::set<std::string>;

void AddExprColumns(const ExprPtr& expr, NameSet* out) {
  std::vector<ExprPtr> cols;
  logical::CollectColumns(expr, &cols);
  for (const auto& c : cols) out->insert(c->name);
}

/// Recursively push column requirements toward scans. `required` is the
/// set of output column names needed by ancestors; nullptr = all.
Result<PlanPtr> Push(const PlanPtr& plan, const NameSet* required) {
  switch (plan->kind) {
    case PlanKind::kProjection: {
      // Keep only the expressions the parent reads (at least one, so
      // row counts survive), then require only their inputs.
      std::vector<ExprPtr> exprs;
      for (size_t i = 0; i < plan->exprs.size(); ++i) {
        if (required == nullptr ||
            required->count(plan->schema().field(static_cast<int>(i)).name()) != 0) {
          exprs.push_back(plan->exprs[i]);
        }
      }
      if (exprs.empty() && !plan->exprs.empty()) exprs.push_back(plan->exprs[0]);
      NameSet child_req;
      for (const auto& e : exprs) AddExprColumns(e, &child_req);
      FUSION_ASSIGN_OR_RAISE(PlanPtr child, Push(plan->child(0), &child_req));
      if (child == plan->child(0) && exprs.size() == plan->exprs.size()) {
        return plan;
      }
      return logical::MakeProjection(std::move(child), std::move(exprs));
    }
    case PlanKind::kFilter: {
      if (required == nullptr) {
        FUSION_ASSIGN_OR_RAISE(PlanPtr child, Push(plan->child(0), nullptr));
        if (child == plan->child(0)) return plan;
        return logical::MakeFilter(std::move(child), plan->predicate);
      }
      NameSet child_req = *required;
      AddExprColumns(plan->predicate, &child_req);
      FUSION_ASSIGN_OR_RAISE(PlanPtr child, Push(plan->child(0), &child_req));
      if (child == plan->child(0)) return plan;
      return logical::MakeFilter(std::move(child), plan->predicate);
    }
    case PlanKind::kSort: {
      if (required == nullptr) {
        FUSION_ASSIGN_OR_RAISE(PlanPtr child, Push(plan->child(0), nullptr));
        if (child == plan->child(0)) return plan;
        return logical::MakeSort(std::move(child), plan->sort_exprs, plan->fetch);
      }
      NameSet child_req = *required;
      for (const auto& s : plan->sort_exprs) AddExprColumns(s.expr, &child_req);
      FUSION_ASSIGN_OR_RAISE(PlanPtr child, Push(plan->child(0), &child_req));
      if (child == plan->child(0)) return plan;
      return logical::MakeSort(std::move(child), plan->sort_exprs, plan->fetch);
    }
    case PlanKind::kLimit: {
      FUSION_ASSIGN_OR_RAISE(PlanPtr child, Push(plan->child(0), required));
      if (child == plan->child(0)) return plan;
      return logical::MakeLimit(std::move(child), plan->skip, plan->fetch);
    }
    case PlanKind::kSubqueryAlias: {
      FUSION_ASSIGN_OR_RAISE(PlanPtr child, Push(plan->child(0), required));
      if (child == plan->child(0)) return plan;
      return logical::MakeSubqueryAlias(std::move(child), plan->alias);
    }
    case PlanKind::kAggregate: {
      NameSet child_req;
      for (const auto& g : plan->group_exprs) AddExprColumns(g, &child_req);
      for (const auto& a : plan->aggr_exprs) {
        AddExprColumns(a, &child_req);
        const ExprPtr& u = logical::Unalias(a);
        if (u->filter != nullptr) AddExprColumns(u->filter, &child_req);
      }
      FUSION_ASSIGN_OR_RAISE(PlanPtr child, Push(plan->child(0), &child_req));
      if (child == plan->child(0)) return plan;
      return logical::MakeAggregate(std::move(child), plan->group_exprs,
                                    plan->aggr_exprs);
    }
    case PlanKind::kWindow: {
      NameSet child_req;
      bool all = required == nullptr;
      if (!all) {
        child_req = *required;
        for (const auto& e : plan->exprs) {
          AddExprColumns(e, &child_req);
          const ExprPtr& u = logical::Unalias(e);
          if (u->window_spec != nullptr) {
            for (const auto& p : u->window_spec->partition_by) {
              AddExprColumns(p, &child_req);
            }
            for (const auto& o : u->window_spec->order_by) {
              AddExprColumns(o.expr, &child_req);
            }
          }
        }
      }
      FUSION_ASSIGN_OR_RAISE(PlanPtr child,
                             Push(plan->child(0), all ? nullptr : &child_req));
      if (child == plan->child(0)) return plan;
      return logical::MakeWindow(std::move(child), plan->exprs);
    }
    case PlanKind::kJoin: {
      NameSet side_req;
      bool all = required == nullptr;
      if (!all) {
        side_req = *required;
        for (const auto& [l, r] : plan->join_on) {
          AddExprColumns(l, &side_req);
          AddExprColumns(r, &side_req);
        }
        if (plan->join_filter != nullptr) {
          AddExprColumns(plan->join_filter, &side_req);
        }
      }
      FUSION_ASSIGN_OR_RAISE(PlanPtr left,
                             Push(plan->child(0), all ? nullptr : &side_req));
      FUSION_ASSIGN_OR_RAISE(PlanPtr right,
                             Push(plan->child(1), all ? nullptr : &side_req));
      if (left == plan->child(0) && right == plan->child(1)) return plan;
      return logical::MakeJoin(std::move(left), std::move(right), plan->join_kind,
                               plan->join_on, plan->join_filter);
    }
    case PlanKind::kTableScan: {
      if (required == nullptr) return plan;
      NameSet needed = *required;
      for (const auto& f : plan->scan_filters) AddExprColumns(f, &needed);
      const logical::PlanSchema& schema = plan->schema();
      // Translate to indices relative to the table's full schema.
      SchemaPtr table_schema = plan->provider->schema();
      std::vector<int> current = plan->scan_projection;
      if (current.empty()) {
        for (int i = 0; i < table_schema->num_fields(); ++i) current.push_back(i);
      }
      std::vector<int> kept;
      for (size_t i = 0; i < current.size(); ++i) {
        if (needed.count(schema.field(static_cast<int>(i)).name()) != 0) {
          kept.push_back(current[i]);
        }
      }
      if (kept.size() == current.size()) return plan;
      if (kept.empty()) {
        // Preserve row counts (e.g. COUNT(*)): keep the narrowest column.
        int best = current[0];
        int best_width = 1 << 30;
        for (int idx : current) {
          int w = table_schema->field(idx).type().byte_width();
          if (w == 0) w = 16;  // strings are expensive
          if (w < best_width) {
            best_width = w;
            best = idx;
          }
        }
        kept.push_back(best);
      }
      return logical::MakeTableScan(plan->table_name, plan->provider, kept,
                                    plan->scan_filters, plan->scan_limit);
    }
    default: {
      // Unknown/leaf nodes: require everything below.
      std::vector<PlanPtr> children;
      bool changed = false;
      for (const auto& c : plan->children) {
        FUSION_ASSIGN_OR_RAISE(PlanPtr nc, Push(c, nullptr));
        if (nc != c) changed = true;
        children.push_back(std::move(nc));
      }
      if (!changed) return plan;
      return logical::WithNewChildren(plan, std::move(children));
    }
  }
}

class ProjectionPushdownRule : public OptimizerRule {
 public:
  std::string name() const override { return "projection_pushdown"; }

  Result<PlanPtr> Apply(const PlanPtr& plan) override {
    return Push(plan, nullptr);
  }
};

}  // namespace

OptimizerRulePtr MakeProjectionPushdownRule() {
  return std::make_shared<ProjectionPushdownRule>();
}

}  // namespace optimizer
}  // namespace fusion
