#include "optimizer/optimizer.h"

#include "logical/simplify.h"

namespace fusion {
namespace optimizer {

using logical::ExprPtr;
using logical::LogicalPlan;
using logical::PlanKind;
using logical::PlanPtr;

Optimizer Optimizer::Default() {
  Optimizer opt;
  opt.AddRule(MakeSimplifyExpressionsRule());
  opt.AddRule(MakeSingleDistinctToGroupByRule());
  opt.AddRule(MakeOuterToInnerJoinRule());
  opt.AddRule(MakeFilterPushdownRule());
  opt.AddRule(MakeCommonSubexprEliminationRule());
  opt.AddRule(MakeJoinReorderRule());
  opt.AddRule(MakeLimitPushdownRule());
  opt.AddRule(MakeProjectionPushdownRule());
  return opt;
}

Result<PlanPtr> Optimizer::Optimize(const PlanPtr& plan) const {
  PlanPtr current = plan;
  for (int round = 0; round < max_rounds; ++round) {
    for (const auto& rule : rules_) {
      FUSION_ASSIGN_OR_RAISE(current, rule->Apply(current));
    }
  }
  return current;
}

namespace {

/// Apply SimplifyExpr to every expression of every node.
class SimplifyExpressionsRule : public OptimizerRule {
 public:
  std::string name() const override { return "simplify_expressions"; }

  Result<PlanPtr> Apply(const PlanPtr& plan) override {
    return logical::TransformPlan(plan, [](const PlanPtr& node) -> Result<PlanPtr> {
      bool changed = false;
      auto copy = std::make_shared<LogicalPlan>(*node);
      auto simplify_all = [&](std::vector<ExprPtr>* exprs) -> Status {
        for (auto& e : *exprs) {
          FUSION_ASSIGN_OR_RAISE(auto s, logical::SimplifyExpr(e));
          if (s != e) changed = true;
          e = std::move(s);
        }
        return Status::OK();
      };
      FUSION_RETURN_NOT_OK(simplify_all(&copy->exprs));
      FUSION_RETURN_NOT_OK(simplify_all(&copy->group_exprs));
      FUSION_RETURN_NOT_OK(simplify_all(&copy->aggr_exprs));
      FUSION_RETURN_NOT_OK(simplify_all(&copy->scan_filters));
      if (copy->predicate != nullptr) {
        FUSION_ASSIGN_OR_RAISE(auto s, logical::SimplifyExpr(copy->predicate));
        if (s != copy->predicate) changed = true;
        copy->predicate = std::move(s);
      }
      if (!changed) return node;
      // Rebuild so the schema is recomputed consistently.
      std::vector<PlanPtr> children = copy->children;
      switch (copy->kind) {
        case PlanKind::kFilter:
          return logical::MakeFilter(children[0], copy->predicate);
        case PlanKind::kProjection:
          return logical::MakeProjection(children[0], copy->exprs);
        case PlanKind::kAggregate:
          return logical::MakeAggregate(children[0], copy->group_exprs,
                                        copy->aggr_exprs);
        case PlanKind::kTableScan:
          return logical::MakeTableScan(copy->table_name, copy->provider,
                                        copy->scan_projection, copy->scan_filters,
                                        copy->scan_limit);
        default:
          return node;  // windows/sorts keep their original exprs
      }
    });
  }
};

}  // namespace

OptimizerRulePtr MakeSimplifyExpressionsRule() {
  return std::make_shared<SimplifyExpressionsRule>();
}

}  // namespace optimizer
}  // namespace fusion
