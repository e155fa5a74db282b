#include "optimizer/optimizer.h"

namespace fusion {
namespace optimizer {

using logical::Expr;
using logical::ExprPtr;
using logical::LogicalPlan;
using logical::PlanKind;
using logical::PlanPtr;

namespace {

/// The built-in functions the rewrite plans its two levels with.
const logical::FunctionRegistry& Builtins() {
  static const auto registry = logical::FunctionRegistry::Default();
  return *registry;
}

ExprPtr BuiltinAggregate(const std::string& name, std::vector<ExprPtr> args,
                         ExprPtr filter = nullptr) {
  return logical::AggregateCall(Builtins().GetAggregate(name).ValueOrDie(),
                                std::move(args), /*distinct=*/false, std::move(filter));
}

bool IsCountDistinct(const Expr& agg) { return agg.function_name == "count_distinct"; }

/// The one argument every DISTINCT aggregate of `node` counts, or nullptr
/// when the node is not of the shape the rule rewrites: each DISTINCT
/// aggregate is an unfiltered count over that argument, and every other
/// aggregate is count, sum, min, max or avg over non-decimal input.
ExprPtr SingleDistinctArgument(const LogicalPlan& node) {
  ExprPtr arg;
  for (const auto& a : node.aggr_exprs) {
    const ExprPtr& agg = logical::Unalias(a);
    if (IsCountDistinct(*agg)) {
      if (agg->children.size() != 1 || agg->filter != nullptr) return nullptr;
      if (arg == nullptr) {
        arg = agg->children[0];
      } else if (!arg->Equals(*agg->children[0])) {
        return nullptr;
      }
      continue;
    }
    const std::string& fn = agg->function_name;
    if (agg->distinct ||
        (fn != "count" && fn != "sum" && fn != "min" && fn != "max" && fn != "avg")) {
      return nullptr;
    }
    for (const auto& child : agg->children) {
      auto type = child->GetType(node.child(0)->schema());
      if (!type.ok() || type->is_decimal()) return nullptr;
    }
  }
  // Group keys are not searched for subqueries by the physical planner.
  bool has_subquery = false;
  if (arg != nullptr) {
    logical::VisitExpr(arg, [&](const ExprPtr& e) {
      has_subquery |= e->kind == Expr::Kind::kScalarSubquery;
      return !has_subquery;
    });
  }
  return has_subquery ? nullptr : arg;
}

/// Plan `node` as an inner GROUP BY g..., x, an outer GROUP BY g..., and a
/// projection restoring the node's output columns.
Result<PlanPtr> Rewrite(const PlanPtr& node, const ExprPtr& distinct_arg) {
  const logical::PlanSchema& schema = node->schema();
  const size_t num_groups = node->group_exprs.size();
  const std::string distinct_name = "__distinct_value";

  std::vector<ExprPtr> inner_groups = node->group_exprs;
  inner_groups.push_back(logical::AliasExpr(distinct_arg, distinct_name));
  std::vector<ExprPtr> outer_groups;
  std::vector<ExprPtr> output;
  for (size_t g = 0; g < num_groups; ++g) {
    const int i = static_cast<int>(g);
    outer_groups.push_back(logical::Col(schema.qualifier(i), schema.field(i).name()));
    output.push_back(outer_groups.back());
  }

  // Each aggregate splits into partial aggregates on the inner level
  // and final ones that merge them on the outer level; the outer level
  // keeps the partial columns' names.
  std::vector<ExprPtr> inner_aggs;
  std::vector<ExprPtr> outer_aggs;
  auto split = [&](ExprPtr partial, const char* merge) {
    std::string name = "__partial_" + std::to_string(inner_aggs.size());
    inner_aggs.push_back(logical::AliasExpr(std::move(partial), name));
    outer_aggs.push_back(
        logical::AliasExpr(BuiltinAggregate(merge, {logical::Col(name)}), name));
    return logical::Col(name);
  };
  for (const auto& a : node->aggr_exprs) {
    const ExprPtr& agg = logical::Unalias(a);
    const std::string& fn = agg->function_name;
    ExprPtr result;
    if (IsCountDistinct(*agg)) {
      std::string name = "__count_" + std::to_string(outer_aggs.size());
      outer_aggs.push_back(logical::AliasExpr(
          BuiltinAggregate("count", {logical::Col(distinct_name)}), name));
      result = logical::Col(name);
    } else if (fn == "avg") {
      // avg accumulates in float64, and so do its partial sums.
      ExprPtr value = agg->children[0];
      FUSION_ASSIGN_OR_RAISE(DataType type, value->GetType(node->child(0)->schema()));
      if (type.id() != TypeId::kFloat64) value = logical::CastExpr(value, float64());
      ExprPtr sums = split(BuiltinAggregate("sum", {value}, agg->filter), "sum");
      ExprPtr counts = split(BuiltinAggregate("count", agg->children, agg->filter), "sum");
      result = logical::Binary(sums, logical::BinaryOp::kDivide,
                               logical::CastExpr(counts, float64()));
    } else {
      // count's partial counts merge by sum; sum, min and max by themselves.
      result = split(agg, fn == "count" ? "sum" : fn.c_str());
      // Over empty input a global sum of counts is NULL; count is 0.
      if (fn == "count" && num_groups == 0) {
        result = logical::FunctionCall(Builtins().GetScalar("coalesce").ValueOrDie(),
                                       {result, logical::Lit(int64_t{0})});
      }
    }
    output.push_back(logical::AliasExpr(std::move(result), a->DisplayName()));
  }

  FUSION_ASSIGN_OR_RAISE(
      PlanPtr inner, logical::MakeAggregate(node->child(0), std::move(inner_groups),
                                            std::move(inner_aggs)));
  FUSION_ASSIGN_OR_RAISE(PlanPtr outer, logical::MakeAggregate(std::move(inner),
                                                               std::move(outer_groups),
                                                               std::move(outer_aggs)));
  return logical::MakeProjection(std::move(outer), std::move(output));
}

/// COUNT(DISTINCT x) as two ordinary group-bys, after DataFusion's rule
/// of this name: GROUP BY g..., x deduplicates the values and GROUP BY
/// g... counts them, so both levels run as two-phase partitioned
/// aggregates instead of one pair table fed by a single partition.
class SingleDistinctToGroupByRule : public OptimizerRule {
 public:
  std::string name() const override { return "single_distinct_to_groupby"; }

  Result<PlanPtr> Apply(const PlanPtr& plan) override {
    return logical::TransformPlan(plan, [](const PlanPtr& node) -> Result<PlanPtr> {
      if (node->kind != PlanKind::kAggregate) return node;
      ExprPtr distinct_arg = SingleDistinctArgument(*node);
      if (distinct_arg == nullptr) return node;
      // A shape the two levels cannot express (say, two group keys with
      // one name) keeps its single aggregate.
      auto rewritten = Rewrite(node, distinct_arg);
      return rewritten.ok() ? *rewritten : node;
    });
  }
};

}  // namespace

OptimizerRulePtr MakeSingleDistinctToGroupByRule() {
  return std::make_shared<SingleDistinctToGroupByRule>();
}

}  // namespace optimizer
}  // namespace fusion
