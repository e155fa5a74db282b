#ifndef FUSION_OPTIMIZER_OPTIMIZER_H_
#define FUSION_OPTIMIZER_OPTIMIZER_H_

#include <memory>
#include <string>
#include <vector>

#include "logical/plan.h"

namespace fusion {
namespace optimizer {

/// \brief A LogicalPlan rewrite (paper §7.6). Built-in optimizations and
/// user-supplied domain rules implement the same interface and can be
/// interleaved in any order.
class OptimizerRule {
 public:
  virtual ~OptimizerRule() = default;
  virtual std::string name() const = 0;
  virtual Result<logical::PlanPtr> Apply(const logical::PlanPtr& plan) = 0;
};

using OptimizerRulePtr = std::shared_ptr<OptimizerRule>;

/// \brief Pass manager running rules to fixpoint-ish (a bounded number
/// of rounds, like DataFusion's optimizer).
class Optimizer {
 public:
  /// The default rule set (paper §6.1): expression simplification,
  /// single-distinct-to-group-by, outer-to-inner conversion, filter
  /// pushdown, common subexpression elimination, join reordering, limit
  /// pushdown, projection pushdown.
  static Optimizer Default();

  /// An optimizer with no rules (for tests / EXPLAIN of raw plans).
  Optimizer() = default;

  void AddRule(OptimizerRulePtr rule) { rules_.push_back(std::move(rule)); }
  const std::vector<OptimizerRulePtr>& rules() const { return rules_; }

  Result<logical::PlanPtr> Optimize(const logical::PlanPtr& plan) const;

  int max_rounds = 2;

 private:
  std::vector<OptimizerRulePtr> rules_;
};

// Built-in rules ----------------------------------------------------------

/// Constant folding + boolean simplification over every expression.
OptimizerRulePtr MakeSimplifyExpressionsRule();
/// Push filter conjuncts toward (and into) data sources.
OptimizerRulePtr MakeFilterPushdownRule();
/// Push column requirements into TableScans.
OptimizerRulePtr MakeProjectionPushdownRule();
/// Push LIMIT into Sort (Top-K) and TableScan.
OptimizerRulePtr MakeLimitPushdownRule();
/// Convert LEFT/RIGHT joins to INNER when a null-rejecting filter above
/// references the nullable side.
OptimizerRulePtr MakeOuterToInnerJoinRule();
/// Reorder consecutive inner equi-joins by estimated input size.
OptimizerRulePtr MakeJoinReorderRule();
/// Eliminate duplicated non-trivial subexpressions within a projection.
OptimizerRulePtr MakeCommonSubexprEliminationRule();
/// Plan an aggregate whose DISTINCT aggregates all count one argument x
/// as GROUP BY g..., x under GROUP BY g..., two two-phase aggregates.
OptimizerRulePtr MakeSingleDistinctToGroupByRule();

}  // namespace optimizer
}  // namespace fusion

#endif  // FUSION_OPTIMIZER_OPTIMIZER_H_
