#ifndef FUSION_PHYSICAL_PLANNER_H_
#define FUSION_PHYSICAL_PLANNER_H_

#include <unordered_map>
#include <vector>

#include "catalog/table_provider.h"
#include "logical/plan.h"
#include "physical/execution_plan.h"

namespace fusion {
namespace physical {

/// \brief Lowers an optimized LogicalPlan to an ExecutionPlan (paper
/// §5.1 step 4): selects join algorithms and build sides from
/// statistics, plans partitioned aggregations, inserts coalescing
/// exchanges to satisfy distribution requirements, elides
/// sorts satisfied by existing orderings (§6.7), and executes
/// uncorrelated scalar subqueries.
class PhysicalPlanner {
 public:
  explicit PhysicalPlanner(ExecContextPtr ctx) : ctx_(std::move(ctx)) {}

  Result<ExecPlanPtr> CreatePlan(const logical::PlanPtr& plan);

 private:
  Result<ExecPlanPtr> Plan(const logical::PlanPtr& plan);

  Result<ExecPlanPtr> PlanScan(const logical::PlanPtr& plan);
  Result<ExecPlanPtr> PlanAggregate(const logical::PlanPtr& plan);
  Result<ExecPlanPtr> PlanDistinct(const logical::PlanPtr& plan);
  Result<ExecPlanPtr> PlanJoin(const logical::PlanPtr& plan);
  Result<ExecPlanPtr> PlanSort(const logical::PlanPtr& plan);
  Result<ExecPlanPtr> PlanWindow(const logical::PlanPtr& plan);

  /// Replace scalar-subquery expressions with literals by executing the
  /// subquery plans.
  Result<logical::ExprPtr> ResolveSubqueries(const logical::ExprPtr& expr);

  ExecContextPtr ctx_;

  /// Runtime-filter channels created by PlanJoin for probe-side scans
  /// below it, keyed by logical scan node. Registered before the probe
  /// child is planned (a scan may open its provider during parent
  /// planning, so its ScanRequest cannot be mutated after the fact);
  /// PlanScan moves them into the request when it reaches the node.
  std::unordered_map<const logical::LogicalPlan*,
                     std::vector<catalog::RuntimeScanFilter>>
      pending_runtime_filters_;
};

}  // namespace physical
}  // namespace fusion

#endif  // FUSION_PHYSICAL_PLANNER_H_
