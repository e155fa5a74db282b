#ifndef FUSION_PHYSICAL_OTHER_JOINS_H_
#define FUSION_PHYSICAL_OTHER_JOINS_H_

#include "logical/plan.h"
#include "physical/execution_plan.h"
#include "physical/sort_exec.h"

namespace fusion {
namespace physical {

/// \brief Merge join over inputs sorted ascending on the join keys
/// (paper §6.4/§6.7: chosen when pre-existing sort orders make the sort
/// free). Single partition per side.
class SortMergeJoinExec : public ExecutionPlan {
 public:
  SortMergeJoinExec(ExecPlanPtr left, ExecPlanPtr right, logical::JoinKind kind,
                    std::vector<std::pair<PhysicalExprPtr, PhysicalExprPtr>> on,
                    PhysicalExprPtr filter, SchemaPtr output_schema)
      : left_(std::move(left)), right_(std::move(right)), kind_(kind),
        on_(std::move(on)), filter_(std::move(filter)),
        schema_(std::move(output_schema)) {}

  std::string name() const override { return "SortMergeJoinExec"; }
  SchemaPtr schema() const override { return schema_; }
  int output_partitions() const override { return 1; }
  std::vector<ExecPlanPtr> children() const override { return {left_, right_}; }
  Result<exec::StreamPtr> ExecuteImpl(int partition, const ExecContextPtr& ctx) override;
  std::string ToStringLine() const override {
    return std::string("SortMergeJoinExec: ") + logical::JoinKindName(kind_);
  }

 private:
  ExecPlanPtr left_;
  ExecPlanPtr right_;
  logical::JoinKind kind_;
  std::vector<std::pair<PhysicalExprPtr, PhysicalExprPtr>> on_;
  PhysicalExprPtr filter_;
  SchemaPtr schema_;
};

}  // namespace physical
}  // namespace fusion

#endif  // FUSION_PHYSICAL_OTHER_JOINS_H_
