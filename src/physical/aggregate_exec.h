#ifndef FUSION_PHYSICAL_AGGREGATE_EXEC_H_
#define FUSION_PHYSICAL_AGGREGATE_EXEC_H_

#include "logical/functions.h"
#include "physical/execution_plan.h"

namespace fusion {
namespace physical {

/// One aggregate computation within an aggregate operator.
struct AggregateInfo {
  logical::AggregateFunctionPtr function;
  std::vector<PhysicalExprPtr> args;
  PhysicalExprPtr filter;                // optional FILTER(WHERE ...) mask
  std::vector<DataType> arg_types;
  DataType output_type;
  std::string output_name;
};

/// \brief The hash aggregate (paper §6.3): one build per input partition
/// pre-aggregates into a thread-local GroupTable, and one merge per output
/// partition routes each accumulated group by the radix bucket of its
/// stored 64-bit key hash and merges arena-backed entries directly via
/// GroupTable::MergeFrom — keys are never re-encoded and rows never cross
/// a BatchQueue. The shape follows from the partition counts:
///
/// - A build adaptively degrades to passthrough when its group
///   cardinality approaches its row count: after `agg_bypass_probe_rows`
///   rows, a build whose groups/rows ratio is >= 0.8 stops probing its
///   table and forwards rows as per-row partial state.
/// - With no group keys there is one implicit group with key hash 0: it
///   lands in bucket 0, so output partition 0 emits exactly one row and
///   the others emit none. Bypass needs group keys.
/// - With one input and one output partition the build's table and
///   accumulators are the result: no partial state, no merge, no bypass.
///   After a spill it falls back to the merge.
///
/// Every aggregate function has a partial state, so every aggregate list
/// plans this one way. A build that feeds the merge serializes its state
/// and frees its accumulators. Builds and merges spill partial-state
/// batches to disk under memory pressure.
class PartitionedAggregateExec : public ExecutionPlan {
 public:
  PartitionedAggregateExec(ExecPlanPtr input,
                           std::vector<PhysicalExprPtr> group_exprs,
                           std::vector<std::string> group_names,
                           std::vector<AggregateInfo> aggregates,
                           SchemaPtr output_schema, int num_partitions)
      : input_(std::move(input)), group_exprs_(std::move(group_exprs)),
        group_names_(std::move(group_names)), aggregates_(std::move(aggregates)),
        schema_(std::move(output_schema)),
        num_partitions_(num_partitions < 1 ? 1 : num_partitions) {}

  std::string name() const override { return "PartitionedAggregateExec"; }
  SchemaPtr schema() const override { return schema_; }
  int output_partitions() const override { return num_partitions_; }
  std::vector<ExecPlanPtr> children() const override { return {input_}; }
  Result<exec::StreamPtr> ExecuteImpl(int partition, const ExecContextPtr& ctx) override;
  std::string ToStringLine() const override;

 private:
  class GroupState;
  struct BuildState;

  /// Run the builds as a CooperativeBuild: every merge-partition driver
  /// that lands here pre-aggregates unclaimed input partitions on its own
  /// thread. Without `wait`, a driver returns once nothing is left to
  /// claim.
  Status EnsureBuilt(const ExecContextPtr& ctx, bool wait);

  /// Build input partition `p` into bs->partials[p].
  Status BuildPartition(BuildState* bs, int p, const ExecContextPtr& ctx);

  /// Merge every build's bucket-`partition` share into one state.
  Result<std::unique_ptr<GroupState>> Merge(int partition, const ExecContextPtr& ctx);

  ExecPlanPtr input_;
  std::vector<PhysicalExprPtr> group_exprs_;
  std::vector<std::string> group_names_;
  std::vector<AggregateInfo> aggregates_;
  SchemaPtr schema_;
  int num_partitions_;

  std::mutex build_mu_;
  bool built_ = false;
  Status build_status_;
  std::shared_ptr<BuildState> build_state_;
};

}  // namespace physical
}  // namespace fusion

#endif  // FUSION_PHYSICAL_AGGREGATE_EXEC_H_
