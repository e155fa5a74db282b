#ifndef FUSION_PHYSICAL_SORT_EXEC_H_
#define FUSION_PHYSICAL_SORT_EXEC_H_

#include "physical/execution_plan.h"

namespace fusion {
namespace physical {

/// \brief Per-partition external sort (paper §6.2): normalized-key
/// comparisons, spilling sorted runs to disk under memory pressure, and
/// a specialized Top-K path when a LIMIT was pushed into the sort.
class SortExec : public ExecutionPlan {
 public:
  SortExec(ExecPlanPtr input, std::vector<PhysicalSortExpr> sort_exprs,
           int64_t fetch = -1)
      : input_(std::move(input)), sort_exprs_(std::move(sort_exprs)), fetch_(fetch) {}

  std::string name() const override { return "SortExec"; }
  SchemaPtr schema() const override { return input_->schema(); }
  int output_partitions() const override { return input_->output_partitions(); }
  std::vector<ExecPlanPtr> children() const override { return {input_}; }
  std::vector<OrderingInfo> output_ordering() const override;
  Result<exec::StreamPtr> ExecuteImpl(int partition, const ExecContextPtr& ctx) override;
  std::string ToStringLine() const override;

  const std::vector<PhysicalSortExpr>& sort_exprs() const { return sort_exprs_; }
  int64_t fetch() const { return fetch_; }

  /// Number of spill files written across all partitions (observability
  /// for tests and EXPLAIN ANALYZE-style reporting).
  int64_t spill_count() const { return spills_.load(); }

 private:
  ExecPlanPtr input_;
  std::vector<PhysicalSortExpr> sort_exprs_;
  int64_t fetch_;
  std::atomic<int64_t> spills_{0};
};

/// \brief N sorted partitions -> 1 sorted stream (paper §6.2's merge
/// phase; the "tree of losers" is a binary heap over stream cursors).
/// Each input partition runs in its own producer task feeding its own
/// bounded queue (ExecuteInProducers), so the inputs run in parallel.
class SortPreservingMergeExec : public ExecutionPlan {
 public:
  SortPreservingMergeExec(ExecPlanPtr input,
                          std::vector<PhysicalSortExpr> sort_exprs)
      : input_(std::move(input)), sort_exprs_(std::move(sort_exprs)) {}

  std::string name() const override { return "SortPreservingMergeExec"; }
  SchemaPtr schema() const override { return input_->schema(); }
  int output_partitions() const override { return 1; }
  std::vector<ExecPlanPtr> children() const override { return {input_}; }
  std::vector<OrderingInfo> output_ordering() const override;
  Result<exec::StreamPtr> ExecuteImpl(int partition, const ExecContextPtr& ctx) override;

 private:
  ExecPlanPtr input_;
  std::vector<PhysicalSortExpr> sort_exprs_;
};

/// Merge any number of individually sorted streams into one sorted
/// stream (shared by SortExec's spill merge and SortPreservingMerge).
Result<exec::StreamPtr> MergeSortedStreams(
    SchemaPtr schema, std::vector<std::shared_ptr<exec::RecordBatchStream>> inputs,
    std::vector<PhysicalSortExpr> sort_exprs, int64_t batch_size);

/// Ordering metadata for a list of sort expressions (column exprs only).
std::vector<OrderingInfo> OrderingFromSortExprs(
    const std::vector<PhysicalSortExpr>& sort_exprs);

}  // namespace physical
}  // namespace fusion

#endif  // FUSION_PHYSICAL_SORT_EXEC_H_
