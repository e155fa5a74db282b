#ifndef FUSION_PHYSICAL_WINDOW_EXEC_H_
#define FUSION_PHYSICAL_WINDOW_EXEC_H_

#include "logical/expr.h"
#include "logical/functions.h"
#include "physical/execution_plan.h"

namespace fusion {
namespace physical {

/// One window computation within a WindowExec.
struct WindowExprInfo {
  logical::WindowFunctionPtr function;
  std::vector<PhysicalExprPtr> args;
  std::vector<PhysicalExprPtr> partition_by;
  std::vector<PhysicalSortExpr> order_by;
  logical::WindowFrame frame;
  DataType output_type;
  std::string output_name;

  /// The order the window reads its rows in: PARTITION BY keys
  /// ascending, then the ORDER BY keys.
  std::vector<PhysicalSortExpr> SortKeys() const;
};

/// Compile `expr`, a Window node's output expression, against the
/// node's input schema.
Result<WindowExprInfo> MakeWindowExprInfo(const logical::ExprPtr& expr,
                                          const logical::PlanSchema& input);

/// Evaluate `exprs`, which share one PARTITION BY and ORDER BY, over
/// `rows`: sorted by those keys and holding whole window partitions
/// only. Returns one column per expression, row for row. `reserve`, when
/// set, is handed to the window functions (WindowPartition::reserve).
/// WindowExec and the TIE baseline both evaluate windows here.
Result<std::vector<ArrayPtr>> EvaluateWindows(
    const std::vector<WindowExprInfo>& exprs, const RecordBatch& rows,
    std::function<Status(int64_t bytes)> reserve = nullptr);

/// \brief SQL window functions (paper §6.5) over input sorted by the
/// expressions' shared (PARTITION BY, ORDER BY) keys. Holds the rows of
/// the window partition in progress, charged to the memory pool,
/// evaluates every complete partition of a batch together, and appends
/// one output column per window expression, keeping the input's order.
class WindowExec : public ExecutionPlan {
 public:
  WindowExec(ExecPlanPtr input, std::vector<WindowExprInfo> window_exprs,
             SchemaPtr output_schema)
      : input_(std::move(input)), window_exprs_(std::move(window_exprs)),
        schema_(std::move(output_schema)) {}

  std::string name() const override { return "WindowExec"; }
  SchemaPtr schema() const override { return schema_; }
  int output_partitions() const override { return 1; }
  std::vector<ExecPlanPtr> children() const override { return {input_}; }
  std::vector<OrderingInfo> output_ordering() const override {
    return input_->output_ordering();
  }
  Result<exec::StreamPtr> ExecuteImpl(int partition, const ExecContextPtr& ctx) override;
  std::string ToStringLine() const override;

 private:
  ExecPlanPtr input_;
  std::vector<WindowExprInfo> window_exprs_;
  SchemaPtr schema_;
};

}  // namespace physical
}  // namespace fusion

#endif  // FUSION_PHYSICAL_WINDOW_EXEC_H_
