#ifndef FUSION_LOGICAL_FUNCTIONS_H_
#define FUSION_LOGICAL_FUNCTIONS_H_

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "arrow/columnar_value.h"
#include "arrow/type.h"
#include "common/result.h"

namespace fusion {
namespace logical {

/// Computes the return type of a function from its argument types.
using ReturnTypeFn =
    std::function<Result<DataType>(const std::vector<DataType>&)>;

/// Scalar function implementation: args are ColumnarValues (arrays or
/// scalars), `num_rows` is the batch row count for broadcasting.
using ScalarFunctionImpl = std::function<Result<ColumnarValue>(
    const std::vector<ColumnarValue>&, int64_t num_rows)>;

/// \brief A (possibly user-defined) scalar function (paper §7.1).
/// Built-in functions use exactly this structure.
struct ScalarFunctionDef {
  std::string name;
  ReturnTypeFn return_type;
  ScalarFunctionImpl impl;
};

using ScalarFunctionPtr = std::shared_ptr<ScalarFunctionDef>;

/// \brief Vectorized grouped-aggregation state (paper §6.3): one
/// accumulator instance covers *all* groups of a hash-aggregation
/// partition; updates take a batch of values plus per-row group ids.
///
/// Every aggregate runs two-phase, so every accumulator implements the
/// partial state: the partial phase calls Update and serializes
/// PartialState() columns; the final phase feeds those columns back
/// through UpdateFromPartial, in any grouping and order, and from spill
/// files. An aggregate that keeps every value (median, count_distinct)
/// serializes them into one utf8 row per group.
class GroupedAccumulator {
 public:
  virtual ~GroupedAccumulator() = default;

  /// Ensure state exists for group ids < num_groups.
  virtual void Resize(int64_t num_groups) = 0;

  /// Accumulate `args` rows into groups. `opt_filter` (may be null) is a
  /// per-row include mask (per-aggregate FILTER clause).
  virtual Status Update(const std::vector<ArrayPtr>& args,
                        const std::vector<uint32_t>& group_ids,
                        const uint8_t* opt_filter) = 0;

  /// Column types of the serialized partial state.
  virtual std::vector<DataType> PartialTypes() const = 0;

  /// Serialize per-group state (group g -> row g of each column).
  virtual Result<std::vector<ArrayPtr>> PartialState() = 0;

  /// Merge partial-state rows into groups (the "final" phase).
  virtual Status UpdateFromPartial(const std::vector<ArrayPtr>& state,
                                   const std::vector<uint32_t>& group_ids) = 0;

  /// Produce the final per-group results (row g = group g).
  virtual Result<ArrayPtr> Finish() = 0;

  /// Approximate bytes held (for MemoryPool accounting).
  virtual int64_t SizeBytes() const = 0;
};

using AccumulatorFactory = std::function<Result<std::unique_ptr<GroupedAccumulator>>(
    const std::vector<DataType>& arg_types)>;

/// \brief A (possibly user-defined) aggregate function (paper §7.1).
struct AggregateFunctionDef {
  std::string name;
  ReturnTypeFn return_type;
  AccumulatorFactory create;
};

using AggregateFunctionPtr = std::shared_ptr<AggregateFunctionDef>;

/// Inputs to a window function: rows sorted by the window's PARTITION BY
/// and ORDER BY keys, holding one or more whole window partitions. Every
/// row index, and every range below, is absolute within these rows.
struct WindowPartition {
  /// Argument columns, one row per input row.
  std::vector<ArrayPtr> args;
  int64_t num_rows = 0;
  /// Row i's window partition is [partition_start[i], partition_end[i]).
  std::vector<int64_t> partition_start;
  std::vector<int64_t> partition_end;
  /// First row of row i's peer group (rows with equal ORDER BY keys).
  std::vector<int64_t> peer_start;
  /// Frame per row [frame_start[i], frame_end[i]) — only filled for
  /// functions that declared uses_frame.
  std::vector<int64_t> frame_start;
  std::vector<int64_t> frame_end;
  /// When set, charges the bytes the function holds beyond its arguments
  /// and result (each call gives the new total) to the window operator's
  /// memory reservation; an error, such as OutOfMemory, ends the call.
  std::function<Status(int64_t bytes)> reserve;
};

using WindowFunctionImpl =
    std::function<Result<ArrayPtr>(const WindowPartition&)>;

/// \brief A (possibly user-defined) window function (paper §7.1).
struct WindowFunctionDef {
  std::string name;
  ReturnTypeFn return_type;
  WindowFunctionImpl eval;
  /// Whether the implementation consumes frame bounds (aggregate-style
  /// window functions) or whole-partition ranking semantics.
  bool uses_frame = false;
};

using WindowFunctionPtr = std::shared_ptr<WindowFunctionDef>;

/// \brief Registry of scalar/aggregate/window functions. Systems extend
/// the engine by registering additional functions under their own names
/// with exactly the same structures the built-ins use (paper §7.1).
class FunctionRegistry {
 public:
  /// Registry pre-populated with the built-in function library (§5.4.3).
  static std::shared_ptr<FunctionRegistry> Default();

  Status RegisterScalar(ScalarFunctionPtr fn);
  Status RegisterAggregate(AggregateFunctionPtr fn);
  Status RegisterWindow(WindowFunctionPtr fn);

  Result<ScalarFunctionPtr> GetScalar(const std::string& name) const;
  Result<AggregateFunctionPtr> GetAggregate(const std::string& name) const;
  /// A registered window function, else a registered aggregate serving
  /// as one (AggregateWindow).
  Result<WindowFunctionPtr> GetWindow(const std::string& name) const;

  bool HasScalar(const std::string& name) const { return scalar_.count(name) != 0; }
  bool HasAggregate(const std::string& name) const {
    return aggregate_.count(name) != 0;
  }

  std::vector<std::string> ScalarNames() const;

 private:
  std::map<std::string, ScalarFunctionPtr> scalar_;
  std::map<std::string, AggregateFunctionPtr> aggregate_;
  std::map<std::string, WindowFunctionPtr> window_;
};

using FunctionRegistryPtr = std::shared_ptr<FunctionRegistry>;

/// Populate `registry` with built-in scalar functions (math, string,
/// temporal, conditional).
void RegisterBuiltinScalarFunctions(FunctionRegistry* registry);
/// Populate with built-in aggregates (count/sum/min/max/avg/stddev/var/
/// corr/median/count_distinct).
void RegisterBuiltinAggregateFunctions(FunctionRegistry* registry);
/// Populate with built-in window functions (row_number/rank/dense_rank/
/// lag/lead/first_value/last_value); aggregates serve through GetWindow.
void RegisterBuiltinWindowFunctions(FunctionRegistry* registry);

/// An aggregate as a window function, with the aggregate's return type:
/// each row's frame is evaluated with the aggregate's own accumulator.
WindowFunctionPtr AggregateWindow(AggregateFunctionPtr aggregate);

}  // namespace logical
}  // namespace fusion

#endif  // FUSION_LOGICAL_FUNCTIONS_H_
