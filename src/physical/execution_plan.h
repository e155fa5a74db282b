#ifndef FUSION_PHYSICAL_EXECUTION_PLAN_H_
#define FUSION_PHYSICAL_EXECUTION_PLAN_H_

#include <atomic>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "exec/cancellation.h"
#include "exec/metrics.h"
#include "exec/runtime_env.h"
#include "exec/runtime_filter.h"
#include "exec/stream.h"
#include "physical/physical_expr.h"

namespace fusion {
namespace physical {

/// Per-query execution context handed to every Stream.
struct ExecContext {
  exec::RuntimeEnvPtr env;
  exec::SessionConfig config;
  /// Unique id used to name memory-pool consumers.
  int64_t query_id = 0;
  /// Cancellation/deadline signal shared by every stream and producer
  /// task of this query (nullptr = not cancellable). Checked in the
  /// Execute() stream wrapper and the exchange queues' blocking waits.
  exec::CancellationTokenPtr cancel;
  /// The query's task group on the shared scheduler: every partition
  /// driver and exchange producer of this query spawns here, so
  /// TaskGroup::Finish() unwinds all of them through one mechanism.
  /// Created by SessionContext::MakeExecContext; EnsureTaskGroup covers
  /// contexts built by hand (tests).
  exec::TaskGroupPtr task_group;
  /// Per-query runtime-filter registry (sideways information passing):
  /// the physical planner creates filters here when it marks a selective
  /// hash join; build sides publish, probe-side scans consult. Created
  /// by SessionContext::MakeExecContext; EnsureRuntimeFilters covers
  /// contexts built by hand (tests).
  exec::RuntimeFilterRegistryPtr runtime_filters;

  /// OK, or Status::Cancelled once the query's token has fired.
  Status CheckCancelled() const {
    return cancel != nullptr ? cancel->CheckStatus() : Status::OK();
  }

  /// The query's task group, creating one on the env's scheduler on
  /// first use. Thread-safe: exchange operators may race here when a
  /// bare context is used directly in tests.
  const exec::TaskGroupPtr& EnsureTaskGroup();

  /// The query's runtime-filter registry, creating one on first use.
  /// Thread-safe for the same reason as EnsureTaskGroup.
  const exec::RuntimeFilterRegistryPtr& EnsureRuntimeFilters();
};

using ExecContextPtr = std::shared_ptr<ExecContext>;

/// A known output ordering: column index + direction.
struct OrderingInfo {
  int column = -1;
  row::SortOptions options;
};

/// \brief Physical operator (paper §5.5). Each plan node is annotated
/// with a partition count chosen by the planner; Execute(i) opens the
/// Stream for partition i (Figure 4). User-defined operators implement
/// exactly this interface and are indistinguishable from built-ins
/// (paper §7.7).
class ExecutionPlan {
 public:
  virtual ~ExecutionPlan() = default;

  virtual std::string name() const = 0;
  virtual SchemaPtr schema() const = 0;
  virtual int output_partitions() const = 0;
  virtual std::vector<std::shared_ptr<ExecutionPlan>> children() const {
    return {};
  }

  /// Open partition `partition`'s stream. May be called once per
  /// partition per plan instance. Non-virtual: wraps ExecuteImpl's
  /// stream so every operator — built-in or user-defined — records
  /// output_rows / output_batches / elapsed_ns without opting in.
  Result<exec::StreamPtr> Execute(int partition, const ExecContextPtr& ctx);

  /// The operator's actual stream-opening logic (paper Figure 4).
  /// User-defined operators implement exactly this and are
  /// indistinguishable from built-ins (paper §7.7).
  virtual Result<exec::StreamPtr> ExecuteImpl(int partition,
                                              const ExecContextPtr& ctx) = 0;

  /// Runtime metrics recorded by this node (per partition; aggregate
  /// with MetricsSet::AggregatedValue or CollectMetrics below).
  const exec::MetricsSetPtr& metrics() const { return metrics_; }

  /// Sort order each output partition is known to satisfy (paper §6.7);
  /// empty = unknown.
  virtual std::vector<OrderingInfo> output_ordering() const { return {}; }

  /// One-line description for EXPLAIN.
  virtual std::string ToStringLine() const { return name(); }

  /// Indented tree rendering.
  std::string ToString() const;

 protected:
  /// Operators with operator-specific metrics (spills, memory) record
  /// into this set directly; the standard stream metrics are recorded by
  /// the Execute wrapper.
  exec::MetricsSetPtr metrics_ = exec::MetricsSet::Make();
};

using ExecPlanPtr = std::shared_ptr<ExecutionPlan>;

/// Run all partitions of `plan` in parallel on the query's scheduler
/// and collect the results (the "collect" entry point used by the
/// session, tests, and benchmarks).
Result<std::vector<RecordBatchPtr>> ExecuteCollect(const ExecPlanPtr& plan,
                                                   const ExecContextPtr& ctx);

/// Run all partitions for their side effects, discarding batches but
/// counting rows.
Result<int64_t> ExecuteCountRows(const ExecPlanPtr& plan, const ExecContextPtr& ctx);

/// \brief Input partitions built once by whichever partition drivers
/// arrive (a hash join's build side, an aggregate's per-partition
/// tables). Each driver claims unbuilt partitions from a shared counter
/// and builds them on its own thread. After the first failure, later
/// claims are skipped but still counted, so every claim settles.
class CooperativeBuild {
 public:
  explicit CooperativeBuild(int num_inputs) : num_inputs_(num_inputs) {}

  int num_inputs() const { return num_inputs_; }

  /// Claim and run `build(p)` until no partition is left unclaimed. With
  /// `wait`, then lend this thread to the query's other ready tasks
  /// (TaskGroup::HelpOrWait) until every claim has settled, and return
  /// the first build error, or Cancelled. No thread blocks while work
  /// remains, so even a one-worker scheduler finishes (a driver run on a
  /// lent thread re-enters here and just helps). Without `wait`, return
  /// OK once nothing is left to claim.
  Status Run(const ExecContextPtr& ctx, const std::function<Status(int)>& build,
             bool wait);

 private:
  const int num_inputs_;
  std::atomic<int> next_input_{0};
  std::atomic<int> inputs_done_{0};
  std::atomic<bool> failed_{false};
  std::mutex error_mu_;
  Status error_;
};

/// \brief Aggregated metrics for one plan node, mirroring the plan tree
/// (the structured form behind EXPLAIN ANALYZE and the bench JSON dump).
struct PlanMetricsNode {
  std::string name;         ///< operator name(), e.g. "HashJoinExec"
  std::string description;  ///< ToStringLine()
  int64_t output_rows = 0;
  int64_t output_batches = 0;
  /// Wall time inside this subtree's streams (includes children).
  int64_t elapsed_ns = 0;
  /// elapsed_ns minus the children's elapsed_ns, clamped at 0: the time
  /// attributable to this operator alone.
  int64_t elapsed_compute_ns = 0;
  int64_t spill_count = 0;
  int64_t spill_bytes = 0;
  int64_t mem_reserved_bytes = 0;
  /// Rows emitted with at least one dictionary-encoded column still in
  /// code form; output_rows - dict_rows is the densified remainder.
  int64_t dict_rows = 0;
  /// Time this operator's consumers spent blocked on an exchange queue
  /// with nothing to pop (scheduler pressure; exchange operators only).
  int64_t queue_wait_ns = 0;
  /// Tasks this operator submitted to the query scheduler.
  int64_t tasks_spawned = 0;
  /// Pre-aggregation groups produced across build tasks (partitioned
  /// aggregates only; summed before the radix merge dedups them).
  int64_t partial_groups = 0;
  /// Rows forwarded as per-row partial state by the adaptive bypass.
  int64_t bypass_rows = 0;
  /// Always 0: scan partitions no longer steal units (kMorselsStolen).
  int64_t morsels_stolen = 0;
  /// Runtime-filter (sideways information passing) counters: time the
  /// join spent building/merging Bloom filters, and rows the scan
  /// tested/dropped against ready filters.
  int64_t rf_build_ns = 0;
  int64_t rf_checked_rows = 0;
  int64_t rf_pruned_rows = 0;
  std::vector<PlanMetricsNode> children;
};

/// Snapshot the metrics of `plan` and its children as a structured tree.
PlanMetricsNode CollectMetrics(const ExecutionPlan& plan);

/// Indented plan rendering with per-operator metrics annotations — the
/// body of EXPLAIN ANALYZE. Call after the plan has executed.
std::string RenderAnnotatedPlan(const ExecutionPlan& plan);

/// Compact single-line JSON for a metrics tree (bench_harness --json).
std::string PlanMetricsToJson(const PlanMetricsNode& node);

}  // namespace physical
}  // namespace fusion

#endif  // FUSION_PHYSICAL_EXECUTION_PLAN_H_
