#ifndef FUSION_CORE_SESSION_CONTEXT_H_
#define FUSION_CORE_SESSION_CONTEXT_H_

#include <memory>
#include <string>

#include "catalog/catalog.h"
#include "catalog/file_tables.h"
#include "core/plan_cache.h"
#include "exec/runtime_env.h"
#include "logical/sql_planner.h"
#include "optimizer/optimizer.h"
#include "physical/planner.h"

namespace fusion {
namespace core {

class DataFrame;

/// \brief Incremental result stream for one admitted, executing query —
/// the serving-layer entry point (the flight server streams batches to
/// sockets through this instead of materializing via ExecuteSql).
///
/// Owns the query's full execution state: the admission ticket (the
/// slot frees only on Close), the exec context (task group, token,
/// runtime filters) and the physical plan. Multi-partition plans are
/// coalesced onto one stream; producer partitions run as scheduler
/// tasks with bounded queues, so a slow consumer back-pressures
/// execution instead of buffering the result set.
///
/// Batches are returned as produced — dictionary columns still carry
/// codes (callers that need dense arrays densify at their boundary,
/// e.g. IPC serialization). Close() unwinds the task group (joining or
/// cancelling every producer) and is idempotent; abandoning the stream
/// mid-way (client disconnect) is the expected teardown path. Not
/// thread-safe; one consumer drives it.
class QueryStream {
 public:
  ~QueryStream();

  const SchemaPtr& schema() const { return schema_; }

  /// Next result batch, nullptr at end. The end-of-stream call joins the
  /// query's task group, so deferred producer errors surface here.
  Result<RecordBatchPtr> Next();

  /// Cancel the query (Next returns Status::Cancelled within a batch).
  void Cancel();

  /// Unwind: close exchange queues, join every producer task, release
  /// the admission slot. Idempotent; returns the join status.
  Status Close();

  /// The executing plan (metrics stay live on its nodes).
  const physical::ExecPlanPtr& physical_plan() const { return plan_; }

 private:
  friend class SessionContext;
  QueryStream(physical::ExecContextPtr ctx, exec::AdmissionTicket ticket,
              physical::ExecPlanPtr plan, exec::StreamPtr stream);

  physical::ExecContextPtr ctx_;
  exec::AdmissionTicket ticket_;
  physical::ExecPlanPtr plan_;
  exec::StreamPtr stream_;
  SchemaPtr schema_;
  bool finished_ = false;
  bool closed_ = false;
  Status close_status_;
};

using QueryStreamPtr = std::unique_ptr<QueryStream>;

/// Result of ExecuteSqlWithMetrics: the data plus the instrumented
/// physical plan and its per-operator runtime metrics tree.
struct QueryResult {
  std::vector<RecordBatchPtr> batches;
  /// The executed (instrumented) plan; metrics stay live on its nodes.
  physical::ExecPlanPtr physical_plan;
  /// Structured per-operator metrics, snapshotted after execution
  /// (paper §8's per-operator time attribution).
  physical::PlanMetricsNode metrics;
};

/// \brief The engine's public entry point (the analogue of DataFusion's
/// SessionContext): owns the catalog, function registry, optimizer,
/// configuration and runtime environment, and turns SQL or DataFrame
/// plans into results.
class SessionContext : public std::enable_shared_from_this<SessionContext> {
 public:
  static std::shared_ptr<SessionContext> Make(
      exec::SessionConfig config = {},
      exec::RuntimeEnvPtr env = std::make_shared<exec::RuntimeEnv>());

  // Catalog ------------------------------------------------------------
  Status RegisterTable(const std::string& name, catalog::TableProviderPtr table);
  Status DeregisterTable(const std::string& name);
  /// Register a CSV/FPQ/JSON/IPC file (or directory of files) as a table.
  Status RegisterCsv(const std::string& name, const std::string& path,
                     format::csv::Options options = {});
  Status RegisterFpq(const std::string& name, const std::string& path);
  Status RegisterJson(const std::string& name, const std::string& path);
  Status RegisterIpc(const std::string& name, const std::string& path);
  Result<catalog::TableProviderPtr> GetTable(const std::string& name) const;
  const catalog::CatalogProviderPtr& catalog_provider() const { return catalog_; }
  /// Install a custom catalog (paper §7.2).
  void SetCatalogProvider(catalog::CatalogProviderPtr catalog);

  // Functions (paper §7.1) ----------------------------------------------
  const logical::FunctionRegistryPtr& registry() const { return registry_; }
  Status RegisterScalarFunction(logical::ScalarFunctionPtr fn) {
    return registry_->RegisterScalar(std::move(fn));
  }
  Status RegisterAggregateFunction(logical::AggregateFunctionPtr fn) {
    return registry_->RegisterAggregate(std::move(fn));
  }
  Status RegisterWindowFunction(logical::WindowFunctionPtr fn) {
    return registry_->RegisterWindow(std::move(fn));
  }

  // Optimizer (paper §7.6) ---------------------------------------------
  optimizer::Optimizer* optimizer() { return &optimizer_; }
  /// Append a rule; flushes the plan cache, whose plans the old rule
  /// set optimized.
  void AddOptimizerRule(optimizer::OptimizerRulePtr rule);

  // Planning & execution --------------------------------------------------
  /// Parse + bind SQL into an (unoptimized) logical plan.
  Result<logical::PlanPtr> CreateLogicalPlan(const std::string& sql);
  /// Run the optimizer rule set.
  Result<logical::PlanPtr> OptimizePlan(const logical::PlanPtr& plan);
  /// Lower to an ExecutionPlan.
  Result<physical::ExecPlanPtr> CreatePhysicalPlan(const logical::PlanPtr& plan);

  /// Parse, plan, optimize and return a DataFrame for further
  /// composition or collection.
  Result<DataFrame> Sql(const std::string& sql);
  /// Convenience: run SQL to completion. An optional cancellation token
  /// lets another thread abort the query (Status::Cancelled) mid-flight.
  Result<std::vector<RecordBatchPtr>> ExecuteSql(
      const std::string& sql, exec::CancellationTokenPtr token = nullptr);
  /// Run SQL with a per-query deadline; returns Status::Cancelled if the
  /// query is still executing when `timeout_ms` elapses.
  Result<std::vector<RecordBatchPtr>> ExecuteSqlWithTimeout(const std::string& sql,
                                                            int64_t timeout_ms);
  /// Run SQL to completion and keep the instrumented physical plan so
  /// callers can attribute time/rows/spills to individual operators
  /// (programmatic EXPLAIN ANALYZE).
  Result<QueryResult> ExecuteSqlWithMetrics(const std::string& sql);

  /// Streaming execution: plan + admit + start the query, returning a
  /// QueryStream the caller pulls batch-by-batch (the serving path —
  /// results go out as they are produced, with backpressure, instead of
  /// materializing). Goes through the plan cache and admission control
  /// exactly like ExecuteSql.
  Result<QueryStreamPtr> ExecuteSqlStream(const std::string& sql,
                                          exec::CancellationTokenPtr token = nullptr);
  /// Streaming execution of a pre-built logical plan (prepared
  /// statements: parse once, stream many times through the plan cache).
  Result<QueryStreamPtr> ExecutePlanStream(const logical::PlanPtr& plan,
                                           exec::CancellationTokenPtr token = nullptr);

  /// DataFrame entry points (paper §5.3.3).
  Result<DataFrame> Table(const std::string& name);
  Result<DataFrame> ReadCsv(const std::string& path,
                            format::csv::Options options = {});
  Result<DataFrame> ReadFpq(const std::string& path);
  Result<DataFrame> ReadJson(const std::string& path);

  /// Execute an arbitrary plan built via LogicalPlanBuilder.
  Result<std::vector<RecordBatchPtr>> ExecutePlan(
      const logical::PlanPtr& plan, exec::CancellationTokenPtr token = nullptr);
  /// Execute a raw ExecutionPlan (e.g. a user-defined operator tree).
  Result<std::vector<RecordBatchPtr>> ExecutePhysical(
      const physical::ExecPlanPtr& plan,
      exec::CancellationTokenPtr token = nullptr);

  exec::SessionConfig& config() { return config_; }
  const exec::RuntimeEnvPtr& env() const { return env_; }

  /// The session's logical-plan cache (see core/plan_cache.h). Flushed
  /// automatically on catalog and optimizer-rule changes; call
  /// InvalidatePlanCache() after out-of-band changes (e.g. mutating a
  /// provider in place, or editing optimizer()).
  PlanCache* plan_cache() { return &plan_cache_; }
  void InvalidatePlanCache();

  /// Build the per-query execution context. A session-level
  /// config().timeout_ms starts counting here; an explicit token is
  /// shared with the caller so it can Cancel() concurrently.
  physical::ExecContextPtr MakeExecContext(
      exec::CancellationTokenPtr token = nullptr);

 private:
  SessionContext(exec::SessionConfig config, exec::RuntimeEnvPtr env);

  /// Optimize `plan` through the plan cache: serialized-plan key + the
  /// plan epoch. Falls back to a plain optimize whenever the plan cannot
  /// be serialized.
  Result<logical::PlanPtr> OptimizeCached(const logical::PlanPtr& plan);
  /// Admission gate: derive limits from config and block/reject per the
  /// scheduler's admission policy.
  Result<exec::AdmissionTicket> AdmitQuery(const physical::ExecContextPtr& ctx);

  exec::SessionConfig config_;
  exec::RuntimeEnvPtr env_;
  std::shared_ptr<catalog::MemoryCatalogProvider> default_catalog_;
  catalog::CatalogProviderPtr catalog_;
  logical::FunctionRegistryPtr registry_;
  optimizer::Optimizer optimizer_;
  std::atomic<int64_t> next_query_id_{0};
  /// Bumped by every InvalidatePlanCache(); part of the plan-cache key,
  /// so a plan optimized before a flush is never served after it.
  std::atomic<int64_t> plan_epoch_{0};
  PlanCache plan_cache_;
};

using SessionContextPtr = std::shared_ptr<SessionContext>;

/// \brief Procedural plan-building API (paper §5.3.3), generating the
/// same LogicalPlans as SQL and optimized/executed identically.
class DataFrame {
 public:
  DataFrame(SessionContextPtr ctx, logical::PlanPtr plan)
      : ctx_(std::move(ctx)), plan_(std::move(plan)) {}

  const logical::PlanPtr& plan() const { return plan_; }
  const logical::PlanSchema& schema() const { return plan_->schema(); }

  Result<DataFrame> Select(std::vector<logical::ExprPtr> exprs) const;
  /// Select columns by name.
  Result<DataFrame> SelectColumns(const std::vector<std::string>& names) const;
  Result<DataFrame> Filter(logical::ExprPtr predicate) const;
  Result<DataFrame> Aggregate(std::vector<logical::ExprPtr> group_exprs,
                              std::vector<logical::ExprPtr> aggregates) const;
  Result<DataFrame> Sort(std::vector<logical::SortExpr> sort_exprs) const;
  Result<DataFrame> Limit(int64_t skip, int64_t fetch) const;
  Result<DataFrame> Join(const DataFrame& right, logical::JoinKind kind,
                         const std::vector<std::string>& left_cols,
                         const std::vector<std::string>& right_cols) const;
  Result<DataFrame> Union(const DataFrame& other) const;
  Result<DataFrame> Distinct() const;
  Result<DataFrame> WithColumn(const std::string& name,
                               logical::ExprPtr expr) const;
  Result<DataFrame> Window(std::vector<logical::ExprPtr> window_exprs) const;

  /// Execute and gather all batches; a token makes the run cancellable.
  Result<std::vector<RecordBatchPtr>> Collect(
      exec::CancellationTokenPtr token = nullptr) const;
  /// Execute and count rows.
  Result<int64_t> Count() const;
  /// Render results as an aligned table (testing/demos).
  Result<std::string> ShowString(int64_t max_rows = 40) const;

  /// The optimized logical plan (for EXPLAIN-style inspection).
  Result<logical::PlanPtr> OptimizedPlan() const;

 private:
  SessionContextPtr ctx_;
  logical::PlanPtr plan_;
};

/// Render batches as an aligned text table.
std::string FormatBatches(const std::vector<RecordBatchPtr>& batches,
                          int64_t max_rows = 40);

}  // namespace core
}  // namespace fusion

#endif  // FUSION_CORE_SESSION_CONTEXT_H_
