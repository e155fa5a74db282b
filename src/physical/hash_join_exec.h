#ifndef FUSION_PHYSICAL_HASH_JOIN_EXEC_H_
#define FUSION_PHYSICAL_HASH_JOIN_EXEC_H_

#include <atomic>
#include <mutex>

#include "logical/plan.h"
#include "physical/execution_plan.h"

namespace fusion {
namespace physical {

/// \brief Parallel in-memory hash join (paper §6.4), the one join
/// operator the planner builds: the left child is the build side
/// (collected once, charged to the memory pool and shared across probe
/// partitions — DataFusion's CollectLeft mode), the right child streams as the probe side.
/// Vectorized hashing with chained collision resolution follows
/// the MonetDB-style scheme the paper cites.
///
/// A join without equi keys (a cross join, or a condition with no
/// equality) has an empty `on`: every build row goes under hash 0, so
/// each probe row walks the whole build side and the residual filter
/// decides. Such a join probes each batch in slices of
/// max(1, batch_size / build rows) rows, so an output batch holds at
/// most max(batch_size, build rows) rows.
///
/// All eight join types are supported; the physical planner swaps
/// children (and flips the type) so the smaller input builds.
class HashJoinExec : public ExecutionPlan {
 public:
  HashJoinExec(ExecPlanPtr build, ExecPlanPtr probe, logical::JoinKind kind,
               std::vector<std::pair<PhysicalExprPtr, PhysicalExprPtr>> on,
               PhysicalExprPtr filter, SchemaPtr output_schema)
      : build_(std::move(build)), probe_(std::move(probe)), kind_(kind),
        on_(std::move(on)), filter_(std::move(filter)),
        schema_(std::move(output_schema)) {}

  std::string name() const override { return "HashJoinExec"; }
  SchemaPtr schema() const override { return schema_; }
  int output_partitions() const override { return probe_->output_partitions(); }
  std::vector<ExecPlanPtr> children() const override { return {build_, probe_}; }
  Result<exec::StreamPtr> ExecuteImpl(int partition, const ExecContextPtr& ctx) override;
  std::string ToStringLine() const override;

  /// Sideways information passing: the build's finalize step fills a
  /// Bloom filter over build key `key_index` (an index into `on`), sized
  /// for the build's real row count and charged to its reservation, and
  /// publishes it with the key's min/max through `filter` to the probe
  /// scan holding the other end; a build of more than
  /// exec::kRfMaxBuildRows rows bypasses instead. Set at plan time.
  void AddRuntimeFilter(int key_index, exec::RuntimeFilterPtr filter) {
    runtime_filters_.emplace_back(key_index, std::move(filter));
  }
  /// Planner estimates rendered by EXPLAIN (negative = unknown).
  void SetEstimatedRows(double build, double probe, double output) {
    est_build_rows_ = build;
    est_probe_rows_ = probe;
    est_output_rows_ = output;
  }

 private:
  struct BuildState;

  Status EnsureBuilt(const ExecContextPtr& ctx);

  ExecPlanPtr build_;
  ExecPlanPtr probe_;
  logical::JoinKind kind_;
  std::vector<std::pair<PhysicalExprPtr, PhysicalExprPtr>> on_;
  PhysicalExprPtr filter_;
  SchemaPtr schema_;

  /// (key index into on_, channel to publish) pairs; empty = no
  /// sideways passing for this join.
  std::vector<std::pair<int, exec::RuntimeFilterPtr>> runtime_filters_;
  double est_build_rows_ = -1;
  double est_probe_rows_ = -1;
  double est_output_rows_ = -1;

  std::mutex build_mu_;
  std::shared_ptr<BuildState> build_state_;
  Status build_status_;
  bool built_ = false;
};

}  // namespace physical
}  // namespace fusion

#endif  // FUSION_PHYSICAL_HASH_JOIN_EXEC_H_
