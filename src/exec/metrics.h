#ifndef FUSION_EXEC_METRICS_H_
#define FUSION_EXEC_METRICS_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "exec/stream.h"

namespace fusion {
namespace exec {

/// \brief Runtime observability for physical operators (the analogue of
/// DataFusion's `MetricsSet`, paper §5.5/§8): every ExecutionPlan node
/// owns a MetricsSet, operators record into it with cheap relaxed
/// atomics, and EXPLAIN ANALYZE / CollectMetrics aggregate the
/// per-partition values after (or during) execution.

/// How a metric's per-partition values combine into one number.
enum class MetricKind {
  kCounter,  ///< monotonic count; aggregates by sum (rows, batches, spills)
  kGauge,    ///< level measurement; aggregates by max (memory reserved)
  kTime,     ///< accumulated nanoseconds; aggregates by sum
};

/// A single lock-free metric cell. Updates are relaxed atomics: metrics
/// must never contend with the work they measure.
class MetricValue {
 public:
  void Add(int64_t delta) { value_.fetch_add(delta, std::memory_order_relaxed); }
  void Set(int64_t v) { value_.store(v, std::memory_order_relaxed); }
  /// Raise to `v` if higher (gauge high-watermark).
  void SetMax(int64_t v) {
    int64_t cur = value_.load(std::memory_order_relaxed);
    while (v > cur &&
           !value_.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
    }
  }
  int64_t value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> value_{0};
};

using MetricValuePtr = std::shared_ptr<MetricValue>;

/// A named metric cell tagged with the partition that records into it
/// (-1 = not partition-specific).
struct Metric {
  std::string name;
  MetricKind kind;
  int partition = -1;
  MetricValuePtr value;
};

/// Standard metric names shared by all operators. Free-form names are
/// also allowed for operator-specific metrics.
namespace metric {
inline constexpr const char kOutputRows[] = "output_rows";
inline constexpr const char kOutputBatches[] = "output_batches";
/// Wall time spent inside this operator's stream, including time spent
/// pulling from its children (exclusive time is derived at reporting
/// time by subtracting the children's totals).
inline constexpr const char kElapsedNs[] = "elapsed_ns";
inline constexpr const char kMemReservedBytes[] = "mem_reserved_bytes";
inline constexpr const char kSpillCount[] = "spill_count";
inline constexpr const char kSpillBytes[] = "spill_bytes";
/// Rows emitted with at least one column still dictionary-encoded.
/// output_rows - dict_rows is how many rows went out fully dense, so
/// EXPLAIN ANALYZE shows exactly where encodings survive or get decoded.
inline constexpr const char kDictRows[] = "dict_rows";
/// Nanoseconds a consumer spent blocked on an exchange queue with no
/// batch available (scheduler pressure / producer-consumer imbalance).
/// Time the consumer lent its thread to run other tasks of its query
/// (TaskGroup::HelpOrWait) is productive work and is not counted.
inline constexpr const char kQueueWaitNs[] = "queue_wait_ns";
/// Tasks this operator submitted to the query scheduler.
inline constexpr const char kTasksSpawned[] = "tasks_spawned";
/// Groups produced by the pre-aggregation phase of a partitioned
/// aggregate, summed over build tasks (before the radix merge dedups
/// them across partitions).
inline constexpr const char kPartialGroups[] = "partial_groups";
/// Rows the adaptive pre-aggregation passed through as per-row partial
/// state after observing group cardinality ~ input cardinality.
inline constexpr const char kBypassRows[] = "bypass_rows";
/// Scan units a partition claimed outside its fixed share. Scans
/// deal units to fixed partitions now, so nothing records it and it
/// reads 0; perfbench still reports it as `physical.morsels_stolen`.
inline constexpr const char kMorselsStolen[] = "morsels_stolen";
/// Nanoseconds a hash join spent constructing/merging its runtime Bloom
/// filters (sideways information passing), on top of the table build.
inline constexpr const char kRfBuildNs[] = "rf_build_ns";
/// Rows a scan tested against ready runtime filters.
inline constexpr const char kRfCheckedRows[] = "rf_checked_rows";
/// Rows a scan dropped because a runtime filter proved they cannot have
/// a join partner; rf_pruned_rows / rf_checked_rows is the filter's
/// observed selectivity.
inline constexpr const char kRfPrunedRows[] = "rf_pruned_rows";
}  // namespace metric

/// \brief The set of metrics recorded by one plan node across all of its
/// partitions. Registration takes a mutex (once per partition per
/// stream-open); updates through the returned MetricValue are lock-free.
class MetricsSet {
 public:
  static std::shared_ptr<MetricsSet> Make() {
    return std::make_shared<MetricsSet>();
  }

  /// Get or create the named cell for `partition`. Re-opening a
  /// partition returns the same cell, so repeated executions accumulate.
  MetricValuePtr Counter(const std::string& name, int partition = -1) {
    return GetOrCreate(name, MetricKind::kCounter, partition);
  }
  MetricValuePtr Gauge(const std::string& name, int partition = -1) {
    return GetOrCreate(name, MetricKind::kGauge, partition);
  }
  MetricValuePtr Time(const std::string& name, int partition = -1) {
    return GetOrCreate(name, MetricKind::kTime, partition);
  }

  /// Point-in-time copy of all registered metrics.
  std::vector<Metric> Snapshot() const;

  /// Aggregate the named metric across partitions: counters and times
  /// sum, gauges take the max. Returns 0 if never recorded.
  int64_t AggregatedValue(const std::string& name) const;

  /// Convenience: sum across partitions regardless of kind.
  int64_t Sum(const std::string& name) const;
  /// Convenience: max across partitions regardless of kind.
  int64_t Max(const std::string& name) const;

  /// All distinct metric names, sorted.
  std::vector<std::string> Names() const;

  /// "output_rows=8192, elapsed=1.2ms, ..." — aggregated, sorted by
  /// name, times rendered as human durations.
  std::string Summary() const;

 private:
  MetricValuePtr GetOrCreate(const std::string& name, MetricKind kind,
                             int partition);

  mutable std::mutex mu_;
  std::vector<Metric> metrics_;
};

using MetricsSetPtr = std::shared_ptr<MetricsSet>;

/// RAII timer accumulating elapsed nanoseconds into a kTime cell.
/// Keeps a shared_ptr so the cell outlives the stream that records it.
class ScopedTimer {
 public:
  explicit ScopedTimer(MetricValuePtr target)
      : target_(std::move(target)), start_(std::chrono::steady_clock::now()) {}
  ~ScopedTimer() { Stop(); }

  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

  /// Accumulate now and disarm (safe to call more than once).
  void Stop() {
    if (target_ == nullptr) return;
    target_->Add(std::chrono::duration_cast<std::chrono::nanoseconds>(
                     std::chrono::steady_clock::now() - start_)
                     .count());
    target_ = nullptr;
  }

 private:
  MetricValuePtr target_;
  std::chrono::steady_clock::time_point start_;
};

/// \brief Stream wrapper recording output rows/batches and time spent in
/// Next() for one partition of an operator. Installed transparently by
/// ExecutionPlan::Execute around every operator's stream.
class InstrumentedStream : public RecordBatchStream {
 public:
  InstrumentedStream(StreamPtr inner, MetricValuePtr output_rows,
                     MetricValuePtr output_batches, MetricValuePtr elapsed_ns,
                     MetricValuePtr dict_rows = nullptr)
      : inner_(std::move(inner)), output_rows_(std::move(output_rows)),
        output_batches_(std::move(output_batches)),
        elapsed_ns_(std::move(elapsed_ns)), dict_rows_(std::move(dict_rows)) {}

  const SchemaPtr& schema() const override { return inner_->schema(); }

  Result<RecordBatchPtr> Next() override {
    ScopedTimer timer(elapsed_ns_);
    FUSION_ASSIGN_OR_RAISE(auto batch, inner_->Next());
    if (batch != nullptr) {
      output_rows_->Add(batch->num_rows());
      output_batches_->Add(1);
      if (dict_rows_ != nullptr) {
        for (int c = 0; c < batch->num_columns(); ++c) {
          if (batch->column(c)->type().is_dictionary()) {
            dict_rows_->Add(batch->num_rows());
            break;
          }
        }
      }
    }
    return batch;
  }

 private:
  StreamPtr inner_;
  MetricValuePtr output_rows_;
  MetricValuePtr output_batches_;
  MetricValuePtr elapsed_ns_;
  MetricValuePtr dict_rows_;
};

/// "823ns" / "12.3µs" / "4.56ms" / "1.23s".
std::string FormatDuration(int64_t nanos);

}  // namespace exec
}  // namespace fusion

#endif  // FUSION_EXEC_METRICS_H_
