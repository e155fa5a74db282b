#ifndef FUSION_PERFBENCH_PERFBENCH_H_
#define FUSION_PERFBENCH_PERFBENCH_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "arrow/record_batch.h"
#include "common/result.h"
#include "core/session_context.h"
#include "physical/execution_plan.h"

namespace fusion {
namespace perfbench {

/// Command-line settings of one benchmark run.
struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Per-run scratch directory; generated inputs live here and are
  /// deleted at exit.
  std::string work_dir;
  /// Directory holding the committed expected results (expected/).
  std::string expected_dir;
  /// Non-empty: take the set-up pass's results as the expected ones
  /// (under the committed column masks) and write them to this file.
  std::string record_path;
  /// Spans are written here at exit (traced runs only).
  std::string out_dir;
  /// target_partitions and client connections: the host's nproc.
  int partitions = 1;
};

/// One reported metric. `samples` is the count the value is derived
/// from (queries, requests, rounds, ...), printed beside it.
struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
  int64_t samples = 0;
};

/// Outcome of one workload run.
struct RunResult {
  bool correct = true;
  int64_t attempted = 0;
  int64_t failed = 0;
  std::vector<Metric> metrics;
  /// Human-readable lines printed before the result (sizes, rates).
  std::vector<std::string> notes;

  void Add(const std::string& name, double value, const std::string& unit,
           int64_t samples) {
    metrics.push_back({name, value, unit, samples});
  }
  void Note(const std::string& line) { notes.push_back(line); }
  /// Count one checked operation.
  void Check(bool ok) {
    ++attempted;
    if (!ok) ++failed;
  }
};

// ------------------------------------------------------------ statistics

double Median(std::vector<double> v);
/// Linear-interpolated quantile q in [0, 1].
double Quantile(std::vector<double> v, double q);
/// Harrell-Davis estimate of quantile q in (0, 1): a Beta-weighted mean
/// of all order statistics, so it moves smoothly when one value crosses
/// it, where Quantile jumps by the gap to the next value.
double HarrellDavis(std::vector<double> v, double q);
/// The highest quantile <= `want` that leaves at least ten of `n`
/// samples beyond it (0 when n <= 10).
double SupportedQuantile(size_t n, double want);
double GeoMean(const std::vector<double>& v);

/// Samples of named quantities per operation kind (query, template),
/// summarised as "sum over kinds of each kind's median".
class KindSamples {
 public:
  explicit KindSamples(size_t kinds) : kinds_(kinds) {}
  void Add(const std::string& field, size_t kind, double value);
  double SumOfMedians(const std::string& field) const;
  std::vector<double> Medians(const std::string& field) const;
  /// Quantile q of each kind's samples, kinds without samples skipped.
  std::vector<double> Quantiles(const std::string& field, double q) const;
  int64_t Count(const std::string& field) const;

 private:
  size_t kinds_;
  std::vector<std::pair<std::string, std::vector<std::vector<double>>>> fields_;
};

// -------------------------------------------------------- result checks

/// Order-insensitive digest of a result: the row count plus two sums of
/// per-row hashes. Floats are rounded to six significant digits, once
/// to nearest and once truncated, so a last-bit difference from a
/// different summation order can flip at most one of the two; decimals,
/// integers and strings are exact.
struct Digest {
  int64_t rows = 0;
  uint64_t nearest = 0;
  uint64_t truncated = 0;
};

/// `columns` selects the columns hashed (empty = all; a single -1 =
/// none, row count only).
Digest DigestBatches(const std::vector<RecordBatchPtr>& batches,
                     const std::vector<int>& columns = {});
/// Each row's hash over `columns` (empty = all), floats rounded to
/// nearest: the terms of DigestBatches' `nearest` sum.
std::vector<uint64_t> RowHashes(const std::vector<RecordBatchPtr>& batches,
                                const std::vector<int>& columns = {});
bool Matches(const Digest& got, const Digest& want);
/// Whether two results hold the same rows in any order: floats within a
/// relative 1e-9, every other cell exactly. Serving's data changes with
/// the seed, and on some seeds a result holds rows that sit on rounding
/// boundaries of both kinds Digest uses, so the order in which partial
/// sums merge flips both digests; this check cannot be flipped that way.
bool SameRows(const std::vector<RecordBatchPtr>& got,
              const std::vector<RecordBatchPtr>& want);
std::string DigestToString(const Digest& d);

// --------------------------------------------------------------- tracing

/// In-memory spans, written out once at exit. A span's parent is the
/// span that caused it; spans of one request share the root's id.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}
  bool enabled() const { return enabled_; }
  /// Start a span; returns its id (0 when tracing is off).
  int64_t Begin(const char* name, int64_t parent = 0);
  /// End span `id`; returns its duration in nanoseconds.
  int64_t End(int64_t id);
  Status Write(const std::string& path) const;

 private:
  struct Span {
    const char* name;
    int64_t parent;
    int64_t root;
    int64_t start_ns;
    int64_t end_ns;
  };
  const bool enabled_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

int64_t NowNs();

// ------------------------------------------------------- process probes

/// Reset the kernel's peak-RSS mark (VmHWM) to the current RSS, after
/// returning freed heap pages, so the peak covers only what follows.
void ResetPeakRss();
/// The same reset without trimming the heap: trimming inside a timed
/// phase would change the engine's work.
void ResetPeakMark();
double PeakRssMb();

/// Peak RSS in consecutive windows while it lives: each window ends by
/// reading the peak mark and resetting it (ResetPeakMark).
class PeakRssWindows {
 public:
  explicit PeakRssWindows(double window_s);
  ~PeakRssWindows() { Stop(); }
  /// Stops sampling; returns each complete window's peak in MiB.
  std::vector<double> Stop();

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;
  std::vector<double> peaks_;
  std::thread thread_;
};
/// User + system CPU seconds of the whole process.
double CpuSeconds();

/// The shared host's speed drifts by up to 2x over minutes: other
/// tenants load the last-level cache and memory the engine depends on,
/// and every engine timing drifts with it (the process's CPU time too).
/// This probe is a fixed, engine-independent memory workload that
/// drifts the same way: 100,000 random updates of a 4 MiB table and a
/// pass over 4 MiB of an 8 MiB array, the same buffers on every run, so
/// like the engine's data they stay in the shared cache only as far as
/// the other tenants leave room. End-to-end times are reported at the
/// probe's reference speed: `Scaled(ms, probe_ms)` (README.md).
/// One thread at a time may run it.
class HostProbe {
 public:
  /// Allocates the buffers and makes them resident.
  HostProbe();
  /// Runs the probe once; returns its time in milliseconds.
  double RunMs();
  /// The buffers' resident size, left out of peak_rss_mb.
  double ResidentMb() const;

 private:
  std::vector<uint64_t> table_;
  std::vector<uint32_t> stream_;
  uint64_t sink_ = 0;
};

/// The probe's time on the reference host; scaled times equal wall
/// times when the host runs the probe at this speed.
constexpr double kProbeRefMs = 3.3;
inline double Scaled(double ms, double probe_ms) { return ms * kProbeRefMs / probe_ms; }

/// Keeps every vCPU out of halt while it lives. On a virtual machine a
/// thread woken on a halted vCPU waits for the hypervisor to resume that
/// vCPU, a delay that grows with the other tenants' load; a thread
/// hand-off costs about 3x as much as on a busy vCPU on the reference
/// host. The spinners run at SCHED_IDLE, so any other thread that wakes
/// takes their vCPU at once. Threads that cannot lower themselves to
/// SCHED_IDLE exit instead of spinning. Used around serving's timed
/// phases (README.md).
class IdleSpinners {
 public:
  explicit IdleSpinners(int threads);
  ~IdleSpinners();
  /// How many threads spin (at SCHED_IDLE).
  int spinning() const { return spinning_.load(); }

 private:
  std::atomic<bool> stop_{false};
  std::atomic<int> spinning_{0};
  std::vector<std::thread> threads_;
};

/// Recreate `dir` empty.
Status FreshDir(const std::string& dir);
int64_t FileBytes(const std::vector<std::string>& paths);

// ------------------------------------------------- layer attribution

/// Per-layer operator totals of one executed plan, from
/// physical::CollectMetrics (exclusive time per operator family plus the
/// counters operators expose).
struct OperatorTotals {
  double scan_ms = 0, aggregate_ms = 0, join_ms = 0, sort_ms = 0,
         filter_project_ms = 0, exchange_ms = 0, queue_wait_ms = 0,
         rf_build_ms = 0;
  double rows_scanned = 0, partial_groups = 0, bypass_rows = 0,
         tasks_spawned = 0, morsels_stolen = 0, spill_bytes = 0,
         rf_checked_rows = 0, rf_pruned_rows = 0;

  void Add(const physical::PlanMetricsNode& node);
  /// Record every field into `samples` under its metric name.
  void Record(KindSamples* samples, size_t kind) const;
};

/// One query run through the four public planning/execution calls,
/// each inside its own span: the instrumented (traced) path.
struct TracedExecution {
  Status status;
  std::vector<RecordBatchPtr> batches;
  double bind_ms = 0, optimize_ms = 0, plan_ms = 0, run_ms = 0, query_ms = 0;
  double run_cpu_s = 0;
  OperatorTotals ops;
};
TracedExecution ExecuteTraced(core::SessionContext* ctx, const std::string& sql,
                              Tracer* tracer);

/// Adds the span-derived per-layer metrics (sql/optimizer/physical/exec
/// spans, planning share, parallelism and operator totals) from the
/// samples ExecuteTraced runs recorded.
void AddTracedLayerMetrics(const KindSamples& samples, double run_wall_s,
                           double run_cpu_s, RunResult* out);

/// Adds the buffer-cache and plan-cache counter deltas of a timed phase.
void AddCounterMetrics(const exec::BufferCache::Stats& b0,
                       const exec::BufferCache::Stats& b1, int64_t plan_hits,
                       int64_t plan_misses, int64_t plan_invalidations,
                       RunResult* out);

// ------------------------------------------------------------ workloads

RunResult RunAnalytic(const Options& options, Tracer* tracer);
RunResult RunServing(const Options& options, Tracer* tracer);

}  // namespace perfbench
}  // namespace fusion

#endif  // FUSION_PERFBENCH_PERFBENCH_H_
