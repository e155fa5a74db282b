#include <malloc.h>
#include <pthread.h>
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <tuple>

#include "perfbench/perfbench.h"

namespace fusion {
namespace perfbench {

// ------------------------------------------------------------ statistics

double Median(std::vector<double> v) { return Quantile(std::move(v), 0.5); }

double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double HarrellDavis(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double n = static_cast<double>(v.size());
  const double a = q * (n + 1), b = (1 - q) * (n + 1);
  const double log_norm = std::lgamma(a + b) - std::lgamma(a) - std::lgamma(b);
  auto density = [&](double x) {
    if (x <= 0 || x >= 1) return 0.0;
    return std::exp(log_norm + (a - 1) * std::log(x) + (b - 1) * std::log1p(-x));
  };
  // Weight of the i-th smallest value: the Beta(a, b) mass on
  // [i/n, (i+1)/n], by Simpson's rule.
  constexpr int kSteps = 64;
  const double h = 1 / n / kSteps;
  double weighted = 0, total = 0;
  for (size_t i = 0; i < v.size(); ++i) {
    const double lo = static_cast<double>(i) / n;
    double w = density(lo) + density(lo + 1 / n);
    for (int k = 1; k < kSteps; ++k) w += (k % 2 == 1 ? 4 : 2) * density(lo + k * h);
    weighted += w * v[i];
    total += w;
  }
  return total > 0 ? weighted / total : Quantile(std::move(v), q);
}

double SupportedQuantile(size_t n, double want) {
  if (n <= 10) return 0;
  return std::min(want, static_cast<double>(n - 10) / static_cast<double>(n));
}

double GeoMean(const std::vector<double>& v) {
  if (v.empty()) return 0;
  double log_sum = 0;
  for (double x : v) log_sum += std::log(std::max(x, 1e-9));
  return std::exp(log_sum / static_cast<double>(v.size()));
}

void KindSamples::Add(const std::string& field, size_t kind, double value) {
  for (auto& [name, per_kind] : fields_) {
    if (name == field) {
      per_kind[kind].push_back(value);
      return;
    }
  }
  fields_.emplace_back(field, std::vector<std::vector<double>>(kinds_));
  fields_.back().second[kind].push_back(value);
}

std::vector<double> KindSamples::Quantiles(const std::string& field, double q) const {
  std::vector<double> out;
  for (const auto& [name, per_kind] : fields_) {
    if (name != field) continue;
    for (const auto& samples : per_kind) {
      if (!samples.empty()) out.push_back(Quantile(samples, q));
    }
  }
  return out;
}

std::vector<double> KindSamples::Medians(const std::string& field) const {
  return Quantiles(field, 0.5);
}

double KindSamples::SumOfMedians(const std::string& field) const {
  double sum = 0;
  for (double m : Medians(field)) sum += m;
  return sum;
}

int64_t KindSamples::Count(const std::string& field) const {
  int64_t n = 0;
  for (const auto& [name, per_kind] : fields_) {
    if (name != field) continue;
    for (const auto& samples : per_kind) n += static_cast<int64_t>(samples.size());
  }
  return n;
}

// -------------------------------------------------------- result checks

namespace {

uint64_t Fnv1a(const std::string& s) {
  uint64_t h = 1469598103934665603ULL;
  for (unsigned char c : s) {
    h ^= c;
    h *= 1099511628211ULL;
  }
  // splitmix64 finalizer, so row hashes sum without cancelling patterns.
  h ^= h >> 30;
  h *= 0xbf58476d1ce4e5b9ULL;
  h ^= h >> 27;
  h *= 0x94d049bb133111ebULL;
  return h ^ (h >> 31);
}

/// Six significant digits, rounded to nearest or truncated toward zero.
std::string RoundedFloat(double x, bool nearest) {
  if (!std::isfinite(x)) return std::to_string(x);
  if (x == 0) return "0";
  int exp10 = static_cast<int>(std::floor(std::log10(std::fabs(x)))) - 5;
  double mantissa = x / std::pow(10.0, exp10);
  mantissa = nearest ? std::nearbyint(mantissa) : std::trunc(mantissa);
  if (std::fabs(mantissa) >= 1e6) {  // 999999.7 rounded up to 1000000
    mantissa = std::nearbyint(mantissa / 10);
    ++exp10;
  }
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.0fe%d", mantissa, exp10);
  return buf;
}

/// The text of row `i` over `cols`: exact, or with floats rounded to
/// nearest and truncated.
void RowText(const RecordBatch& batch, int64_t i, const std::vector<int>& cols,
             std::string* nearest, std::string* truncated) {
  for (int c : cols) {
    const auto& array = batch.column(c);
    std::string exact;
    if (array->IsNull(i)) {
      exact = "NULL";
    } else if (array->type().is_floating()) {
      const double x = static_cast<const Float64Array&>(*array).Value(i);
      *nearest += RoundedFloat(x, true) + '\x1f';
      *truncated += RoundedFloat(x, false) + '\x1f';
      continue;
    } else {
      exact = array->ValueToString(i);
    }
    *nearest += exact + '\x1f';
    *truncated += exact + '\x1f';
  }
}

std::vector<int> SelectedColumns(const RecordBatch& batch, const std::vector<int>& columns) {
  if (!columns.empty()) return columns;
  std::vector<int> all;
  for (int c = 0; c < batch.num_columns(); ++c) all.push_back(c);
  return all;
}

}  // namespace

Digest DigestBatches(const std::vector<RecordBatchPtr>& batches,
                     const std::vector<int>& columns) {
  Digest d;
  const bool none = columns.size() == 1 && columns[0] < 0;
  for (const auto& batch : batches) {
    if (batch == nullptr) continue;
    d.rows += batch->num_rows();
    if (none) continue;
    const std::vector<int> cols = SelectedColumns(*batch, columns);
    for (int64_t i = 0; i < batch->num_rows(); ++i) {
      std::string nearest, truncated;
      RowText(*batch, i, cols, &nearest, &truncated);
      d.nearest += Fnv1a(nearest);
      d.truncated += Fnv1a(truncated);
    }
  }
  return d;
}

std::vector<uint64_t> RowHashes(const std::vector<RecordBatchPtr>& batches,
                                const std::vector<int>& columns) {
  std::vector<uint64_t> out;
  for (const auto& batch : batches) {
    if (batch == nullptr) continue;
    const std::vector<int> cols = SelectedColumns(*batch, columns);
    for (int64_t i = 0; i < batch->num_rows(); ++i) {
      std::string nearest, truncated;
      RowText(*batch, i, cols, &nearest, &truncated);
      out.push_back(Fnv1a(nearest));
    }
  }
  return out;
}

bool Matches(const Digest& got, const Digest& want) {
  return got.rows == want.rows &&
         (got.nearest == want.nearest || got.truncated == want.truncated);
}

namespace {

/// A row split into its exact cells (as text) and its float cells.
struct SplitRow {
  std::string exact;
  std::vector<double> floats;
};

std::vector<SplitRow> SortedRows(const std::vector<RecordBatchPtr>& batches) {
  std::vector<SplitRow> rows;
  for (const auto& batch : batches) {
    if (batch == nullptr) continue;
    for (int64_t i = 0; i < batch->num_rows(); ++i) {
      SplitRow row;
      for (int c = 0; c < batch->num_columns(); ++c) {
        const auto& array = batch->column(c);
        if (!array->IsNull(i) && array->type().is_floating()) {
          row.floats.push_back(static_cast<const Float64Array&>(*array).Value(i));
        } else {
          row.exact += (array->IsNull(i) ? "NULL" : array->ValueToString(i)) + '\x1f';
        }
      }
      rows.push_back(std::move(row));
    }
  }
  std::sort(rows.begin(), rows.end(), [](const SplitRow& a, const SplitRow& b) {
    return std::tie(a.exact, a.floats) < std::tie(b.exact, b.floats);
  });
  return rows;
}

}  // namespace

bool SameRows(const std::vector<RecordBatchPtr>& got,
              const std::vector<RecordBatchPtr>& want) {
  const std::vector<SplitRow> a = SortedRows(got), b = SortedRows(want);
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].exact != b[i].exact || a[i].floats.size() != b[i].floats.size()) return false;
    for (size_t j = 0; j < a[i].floats.size(); ++j) {
      const double x = a[i].floats[j], y = b[i].floats[j];
      if (x == y || (std::isnan(x) && std::isnan(y))) continue;
      if (!(std::fabs(x - y) <= 1e-9 * std::max(std::fabs(x), std::fabs(y)))) return false;
    }
  }
  return true;
}

std::string DigestToString(const Digest& d) {
  char buf[96];
  std::snprintf(buf, sizeof(buf), "%lld %016llx %016llx",
                static_cast<long long>(d.rows),
                static_cast<unsigned long long>(d.nearest),
                static_cast<unsigned long long>(d.truncated));
  return buf;
}

// --------------------------------------------------------------- tracing

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

int64_t Tracer::Begin(const char* name, int64_t parent) {
  if (!enabled_) return 0;
  const int64_t now = NowNs();
  std::lock_guard<std::mutex> lock(mu_);
  const int64_t id = static_cast<int64_t>(spans_.size()) + 1;
  const int64_t root = parent > 0 ? spans_[parent - 1].root : id;
  spans_.push_back({name, parent, root, now, 0});
  return id;
}

int64_t Tracer::End(int64_t id) {
  if (id <= 0) return 0;
  const int64_t now = NowNs();
  std::lock_guard<std::mutex> lock(mu_);
  Span& span = spans_[id - 1];
  span.end_ns = now;
  return span.end_ns - span.start_ns;
}

Status Tracer::Write(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::ofstream out(path);
  if (!out) return Status::IOError("cannot write spans to " + path);
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << "{\"id\":" << i + 1 << ",\"parent\":" << s.parent
        << ",\"trace\":" << s.root << ",\"name\":\"" << s.name
        << "\",\"start_ns\":" << s.start_ns << ",\"end_ns\":" << s.end_ns << "}\n";
  }
  return out.good() ? Status::OK() : Status::IOError("short write to " + path);
}

// ------------------------------------------------------- process probes

void ResetPeakRss() {
  malloc_trim(0);
  ResetPeakMark();
}

void ResetPeakMark() {
  std::ofstream clear("/proc/self/clear_refs");
  clear << "5";
}

PeakRssWindows::PeakRssWindows(double window_s) {
  thread_ = std::thread([this, window_s] {
    const auto window = std::chrono::duration_cast<std::chrono::steady_clock::duration>(
        std::chrono::duration<double>(window_s));
    auto end = std::chrono::steady_clock::now();
    std::unique_lock<std::mutex> lock(mu_);
    for (;;) {
      end += window;
      if (cv_.wait_until(lock, end, [this] { return stop_; })) return;
      peaks_.push_back(PeakRssMb());
      ResetPeakMark();
    }
  });
}

std::vector<double> PeakRssWindows::Stop() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  if (thread_.joinable()) thread_.join();
  return peaks_;
}

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0;
}

double CpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return secs(usage.ru_utime) + secs(usage.ru_stime);
}

HostProbe::HostProbe() : table_(1 << 19), stream_(1 << 21) {
  for (size_t i = 0; i < stream_.size(); ++i) stream_[i] = static_cast<uint32_t>(i * 2654435761u);
}

double HostProbe::RunMs() {
  const int64_t start = NowNs();
  uint64_t x = 0x9E3779B97F4A7C15ULL;
  for (int i = 0; i < 100'000; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    uint64_t& slot = table_[x & (table_.size() - 1)];
    slot += (slot & 1) ? x : (x >> 3);
  }
  uint64_t acc = 0;
  for (size_t i = 0; i < stream_.size() / 2; ++i) {
    acc += stream_[i] > 7 ? stream_[i] * 3 : stream_[i] ^ 5;
  }
  for (size_t i = 0; i < stream_.size(); i += 97) stream_[i] = static_cast<uint32_t>(acc + i);
  sink_ += acc + x;
  return static_cast<double>(NowNs() - start) / 1e6;
}

double HostProbe::ResidentMb() const {
  return static_cast<double>(table_.size() * sizeof(uint64_t) +
                             stream_.size() * sizeof(uint32_t)) /
         (1 << 20);
}

IdleSpinners::IdleSpinners(int threads) {
  for (int i = 0; i < threads; ++i) {
    threads_.emplace_back([this] {
      sched_param param{};
      if (pthread_setschedparam(pthread_self(), SCHED_IDLE, &param) != 0) return;
      spinning_.fetch_add(1);
      while (!stop_.load(std::memory_order_relaxed)) {
#if defined(__x86_64__) || defined(__i386__)
        __builtin_ia32_pause();
#endif
      }
    });
  }
}

IdleSpinners::~IdleSpinners() {
  stop_.store(true);
  for (auto& t : threads_) t.join();
}

Status FreshDir(const std::string& dir) {
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
  std::filesystem::create_directories(dir, ec);
  if (ec) return Status::IOError("cannot create " + dir + ": " + ec.message());
  return Status::OK();
}

int64_t FileBytes(const std::vector<std::string>& paths) {
  int64_t total = 0;
  for (const auto& p : paths) {
    std::error_code ec;
    auto size = std::filesystem::file_size(p, ec);
    if (!ec) total += static_cast<int64_t>(size);
  }
  return total;
}

// ------------------------------------------------- layer attribution

void OperatorTotals::Add(const physical::PlanMetricsNode& node) {
  const double self_ms = static_cast<double>(node.elapsed_compute_ns) / 1e6;
  const std::string& n = node.name;
  if (n == "ScanExec") {
    scan_ms += self_ms;
    rows_scanned += static_cast<double>(node.output_rows);
  } else if (n == "HashAggregateExec" || n == "PartitionedAggregateExec" ||
             n == "StreamingAggregateExec") {
    aggregate_ms += self_ms;
  } else if (n == "HashJoinExec" || n == "SortMergeJoinExec" ||
             n == "NestedLoopJoinExec" || n == "CrossJoinExec" ||
             n == "SymmetricHashJoinExec") {
    join_ms += self_ms;
  } else if (n == "SortExec" || n == "SortPreservingMergeExec") {
    sort_ms += self_ms;
  } else if (n == "FilterExec" || n == "ProjectionExec") {
    filter_project_ms += self_ms;
  } else if (n == "RepartitionExec" || n == "CoalescePartitionsExec") {
    exchange_ms += self_ms;
  }
  queue_wait_ms += static_cast<double>(node.queue_wait_ns) / 1e6;
  rf_build_ms += static_cast<double>(node.rf_build_ns) / 1e6;
  partial_groups += static_cast<double>(node.partial_groups);
  bypass_rows += static_cast<double>(node.bypass_rows);
  tasks_spawned += static_cast<double>(node.tasks_spawned);
  morsels_stolen += static_cast<double>(node.morsels_stolen);
  spill_bytes += static_cast<double>(node.spill_bytes);
  rf_checked_rows += static_cast<double>(node.rf_checked_rows);
  rf_pruned_rows += static_cast<double>(node.rf_pruned_rows);
  for (const auto& child : node.children) Add(child);
}

void OperatorTotals::Record(KindSamples* samples, size_t kind) const {
  samples->Add("format.scan_ms", kind, scan_ms);
  samples->Add("format.rows_scanned", kind, rows_scanned);
  samples->Add("physical.aggregate_ms", kind, aggregate_ms);
  samples->Add("physical.partial_groups", kind, partial_groups);
  samples->Add("physical.bypass_rows", kind, bypass_rows);
  samples->Add("physical.join_ms", kind, join_ms);
  samples->Add("physical.rf_build_ms", kind, rf_build_ms);
  samples->Add("physical.sort_ms", kind, sort_ms);
  samples->Add("compute.filter_project_ms", kind, filter_project_ms);
  samples->Add("exec.exchange_ms", kind, exchange_ms);
  samples->Add("exec.queue_wait_ms", kind, queue_wait_ms);
  samples->Add("exec.tasks_spawned", kind, tasks_spawned);
  samples->Add("physical.morsels_stolen", kind, morsels_stolen);
  samples->Add("physical.spill_bytes", kind, spill_bytes);
  samples->Add("format.rf_checked_rows", kind, rf_checked_rows);
  samples->Add("format.rf_pruned_rows", kind, rf_pruned_rows);
}

TracedExecution ExecuteTraced(core::SessionContext* ctx, const std::string& sql,
                              Tracer* tracer) {
  TracedExecution t;
  const int64_t root = tracer->Begin("query");
  const int64_t query_start = NowNs();
  auto span = [&](const char* name, double* ms, auto&& fn) {
    const int64_t id = tracer->Begin(name, root);
    const int64_t start = NowNs();
    auto result = fn();
    *ms = static_cast<double>(NowNs() - start) / 1e6;
    tracer->End(id);
    return result;
  };
  auto finish = [&](Status st) {
    t.status = std::move(st);
    t.query_ms = static_cast<double>(NowNs() - query_start) / 1e6;
    tracer->End(root);
    return std::move(t);
  };

  auto logical = span("sql.bind", &t.bind_ms, [&] { return ctx->CreateLogicalPlan(sql); });
  if (!logical.ok()) return finish(logical.status());
  auto optimized = span("optimizer.optimize", &t.optimize_ms,
                        [&] { return ctx->OptimizePlan(*logical); });
  if (!optimized.ok()) return finish(optimized.status());
  auto plan = span("physical.plan", &t.plan_ms,
                   [&] { return ctx->CreatePhysicalPlan(*optimized); });
  if (!plan.ok()) return finish(plan.status());
  const double cpu_before = CpuSeconds();
  auto batches = span("exec.run", &t.run_ms, [&] { return ctx->ExecutePhysical(*plan); });
  t.run_cpu_s = CpuSeconds() - cpu_before;
  if (!batches.ok()) return finish(batches.status());
  t.batches = std::move(*batches);
  t.ops.Add(physical::CollectMetrics(**plan));
  return finish(Status::OK());
}

void AddTracedLayerMetrics(const KindSamples& samples, double run_wall_s,
                           double run_cpu_s, RunResult* out) {
  const int64_t n = samples.Count("exec.run_ms");
  const double bind = samples.SumOfMedians("sql.bind_ms");
  const double optimize = samples.SumOfMedians("optimizer.optimize_ms");
  const double plan = samples.SumOfMedians("physical.plan_ms");
  const double query = samples.SumOfMedians("query_ms");
  out->Add("sql.bind_ms", bind, "ms", n);
  out->Add("optimizer.optimize_ms", optimize, "ms", n);
  out->Add("physical.plan_ms", plan, "ms", n);
  out->Add("exec.run_ms", samples.SumOfMedians("exec.run_ms"), "ms", n);
  out->Add("core.planning_share", query > 0 ? (bind + optimize + plan) / query : 0,
           "ratio", n);
  out->Add("exec.parallelism", run_wall_s > 0 ? run_cpu_s / run_wall_s : 0, "ratio",
           n);
  static const char* kTimes[] = {
      "format.scan_ms",    "physical.aggregate_ms",     "physical.join_ms",
      "physical.rf_build_ms", "physical.sort_ms",       "compute.filter_project_ms",
      "exec.exchange_ms",  "exec.queue_wait_ms"};
  for (const char* name : kTimes) out->Add(name, samples.SumOfMedians(name), "ms", n);
  static const char* kCounts[] = {
      "format.rows_scanned", "physical.partial_groups", "physical.bypass_rows",
      "exec.tasks_spawned",  "physical.morsels_stolen", "format.rf_checked_rows"};
  for (const char* name : kCounts) {
    out->Add(name, samples.SumOfMedians(name), "count", n);
  }
  out->Add("physical.spill_bytes", samples.SumOfMedians("physical.spill_bytes"),
           "bytes", n);
  const double checked = samples.SumOfMedians("format.rf_checked_rows");
  out->Add("format.rf_pruned_ratio",
           checked > 0 ? samples.SumOfMedians("format.rf_pruned_rows") / checked : 0,
           "ratio", static_cast<int64_t>(checked));
}

void AddCounterMetrics(const exec::BufferCache::Stats& b0,
                       const exec::BufferCache::Stats& b1, int64_t plan_hits,
                       int64_t plan_misses, int64_t plan_invalidations,
                       RunResult* out) {
  const int64_t hits = b1.hits - b0.hits;
  const int64_t misses = b1.misses - b0.misses;
  out->Add("exec.buffer_hit_rate",
           hits + misses > 0 ? static_cast<double>(hits) / (hits + misses) : 0,
           "ratio", hits + misses);
  out->Add("exec.buffer_hits", static_cast<double>(hits), "count", 1);
  out->Add("exec.buffer_misses", static_cast<double>(misses), "count", 1);
  out->Add("exec.buffer_coalesced", static_cast<double>(b1.coalesced - b0.coalesced),
           "count", 1);
  out->Add("exec.buffer_evictions", static_cast<double>(b1.evictions - b0.evictions),
           "count", 1);
  out->Add("core.plan_hit_rate",
           plan_hits + plan_misses > 0
               ? static_cast<double>(plan_hits) / (plan_hits + plan_misses)
               : 0,
           "ratio", plan_hits + plan_misses);
  out->Add("core.plan_hits", static_cast<double>(plan_hits), "count", 1);
  out->Add("core.plan_misses", static_cast<double>(plan_misses), "count", 1);
  out->Add("core.plan_invalidations", static_cast<double>(plan_invalidations), "count",
           1);
}

}  // namespace perfbench
}  // namespace fusion
