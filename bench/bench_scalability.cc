// Reproduces Figure 7 of the paper: ClickBench query duration as the
// core (thread) count grows. The paper sweeps 1..192 cores on a
// c3-highcpu-176; this harness sweeps FUSION_BENCH_THREADS (default
// "1,2,4,8") and reports per-query series for Fusion. The exercised
// code path — partitioned scans, partitioned aggregation, per-partition
// streams — is identical at any core count; on hosts with fewer
// physical cores than threads, oversubscription effects are reported
// as measured (EXPERIMENTS.md, substitution 5).
//
// FUSION_BENCH_QUERIES selects a comma-separated subset of the query
// numbers (CI runs a reduced sweep); `--json FILE` emits the series as
// {query, threads, seconds} entries for tools/check_bench.py.
//
// Each sweep point starts a new scheduler. On a 4-vCPU Linux host, its
// workers, woken through a condition variable while the waking thread
// kept running, stayed on one vCPU for about a second before spreading
// (EXPERIMENTS.md, Figure 7). So every point runs its queries for at
// least kWarmupSeconds before timing, and reports the median of kRuns
// runs.

#include <algorithm>
#include <cstdio>
#include <cstring>

#include "bench/bench_harness.h"
#include "bench/workloads/clickbench.h"

using namespace fusion;          // NOLINT
using namespace fusion::bench;   // NOLINT

namespace {

std::vector<int> ParseIntList(const char* env, const char* fallback) {
  std::string spec = env != nullptr && *env != '\0' ? env : fallback;
  std::vector<int> out;
  for (size_t pos = 0; pos < spec.size();) {
    out.push_back(std::atoi(spec.c_str() + pos));
    size_t comma = spec.find(',', pos);
    if (comma == std::string::npos) break;
    pos = comma + 1;
  }
  return out;
}

constexpr double kWarmupSeconds = 1.5;
constexpr int kRuns = 5;

/// Median time of kRuns executions of `sql`.
QueryTiming RunMedian(core::SessionContext* ctx, const std::string& sql) {
  std::vector<double> seconds;
  QueryTiming t;
  for (int i = 0; i < kRuns; ++i) {
    t = RunFusion(ctx, sql, /*runs=*/1);
    if (!t.ok) return t;
    seconds.push_back(t.seconds);
  }
  std::nth_element(seconds.begin(), seconds.begin() + kRuns / 2, seconds.end());
  t.seconds = seconds[kRuns / 2];
  return t;
}

}  // namespace

int main(int argc, char** argv) {
  JsonReport report(ParseJsonReportArg(argc, argv));

  ClickBenchSpec spec;
  spec.rows = EnvScale("FUSION_BENCH_ROWS", 2'000'000);
  spec.num_files = static_cast<int>(EnvScale("FUSION_BENCH_FILES", 20));
  spec.dir = BenchDataDir();

  std::vector<int> thread_counts =
      ParseIntList(std::getenv("FUSION_BENCH_THREADS"), "1,2,4,8");
  // Representative queries across the paper's regimes: sub-second
  // (Q1/Q2), medium groups (Q15, Q32), high-cardinality (Q18, Q33),
  // LIKE-heavy (Q28).
  std::vector<BenchQuery> queries;
  for (int qn :
       ParseIntList(std::getenv("FUSION_BENCH_QUERIES"), "1,2,8,15,18,28,32,33")) {
    for (const auto& q : ClickBenchQueries()) {
      if (q.number == qn) queries.push_back(q);
    }
  }

  std::printf("== Figure 7: ClickBench scalability (threads sweep) ==\n");
  auto paths = GenerateClickBench(spec);
  if (!paths.ok()) {
    std::fprintf(stderr, "generation failed: %s\n",
                 paths.status().ToString().c_str());
    return 1;
  }

  std::printf("query,threads,seconds\n");
  for (int threads : thread_counts) {
    // A fresh scheduler sized to the thread count drives the partition
    // tasks, so every sweep point runs at its own width.
    exec::SessionConfig config;
    config.target_partitions = threads;
    auto env_rt = std::make_shared<exec::RuntimeEnv>();
    // Scaling of decode + execution is the subject here; the serving
    // buffer cache would turn the repeated runs into memory reads.
    env_rt->buffer_cache = nullptr;
    env_rt->query_scheduler = std::make_shared<exec::QueryScheduler>(threads);
    auto ctx = core::SessionContext::Make(config, env_rt);
    if (!RegisterHits(ctx.get(), nullptr, *paths).ok()) return 1;
    Timer warmup;
    do {
      for (const auto& q : queries) RunFusion(ctx.get(), q.sql, /*runs=*/1);
    } while (warmup.Seconds() < kWarmupSeconds);
    for (const auto& q : queries) {
      QueryTiming t = RunMedian(ctx.get(), q.sql);
      if (t.ok) {
        std::printf("Q%d,%d,%.3f\n", q.number, threads, t.seconds);
      } else {
        std::printf("Q%d,%d,FAIL (%s)\n", q.number, threads, t.error.c_str());
      }
      report.Add(q.number, threads, t);
    }
  }
  return report.Finish() ? 0 : 1;
}
