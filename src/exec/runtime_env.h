#ifndef FUSION_EXEC_RUNTIME_ENV_H_
#define FUSION_EXEC_RUNTIME_ENV_H_

#include <atomic>
#include <cstdlib>
#include <memory>
#include <string>
#include <thread>

#include "common/fault_injector.h"
#include "exec/buffer_cache.h"
#include "exec/cache_manager.h"
#include "exec/disk_manager.h"
#include "exec/memory_pool.h"
#include "exec/scheduler.h"

namespace fusion {
namespace exec {

/// Hit/miss counters for the session's logical-plan cache. The cache
/// itself lives in core (it stores logical plans); the counters live
/// here so the exec-layer EXPLAIN ANALYZE footer can render them
/// without a dependency on the logical layer.
struct PlanCacheStats {
  std::atomic<int64_t> hits{0};
  std::atomic<int64_t> misses{0};
  std::atomic<int64_t> evictions{0};
  /// Catalog/config-epoch flushes of the whole cache.
  std::atomic<int64_t> invalidations{0};
  std::atomic<int64_t> entries{0};
};

using PlanCacheStatsPtr = std::shared_ptr<PlanCacheStats>;

/// \brief The execution environment bundle (paper §7.4): memory, disk,
/// cache and CPU resources shared by queries of a session. Each member
/// is independently replaceable.
struct RuntimeEnv {
  MemoryPoolPtr memory_pool = std::make_shared<UnboundedMemoryPool>();
  DiskManagerPtr disk_manager = std::make_shared<DiskManager>();
  CacheManagerPtr cache_manager = std::make_shared<CacheManager>();
  /// Decoded-batch cache consulted by file scans; null disables caching
  /// (FUSION_BUFFER_CACHE_BYTES=0). Process-global by default so
  /// concurrent sessions share decoded data; sessions wanting memory
  /// accounting or isolation install their own instance.
  BufferCachePtr buffer_cache = BufferCache::Default();
  /// Counters bumped by the session's plan cache (see PlanCacheStats).
  PlanCacheStatsPtr plan_cache_stats = std::make_shared<PlanCacheStats>();
  /// The shared query scheduler all parallel work (top-level partition
  /// drivers and exchange producers) runs on; null = process default.
  /// Swap in a dedicated QueryScheduler to bound or isolate a session.
  QuerySchedulerPtr query_scheduler = nullptr;
  /// The active fault injector (nullptr outside fault-injection runs).
  /// Injection sites live below this layer and consult the process
  /// global; this member surfaces it for introspection and tests.
  FaultInjectorPtr fault_injector = FaultInjector::Current();

  QueryScheduler* scheduler() const {
    return query_scheduler != nullptr ? query_scheduler.get()
                                      : QueryScheduler::Default();
  }
};

using RuntimeEnvPtr = std::shared_ptr<RuntimeEnv>;

/// Default `target_partitions`: one per hardware thread, like
/// DataFusion. Overridable via FUSION_TARGET_PARTITIONS (tests and
/// benchmarks that need deterministic parallelism without plumbing a
/// config everywhere).
inline int DefaultTargetPartitions() {
  static const int value = [] {
    if (const char* env = std::getenv("FUSION_TARGET_PARTITIONS")) {
      int v = std::atoi(env);
      if (v > 0) return v;
    }
    unsigned hc = std::thread::hardware_concurrency();
    return hc == 0 ? 1 : static_cast<int>(hc);
  }();
  return value;
}

/// Default plan-cache capacity; FUSION_PLAN_CACHE_ENTRIES overrides
/// (0 disables the cache).
inline int DefaultPlanCacheEntries() {
  static const int value = [] {
    if (const char* env = std::getenv("FUSION_PLAN_CACHE_ENTRIES")) {
      int v = std::atoi(env);
      if (v >= 0) return v;
    }
    return 64;
  }();
  return value;
}

/// Default admission-control concurrency bound; 0 (the default) turns
/// admission off. FUSION_ADMISSION_MAX_CONCURRENT overrides.
inline int DefaultAdmissionMaxConcurrent() {
  static const int value = [] {
    if (const char* env = std::getenv("FUSION_ADMISSION_MAX_CONCURRENT")) {
      int v = std::atoi(env);
      if (v >= 0) return v;
    }
    return 0;
  }();
  return value;
}

/// Default runtime-filter mode; FUSION_RUNTIME_FILTERS=off|force|auto
/// overrides per process (tests sweep all three without replumbing).
inline std::string DefaultRuntimeFilterMode() {
  static const std::string value = [] {
    if (const char* env = std::getenv("FUSION_RUNTIME_FILTERS")) {
      std::string v = env;
      if (v == "off" || v == "force" || v == "auto") return v;
    }
    return std::string("auto");
  }();
  return value;
}

/// Per-session tunables (paper §5.5: batch size, partitioning).
struct SessionConfig {
  /// Target rows per batch flowing between Streams.
  int64_t batch_size = 8192;
  /// Parallelism: number of partitions scans split into and hash
  /// aggregates merge into (DataFusion's `target_partitions`). Parallel
  /// by default; the TIE baseline stays pinned at one partition so the
  /// paper's single-threaded architectural comparison is preserved.
  int target_partitions = DefaultTargetPartitions();
  /// Per-query deadline applied at execution start (0 = none). Queries
  /// exceeding it fail with Status::Cancelled("query deadline
  /// exceeded"). Explicit tokens passed to ExecuteSql get the same
  /// deadline armed on top of client-driven Cancel().
  int64_t timeout_ms = 0;
  /// Enable/disable specific optimizations (ablation switches).
  bool enable_predicate_pushdown = true;
  bool enable_topk = true;
  /// Adaptive pre-aggregation bypass: after `agg_bypass_probe_rows`
  /// input rows, a build task whose observed groups/rows ratio is at
  /// least 0.8 stops pre-aggregating and passes rows through as per-row
  /// partial state (DataFusion's skip-partial optimization).
  /// FUSION_AGG_BYPASS=off|force overrides per process.
  int64_t agg_bypass_probe_rows = 100000;
  /// Logical-plan cache capacity (entries); 0 disables. Repeated query
  /// templates skip parse-independent optimize+normalize work.
  int plan_cache_entries = DefaultPlanCacheEntries();
  /// Admission control (serving layer): maximum queries allowed to
  /// execute concurrently per scheduler; 0 disables admission entirely.
  int admission_max_concurrent = DefaultAdmissionMaxConcurrent();
  /// Queries allowed to queue behind the running set before new
  /// arrivals are rejected with ResourcesExhausted.
  int admission_max_queued = 64;
  /// Runtime Bloom-filter pushdown (sideways information passing):
  /// "off" never installs filters (plans and results match a build
  /// without the feature), "force" installs one wherever structurally
  /// possible, "auto" (default) only when the build side is estimated
  /// both small and selective against the probe side.
  std::string runtime_filter_mode = DefaultRuntimeFilterMode();
};

}  // namespace exec
}  // namespace fusion

#endif  // FUSION_EXEC_RUNTIME_ENV_H_
