#ifndef FUSION_CORE_PLAN_CACHE_H_
#define FUSION_CORE_PLAN_CACHE_H_

#include <cstdint>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <string>

#include "exec/runtime_env.h"
#include "logical/plan.h"

namespace fusion {
namespace core {

/// \brief LRU of *optimized logical plans* keyed on the normalized
/// (serialized) unoptimized plan — Calcite's approach: keying on the
/// plan rather than SQL text makes equivalent DataFrame and SQL
/// templates share entries, and keeps the key independent of
/// whitespace/case.
///
/// The cached artifact is the optimized logical plan, NOT the physical
/// plan: physical operator instances are stateful one-shots (metrics
/// accumulate, lazily-built shared state like exchange queues cannot be
/// re-executed), while re-running the physical planner over a cached
/// optimized plan is cheap and always safe. What the cache skips is the
/// optimizer pass — the dominant cost of planning repeated templates.
///
/// Entries are invalidated wholesale via Invalidate() on catalog or
/// optimizer-rule changes; SessionContext folds an epoch it bumps on
/// each invalidation into the key as well, so a plan optimized before
/// an invalidation and stored after it is never hit. Counters go to the
/// shared exec::PlanCacheStats so the exec-layer footer can render them.
class PlanCache {
 public:
  PlanCache(size_t capacity, exec::PlanCacheStatsPtr stats)
      : capacity_(capacity), stats_(std::move(stats)) {}

  /// Cached optimized plan for `key`, or nullptr. Counts hit/miss.
  logical::PlanPtr Get(const std::string& key);
  void Put(const std::string& key, logical::PlanPtr plan);
  /// Drop everything (catalog or optimizer-rule change).
  void Invalidate();
  size_t entries() const;

 private:
  const size_t capacity_;
  exec::PlanCacheStatsPtr stats_;

  mutable std::mutex mu_;
  std::map<std::string, std::pair<logical::PlanPtr,
                                  std::list<std::string>::iterator>> entries_;
  std::list<std::string> lru_;  // most recent at front
};

}  // namespace core
}  // namespace fusion

#endif  // FUSION_CORE_PLAN_CACHE_H_
