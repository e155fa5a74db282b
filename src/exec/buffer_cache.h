#ifndef FUSION_EXEC_BUFFER_CACHE_H_
#define FUSION_EXEC_BUFFER_CACHE_H_

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "arrow/record_batch.h"
#include "common/result.h"
#include "exec/cancellation.h"
#include "exec/memory_pool.h"
#include "exec/scheduler.h"

namespace fusion {
namespace exec {

class BufferCache;
using BufferCachePtr = std::shared_ptr<BufferCache>;

/// \brief Byte-budgeted LRU cache of *decoded* RecordBatches (paper
/// §6.8/§7.4). Decode cost dominates columnar scans, so the serving
/// layer caches the decoded Arrow representation of each (file, row
/// group, projection, selection) unit rather than raw file bytes.
///
/// Three properties make it safe under concurrent queries:
///
///  1. **Pinning.** Lookups return a Pin (RAII handle); a pinned entry
///     is never evicted, so eviction can never free batches a running
///     scan still reads. Unpinned entries are evicted in LRU order when
///     the byte budget overflows.
///
///  2. **Scan sharing.** N concurrent scans of the same cold unit
///     coalesce onto one decode: the first requester becomes the leader
///     and decodes inline (leaders never park, so there is no circular
///     wait); followers lend their thread to their query's other tasks
///     via the scheduler's progress-epoch protocol (TaskGroup::
///     HelpOrWait) until the leader publishes the batch. If the leader
///     fails — e.g. fpq.read fault injection — followers retry as new
///     leaders, so the cache stays transparent: callers see exactly the
///     errors the underlying decode would produce.
///
///  3. **Pool accounting.** Cached bytes are charged to an optional
///     MemoryPool under one long-lived consumer ("buffer-cache"), so a
///     FairMemoryPool splits its budget between the cache and query
///     state. When Grow is refused the cache evicts; if it still cannot
///     fit, the batch is handed to callers *uncached* (a transient
///     entry that dies with its last pin) — caching is best-effort,
///     never a correctness dependency.
///
/// Must be owned by shared_ptr (Pins keep the cache alive).
class BufferCache : public std::enable_shared_from_this<BufferCache> {
 public:
  /// `capacity_bytes` bounds cached (unpinned + pinned) bytes; `pool`
  /// optionally charges them to the session's memory accounting.
  explicit BufferCache(int64_t capacity_bytes, MemoryPoolPtr pool = nullptr);
  ~BufferCache();

  BufferCache(const BufferCache&) = delete;
  BufferCache& operator=(const BufferCache&) = delete;

  /// RAII pinned handle to a decoded batch. While alive, the entry
  /// cannot be evicted. Default-constructed/moved-from pins are empty.
  class Pin {
   public:
    Pin() = default;
    ~Pin() { Release(); }
    Pin(Pin&& other) noexcept
        : cache_(std::move(other.cache_)), entry_(std::move(other.entry_)) {
      other.entry_ = nullptr;
    }
    Pin& operator=(Pin&& other) noexcept {
      if (this != &other) {
        Release();
        cache_ = std::move(other.cache_);
        entry_ = std::move(other.entry_);
        other.entry_ = nullptr;
      }
      return *this;
    }
    Pin(const Pin&) = delete;
    Pin& operator=(const Pin&) = delete;

    explicit operator bool() const { return entry_ != nullptr; }
    /// The pinned batch (may be nullptr for an empty decode result).
    const RecordBatchPtr& batch() const;
    /// Drop the pin early.
    void Release();

   private:
    friend class BufferCache;
    struct Entry;
    Pin(BufferCachePtr cache, std::shared_ptr<Entry> entry)
        : cache_(std::move(cache)), entry_(std::move(entry)) {}

    BufferCachePtr cache_;
    std::shared_ptr<Entry> entry_;
  };

  /// Lookup without decoding; empty Pin on miss. Counts a hit/miss.
  Pin Get(const std::string& key);

  /// The scan path: return the cached batch for `key`, decoding via
  /// `decode` on a miss. Concurrent callers for the same key coalesce
  /// onto one decode (see class comment). `group`/`token` are the
  /// caller's query context: followers park through `group`'s
  /// progress-epoch protocol when they share the leader's scheduler
  /// (falling back to a bounded condvar wait otherwise) and honor
  /// `token` cancellation/deadlines while waiting. Both may be null.
  Result<Pin> GetOrDecode(const std::string& key,
                          const std::function<Result<RecordBatchPtr>()>& decode,
                          TaskGroup* group = nullptr,
                          const CancellationToken* token = nullptr);

  /// Drop every unpinned entry (pinned ones die with their last pin).
  void Clear();

  int64_t capacity_bytes() const { return capacity_bytes_; }

  /// Gauges/counters for EXPLAIN ANALYZE and bench --json.
  struct Stats {
    int64_t hits = 0;
    int64_t misses = 0;
    int64_t evictions = 0;
    /// Follower waits that coalesced onto an in-flight decode.
    int64_t coalesced = 0;
    /// Decoded batches too large (or pool-refused) to cache.
    int64_t uncacheable = 0;
    int64_t cached_bytes = 0;
    int64_t pinned_bytes = 0;
    int64_t entries = 0;
  };
  Stats stats() const;

  /// Debug: one line per entry (key, ready, pins) — diagnosing stalls.
  std::string DebugString() const;

  /// Process-wide cache sized by FUSION_BUFFER_CACHE_BYTES (bytes;
  /// default 256 MiB; "0" disables -> returns nullptr). Not charged to
  /// any pool: sessions that want accounting construct their own.
  static const BufferCachePtr& Default();

 private:
  /// Evict unpinned LRU entries (back first) until `needed` more bytes
  /// fit in the budget, or nothing evictable remains (best effort).
  void EvictLocked(int64_t needed);
  void PinLocked(const std::shared_ptr<Pin::Entry>& entry);
  void UnpinEntry(const std::shared_ptr<Pin::Entry>& entry);

  const int64_t capacity_bytes_;
  MemoryPoolPtr pool_;

  mutable std::mutex mu_;
  std::condition_variable cv_;  ///< wakes cross-scheduler followers
  std::map<std::string, std::shared_ptr<Pin::Entry>> entries_;
  std::list<std::string> lru_;  ///< most recent at front; cached entries only
  Stats stats_;
};

/// Builds the canonical cache key for one scan unit: rows
/// [row_begin, row_end) of a row group. `file_identity` must change when
/// the file's content may have (fpq::Reader exposes path+size+mtime);
/// `selection_fingerprint` covers pushed predicates +
/// late-materialization mode, since they change the decoded rows.
std::string BufferCacheKey(const std::string& file_identity, int row_group,
                           int64_t row_begin, int64_t row_end,
                           const std::vector<int>& projection,
                           const std::string& selection_fingerprint);

}  // namespace exec
}  // namespace fusion

#endif  // FUSION_EXEC_BUFFER_CACHE_H_
