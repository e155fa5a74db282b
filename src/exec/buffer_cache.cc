#include "exec/buffer_cache.h"

#include <chrono>
#include <cstdlib>

namespace fusion {
namespace exec {

namespace {
constexpr const char* kPoolConsumer = "buffer-cache";
constexpr int64_t kDefaultCapacityBytes = 256LL << 20;  // 256 MiB
}  // namespace

/// One cache slot. `ready == false` means a leader is decoding; waiters
/// re-check after parking. `cached == false` after publish means the
/// batch was too large (or the pool refused it): the entry serves the
/// pins that exist and is erased when the last one drops.
struct BufferCache::Pin::Entry {
  std::string key;
  RecordBatchPtr batch;
  int64_t bytes = 0;
  int64_t pin_count = 0;
  bool ready = false;
  bool cached = false;
  /// Scheduler the leader's query runs on; followers on the same
  /// scheduler park via the progress-epoch protocol (the leader's
  /// NotifyProgress wakes them), others poll the cache condvar.
  QueryScheduler* leader_scheduler = nullptr;
  std::list<std::string>::iterator lru_it;
};

const RecordBatchPtr& BufferCache::Pin::batch() const {
  static const RecordBatchPtr kNull;
  return entry_ != nullptr ? entry_->batch : kNull;
}

void BufferCache::Pin::Release() {
  if (entry_ != nullptr && cache_ != nullptr) {
    cache_->UnpinEntry(entry_);
  }
  entry_ = nullptr;
  cache_ = nullptr;
}

BufferCache::BufferCache(int64_t capacity_bytes, MemoryPoolPtr pool)
    : capacity_bytes_(capacity_bytes), pool_(std::move(pool)) {
  if (pool_ != nullptr) pool_->RegisterConsumer(kPoolConsumer);
}

BufferCache::~BufferCache() {
  if (pool_ != nullptr) {
    if (stats_.cached_bytes > 0) pool_->Shrink(kPoolConsumer, stats_.cached_bytes);
    pool_->DeregisterConsumer(kPoolConsumer);
  }
}

void BufferCache::PinLocked(const std::shared_ptr<Pin::Entry>& entry) {
  if (entry->pin_count++ == 0) stats_.pinned_bytes += entry->bytes;
}

void BufferCache::UnpinEntry(const std::shared_ptr<Pin::Entry>& entry) {
  std::lock_guard<std::mutex> lock(mu_);
  if (--entry->pin_count > 0) return;
  stats_.pinned_bytes -= entry->bytes;
  if (!entry->cached && entry->ready) {
    // Transient (uncacheable) entry: dies with its last pin. Guard
    // against the slot having been re-claimed after a Clear().
    auto it = entries_.find(entry->key);
    if (it != entries_.end() && it->second == entry) entries_.erase(it);
  }
}

void BufferCache::EvictLocked(int64_t needed) {
  // Walk from the LRU end, skipping pinned entries — eviction must
  // never free batches an active scan still reads.
  auto it = lru_.end();
  while (stats_.cached_bytes + needed > capacity_bytes_ && it != lru_.begin()) {
    --it;
    auto entry_it = entries_.find(*it);
    if (entry_it == entries_.end()) {  // stale key; drop it
      it = lru_.erase(it);
      continue;
    }
    auto& entry = entry_it->second;
    if (entry->pin_count > 0) continue;
    stats_.cached_bytes -= entry->bytes;
    ++stats_.evictions;
    if (pool_ != nullptr) pool_->Shrink(kPoolConsumer, entry->bytes);
    entry->cached = false;
    entries_.erase(entry_it);
    it = lru_.erase(it);
  }
}

BufferCache::Pin BufferCache::Get(const std::string& key) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = entries_.find(key);
  if (it == entries_.end() || !it->second->ready) {
    ++stats_.misses;
    return Pin();
  }
  auto entry = it->second;
  ++stats_.hits;
  if (entry->cached) {
    lru_.erase(entry->lru_it);
    lru_.push_front(key);
    entry->lru_it = lru_.begin();
  }
  PinLocked(entry);
  return Pin(shared_from_this(), entry);
}

Result<BufferCache::Pin> BufferCache::GetOrDecode(
    const std::string& key,
    const std::function<Result<RecordBatchPtr>()>& decode, TaskGroup* group,
    const CancellationToken* token) {
  bool counted_coalesced = false;
  for (;;) {
    if (token != nullptr && token->CancelRequested()) {
      return token->CheckStatus();  // latch outside the cache lock
    }
    std::shared_ptr<Pin::Entry> entry;
    {
      std::unique_lock<std::mutex> lock(mu_);
      auto it = entries_.find(key);
      if (it != entries_.end()) {
        entry = it->second;
        if (entry->ready) {
          ++stats_.hits;
          if (entry->cached) {
            lru_.erase(entry->lru_it);
            lru_.push_front(key);
            entry->lru_it = lru_.begin();
          }
          PinLocked(entry);
          return Pin(shared_from_this(), entry);
        }
        // A leader is decoding this unit: coalesce instead of issuing a
        // redundant decode.
        if (!counted_coalesced) {
          ++stats_.coalesced;
          counted_coalesced = true;
        }
        if (group != nullptr && entry->leader_scheduler != nullptr &&
            group->scheduler() == entry->leader_scheduler) {
          // Progress-epoch wait. The epoch is read while the entry is
          // still !ready *under the cache lock*; the leader publishes
          // under the lock and bumps after releasing it, so the bump we
          // wait for is always in our future — no lost wakeup.
          uint64_t epoch = group->progress_epoch();
          lock.unlock();
          group->HelpOrWait(epoch, token);
        } else {
          // Cross-scheduler (or group-less) follower: bounded condvar
          // wait; the loop re-checks readiness and cancellation.
          cv_.wait_for(lock, std::chrono::milliseconds(5));
        }
        continue;
      }
      // Cold: become the leader. Leaders decode inline on their own
      // thread (never park), so coalescing cannot deadlock.
      entry = std::make_shared<Pin::Entry>();
      entry->key = key;
      entry->leader_scheduler = group != nullptr ? group->scheduler() : nullptr;
      entries_.emplace(key, entry);
      ++stats_.misses;
    }

    auto decoded = decode();
    if (!decoded.ok()) {
      {
        std::lock_guard<std::mutex> lock(mu_);
        auto it = entries_.find(key);
        if (it != entries_.end() && it->second == entry) entries_.erase(it);
      }
      // Wake followers; they retry as new leaders, so transient faults
      // (fpq.read injection) surface exactly as they would uncached.
      cv_.notify_all();
      if (group != nullptr) group->NotifyProgress();
      return decoded.status();
    }

    {
      std::lock_guard<std::mutex> lock(mu_);
      entry->batch = std::move(*decoded);
      entry->bytes = entry->batch != nullptr ? entry->batch->TotalBufferSize() : 0;
      entry->ready = true;
      // Best-effort admission: budget eviction first, then the pool.
      bool admit = entry->bytes <= capacity_bytes_;
      if (admit) {
        EvictLocked(entry->bytes);
        admit = stats_.cached_bytes + entry->bytes <= capacity_bytes_;
      }
      while (admit && pool_ != nullptr &&
             !pool_->Grow(kPoolConsumer, entry->bytes).ok()) {
        // The pool is tighter than our budget: give back LRU space and
        // retry; stop once nothing evictable remains.
        size_t before = entries_.size();
        EvictLocked(capacity_bytes_);  // force-evict everything unpinned
        if (entries_.size() == before) admit = false;
      }
      if (admit) {
        lru_.push_front(key);
        entry->lru_it = lru_.begin();
        entry->cached = true;
        stats_.cached_bytes += entry->bytes;
      } else {
        ++stats_.uncacheable;
      }
      PinLocked(entry);
    }
    cv_.notify_all();
    if (group != nullptr) group->NotifyProgress();
    return Pin(shared_from_this(), entry);
  }
}

void BufferCache::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto it = entries_.begin(); it != entries_.end();) {
    auto& entry = it->second;
    if (!entry->ready) {  // leader in flight; leave it
      ++it;
      continue;
    }
    if (entry->cached) {
      stats_.cached_bytes -= entry->bytes;
      if (pool_ != nullptr) pool_->Shrink(kPoolConsumer, entry->bytes);
      lru_.erase(entry->lru_it);
      entry->cached = false;
    }
    if (entry->pin_count > 0) {  // dies with its last pin
      ++it;
      continue;
    }
    it = entries_.erase(it);
  }
}

BufferCache::Stats BufferCache::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  Stats s = stats_;
  s.entries = static_cast<int64_t>(entries_.size());
  return s;
}

std::string BufferCache::DebugString() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::string out = "cache entries=" + std::to_string(entries_.size()) +
                    " hits=" + std::to_string(stats_.hits) +
                    " misses=" + std::to_string(stats_.misses) +
                    " coalesced=" + std::to_string(stats_.coalesced) + "\n";
  for (const auto& [key, e] : entries_) {
    out += "  " + key + " ready=" + std::to_string(e->ready) +
           " pins=" + std::to_string(e->pin_count) +
           " bytes=" + std::to_string(e->bytes) + "\n";
  }
  return out;
}

const BufferCachePtr& BufferCache::Default() {
  static const BufferCachePtr cache = [] {
    int64_t bytes = kDefaultCapacityBytes;
    if (const char* env = std::getenv("FUSION_BUFFER_CACHE_BYTES")) {
      char* end = nullptr;
      long long v = std::strtoll(env, &end, 10);
      if (end != env && v >= 0) bytes = static_cast<int64_t>(v);
    }
    return bytes == 0 ? BufferCachePtr() : std::make_shared<BufferCache>(bytes);
  }();
  return cache;
}

std::string BufferCacheKey(const std::string& file_identity, int row_group,
                           int64_t row_begin, int64_t row_end,
                           const std::vector<int>& projection,
                           const std::string& selection_fingerprint) {
  std::string key = file_identity;
  key += "|rg=";
  key += std::to_string(row_group);
  key += "|rows=";
  key += std::to_string(row_begin);
  key += "..";
  key += std::to_string(row_end);
  key += "|proj=";
  for (int col : projection) {
    key += std::to_string(col);
    key += ',';
  }
  key += "|sel=";
  key += selection_fingerprint;
  return key;
}

}  // namespace exec
}  // namespace fusion
