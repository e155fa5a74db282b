#ifndef FUSION_EXEC_RUNTIME_FILTER_H_
#define FUSION_EXEC_RUNTIME_FILTER_H_

#include <atomic>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "arrow/scalar.h"
#include "format/bloom.h"

namespace fusion {
namespace exec {

/// A join build of more rows than this publishes no runtime filter: its
/// Bloom filter, at 16 bits a build row, would take more than 8 MiB.
/// `auto` mode plans none for a build estimated above it.
inline constexpr int64_t kRfMaxBuildRows = 4'000'000;

/// \brief One sideways-information-passing channel: a hash join's build
/// side publishes a Bloom filter (plus min/max of the build keys) here,
/// and the probe-side scan consults it per batch.
///
/// The protocol is strictly non-blocking for the consumer: a scan that
/// finds the filter still kPending simply passes rows through, so a slow
/// (or failed, or never-started) build can never stall a probe. The
/// producer moves the state exactly once, either to kReady via Publish()
/// or to kBypass via Bypass(); payload fields are written before the
/// release-store on state_, so a consumer that observes kReady via the
/// acquire-load may read them without further synchronization.
class RuntimeFilter {
 public:
  enum class State : int { kPending = 0, kReady = 1, kBypass = 2 };

  RuntimeFilter(int64_t id, std::string column)
      : id_(id), column_(std::move(column)) {}

  int64_t id() const { return id_; }
  /// Probe-side scan column this filter applies to.
  const std::string& column() const { return column_; }

  State state() const { return state_.load(std::memory_order_acquire); }
  bool ready() const { return state() == State::kReady; }

  /// Producer side: install the filter payload and latch kReady.
  /// First transition wins; later calls are ignored.
  void Publish(format::BloomFilter bloom, Scalar min_key, Scalar max_key,
               int64_t build_rows) {
    std::lock_guard<std::mutex> lock(publish_mu_);
    if (state_.load(std::memory_order_relaxed) != State::kPending) return;
    bloom_ = std::make_shared<format::BloomFilter>(std::move(bloom));
    min_key_ = std::move(min_key);
    max_key_ = std::move(max_key);
    build_rows_ = build_rows;
    state_.store(State::kReady, std::memory_order_release);
  }

  /// Producer side: give up (build error, oversized build, plan path
  /// that never builds). Consumers fall back to pass-through forever.
  void Bypass() {
    std::lock_guard<std::mutex> lock(publish_mu_);
    if (state_.load(std::memory_order_relaxed) != State::kPending) return;
    state_.store(State::kBypass, std::memory_order_release);
  }

  /// Valid only after state() returned kReady.
  const format::BloomFilter& bloom() const { return *bloom_; }
  const Scalar& min_key() const { return min_key_; }
  const Scalar& max_key() const { return max_key_; }
  int64_t build_rows() const { return build_rows_; }

 private:
  const int64_t id_;
  const std::string column_;
  std::mutex publish_mu_;
  std::atomic<State> state_{State::kPending};
  std::shared_ptr<format::BloomFilter> bloom_;
  Scalar min_key_;
  Scalar max_key_;
  int64_t build_rows_ = 0;
};

using RuntimeFilterPtr = std::shared_ptr<RuntimeFilter>;

/// \brief Per-query registry of runtime filters, carried on the
/// ExecContext. The physical planner creates filters here when it marks
/// a selective hash join; plan nodes keep shared_ptrs, so the registry
/// mainly provides stable ids and an EXPLAIN-able inventory.
class RuntimeFilterRegistry {
 public:
  RuntimeFilterPtr Create(const std::string& column) {
    std::lock_guard<std::mutex> lock(mu_);
    auto rf = std::make_shared<RuntimeFilter>(next_id_++, column);
    filters_.push_back(rf);
    return rf;
  }

  std::vector<RuntimeFilterPtr> filters() const {
    std::lock_guard<std::mutex> lock(mu_);
    return filters_;
  }

 private:
  mutable std::mutex mu_;
  int64_t next_id_ = 0;
  std::vector<RuntimeFilterPtr> filters_;
};

using RuntimeFilterRegistryPtr = std::shared_ptr<RuntimeFilterRegistry>;

}  // namespace exec
}  // namespace fusion

#endif  // FUSION_EXEC_RUNTIME_FILTER_H_
