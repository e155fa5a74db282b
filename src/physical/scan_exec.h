#ifndef FUSION_PHYSICAL_SCAN_EXEC_H_
#define FUSION_PHYSICAL_SCAN_EXEC_H_

#include <mutex>
#include <unordered_map>

#include "catalog/table_provider.h"
#include "compute/hash_kernels.h"
#include "compute/selection.h"
#include "physical/execution_plan.h"

namespace fusion {
namespace physical {

/// \brief Stream decorator that tests scan rows against runtime (Bloom)
/// filters published by a hash join's build side (sideways information
/// passing). Strictly non-blocking: a filter still kPending is skipped
/// for that batch, so a slow build never stalls the scan. Filtering is
/// late-materialized — only the key columns are hashed, and surviving
/// rows are gathered once at the end. Dictionary-encoded keys are tested
/// per distinct dictionary entry (cached per dictionary instance), not
/// per row.
class RuntimeFilterStream : public exec::RecordBatchStream {
 public:
  struct Target {
    int column;
    exec::RuntimeFilterPtr filter;
  };

  RuntimeFilterStream(exec::StreamPtr input, SchemaPtr schema,
                      std::vector<Target> targets, exec::MetricValuePtr checked,
                      exec::MetricValuePtr pruned)
      : input_(std::move(input)), schema_(std::move(schema)),
        targets_(std::move(targets)), dict_cache_(targets_.size()),
        checked_(std::move(checked)), pruned_(std::move(pruned)) {}

  const SchemaPtr& schema() const override { return schema_; }

  Result<RecordBatchPtr> Next() override {
    for (;;) {
      FUSION_ASSIGN_OR_RAISE(auto batch, input_->Next());
      if (batch == nullptr) return batch;
      const int64_t rows = batch->num_rows();
      if (rows == 0) return batch;
      std::vector<uint8_t> pass;  // allocated on the first ready filter
      for (size_t t = 0; t < targets_.size(); ++t) {
        if (!targets_[t].filter->ready()) continue;
        if (pass.empty()) pass.assign(static_cast<size_t>(rows), 1);
        FUSION_RETURN_NOT_OK(
            ApplyFilter(t, *batch->column(targets_[t].column), &pass));
      }
      if (pass.empty()) return batch;  // nothing ready yet: pass through
      checked_->Add(rows);
      std::vector<int64_t> keep;
      keep.reserve(static_cast<size_t>(rows));
      for (int64_t i = 0; i < rows; ++i) {
        if (pass[static_cast<size_t>(i)]) keep.push_back(i);
      }
      if (static_cast<int64_t>(keep.size()) == rows) return batch;
      pruned_->Add(rows - static_cast<int64_t>(keep.size()));
      if (keep.empty()) continue;  // fully pruned: fetch the next batch
      return compute::TakeBatch(*batch, keep);
    }
  }

 private:
  /// Clear `pass` bits for rows whose key cannot be in the build side.
  /// Null keys never match an equi-join key, so they are dropped too
  /// (the planner only attaches filters to join kinds where a
  /// non-matching probe row contributes nothing).
  Status ApplyFilter(size_t t, const Array& col, std::vector<uint8_t>* pass) {
    const format::BloomFilter& bloom = targets_[t].filter->bloom();
    const int64_t rows = col.length();
    if (col.type().is_dictionary()) {
      const auto& da = checked_cast<DictionaryArray>(col);
      auto& cache = dict_cache_[t];
      const void* dict_key = da.dictionary().get();
      auto it = cache.find(dict_key);
      if (it == cache.end()) {
        std::vector<uint64_t> hashes;
        FUSION_RETURN_NOT_OK(compute::HashArray(*da.dictionary(), 0, &hashes));
        std::vector<uint8_t> verdicts(hashes.size());
        for (size_t i = 0; i < hashes.size(); ++i) {
          verdicts[i] = bloom.MightContain(hashes[i]) ? 1 : 0;
        }
        it = cache.emplace(dict_key, std::move(verdicts)).first;
      }
      const std::vector<uint8_t>& verdicts = it->second;
      const int32_t* codes = da.raw_codes();
      for (int64_t i = 0; i < rows; ++i) {
        uint8_t& bit = (*pass)[static_cast<size_t>(i)];
        if (!bit) continue;
        if (da.IsNull(i) || !verdicts[static_cast<size_t>(codes[i])]) bit = 0;
      }
      return Status::OK();
    }
    std::vector<uint64_t> hashes;
    FUSION_RETURN_NOT_OK(compute::HashArray(col, 0, &hashes));
    for (int64_t i = 0; i < rows; ++i) {
      uint8_t& bit = (*pass)[static_cast<size_t>(i)];
      if (!bit) continue;
      if (col.IsNull(i) || !bloom.MightContain(hashes[static_cast<size_t>(i)])) {
        bit = 0;
      }
    }
    return Status::OK();
  }

  exec::StreamPtr input_;
  SchemaPtr schema_;
  std::vector<Target> targets_;
  /// Per-target verdict cache keyed by dictionary instance: files share
  /// dictionaries across chunks, so each distinct dictionary is hashed
  /// and tested against the Bloom filter exactly once.
  std::vector<std::unordered_map<const void*, std::vector<uint8_t>>> dict_cache_;
  exec::MetricValuePtr checked_;
  exec::MetricValuePtr pruned_;
};

/// \brief Leaf operator wrapping a TableProvider scan. The provider
/// receives the pushed projection/predicates/limit and decides its own
/// partitioning (paper §7.3): it deals its scan units into at most
/// `target_partitions` iterators (DealScanUnits), and each iterator is one
/// partition of this node. The assignment is fixed, so which partition
/// reads which rows never depends on thread timing.
class ScanExec : public ExecutionPlan {
 public:
  ScanExec(std::string table_name, catalog::TableProviderPtr provider,
           catalog::ScanRequest request, SchemaPtr output_schema)
      : table_name_(std::move(table_name)), provider_(std::move(provider)),
        request_(std::move(request)), schema_(std::move(output_schema)) {}

  std::string name() const override { return "ScanExec"; }
  SchemaPtr schema() const override { return schema_; }

  int output_partitions() const override {
    // A failed open is not dropped here: EnsureOpened caches the status
    // and the first ExecuteImpl returns it. Until the scan opens cleanly
    // this node reports a single partition.
    if (!EnsureOpened().ok()) return 1;
    return static_cast<int>(iterators_.size());
  }

  Result<exec::StreamPtr> ExecuteImpl(int partition, const ExecContextPtr&) override {
    FUSION_RETURN_NOT_OK(EnsureOpened());
    exec::StreamPtr out;
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (partition < 0 || partition >= static_cast<int>(iterators_.size()) ||
          iterators_[partition] == nullptr) {
        return Status::ExecutionError("scan partition already consumed or invalid");
      }
      out = std::make_unique<exec::IteratorStream>(
          schema_, std::move(iterators_[partition]));
    }
    // Row-level runtime filtering sits above the provider (and thus
    // above the buffer cache, whose keys stay filter-independent): test
    // the join-key columns against any ready filters, gather survivors.
    std::vector<RuntimeFilterStream::Target> targets;
    for (const auto& rsf : request_.runtime_filters) {
      if (rsf.filter == nullptr) continue;
      int idx = schema_->GetFieldIndex(rsf.column);
      if (idx >= 0) targets.push_back({idx, rsf.filter});
    }
    if (!targets.empty()) {
      auto checked = metrics_->Counter(exec::metric::kRfCheckedRows, partition);
      auto pruned = metrics_->Counter(exec::metric::kRfPrunedRows, partition);
      out = std::make_unique<RuntimeFilterStream>(
          std::move(out), schema_, std::move(targets), std::move(checked),
          std::move(pruned));
    }
    return out;
  }

  std::vector<OrderingInfo> output_ordering() const override {
    // Map the provider's declared order (paper §6.7) through the scan's
    // projection. Each scan partition individually satisfies it: a
    // partition reads its units in table order (DealScanUnits).
    std::vector<OrderingInfo> out;
    for (const catalog::OrderedColumn& oc : provider_->sort_order()) {
      int idx = schema_->GetFieldIndex(oc.column);
      if (idx < 0) break;
      out.push_back({idx, oc.options});
    }
    return out;
  }

  std::string ToStringLine() const override {
    std::string out = "ScanExec: " + table_name_;
    if (!request_.predicates.empty()) {
      out += " pushdown=[";
      for (size_t i = 0; i < request_.predicates.size(); ++i) {
        if (i > 0) out += ", ";
        out += request_.predicates[i].ToString();
      }
      out += "]";
    }
    if (request_.limit >= 0) out += " limit=" + std::to_string(request_.limit);
    if (!request_.runtime_filters.empty()) {
      out += " runtime_filter=[";
      for (size_t i = 0; i < request_.runtime_filters.size(); ++i) {
        if (i > 0) out += ", ";
        out += request_.runtime_filters[i].column;
      }
      out += "]";
    }
    return out;
  }

  const catalog::ScanRequest& request() const { return request_; }
  const catalog::TableProviderPtr& provider() const { return provider_; }

 private:
  Status EnsureOpened() const {
    std::lock_guard<std::mutex> lock(mu_);
    if (opened_) return open_status_;
    opened_ = true;
    auto result = provider_->Scan(request_);
    if (!result.ok()) {
      open_status_ = result.status();
      return open_status_;
    }
    iterators_ = std::move(*result);
    if (iterators_.empty()) {
      // Always expose at least one (empty) partition.
      class EmptyIterator : public catalog::BatchIterator {
       public:
        Result<RecordBatchPtr> Next() override { return RecordBatchPtr(nullptr); }
      };
      iterators_.push_back(std::make_unique<EmptyIterator>());
    }
    return Status::OK();
  }

  std::string table_name_;
  catalog::TableProviderPtr provider_;
  catalog::ScanRequest request_;
  SchemaPtr schema_;

  mutable std::mutex mu_;
  mutable bool opened_ = false;
  mutable Status open_status_;
  mutable std::vector<catalog::BatchIteratorPtr> iterators_;
};

}  // namespace physical
}  // namespace fusion

#endif  // FUSION_PHYSICAL_SCAN_EXEC_H_
