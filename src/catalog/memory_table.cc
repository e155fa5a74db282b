#include "catalog/memory_table.h"

#include "compute/aggregate_kernels.h"

namespace fusion {
namespace catalog {

namespace {

/// Iterator over a fixed list of (already projected) batches.
class VectorBatchIterator : public BatchIterator {
 public:
  explicit VectorBatchIterator(std::vector<RecordBatchPtr> batches)
      : batches_(std::move(batches)) {}

  Result<RecordBatchPtr> Next() override {
    if (pos_ >= batches_.size()) return RecordBatchPtr(nullptr);
    return batches_[pos_++];
  }

 private:
  std::vector<RecordBatchPtr> batches_;
  size_t pos_ = 0;
};

}  // namespace

MemoryTable::MemoryTable(SchemaPtr schema, std::vector<RecordBatchPtr> batches)
    : schema_(std::move(schema)), batches_(std::move(batches)) {}

Result<std::shared_ptr<MemoryTable>> MemoryTable::Make(
    SchemaPtr schema, std::vector<RecordBatchPtr> batches) {
  for (const auto& b : batches) {
    if (!b->schema()->Equals(*schema)) {
      return Status::Invalid("MemoryTable: batch schema mismatch");
    }
  }
  return std::make_shared<MemoryTable>(std::move(schema), std::move(batches));
}

Status MemoryTable::Append(RecordBatchPtr batch) {
  if (!batch->schema()->Equals(*schema_)) {
    return Status::Invalid("MemoryTable::Append: schema mismatch");
  }
  batches_.push_back(std::move(batch));
  return Status::OK();
}

TableStatistics MemoryTable::statistics() const {
  TableStatistics stats;
  int64_t rows = 0;
  int64_t bytes = 0;
  for (const auto& b : batches_) {
    rows += b->num_rows();
    bytes += b->TotalBufferSize();
  }
  stats.num_rows = rows;
  stats.total_bytes = bytes;
  // Column-level zone data; cheap enough at memory-table sizes.
  stats.column_stats.resize(schema_->num_fields());
  for (int c = 0; c < schema_->num_fields(); ++c) {
    format::ColumnStats& cs = stats.column_stats[c];
    cs.row_count = rows;
    cs.min = Scalar::Null(schema_->field(c).type());
    cs.max = Scalar::Null(schema_->field(c).type());
    for (const auto& b : batches_) {
      const auto& col = b->column(c);
      cs.null_count += col->null_count();
      auto mn = compute::MinArray(*col);
      auto mx = compute::MaxArray(*col);
      if (mn.ok() && !mn->is_null() &&
          (cs.min.is_null() || mn->Compare(cs.min) < 0)) {
        cs.min = *mn;
      }
      if (mx.ok() && !mx->is_null() &&
          (cs.max.is_null() || mx->Compare(cs.max) > 0)) {
        cs.max = *mx;
      }
    }
  }
  return stats;
}

Result<std::vector<BatchIteratorPtr>> MemoryTable::Scan(const ScanRequest& request) {
  std::vector<int> projection = ResolveProjection(*schema_, request.projection);
  // Each batch is a scan unit.
  std::vector<RecordBatchPtr> units;
  int64_t remaining = request.limit < 0 ? INT64_MAX : request.limit;
  for (const auto& batch : batches_) {
    if (remaining <= 0) break;
    FUSION_ASSIGN_OR_RAISE(auto projected, batch->Project(projection));
    if (projected->num_rows() > remaining) {
      projected = projected->Slice(0, remaining);
    }
    remaining -= projected->num_rows();
    units.push_back(std::move(projected));
  }
  std::vector<BatchIteratorPtr> out;
  auto batch_rows = [](const RecordBatchPtr& b) { return b->num_rows(); };
  for (auto& part :
       DealScanUnits(std::move(units), request.target_partitions, batch_rows)) {
    out.push_back(std::make_unique<VectorBatchIterator>(std::move(part)));
  }
  return out;
}

}  // namespace catalog
}  // namespace fusion
