#ifndef FUSION_CATALOG_MEMORY_TABLE_H_
#define FUSION_CATALOG_MEMORY_TABLE_H_

#include <vector>

#include "catalog/table_provider.h"

namespace fusion {
namespace catalog {

/// \brief In-memory table over pre-loaded RecordBatches. Supports
/// projection pushdown and partitioned reads (batches are dealt to
/// fixed partitions by row count, see DealScanUnits).
class MemoryTable : public TableProvider {
 public:
  MemoryTable(SchemaPtr schema, std::vector<RecordBatchPtr> batches);

  static Result<std::shared_ptr<MemoryTable>> Make(
      SchemaPtr schema, std::vector<RecordBatchPtr> batches);

  SchemaPtr schema() const override { return schema_; }
  TableStatistics statistics() const override;
  Result<std::vector<BatchIteratorPtr>> Scan(const ScanRequest& request) override;
  std::string ToString() const override { return "MemoryTable"; }

  /// Declare a sort order the batches are known to satisfy.
  void SetSortOrder(std::vector<OrderedColumn> order) { order_ = std::move(order); }
  std::vector<OrderedColumn> sort_order() const override { return order_; }

  const std::vector<RecordBatchPtr>& batches() const { return batches_; }

  /// Append more rows (the "updates" part of the TableProvider API).
  Status Append(RecordBatchPtr batch);

 private:
  SchemaPtr schema_;
  std::vector<RecordBatchPtr> batches_;
  std::vector<OrderedColumn> order_;
};

}  // namespace catalog
}  // namespace fusion

#endif  // FUSION_CATALOG_MEMORY_TABLE_H_
