#ifndef FUSION_ARROW_RECORD_BATCH_H_
#define FUSION_ARROW_RECORD_BATCH_H_

#include <memory>
#include <string>
#include <vector>

#include "arrow/array.h"
#include "arrow/type.h"
#include "common/result.h"

namespace fusion {

class RecordBatch;
using RecordBatchPtr = std::shared_ptr<RecordBatch>;

/// \brief A horizontal slice of a table: a schema plus equal-length
/// columns. The unit of data flow between Streams (default 8192 rows).
class RecordBatch {
 public:
  RecordBatch(SchemaPtr schema, int64_t num_rows, std::vector<ArrayPtr> columns)
      : schema_(std::move(schema)), num_rows_(num_rows), columns_(std::move(columns)) {}

  static Result<RecordBatchPtr> Make(SchemaPtr schema, std::vector<ArrayPtr> columns);

  /// Zero-column batch carrying only a row count (e.g. COUNT(*) scans).
  static RecordBatchPtr MakeEmpty(SchemaPtr schema, int64_t num_rows = 0) {
    return std::make_shared<RecordBatch>(std::move(schema), num_rows,
                                         std::vector<ArrayPtr>{});
  }

  const SchemaPtr& schema() const { return schema_; }
  int64_t num_rows() const { return num_rows_; }
  int num_columns() const { return static_cast<int>(columns_.size()); }
  const ArrayPtr& column(int i) const { return columns_[i]; }
  const std::vector<ArrayPtr>& columns() const { return columns_; }

  /// Column by name, or error.
  Result<ArrayPtr> GetColumnByName(const std::string& name) const;

  /// Batch with only the given column indices.
  Result<RecordBatchPtr> Project(const std::vector<int>& indices) const;

  /// Rows [offset, offset+length).
  RecordBatchPtr Slice(int64_t offset, int64_t length) const;

  bool Equals(const RecordBatch& other) const;

  /// Approximate in-memory footprint, used for MemoryPool accounting.
  int64_t TotalBufferSize() const;

  std::string ToString() const;

 private:
  SchemaPtr schema_;
  int64_t num_rows_;
  std::vector<ArrayPtr> columns_;
};

/// Approximate in-memory footprint of one array's buffers.
int64_t TotalBufferSize(const Array& array);

/// Concatenate row-compatible batches into one (used by pipeline
/// breakers and test helpers).
Result<RecordBatchPtr> ConcatenateBatches(const SchemaPtr& schema,
                                          const std::vector<RecordBatchPtr>& batches);

/// Split a batch into chunks of at most `max_rows` rows.
std::vector<RecordBatchPtr> SliceBatch(const RecordBatchPtr& batch, int64_t max_rows);

}  // namespace fusion

#endif  // FUSION_ARROW_RECORD_BATCH_H_
