#include "arrow/record_batch.h"

#include <sstream>

namespace fusion {

Result<RecordBatchPtr> RecordBatch::Make(SchemaPtr schema,
                                         std::vector<ArrayPtr> columns) {
  if (static_cast<int>(columns.size()) != schema->num_fields()) {
    return Status::Invalid("RecordBatch: column count does not match schema");
  }
  int64_t rows = columns.empty() ? 0 : columns[0]->length();
  for (size_t i = 0; i < columns.size(); ++i) {
    if (columns[i]->length() != rows) {
      return Status::Invalid("RecordBatch: columns have differing lengths");
    }
    // A dictionary-encoded column satisfies a utf8 schema field: the
    // schema describes the logical type, the array the physical one.
    if (columns[i]->type() != schema->field(static_cast<int>(i)).type() &&
        !columns[i]->type().is_null() &&
        !(columns[i]->type().is_dictionary() &&
          schema->field(static_cast<int>(i)).type().is_string())) {
      return Status::TypeError(
          "RecordBatch: column '" + schema->field(static_cast<int>(i)).name() +
          "' type " + columns[i]->type().ToString() + " does not match schema type " +
          schema->field(static_cast<int>(i)).type().ToString());
    }
  }
  return std::make_shared<RecordBatch>(std::move(schema), rows, std::move(columns));
}

Result<ArrayPtr> RecordBatch::GetColumnByName(const std::string& name) const {
  int idx = schema_->GetFieldIndex(name);
  if (idx < 0) return Status::KeyError("no column named '" + name + "'");
  return columns_[idx];
}

Result<RecordBatchPtr> RecordBatch::Project(const std::vector<int>& indices) const {
  std::vector<ArrayPtr> cols;
  cols.reserve(indices.size());
  for (int i : indices) {
    if (i < 0 || i >= num_columns()) {
      return Status::Invalid("Project: column index out of range");
    }
    cols.push_back(columns_[i]);
  }
  return std::make_shared<RecordBatch>(schema_->Project(indices), num_rows_,
                                       std::move(cols));
}

RecordBatchPtr RecordBatch::Slice(int64_t offset, int64_t length) const {
  std::vector<ArrayPtr> cols;
  cols.reserve(columns_.size());
  for (const auto& c : columns_) {
    cols.push_back(c->Slice(offset, length));
  }
  return std::make_shared<RecordBatch>(schema_, length, std::move(cols));
}

bool RecordBatch::Equals(const RecordBatch& other) const {
  if (num_rows_ != other.num_rows_ || num_columns() != other.num_columns()) {
    return false;
  }
  for (int i = 0; i < num_columns(); ++i) {
    if (!ArraysEqual(*columns_[i], *other.columns_[i])) return false;
  }
  return true;
}

int64_t TotalBufferSize(const Array& array) {
  int64_t total = array.validity() ? array.validity()->size() : 0;
  switch (array.type().id()) {
    case TypeId::kString: {
      const auto& sa = checked_cast<StringArray>(array);
      return total + sa.offsets()->size() + sa.data()->size();
    }
    case TypeId::kDictionary: {
      const auto& da = checked_cast<DictionaryArray>(array);
      return total + da.codes()->size() + da.dictionary()->offsets()->size() +
             da.dictionary()->data()->size();
    }
    case TypeId::kBool:
      return total + checked_cast<BooleanArray>(array).values()->size();
    case TypeId::kNull:
      return total;
    default:
      return total + array.length() * array.type().byte_width();
  }
}

int64_t RecordBatch::TotalBufferSize() const {
  int64_t total = 0;
  for (const auto& c : columns_) total += fusion::TotalBufferSize(*c);
  return total;
}

std::string RecordBatch::ToString() const {
  std::ostringstream out;
  for (int c = 0; c < num_columns(); ++c) {
    if (c > 0) out << "\t";
    out << schema_->field(c).name();
  }
  out << "\n";
  for (int64_t r = 0; r < num_rows_; ++r) {
    for (int c = 0; c < num_columns(); ++c) {
      if (c > 0) out << "\t";
      out << columns_[c]->ValueToString(r);
    }
    out << "\n";
  }
  return out.str();
}

Result<RecordBatchPtr> ConcatenateBatches(const SchemaPtr& schema,
                                          const std::vector<RecordBatchPtr>& batches) {
  if (batches.empty()) {
    std::vector<ArrayPtr> cols;
    for (const auto& f : schema->fields()) {
      FUSION_ASSIGN_OR_RAISE(auto arr, MakeArrayOfNulls(f.type(), 0));
      cols.push_back(std::move(arr));
    }
    return RecordBatch::Make(schema, std::move(cols));
  }
  if (batches.size() == 1) return batches[0];
  std::vector<ArrayPtr> cols;
  int64_t rows = 0;
  for (const auto& b : batches) rows += b->num_rows();
  for (int c = 0; c < schema->num_fields(); ++c) {
    std::vector<ArrayPtr> chunks;
    chunks.reserve(batches.size());
    for (const auto& b : batches) {
      chunks.push_back(b->column(c));
    }
    FUSION_ASSIGN_OR_RAISE(auto merged, Concatenate(chunks));
    cols.push_back(std::move(merged));
  }
  return std::make_shared<RecordBatch>(schema, rows, std::move(cols));
}

std::vector<RecordBatchPtr> SliceBatch(const RecordBatchPtr& batch, int64_t max_rows) {
  std::vector<RecordBatchPtr> out;
  if (batch->num_rows() <= max_rows) {
    out.push_back(batch);
    return out;
  }
  int64_t offset = 0;
  while (offset < batch->num_rows()) {
    int64_t len = std::min(max_rows, batch->num_rows() - offset);
    out.push_back(batch->Slice(offset, len));
    offset += len;
  }
  return out;
}

}  // namespace fusion
