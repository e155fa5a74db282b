#include <unordered_map>
#include <unordered_set>

#include "arrow/builder.h"
#include "compute/aggregate_kernels.h"
#include "compute/cast.h"
#include "compute/hash_kernels.h"
#include "common/hash_util.h"
#include "format/fpq.h"
#include "format/fpq_internal.h"

namespace fusion {
namespace format {
namespace fpq {

using internal::ByteWriter;

uint64_t BloomHashScalar(const Scalar& value, DataType column_type) {
  auto casted_res = compute::CastScalar(value, column_type);
  if (!casted_res.ok()) return 0;
  const Scalar& casted = *casted_res;
  if (casted.is_null()) return 0x9e3779b97f4a7c15ULL;
  switch (column_type.id()) {
    case TypeId::kInt32:
    case TypeId::kDate32: {
      int32_t v = static_cast<int32_t>(casted.int_value());
      uint64_t bits = 0;
      std::memcpy(&bits, &v, 4);
      return hash_util::HashInt64(bits);
    }
    case TypeId::kInt64:
    case TypeId::kTimestamp: {
      int64_t v = casted.int_value();
      uint64_t bits = 0;
      std::memcpy(&bits, &v, 8);
      return hash_util::HashInt64(bits);
    }
    case TypeId::kFloat64: {
      double v = casted.double_value();
      uint64_t bits = 0;
      std::memcpy(&bits, &v, 8);
      return hash_util::HashInt64(bits);
    }
    case TypeId::kBool:
      return hash_util::HashInt64(casted.bool_value() ? 1 : 2);
    case TypeId::kString:
      return hash_util::HashString(casted.string_value());
    case TypeId::kDecimal128:
      // Must match HashArray's per-value decimal hash for pruning.
      return casted.decimal_value().Hash();
    default:
      return 0;
  }
}

namespace {

ColumnStats ComputeStats(const Array& arr) {
  ColumnStats stats;
  stats.row_count = arr.length();
  stats.null_count = arr.null_count();
  auto min = compute::MinArray(arr);
  auto max = compute::MaxArray(arr);
  stats.min = min.ok() ? *min : Scalar::Null(arr.type());
  stats.max = max.ok() ? *max : Scalar::Null(arr.type());
  return stats;
}

/// Encode one page of values (already sliced to the page's rows).
void EncodePlainPage(const Array& page, ByteWriter* w) {
  const int64_t n = page.length();
  const bool has_validity = page.null_count() > 0;
  w->U8(has_validity ? 1 : 0);
  if (has_validity) {
    w->Raw(page.validity_bits(), static_cast<size_t>(bit_util::BytesForBits(n)));
  }
  switch (page.type().id()) {
    case TypeId::kBool:
      w->Raw(checked_cast<BooleanArray>(page).values()->data(),
             static_cast<size_t>(bit_util::BytesForBits(n)));
      break;
    case TypeId::kString: {
      const auto& sa = checked_cast<StringArray>(page);
      w->Raw(sa.raw_offsets(), static_cast<size_t>((n + 1) * 4));
      uint64_t data_len = static_cast<uint64_t>(sa.raw_offsets()[n]);
      w->U64(data_len);
      w->Raw(sa.data()->data(), data_len);
      break;
    }
    default: {
      int width = page.type().byte_width();
      const uint8_t* values;
      if (width == 4) {
        values = reinterpret_cast<const uint8_t*>(
            checked_cast<Int32Array>(page).raw_values());
      } else if (width == 16) {
        values = reinterpret_cast<const uint8_t*>(
            checked_cast<Decimal128Array>(page).raw_values());
      } else if (page.type().id() == TypeId::kFloat64) {
        values = reinterpret_cast<const uint8_t*>(
            checked_cast<Float64Array>(page).raw_values());
      } else {
        values = reinterpret_cast<const uint8_t*>(
            checked_cast<Int64Array>(page).raw_values());
      }
      w->Raw(values, static_cast<size_t>(n * width));
    }
  }
}

/// Encode one dictionary-coded page: validity + u32 codes.
void EncodeDictPage(const Array& page,
                    const std::unordered_map<std::string_view, uint32_t>& dict,
                    ByteWriter* w) {
  const int64_t n = page.length();
  const bool has_validity = page.null_count() > 0;
  w->U8(has_validity ? 1 : 0);
  if (has_validity) {
    w->Raw(page.validity_bits(), static_cast<size_t>(bit_util::BytesForBits(n)));
  }
  const auto& sa = checked_cast<StringArray>(page);
  for (int64_t i = 0; i < n; ++i) {
    uint32_t code = 0;
    if (page.IsValid(i)) {
      code = dict.at(sa.Value(i));
    }
    w->U32(code);
  }
}

}  // namespace

Writer::Writer(std::string path, SchemaPtr schema, WriteOptions options)
    : path_(std::move(path)), schema_(std::move(schema)), options_(options) {
  meta_.schema = schema_;
}

Writer::~Writer() {
  if (file_ != nullptr) std::fclose(file_);
}

Status Writer::Open() {
  file_ = std::fopen(path_.c_str(), "wb");
  if (file_ == nullptr) return Status::IOError("fpq: cannot open " + path_);
  return Status::OK();
}

Status Writer::WriteBatch(const RecordBatch& batch) {
  if (!batch.schema()->Equals(*schema_)) {
    return Status::Invalid("fpq: batch schema does not match file schema");
  }
  // The encoder chooses its own per-chunk dictionaries, so incoming
  // dictionary columns are densified here rather than threaded through
  // every stats/bloom/page path below.
  auto dense = compute::EnsureDenseBatch(std::make_shared<RecordBatch>(
      batch.schema(), batch.num_rows(), batch.columns()));
  buffered_.push_back(std::move(dense));
  buffered_rows_ += batch.num_rows();
  while (buffered_rows_ >= options_.row_group_rows) {
    FUSION_RETURN_NOT_OK(FlushRowGroup());
  }
  return Status::OK();
}

Status Writer::FlushRowGroup() {
  if (buffered_rows_ == 0) return Status::OK();
  const int64_t rg_rows = std::min(buffered_rows_, options_.row_group_rows);

  // Gather exactly rg_rows from the buffer.
  std::vector<RecordBatchPtr> take;
  std::vector<RecordBatchPtr> rest;
  int64_t got = 0;
  for (auto& b : buffered_) {
    if (got >= rg_rows) {
      rest.push_back(b);
      continue;
    }
    int64_t need = rg_rows - got;
    if (b->num_rows() <= need) {
      take.push_back(b);
      got += b->num_rows();
    } else {
      take.push_back(b->Slice(0, need));
      rest.push_back(b->Slice(need, b->num_rows() - need));
      got += need;
    }
  }
  buffered_ = std::move(rest);
  buffered_rows_ -= rg_rows;
  FUSION_ASSIGN_OR_RAISE(RecordBatchPtr rg_batch,
                         ConcatenateBatches(schema_, take));

  RowGroupMeta rg_meta;
  rg_meta.num_rows = rg_batch->num_rows();
  for (int c = 0; c < rg_batch->num_columns(); ++c) {
    const ArrayPtr& column = rg_batch->column(c);
    DataType type = column->type();
    ColumnChunkMeta chunk;
    chunk.offset = pos_;
    chunk.stats = ComputeStats(*column);

    // Decide the encoding: dictionary for low-cardinality strings.
    std::unordered_map<std::string_view, uint32_t> dict;
    std::vector<std::string_view> dict_entries;
    if (options_.enable_dictionary && type.is_string()) {
      const auto& sa = checked_cast<StringArray>(*column);
      for (int64_t i = 0; i < column->length(); ++i) {
        if (column->IsNull(i)) continue;
        auto [it, inserted] =
            dict.emplace(sa.Value(i), static_cast<uint32_t>(dict_entries.size()));
        if (inserted) dict_entries.push_back(sa.Value(i));
        if (static_cast<int64_t>(dict_entries.size()) >
            options_.dict_max_cardinality) {
          break;
        }
      }
      if (static_cast<int64_t>(dict_entries.size()) > options_.dict_max_cardinality ||
          static_cast<int64_t>(dict_entries.size()) * 2 > column->length()) {
        dict.clear();
        dict_entries.clear();
      }
    }
    chunk.encoding = dict_entries.empty() ? Encoding::kPlain : Encoding::kDictionary;
    if (chunk.encoding == Encoding::kDictionary) {
      // Exact distinct count for dictionary chunks.
      chunk.stats.ndv = static_cast<int64_t>(dict_entries.size());
    }

    ByteWriter chunk_bytes;
    if (chunk.encoding == Encoding::kDictionary) {
      chunk_bytes.U32(static_cast<uint32_t>(dict_entries.size()));
      for (std::string_view entry : dict_entries) {
        chunk_bytes.U32(static_cast<uint32_t>(entry.size()));
        chunk_bytes.Raw(entry.data(), entry.size());
      }
      chunk.dict_size = chunk_bytes.size();
    }

    // Split the chunk into pages.
    for (int64_t first = 0; first < rg_meta.num_rows;
         first += options_.page_rows) {
      int64_t n = std::min(options_.page_rows, rg_meta.num_rows - first);
      ArrayPtr page = column->Slice(first, n);
      PageMeta page_meta;
      page_meta.first_row = first;
      page_meta.num_rows = n;
      page_meta.offset = chunk_bytes.size() - chunk.dict_size;
      page_meta.stats = ComputeStats(*page);
      size_t before = chunk_bytes.size();
      if (chunk.encoding == Encoding::kDictionary) {
        EncodeDictPage(*page, dict, &chunk_bytes);
      } else {
        EncodePlainPage(*page, &chunk_bytes);
      }
      page_meta.size = chunk_bytes.size() - before;
      chunk.pages.push_back(std::move(page_meta));
    }

    chunk.size = chunk_bytes.size();
    if (std::fwrite(chunk_bytes.buffer().data(), 1, chunk_bytes.size(), file_) !=
        chunk_bytes.size()) {
      return Status::IOError("fpq: short write");
    }
    pos_ += chunk_bytes.size();

    // Bloom filter over distinct non-null values; the same hashes yield
    // the chunk's ndv estimate for the optimizer's zone statistics.
    if (options_.enable_bloom && !type.is_bool() && !type.is_null()) {
      std::vector<uint64_t> hashes;
      Status st = compute::HashArray(*column, /*seed=*/0, &hashes);
      if (st.ok()) {
        BloomFilter bloom(column->length());
        std::unordered_set<uint64_t> distinct;
        for (int64_t i = 0; i < column->length(); ++i) {
          if (column->IsValid(i)) {
            bloom.Insert(hashes[i]);
            if (chunk.stats.ndv < 0) distinct.insert(hashes[i]);
          }
        }
        if (chunk.stats.ndv < 0) {
          chunk.stats.ndv = static_cast<int64_t>(distinct.size());
        }
        chunk.bloom_offset = pos_;
        chunk.bloom_size = bloom.size_bytes();
        if (std::fwrite(bloom.blocks().data(), 1, bloom.size_bytes(), file_) !=
            static_cast<size_t>(bloom.size_bytes())) {
          return Status::IOError("fpq: short write (bloom)");
        }
        pos_ += bloom.size_bytes();
      }
    } else if (chunk.stats.ndv < 0 && !type.is_null()) {
      // No bloom filter (disabled, or a bool column): still estimate ndv
      // so the join costing has something to divide by.
      std::vector<uint64_t> hashes;
      if (compute::HashArray(*column, /*seed=*/0, &hashes).ok()) {
        std::unordered_set<uint64_t> distinct;
        for (int64_t i = 0; i < column->length(); ++i) {
          if (column->IsValid(i)) distinct.insert(hashes[i]);
        }
        chunk.stats.ndv = static_cast<int64_t>(distinct.size());
      }
    }
    rg_meta.columns.push_back(std::move(chunk));
  }
  meta_.num_rows += rg_meta.num_rows;
  meta_.row_groups.push_back(std::move(rg_meta));
  return Status::OK();
}

Status Writer::Close() {
  if (file_ == nullptr) return Status::OK();
  while (buffered_rows_ > 0) {
    FUSION_RETURN_NOT_OK(FlushRowGroup());
  }
  // Footer.
  ByteWriter footer;
  footer.U32(static_cast<uint32_t>(schema_->num_fields()));
  for (const Field& f : schema_->fields()) {
    footer.Str(f.name());
    footer.U8(static_cast<uint8_t>(f.type().id()));
    footer.U8(f.nullable() ? 1 : 0);
    if (f.type().is_decimal()) {
      // Parameter bytes only follow decimal ids, so pre-decimal footers
      // parse unchanged.
      footer.U8(static_cast<uint8_t>(f.type().precision()));
      footer.U8(static_cast<uint8_t>(f.type().scale()));
    }
  }
  footer.U64(static_cast<uint64_t>(meta_.num_rows));
  footer.U32(static_cast<uint32_t>(meta_.row_groups.size()));
  for (const RowGroupMeta& rg : meta_.row_groups) {
    footer.U64(static_cast<uint64_t>(rg.num_rows));
    for (size_t c = 0; c < rg.columns.size(); ++c) {
      const ColumnChunkMeta& chunk = rg.columns[c];
      DataType type = schema_->field(static_cast<int>(c)).type();
      footer.U8(static_cast<uint8_t>(chunk.encoding));
      footer.U64(chunk.offset);
      footer.U64(chunk.size);
      footer.U64(chunk.dict_size);
      internal::WriteScalar(&footer, chunk.stats.min, type);
      internal::WriteScalar(&footer, chunk.stats.max, type);
      footer.U64(static_cast<uint64_t>(chunk.stats.null_count));
      footer.U64(static_cast<uint64_t>(chunk.stats.ndv));
      footer.U64(chunk.bloom_offset);
      footer.U64(chunk.bloom_size);
      footer.U32(static_cast<uint32_t>(chunk.pages.size()));
      for (const PageMeta& page : chunk.pages) {
        footer.U64(static_cast<uint64_t>(page.first_row));
        footer.U64(static_cast<uint64_t>(page.num_rows));
        footer.U64(page.offset);
        footer.U64(page.size);
        internal::WriteScalar(&footer, page.stats.min, type);
        internal::WriteScalar(&footer, page.stats.max, type);
        footer.U64(static_cast<uint64_t>(page.stats.null_count));
      }
    }
  }
  uint64_t footer_len = footer.size();
  if (std::fwrite(footer.buffer().data(), 1, footer.size(), file_) != footer.size() ||
      std::fwrite(&footer_len, 8, 1, file_) != 1 ||
      std::fwrite(&kMagicV2, 4, 1, file_) != 1) {
    return Status::IOError("fpq: short write (footer)");
  }
  std::fclose(file_);
  file_ = nullptr;
  return Status::OK();
}

Status WriteFile(const std::string& path, const SchemaPtr& schema,
                 const std::vector<RecordBatchPtr>& batches,
                 const WriteOptions& options) {
  Writer writer(path, schema, options);
  FUSION_RETURN_NOT_OK(writer.Open());
  for (const auto& b : batches) {
    FUSION_RETURN_NOT_OK(writer.WriteBatch(*b));
  }
  return writer.Close();
}

}  // namespace fpq
}  // namespace format
}  // namespace fusion
