#include "format/csv.h"

#include "arrow/builder.h"
#include "common/fault_injector.h"
#include "compute/cast.h"
#include "compute/temporal.h"

namespace fusion {
namespace format {
namespace csv {

namespace {

constexpr size_t kReadChunk = 1 << 20;  // 1 MiB

/// Next complete line from `buffer` starting at `*pos` (quote-aware:
/// newlines inside double quotes do not terminate the record). Returns
/// false when no complete line remains.
bool NextLine(const std::string& buffer, size_t* pos, std::string_view* line,
              bool eof) {
  size_t start = *pos;
  if (start >= buffer.size()) return false;
  bool in_quotes = false;
  size_t i = start;
  for (; i < buffer.size(); ++i) {
    char c = buffer[i];
    if (c == '"') {
      in_quotes = !in_quotes;
    } else if (c == '\n' && !in_quotes) {
      size_t end = i;
      if (end > start && buffer[end - 1] == '\r') --end;
      *line = std::string_view(buffer).substr(start, end - start);
      *pos = i + 1;
      return true;
    }
  }
  if (eof && i > start) {
    size_t end = i;
    if (end > start && buffer[end - 1] == '\r') --end;
    *line = std::string_view(buffer).substr(start, end - start);
    *pos = i;
    return true;
  }
  return false;
}

void SplitLineView(std::string_view line, char delimiter,
                   std::vector<std::string_view>* fields, std::string* unescape_arena) {
  fields->clear();
  unescape_arena->clear();
  // All unescaped content fits in line.size() bytes; reserving up front
  // keeps the arena's storage stable so earlier field views stay valid.
  unescape_arena->reserve(line.size());
  size_t i = 0;
  const size_t n = line.size();
  while (true) {
    if (i < n && line[i] == '"') {
      // Quoted field; unescape "" into the arena only when needed.
      size_t start = ++i;
      bool has_escape = false;
      while (i < n) {
        if (line[i] == '"') {
          if (i + 1 < n && line[i + 1] == '"') {
            has_escape = true;
            i += 2;
          } else {
            break;
          }
        } else {
          ++i;
        }
      }
      if (!has_escape) {
        fields->push_back(line.substr(start, i - start));
      } else {
        size_t arena_start = unescape_arena->size();
        for (size_t j = start; j < i; ++j) {
          unescape_arena->push_back(line[j]);
          if (line[j] == '"') ++j;  // skip the doubled quote
        }
        fields->push_back(std::string_view(*unescape_arena)
                              .substr(arena_start,
                                      unescape_arena->size() - arena_start));
      }
      if (i < n) ++i;  // closing quote
      if (i < n && line[i] == delimiter) {
        ++i;
        continue;
      }
      break;
    }
    size_t start = i;
    while (i < n && line[i] != delimiter) ++i;
    fields->push_back(line.substr(start, i - start));
    if (i < n) {
      ++i;  // skip delimiter
      continue;
    }
    break;
  }
}

enum class InferredType { kInt64, kFloat64, kDate32, kBool, kString };

// A value infers a type exactly when a cast of it to that type parses.
bool LooksLikeInt(std::string_view s) {
  int64_t v = 0;
  return compute::ParseInt64(s, &v);
}

bool LooksLikeFloat(std::string_view s) {
  double v = 0;
  return compute::ParseFloat64(s, &v);
}

bool LooksLikeDate(std::string_view s) {
  for (size_t i = 0; i < s.size(); ++i) {
    if (i == 4 || i == 7 ? s[i] != '-' : (s[i] < '0' || s[i] > '9')) return false;
  }
  return s.size() == 10 && compute::ParseDate32(std::string(s)).ok();
}

bool LooksLikeBool(std::string_view s) {
  return s == "true" || s == "false" || s == "TRUE" || s == "FALSE";
}

}  // namespace

void SplitLine(const std::string& line, char delimiter,
               std::vector<std::string>* fields) {
  std::vector<std::string_view> views;
  std::string arena;
  SplitLineView(line, delimiter, &views, &arena);
  fields->clear();
  for (auto v : views) fields->emplace_back(v);
}

Result<SchemaPtr> InferSchema(const std::string& path, const Options& options) {
  if (options.schema != nullptr) return options.schema;
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return Status::IOError("csv: cannot open " + path);
  std::string buffer;
  buffer.resize(kReadChunk);
  size_t n = std::fread(buffer.data(), 1, buffer.size(), f);
  std::fclose(f);
  buffer.resize(n);

  size_t pos = 0;
  std::string_view line;
  std::vector<std::string_view> fields;
  std::string arena;

  std::vector<std::string> names;
  if (!NextLine(buffer, &pos, &line, /*eof=*/true)) {
    return Status::Invalid("csv: empty file " + path);
  }
  SplitLineView(line, options.delimiter, &fields, &arena);
  if (options.has_header) {
    for (auto f2 : fields) names.emplace_back(f2);
  } else {
    for (size_t i = 0; i < fields.size(); ++i) {
      names.push_back("column_" + std::to_string(i + 1));
    }
    pos = 0;  // re-parse the first line as data
  }
  const size_t num_cols = names.size();
  std::vector<InferredType> types(num_cols, InferredType::kInt64);
  std::vector<bool> seen(num_cols, false);

  int64_t rows = 0;
  while (rows < options.infer_rows && NextLine(buffer, &pos, &line, true)) {
    SplitLineView(line, options.delimiter, &fields, &arena);
    for (size_t c = 0; c < num_cols && c < fields.size(); ++c) {
      std::string_view v = fields[c];
      if (v.empty() || v == options.null_token) continue;
      seen[c] = true;
      // Demote the type until the value fits.
      while (true) {
        bool fits = false;
        switch (types[c]) {
          case InferredType::kInt64:
            fits = LooksLikeInt(v);
            break;
          case InferredType::kFloat64:
            fits = LooksLikeFloat(v);
            break;
          case InferredType::kDate32:
            fits = LooksLikeDate(v);
            break;
          case InferredType::kBool:
            fits = LooksLikeBool(v);
            break;
          case InferredType::kString:
            fits = true;
            break;
        }
        if (fits) break;
        switch (types[c]) {
          case InferredType::kInt64:
            // An int column seeing a float stays numeric; seeing a date
            // becomes a date; otherwise fall through toward string.
            if (LooksLikeFloat(v)) {
              types[c] = InferredType::kFloat64;
            } else if (LooksLikeDate(v)) {
              types[c] = InferredType::kDate32;
            } else if (LooksLikeBool(v)) {
              types[c] = InferredType::kBool;
            } else {
              types[c] = InferredType::kString;
            }
            break;
          case InferredType::kFloat64:
          case InferredType::kDate32:
          case InferredType::kBool:
            types[c] = InferredType::kString;
            break;
          case InferredType::kString:
            break;
        }
      }
    }
    ++rows;
  }

  std::vector<Field> schema_fields;
  for (size_t c = 0; c < num_cols; ++c) {
    DataType t = utf8();
    if (seen[c]) {
      switch (types[c]) {
        case InferredType::kInt64: t = int64(); break;
        case InferredType::kFloat64: t = float64(); break;
        case InferredType::kDate32: t = date32(); break;
        case InferredType::kBool: t = boolean(); break;
        case InferredType::kString: t = utf8(); break;
      }
    }
    schema_fields.emplace_back(names[c], t, true);
  }
  return std::make_shared<Schema>(std::move(schema_fields));
}

CsvReader::~CsvReader() {
  if (file_ != nullptr) std::fclose(file_);
}

Result<std::shared_ptr<CsvReader>> CsvReader::Open(const std::string& path,
                                                   const Options& options) {
  FUSION_ASSIGN_OR_RAISE(SchemaPtr schema, InferSchema(path, options));
  for (const Field& f : schema->fields()) {
    switch (f.type().id()) {
      case TypeId::kString:
      case TypeId::kBool:
      case TypeId::kInt32:
      case TypeId::kInt64:
      case TypeId::kFloat64:
      case TypeId::kDecimal128:
      case TypeId::kDate32:
      case TypeId::kTimestamp:
        break;
      default:
        return Status::TypeError("csv: cannot read column '" + f.name() + "' as " +
                                 f.type().ToString());
    }
  }
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return Status::IOError("csv: cannot open " + path);
  return std::shared_ptr<CsvReader>(new CsvReader(f, std::move(schema), options));
}

Result<bool> CsvReader::FillBuffer() {
  // Compact consumed bytes, then read another chunk.
  if (buffer_pos_ > 0) {
    buffer_.erase(0, buffer_pos_);
    buffer_pos_ = 0;
  }
  if (eof_) return !buffer_.empty();
  size_t old_size = buffer_.size();
  buffer_.resize(old_size + kReadChunk);
  size_t n = std::fread(buffer_.data() + old_size, 1, kReadChunk, file_);
  buffer_.resize(old_size + n);
  if (n < kReadChunk) eof_ = true;
  return !buffer_.empty();
}

Result<RecordBatchPtr> CsvReader::Next() {
  FUSION_RETURN_NOT_OK(FaultInjector::Maybe("csv.read"));
  std::vector<std::unique_ptr<ArrayBuilder>> builders;
  for (const Field& f : schema_->fields()) {
    FUSION_ASSIGN_OR_RAISE(auto b, MakeBuilder(f.type()));
    b->Reserve(options_.batch_rows);
    builders.push_back(std::move(b));
  }
  const size_t num_cols = builders.size();
  std::vector<std::string_view> fields;
  std::string arena;
  int64_t rows = 0;

  while (rows < options_.batch_rows) {
    std::string_view line;
    bool got_line = false;
    while (!(got_line = NextLine(buffer_, &buffer_pos_, &line, eof_))) {
      FUSION_ASSIGN_OR_RAISE(bool more, FillBuffer());
      if (!more) break;
    }
    if (!got_line) break;
    if (options_.has_header && !header_skipped_) {
      header_skipped_ = true;
      continue;
    }
    if (line.empty()) continue;
    SplitLineView(line, options_.delimiter, &fields, &arena);
    for (size_t c = 0; c < num_cols; ++c) {
      std::string_view v = c < fields.size() ? fields[c] : std::string_view();
      if (v.empty() || v == options_.null_token) {
        builders[c]->AppendNull();
        continue;
      }
      ArrayBuilder* builder = builders[c].get();
      int64_t int_value = 0;
      double float_value = 0;
      switch (schema_->field(static_cast<int>(c)).type().id()) {
        case TypeId::kString:
          static_cast<StringBuilder*>(builder)->Append(v);
          break;
        case TypeId::kBool:
          if (v == "true" || v == "TRUE" || v == "1") {
            static_cast<BooleanBuilder*>(builder)->Append(true);
          } else if (v == "false" || v == "FALSE" || v == "0") {
            static_cast<BooleanBuilder*>(builder)->Append(false);
          } else {
            builder->AppendNull();
          }
          break;
        // Numbers, decimals, dates and timestamps parse as CAST parses
        // text; int64 and float64, the types of most fields, inline.
        case TypeId::kInt64:
          if (compute::ParseInt64(v, &int_value)) {
            static_cast<NumericBuilder<int64_t>*>(builder)->Append(int_value);
          } else {
            builder->AppendNull();
          }
          break;
        case TypeId::kFloat64:
          if (compute::ParseFloat64(v, &float_value)) {
            static_cast<Float64Builder*>(builder)->Append(float_value);
          } else {
            builder->AppendNull();
          }
          break;
        default:
          FUSION_RETURN_NOT_OK(compute::AppendCastText(
              v, schema_->field(static_cast<int>(c)).type(), builder));
      }
    }
    ++rows;
  }
  if (rows == 0) return RecordBatchPtr(nullptr);
  std::vector<ArrayPtr> columns;
  for (auto& b : builders) {
    FUSION_ASSIGN_OR_RAISE(auto arr, b->Finish());
    columns.push_back(std::move(arr));
  }
  return std::make_shared<RecordBatch>(schema_, rows, std::move(columns));
}

Result<std::vector<RecordBatchPtr>> ReadFile(const std::string& path,
                                             const Options& options) {
  FUSION_ASSIGN_OR_RAISE(auto reader, CsvReader::Open(path, options));
  std::vector<RecordBatchPtr> out;
  for (;;) {
    FUSION_ASSIGN_OR_RAISE(auto batch, reader->Next());
    if (batch == nullptr) break;
    out.push_back(std::move(batch));
  }
  return out;
}

Status WriteFile(const std::string& path, const std::vector<RecordBatchPtr>& batches,
                 const Options& options) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) return Status::IOError("csv: cannot open for write " + path);
  std::string out;
  auto flush = [&]() -> Status {
    if (std::fwrite(out.data(), 1, out.size(), f) != out.size()) {
      std::fclose(f);
      return Status::IOError("csv: short write");
    }
    out.clear();
    return Status::OK();
  };
  bool header_written = false;
  for (const auto& batch : batches) {
    if (options.has_header && !header_written) {
      for (int c = 0; c < batch->num_columns(); ++c) {
        if (c > 0) out.push_back(options.delimiter);
        out += batch->schema()->field(c).name();
      }
      out.push_back('\n');
      header_written = true;
    }
    for (int64_t r = 0; r < batch->num_rows(); ++r) {
      for (int c = 0; c < batch->num_columns(); ++c) {
        if (c > 0) out.push_back(options.delimiter);
        const Array& col = *batch->column(c);
        if (col.IsNull(r)) continue;
        if (col.type().id() == TypeId::kDate32) {
          out += compute::FormatDate32(checked_cast<Int32Array>(col).Value(r));
        } else if (col.type().is_string_like()) {
          std::string_view v = StringLikeValue(col, r);
          bool needs_quotes =
              v.find(options.delimiter) != std::string_view::npos ||
              v.find('"') != std::string_view::npos ||
              v.find('\n') != std::string_view::npos;
          if (needs_quotes) {
            out.push_back('"');
            for (char ch : v) {
              if (ch == '"') out.push_back('"');
              out.push_back(ch);
            }
            out.push_back('"');
          } else {
            out.append(v);
          }
        } else {
          out += col.ValueToString(r);
        }
      }
      out.push_back('\n');
      if (out.size() > kReadChunk) {
        FUSION_RETURN_NOT_OK(flush());
      }
    }
  }
  FUSION_RETURN_NOT_OK(flush());
  std::fclose(f);
  return Status::OK();
}

}  // namespace csv
}  // namespace format
}  // namespace fusion
