#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <utility>

#include "arrow/builder.h"
#include "common/fault_injector.h"
#include "compute/selection.h"
#include "format/fpq.h"
#include "format/fpq_internal.h"

namespace fusion {
namespace format {
namespace fpq {

using internal::ByteReader;

Reader::~Reader() {
  if (fd_ >= 0) ::close(fd_);
}

Status Reader::ReadAt(uint64_t offset, uint64_t size, uint8_t* out) const {
  FUSION_RETURN_NOT_OK(FaultInjector::Maybe("fpq.read"));
  uint64_t done = 0;
  while (done < size) {
    ssize_t n = ::pread(fd_, out + done, size - done,
                        static_cast<off_t>(offset + done));
    if (n <= 0) return Status::IOError("fpq: pread failed on " + path_);
    done += static_cast<uint64_t>(n);
  }
  return Status::OK();
}

namespace {

/// Closes the file on every early return of Reader::Open.
class FdGuard {
 public:
  explicit FdGuard(int fd) : fd_(fd) {}
  FdGuard(const FdGuard&) = delete;
  FdGuard& operator=(const FdGuard&) = delete;
  ~FdGuard() {
    if (fd_ >= 0) ::close(fd_);
  }
  int Release() { return std::exchange(fd_, -1); }

 private:
  int fd_;
};

/// True if [offset, offset + size) lies inside [0, limit).
bool SpanWithin(uint64_t offset, uint64_t size, uint64_t limit) {
  return size <= limit && offset <= limit - size;
}

/// The fewest bits a page spends per row: dictionary codes and string
/// offsets are 4 bytes, booleans one bit. It bounds what decoding a
/// page allocates by the page's size on disk.
uint64_t MinBitsPerRow(DataType type, Encoding encoding) {
  if (encoding == Encoding::kDictionary || type.is_string()) return 32;
  if (type.is_bool()) return 1;
  return std::max<uint64_t>(1, static_cast<uint64_t>(type.byte_width()) * 8);
}

/// Footer checks that keep decoding inside the file: a chunk and its
/// Bloom filter lie before the footer (`data_end`), the dictionary and
/// pages lie inside the chunk, and the pages cover the row group's rows
/// in order, each at least MinBitsPerRow bits a row.
Status ValidateChunk(const ColumnChunkMeta& chunk, DataType type, int64_t rg_rows,
                     uint64_t data_end) {
  if (chunk.encoding != Encoding::kPlain &&
      (chunk.encoding != Encoding::kDictionary || !type.is_string())) {
    return Status::IOError("fpq: invalid column encoding");
  }
  if (!SpanWithin(chunk.offset, chunk.size, data_end)) {
    return Status::IOError("fpq: column chunk extends past the footer");
  }
  if (chunk.dict_size > chunk.size) {
    return Status::IOError("fpq: dictionary larger than its column chunk");
  }
  if (chunk.bloom_size > 0 &&
      (!SpanWithin(chunk.bloom_offset, chunk.bloom_size, data_end) ||
       chunk.bloom_size % BloomFilter::kBlockBytes != 0)) {
    return Status::IOError("fpq: invalid Bloom filter span");
  }
  const uint64_t data_size = chunk.size - chunk.dict_size;
  const uint64_t bits = MinBitsPerRow(type, chunk.encoding);
  int64_t next_row = 0;
  for (const PageMeta& page : chunk.pages) {
    if (!SpanWithin(page.offset, page.size, data_size)) {
      return Status::IOError("fpq: page extends past its column chunk");
    }
    if (page.first_row != next_row || page.num_rows <= 0 ||
        page.num_rows > rg_rows - next_row) {
      return Status::IOError("fpq: pages do not cover their row group");
    }
    if (static_cast<uint64_t>(page.num_rows) > page.size * 8 / bits) {
      return Status::IOError("fpq: page too small for its rows");
    }
    next_row += page.num_rows;
  }
  if (next_row != rg_rows) {
    return Status::IOError("fpq: pages do not cover their row group");
  }
  return Status::OK();
}

/// Parse the footer. `data_end` is where the footer starts: every span
/// the footer names must end before it.
Result<FileMeta> ParseFooter(const std::vector<uint8_t>& footer, bool has_ndv,
                             uint64_t data_end) {
  ByteReader r(footer.data(), footer.size());
  FileMeta meta;
  FUSION_ASSIGN_OR_RAISE(uint32_t num_fields, r.U32());
  std::vector<Field> fields;
  for (uint32_t i = 0; i < num_fields; ++i) {
    FUSION_ASSIGN_OR_RAISE(std::string name, r.Str());
    FUSION_ASSIGN_OR_RAISE(uint8_t type_id, r.U8());
    FUSION_ASSIGN_OR_RAISE(uint8_t nullable, r.U8());
    if (type_id < static_cast<uint8_t>(TypeId::kBool) ||
        type_id > static_cast<uint8_t>(TypeId::kDecimal128)) {
      return Status::IOError("fpq: unsupported column type " +
                             std::to_string(type_id));
    }
    DataType type(static_cast<TypeId>(type_id));
    if (static_cast<TypeId>(type_id) == TypeId::kDecimal128) {
      FUSION_ASSIGN_OR_RAISE(uint8_t precision, r.U8());
      FUSION_ASSIGN_OR_RAISE(uint8_t scale, r.U8());
      if (!ValidDecimalParams(precision, scale)) {
        return Status::IOError("fpq: invalid decimal parameters");
      }
      type = decimal128(precision, scale);
    }
    fields.emplace_back(std::move(name), type, nullable != 0);
  }
  meta.schema = std::make_shared<Schema>(std::move(fields));
  FUSION_ASSIGN_OR_RAISE(uint64_t num_rows, r.U64());
  meta.num_rows = static_cast<int64_t>(num_rows);
  FUSION_ASSIGN_OR_RAISE(uint32_t num_rgs, r.U32());
  uint64_t rows_in_groups = 0;
  for (uint32_t g = 0; g < num_rgs; ++g) {
    RowGroupMeta rg;
    FUSION_ASSIGN_OR_RAISE(uint64_t rg_rows, r.U64());
    if (rg_rows > num_rows - rows_in_groups) {
      return Status::IOError("fpq: row groups exceed the file's row count");
    }
    rows_in_groups += rg_rows;
    rg.num_rows = static_cast<int64_t>(rg_rows);
    for (uint32_t c = 0; c < num_fields; ++c) {
      DataType type = meta.schema->field(static_cast<int>(c)).type();
      ColumnChunkMeta chunk;
      FUSION_ASSIGN_OR_RAISE(uint8_t enc, r.U8());
      chunk.encoding = static_cast<Encoding>(enc);
      FUSION_ASSIGN_OR_RAISE(chunk.offset, r.U64());
      FUSION_ASSIGN_OR_RAISE(chunk.size, r.U64());
      FUSION_ASSIGN_OR_RAISE(chunk.dict_size, r.U64());
      FUSION_ASSIGN_OR_RAISE(chunk.stats.min, internal::ReadScalar(&r, type));
      FUSION_ASSIGN_OR_RAISE(chunk.stats.max, internal::ReadScalar(&r, type));
      FUSION_ASSIGN_OR_RAISE(uint64_t nulls, r.U64());
      chunk.stats.null_count = static_cast<int64_t>(nulls);
      chunk.stats.row_count = rg.num_rows;
      if (has_ndv) {
        FUSION_ASSIGN_OR_RAISE(uint64_t ndv, r.U64());
        chunk.stats.ndv = static_cast<int64_t>(ndv);
      }
      FUSION_ASSIGN_OR_RAISE(chunk.bloom_offset, r.U64());
      FUSION_ASSIGN_OR_RAISE(chunk.bloom_size, r.U64());
      FUSION_ASSIGN_OR_RAISE(uint32_t num_pages, r.U32());
      for (uint32_t p = 0; p < num_pages; ++p) {
        PageMeta page;
        FUSION_ASSIGN_OR_RAISE(uint64_t first_row, r.U64());
        FUSION_ASSIGN_OR_RAISE(uint64_t page_rows, r.U64());
        page.first_row = static_cast<int64_t>(first_row);
        page.num_rows = static_cast<int64_t>(page_rows);
        FUSION_ASSIGN_OR_RAISE(page.offset, r.U64());
        FUSION_ASSIGN_OR_RAISE(page.size, r.U64());
        FUSION_ASSIGN_OR_RAISE(page.stats.min, internal::ReadScalar(&r, type));
        FUSION_ASSIGN_OR_RAISE(page.stats.max, internal::ReadScalar(&r, type));
        FUSION_ASSIGN_OR_RAISE(uint64_t page_nulls, r.U64());
        page.stats.null_count = static_cast<int64_t>(page_nulls);
        page.stats.row_count = page.num_rows;
        chunk.pages.push_back(std::move(page));
      }
      FUSION_RETURN_NOT_OK(ValidateChunk(chunk, type, rg.num_rows, data_end));
      rg.columns.push_back(std::move(chunk));
    }
    meta.row_groups.push_back(std::move(rg));
  }
  if (rows_in_groups != num_rows) {
    return Status::IOError("fpq: row groups do not add up to the file's row count");
  }
  return meta;
}

}  // namespace

Result<std::shared_ptr<Reader>> Reader::Open(const std::string& path) {
  const int raw_fd = ::open(path.c_str(), O_RDONLY);
  if (raw_fd < 0) return Status::IOError("fpq: cannot open " + path);
  FdGuard fd(raw_fd);
  const off_t file_size = ::lseek(raw_fd, 0, SEEK_END);
  if (file_size < 12) return Status::IOError("fpq: file too small: " + path);
  uint8_t tail[12];
  if (::pread(raw_fd, tail, 12, file_size - 12) != 12) {
    return Status::IOError("fpq: cannot read trailer: " + path);
  }
  uint64_t footer_len;
  uint32_t magic;
  std::memcpy(&footer_len, tail, 8);
  std::memcpy(&magic, tail + 8, 4);
  if (magic != kMagic && magic != kMagicV2) {
    return Status::IOError("fpq: bad magic in " + path);
  }
  const uint64_t data_end = static_cast<uint64_t>(file_size) - 12;
  if (footer_len > data_end) {
    return Status::IOError("fpq: footer length exceeds the file: " + path);
  }
  std::vector<uint8_t> footer(footer_len);
  if (::pread(raw_fd, footer.data(), footer_len,
              static_cast<off_t>(data_end - footer_len)) !=
      static_cast<ssize_t>(footer_len)) {
    return Status::IOError("fpq: cannot read footer: " + path);
  }
  auto meta = ParseFooter(footer, magic == kMagicV2, data_end - footer_len);
  if (!meta.ok()) {
    return Status::IOError(meta.status().message() + " in " + path);
  }
  // Cache identity: path + size + mtime, so decoded-batch cache keys go
  // stale the moment the file is rewritten in place.
  struct stat st {};
  int64_t mtime_ns = 0;
  if (::fstat(raw_fd, &st) == 0) {
    mtime_ns = static_cast<int64_t>(st.st_mtim.tv_sec) * 1000000000 +
               st.st_mtim.tv_nsec;
  }
  auto reader =
      std::shared_ptr<Reader>(new Reader(path, fd.Release(), std::move(*meta)));
  reader->cache_identity_ = path + "|" + std::to_string(file_size) + "|" +
                            std::to_string(mtime_ns);
  return reader;
}

Result<bool> Reader::RowGroupMayMatch(int rg,
                                      const std::vector<ColumnPredicate>& preds) {
  const RowGroupMeta& meta = meta_.row_groups[rg];
  for (const ColumnPredicate& pred : preds) {
    int col = meta_.schema->GetFieldIndex(pred.column);
    if (col < 0) continue;
    const ColumnChunkMeta& chunk = meta.columns[col];
    // Step 1a: zone map.
    if (!StatsMayMatch(pred, chunk.stats)) return false;
    // Step 1b: Bloom filter for point predicates.
    if (chunk.bloom_size > 0 &&
        (pred.op == ColumnPredicate::Op::kEq ||
         pred.op == ColumnPredicate::Op::kIn)) {
      std::vector<uint32_t> blocks(chunk.bloom_size / 4);
      FUSION_RETURN_NOT_OK(ReadAt(chunk.bloom_offset, chunk.bloom_size,
                                  reinterpret_cast<uint8_t*>(blocks.data())));
      BloomFilter bloom(std::move(blocks));
      DataType type = meta_.schema->field(col).type();
      bool any = false;
      for (const Scalar& v : pred.values) {
        if (bloom.MightContain(BloomHashScalar(v, type))) {
          any = true;
          break;
        }
      }
      if (!any) return false;
    }
  }
  return true;
}

namespace {

/// Decode an entire plain page into an Array.
Result<ArrayPtr> DecodePlainPage(DataType type, int64_t n, const uint8_t* data,
                                 size_t size) {
  // Every length is checked against the page before it is allocated.
  ByteReader r(data, size);
  FUSION_ASSIGN_OR_RAISE(uint8_t has_validity, r.U8());
  BufferPtr validity;
  int64_t nulls = 0;
  if (has_validity) {
    int64_t vbytes = bit_util::BytesForBits(n);
    if (static_cast<uint64_t>(vbytes) > r.remaining()) {
      return Status::IOError("fpq: truncated page");
    }
    validity = std::make_shared<Buffer>(vbytes);
    FUSION_RETURN_NOT_OK(r.Raw(validity->mutable_data(), vbytes));
    nulls = n - bit_util::CountSetBits(validity->data(), n);
  }
  switch (type.id()) {
    case TypeId::kBool: {
      int64_t vbytes = bit_util::BytesForBits(n);
      if (static_cast<uint64_t>(vbytes) > r.remaining()) {
        return Status::IOError("fpq: truncated page");
      }
      auto values = std::make_shared<Buffer>(vbytes);
      FUSION_RETURN_NOT_OK(r.Raw(values->mutable_data(), vbytes));
      return ArrayPtr(std::make_shared<BooleanArray>(n, std::move(values),
                                                     std::move(validity), nulls));
    }
    case TypeId::kString: {
      if (static_cast<uint64_t>(n + 1) * 4 > r.remaining()) {
        return Status::IOError("fpq: truncated page");
      }
      auto offsets = std::make_shared<Buffer>((n + 1) * 4);
      FUSION_RETURN_NOT_OK(r.Raw(offsets->mutable_data(), (n + 1) * 4));
      FUSION_ASSIGN_OR_RAISE(uint64_t data_len, r.U64());
      if (data_len > r.remaining()) return Status::IOError("fpq: truncated page");
      const int32_t* offs = offsets->data_as<int32_t>();
      for (int64_t i = 0; i < n; ++i) {
        if (offs[i] < 0 || offs[i] > offs[i + 1]) {
          return Status::IOError("fpq: invalid string offsets");
        }
      }
      if (static_cast<uint64_t>(offs[n]) > data_len) {
        return Status::IOError("fpq: invalid string offsets");
      }
      auto bytes = std::make_shared<Buffer>(static_cast<int64_t>(data_len));
      FUSION_RETURN_NOT_OK(r.Raw(bytes->mutable_data(), data_len));
      return ArrayPtr(std::make_shared<StringArray>(n, std::move(offsets),
                                                    std::move(bytes),
                                                    std::move(validity), nulls));
    }
    default: {
      int width = type.byte_width();
      if (static_cast<uint64_t>(n) * width > r.remaining()) {
        return Status::IOError("fpq: truncated page");
      }
      auto values = std::make_shared<Buffer>(n * width);
      FUSION_RETURN_NOT_OK(r.Raw(values->mutable_data(), n * width));
      if (width == 4) {
        return ArrayPtr(std::make_shared<Int32Array>(type, n, std::move(values),
                                                     std::move(validity), nulls));
      }
      if (width == 16) {
        return ArrayPtr(std::make_shared<Decimal128Array>(
            type, n, std::move(values), std::move(validity), nulls));
      }
      if (type.id() == TypeId::kFloat64) {
        return ArrayPtr(std::make_shared<Float64Array>(type, n, std::move(values),
                                                       std::move(validity), nulls));
      }
      return ArrayPtr(std::make_shared<Int64Array>(type, n, std::move(values),
                                                   std::move(validity), nulls));
    }
  }
}

/// Materialize the per-chunk dictionary as a shared dense StringArray
/// (bytes copied out of the transient chunk buffer; every page of the
/// chunk and every downstream batch shares this one array).
std::shared_ptr<StringArray> BuildSharedDict(
    const std::vector<std::string_view>& dict) {
  int64_t total_bytes = 0;
  for (const auto& v : dict) total_bytes += static_cast<int64_t>(v.size());
  const int64_t count = static_cast<int64_t>(dict.size());
  auto offsets = std::make_shared<Buffer>((count + 1) * sizeof(int32_t));
  auto data = std::make_shared<Buffer>(total_bytes);
  int32_t* offs = offsets->mutable_data_as<int32_t>();
  uint8_t* out = data->mutable_data();
  int32_t pos = 0;
  offs[0] = 0;
  for (int64_t i = 0; i < count; ++i) {
    std::string_view v = dict[static_cast<size_t>(i)];
    std::memcpy(out + pos, v.data(), v.size());
    pos += static_cast<int32_t>(v.size());
    offs[i + 1] = pos;
  }
  return std::make_shared<StringArray>(count, std::move(offsets), std::move(data),
                                       nullptr, 0);
}

Result<std::vector<std::string_view>> ParseDict(const uint8_t* data, size_t size) {
  ByteReader r(data, size);
  FUSION_ASSIGN_OR_RAISE(uint32_t count, r.U32());
  std::vector<std::string_view> dict;
  // Each entry takes at least its 4-byte length: a corrupt count cannot
  // reserve more than the block holds.
  dict.reserve(std::min<size_t>(count, r.remaining() / 4));
  for (uint32_t i = 0; i < count; ++i) {
    FUSION_ASSIGN_OR_RAISE(uint32_t len, r.U32());
    if (r.remaining() < len) return Status::IOError("fpq: truncated dict");
    dict.emplace_back(reinterpret_cast<const char*>(r.cursor()), len);
    FUSION_RETURN_NOT_OK(r.Skip(len));
  }
  return dict;
}

}  // namespace

Result<ArrayPtr> Reader::ReadColumnChunk(int rg, int col, RowSelection::Range scope,
                                         const RowSelection& selection,
                                         ScanMetrics* metrics) {
  const ColumnChunkMeta& chunk = meta_.row_groups[rg].columns[col];
  DataType type = meta_.schema->field(col).type();

  // Pick the pages to decode, then read the dictionary plus one span
  // from the first picked page to the last: a range scan reads only its
  // own pages, not the whole chunk.
  std::vector<const PageMeta*> pages;
  uint64_t span_begin = UINT64_MAX;
  uint64_t span_end = 0;
  for (const PageMeta& page : chunk.pages) {
    const int64_t page_end = page.first_row + page.num_rows;
    if (page_end <= scope.start || page.first_row >= scope.end) continue;
    if (!selection.Overlaps(page.first_row, page_end)) {
      if (metrics != nullptr) ++metrics->pages_skipped;
      continue;
    }
    if (metrics != nullptr) ++metrics->pages_read;
    pages.push_back(&page);
    span_begin = std::min(span_begin, page.offset);
    span_end = std::max(span_end, page.offset + page.size);
  }
  if (pages.empty()) span_begin = span_end = 0;
  std::vector<uint8_t> bytes(chunk.dict_size + (span_end - span_begin));
  if (chunk.dict_size > 0) {
    FUSION_RETURN_NOT_OK(ReadAt(chunk.offset, chunk.dict_size, bytes.data()));
  }
  if (span_end > span_begin) {
    FUSION_RETURN_NOT_OK(ReadAt(chunk.offset + chunk.dict_size + span_begin,
                                span_end - span_begin,
                                bytes.data() + chunk.dict_size));
  }
  auto page_bytes = [&](const PageMeta& page) {
    return bytes.data() + chunk.dict_size + (page.offset - span_begin);
  };
  const int64_t out_rows = selection.CountRows();

  if (chunk.encoding == Encoding::kDictionary) {
    // Dictionary chunks stay encoded end-to-end: the chunk's dictionary
    // is materialized once as a shared StringArray and pages contribute
    // only int32 codes, gathered straight from the raw page bytes
    // (RowSelection take paths touch codes, never string data).
    FUSION_ASSIGN_OR_RAISE(auto dict, ParseDict(bytes.data(), chunk.dict_size));
    std::shared_ptr<StringArray> shared_dict = BuildSharedDict(dict);
    auto codes =
        std::make_shared<Buffer>(out_rows * static_cast<int64_t>(sizeof(int32_t)));
    int32_t* codes_out = codes->mutable_data_as<int32_t>();
    BufferPtr validity;
    int64_t nulls = 0;
    int64_t out_pos = 0;
    for (const PageMeta* page : pages) {
      const uint8_t* page_data = page_bytes(*page);
      if (page->size < 1) return Status::IOError("fpq: truncated dict page");
      const bool has_validity = page_data[0] != 0;
      const int64_t vbytes =
          has_validity ? bit_util::BytesForBits(page->num_rows) : 0;
      if (static_cast<uint64_t>(1 + vbytes + page->num_rows * 4) > page->size) {
        return Status::IOError("fpq: truncated dict page");
      }
      const uint8_t* page_validity = has_validity ? page_data + 1 : nullptr;
      const uint8_t* page_codes = page_data + 1 + vbytes;
      auto emit = [&](int64_t first, int64_t end_row) -> Status {
        for (int64_t r = first; r < end_row; ++r) {
          const int64_t i = r - page->first_row;
          uint32_t code;
          std::memcpy(&code, page_codes + i * 4, 4);
          const bool valid = !has_validity || bit_util::GetBit(page_validity, i);
          if (valid && code >= dict.size()) {
            return Status::IOError("fpq: dict code out of range");
          }
          codes_out[out_pos] = valid ? static_cast<int32_t>(code) : 0;
          if (!valid) {
            if (validity == nullptr) {
              validity =
                  std::make_shared<Buffer>(bit_util::BytesForBits(out_rows));
              std::memset(validity->mutable_data(), 0xff,
                          static_cast<size_t>(validity->size()));
            }
            bit_util::ClearBit(validity->mutable_data(), out_pos);
            ++nulls;
          }
          ++out_pos;
        }
        return Status::OK();
      };
      const int64_t page_end = page->first_row + page->num_rows;
      for (const auto& range : selection.ranges()) {
        int64_t start = std::max(range.start, page->first_row);
        int64_t end = std::min(range.end, page_end);
        if (start < end) FUSION_RETURN_NOT_OK(emit(start, end));
      }
    }
    return ArrayPtr(std::make_shared<DictionaryArray>(out_rows, std::move(codes),
                                                      std::move(shared_dict),
                                                      std::move(validity), nulls));
  }

  FUSION_ASSIGN_OR_RAISE(auto builder, MakeBuilder(type));
  builder->Reserve(out_rows);
  for (const PageMeta* page : pages) {
    ArrayPtr decoded;
    FUSION_ASSIGN_OR_RAISE(decoded, DecodePlainPage(type, page->num_rows,
                                                    page_bytes(*page), page->size));
    const int64_t page_end = page->first_row + page->num_rows;
    for (const auto& range : selection.ranges()) {
      int64_t start = std::max(range.start, page->first_row);
      int64_t end = std::min(range.end, page_end);
      for (int64_t r = start; r < end; ++r) {
        builder->AppendFrom(*decoded, r - page->first_row);
      }
    }
  }
  return builder->Finish();
}

Result<RecordBatchPtr> Reader::ReadColumns(int rg, RowSelection::Range scope,
                                           const std::vector<int>& columns,
                                           const RowSelection& selection,
                                           ScanMetrics* metrics) {
  std::vector<ArrayPtr> out;
  out.reserve(columns.size());
  for (int col : columns) {
    FUSION_ASSIGN_OR_RAISE(auto arr,
                           ReadColumnChunk(rg, col, scope, selection, metrics));
    out.push_back(std::move(arr));
  }
  return std::make_shared<RecordBatch>(meta_.schema->Project(columns),
                                       selection.CountRows(), std::move(out));
}

Result<RecordBatchPtr> Reader::ScanRowGroup(int rg, RowSelection::Range rows,
                                            const std::vector<int>& projection,
                                            const std::vector<ColumnPredicate>& preds,
                                            bool late_materialization,
                                            ScanMetrics* metrics) {
  const RowGroupMeta& rg_meta = meta_.row_groups[rg];
  if (rows.start < 0 || rows.start > rows.end || rows.end > rg_meta.num_rows) {
    return Status::Invalid("fpq: row range " + std::to_string(rows.start) + ".." +
                           std::to_string(rows.end) + " outside row group " +
                           std::to_string(rg));
  }
  const int64_t num_rows = rows.end - rows.start;
  if (metrics != nullptr) {
    ++metrics->row_groups_read;
    metrics->rows_total += num_rows;
  }
  RowSelection range;
  range.AddRange(rows.start, rows.end);

  if (preds.empty() || !late_materialization) {
    // Decode the whole range, then filter row-by-row (used as the
    // ablation baseline and for predicates that could not be pushed).
    FUSION_ASSIGN_OR_RAISE(auto batch,
                           ReadColumns(rg, rows, projection, range, metrics));
    if (preds.empty()) {
      if (metrics != nullptr) metrics->rows_selected += batch->num_rows();
      return batch;
    }
    // Evaluate predicates over decoded columns; mask positions are
    // offsets into the range.
    std::vector<bool> mask(static_cast<size_t>(num_rows), true);
    for (const auto& pred : preds) {
      int col = meta_.schema->GetFieldIndex(pred.column);
      if (col < 0) return Status::KeyError("fpq: unknown column " + pred.column);
      // The predicate column may not be projected; decode if needed.
      ArrayPtr column;
      int proj_idx = -1;
      for (size_t i = 0; i < projection.size(); ++i) {
        if (projection[i] == col) proj_idx = static_cast<int>(i);
      }
      if (proj_idx >= 0) {
        column = batch->column(proj_idx);
      } else {
        FUSION_ASSIGN_OR_RAISE(column, ReadColumnChunk(rg, col, rows, range, metrics));
      }
      FUSION_ASSIGN_OR_RAISE(auto pred_mask, EvaluatePredicate(pred, *column));
      const auto& bm = checked_cast<BooleanArray>(*pred_mask);
      for (int64_t i = 0; i < num_rows; ++i) {
        if (!(bm.IsValid(i) && bm.Value(i))) mask[i] = false;
      }
    }
    RowSelection sel = RowSelection::FromMask(mask);
    if (metrics != nullptr) metrics->rows_selected += sel.CountRows();
    if (sel.CountRows() == num_rows) return batch;
    std::vector<int64_t> indices;
    indices.reserve(sel.CountRows());
    for (const auto& r : sel.ranges()) {
      for (int64_t i = r.start; i < r.end; ++i) indices.push_back(i);
    }
    // Take keeps dictionary columns encoded (codes move, bytes do not).
    return compute::TakeBatch(*batch, indices);
  }

  // Late materialization (paper §6.8 steps 2-4), starting from the range.
  RowSelection selection = std::move(range);

  // Step 2-3: evaluate each predicate column against the current
  // selection, refining it each time. Pages with zone maps that cannot
  // match are dropped without decoding.
  for (const auto& pred : preds) {
    if (selection.empty()) break;
    int col = meta_.schema->GetFieldIndex(pred.column);
    if (col < 0) return Status::KeyError("fpq: unknown column " + pred.column);
    const ColumnChunkMeta& chunk = rg_meta.columns[col];

    // Page-index pruning: restrict the selection to pages that may match.
    RowSelection page_sel = RowSelection::None();
    for (const PageMeta& page : chunk.pages) {
      if (StatsMayMatch(pred, page.stats)) {
        page_sel.AddRange(page.first_row, page.first_row + page.num_rows);
      }
    }
    selection = selection.Intersect(page_sel);
    if (selection.empty()) break;

    FUSION_ASSIGN_OR_RAISE(auto values,
                           ReadColumnChunk(rg, col, rows, selection, metrics));
    FUSION_ASSIGN_OR_RAISE(auto mask_arr, EvaluatePredicate(pred, *values));
    const auto& mask = checked_cast<BooleanArray>(*mask_arr);

    // Map mask positions (selection space) back to row-group rows.
    RowSelection refined = RowSelection::None();
    int64_t pos = 0;
    for (const auto& range : selection.ranges()) {
      for (int64_t r = range.start; r < range.end; ++r, ++pos) {
        if (mask.IsValid(pos) && mask.Value(pos)) {
          refined.AddRange(r, r + 1);
        }
      }
    }
    selection = std::move(refined);
  }

  if (metrics != nullptr) metrics->rows_selected += selection.CountRows();

  // Step 4: decode projected columns for the final selection only.
  return ReadColumns(rg, rows, projection, selection, metrics);
}

}  // namespace fpq
}  // namespace format
}  // namespace fusion
