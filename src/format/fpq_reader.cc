#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <climits>
#include <cstring>
#include <memory>
#include <mutex>
#include <utility>

#include "common/fault_injector.h"
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

/// A selected page, checked once against its size: where its validity
/// bits (nullptr when the page has no nulls), its values (fixed-width
/// values, boolean bits, dictionary codes, or num_rows + 1 string
/// offsets) and its string bytes begin.
struct PageView {
  int64_t first_row = 0;
  int64_t num_rows = 0;
  const uint8_t* validity = nullptr;
  const uint8_t* values = nullptr;
  const uint8_t* string_data = nullptr;
};

/// An int32 at any alignment (page sections follow a one-byte flag).
int32_t LoadInt32(const uint8_t* p) {
  int32_t v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

/// Check a page before any of its rows is copied: its validity bits and
/// values lie inside it, and string offsets are non-negative,
/// non-decreasing and end inside the page's string bytes.
Result<PageView> CheckPage(const PageMeta& meta, DataType type, Encoding encoding,
                           const uint8_t* data) {
  const uint64_t n = static_cast<uint64_t>(meta.num_rows);
  const uint64_t bitmap_bytes =
      static_cast<uint64_t>(bit_util::BytesForBits(meta.num_rows));
  uint64_t pos = 0;
  // Claim the page's next `len` bytes.
  auto claim = [&](uint64_t len, const uint8_t** out) -> Status {
    if (len > meta.size - pos) return Status::IOError("fpq: truncated page");
    *out = data + pos;
    pos += len;
    return Status::OK();
  };
  PageView page;
  page.first_row = meta.first_row;
  page.num_rows = meta.num_rows;
  const uint8_t* has_validity = nullptr;
  FUSION_RETURN_NOT_OK(claim(1, &has_validity));
  if (*has_validity != 0) FUSION_RETURN_NOT_OK(claim(bitmap_bytes, &page.validity));
  if (encoding == Encoding::kDictionary) {
    FUSION_RETURN_NOT_OK(claim(n * 4, &page.values));
  } else if (type.is_bool()) {
    FUSION_RETURN_NOT_OK(claim(bitmap_bytes, &page.values));
  } else if (type.is_string()) {
    FUSION_RETURN_NOT_OK(claim((n + 1) * 4, &page.values));
    const uint8_t* len_bytes = nullptr;
    FUSION_RETURN_NOT_OK(claim(8, &len_bytes));
    uint64_t data_len;
    std::memcpy(&data_len, len_bytes, sizeof(data_len));
    FUSION_RETURN_NOT_OK(claim(data_len, &page.string_data));
    int32_t prev = LoadInt32(page.values);
    bool ordered = prev >= 0;
    for (uint64_t i = 1; i <= n; ++i) {
      const int32_t next = LoadInt32(page.values + 4 * i);
      ordered &= next >= prev;
      prev = next;
    }
    if (!ordered || static_cast<uint64_t>(prev) > data_len) {
      return Status::IOError("fpq: invalid string offsets");
    }
  } else {
    FUSION_RETURN_NOT_OK(
        claim(n * static_cast<uint64_t>(type.byte_width()), &page.values));
  }
  return page;
}

/// The rows a selection picks from a column chunk's checked pages.
struct SelectedRows {
  const std::vector<PageView>& pages;
  const RowSelection& selection;
  int64_t count;

  /// Walk the pages and the selection's ranges together, calling
  /// `piece(page, offset, length, out_pos)` for each run of selected
  /// rows inside one page: rows [offset, offset + length) of `page` go
  /// to output row `out_pos` on.
  template <typename Fn>
  void ForEachPiece(Fn&& piece) const {
    const auto& ranges = selection.ranges();
    size_t next = 0;  // the first range that may reach the current page
    int64_t out_pos = 0;
    for (const PageView& page : pages) {
      const int64_t end = page.first_row + page.num_rows;
      while (next < ranges.size() && ranges[next].end <= page.first_row) ++next;
      for (size_t r = next; r < ranges.size() && ranges[r].start < end; ++r) {
        const int64_t start = std::max(ranges[r].start, page.first_row);
        const int64_t length = std::min(ranges[r].end, end) - start;
        piece(page, start - page.first_row, length, out_pos);
        out_pos += length;
      }
    }
  }
};

/// The output validity, or null when no selected row is null. When a
/// selected page has nulls it starts all-valid, and each piece of such a
/// page copies its bits.
BufferPtr GatherValidity(const SelectedRows& rows, int64_t* nulls) {
  *nulls = 0;
  if (std::none_of(rows.pages.begin(), rows.pages.end(),
                   [](const PageView& page) { return page.validity != nullptr; })) {
    return nullptr;
  }
  auto validity = std::make_shared<Buffer>(bit_util::BytesForBits(rows.count));
  std::memset(validity->mutable_data(), 0xff, static_cast<size_t>(validity->size()));
  rows.ForEachPiece([&](const PageView& page, int64_t offset, int64_t length,
                        int64_t out_pos) {
    if (page.validity == nullptr) return;
    bit_util::CopyBits(page.validity, offset, validity->mutable_data(), out_pos,
                       length);
  });
  *nulls = rows.count - bit_util::CountSetBits(validity->data(), rows.count);
  if (*nulls == 0) return nullptr;
  // Bits past the last row stay clear, as a builder leaves them.
  if (rows.count % 8 != 0) {
    validity->mutable_data()[rows.count / 8] &=
        static_cast<uint8_t>((1u << (rows.count % 8)) - 1);
  }
  return validity;
}

/// Fixed-width values or dictionary codes: one memcpy per piece, then a
/// null slot reads as zero.
BufferPtr GatherFixedWidth(const SelectedRows& rows, int64_t width,
                           const Buffer* validity) {
  auto values = std::make_shared<Buffer>(rows.count * width);
  uint8_t* out = values->mutable_data();
  rows.ForEachPiece([&](const PageView& page, int64_t offset, int64_t length,
                        int64_t out_pos) {
    std::memcpy(out + out_pos * width, page.values + offset * width,
                static_cast<size_t>(length * width));
  });
  if (validity != nullptr) {
    for (int64_t i = 0; i < rows.count; ++i) {
      if (!bit_util::GetBit(validity->data(), i)) {
        std::memset(out + i * width, 0, static_cast<size_t>(width));
      }
    }
  }
  return values;
}

/// Boolean values: a bit copy per piece, then a null slot reads false.
BufferPtr GatherBits(const SelectedRows& rows, const Buffer* validity) {
  auto bits = std::make_shared<Buffer>(bit_util::BytesForBits(rows.count));
  rows.ForEachPiece([&](const PageView& page, int64_t offset, int64_t length,
                        int64_t out_pos) {
    bit_util::CopyBits(page.values, offset, bits->mutable_data(), out_pos, length);
  });
  if (validity != nullptr) {
    for (int64_t b = 0; b < bits->size(); ++b) {
      bits->mutable_data()[b] &= validity->data()[b];
    }
  }
  return bits;
}

/// Strings: rebased offsets and one byte copy per piece. A null row
/// takes no bytes, so it reads as an empty string.
Result<ArrayPtr> GatherStrings(const SelectedRows& rows, BufferPtr validity,
                               int64_t nulls) {
  int64_t total = 0;
  rows.ForEachPiece([&](const PageView& page, int64_t offset, int64_t length,
                        int64_t /*out_pos*/) {
    total += LoadInt32(page.values + 4 * (offset + length)) -
             LoadInt32(page.values + 4 * offset);
  });
  if (total > INT32_MAX) {
    return Status::IOError("fpq: string column exceeds 2 GiB");
  }
  auto offsets = std::make_shared<Buffer>((rows.count + 1) * 4);
  auto data = std::make_shared<Buffer>();
  data->Reserve(total);
  int32_t* out = offsets->mutable_data_as<int32_t>();
  out[0] = 0;
  rows.ForEachPiece([&](const PageView& page, int64_t offset, int64_t length,
                        int64_t out_pos) {
    const uint8_t* offs = page.values + 4 * offset;
    if (page.validity == nullptr) {
      const int32_t first = LoadInt32(offs);
      const int32_t base = out[out_pos] - first;
      for (int64_t k = 1; k <= length; ++k) {
        out[out_pos + k] = LoadInt32(offs + 4 * k) + base;
      }
      data->Append(page.string_data + first, out[out_pos + length] - out[out_pos]);
      return;
    }
    for (int64_t k = 0; k < length; ++k) {
      if (bit_util::GetBit(page.validity, offset + k)) {
        const int32_t begin = LoadInt32(offs + 4 * k);
        data->Append(page.string_data + begin, LoadInt32(offs + 4 * k + 4) - begin);
      }
      out[out_pos + k + 1] = static_cast<int32_t>(data->size());
    }
  });
  return ArrayPtr(std::make_shared<StringArray>(rows.count, std::move(offsets),
                                                std::move(data), std::move(validity),
                                                nulls));
}

ArrayPtr MakeFixedWidthArray(DataType type, int64_t length, BufferPtr values,
                             BufferPtr validity, int64_t nulls) {
  if (type.byte_width() == 4) {
    return std::make_shared<Int32Array>(type, length, std::move(values),
                                        std::move(validity), nulls);
  }
  if (type.byte_width() == 16) {
    return std::make_shared<Decimal128Array>(type, length, std::move(values),
                                             std::move(validity), nulls);
  }
  if (type.id() == TypeId::kFloat64) {
    return std::make_shared<Float64Array>(type, length, std::move(values),
                                          std::move(validity), nulls);
  }
  return std::make_shared<Int64Array>(type, length, std::move(values),
                                      std::move(validity), nulls);
}

}  // namespace

Result<std::shared_ptr<StringArray>> Reader::ChunkDictionary(int rg, int col) {
  const size_t slot =
      static_cast<size_t>(rg) * static_cast<size_t>(meta_.schema->num_fields()) +
      static_cast<size_t>(col);
  {
    std::lock_guard<std::mutex> lock(dicts_mutex_);
    if (auto dict = dicts_[slot].lock()) return dict;
  }
  const ColumnChunkMeta& chunk = meta_.row_groups[rg].columns[col];
  std::vector<uint8_t> bytes(chunk.dict_size);
  FUSION_RETURN_NOT_OK(ReadAt(chunk.offset, chunk.dict_size, bytes.data()));
  FUSION_ASSIGN_OR_RAISE(auto entries, ParseDict(bytes.data(), bytes.size()));
  std::shared_ptr<StringArray> dict = BuildSharedDict(entries);
  std::lock_guard<std::mutex> lock(dicts_mutex_);
  // A concurrent scan of another range may have built it meanwhile.
  if (auto built = dicts_[slot].lock()) return built;
  dicts_[slot] = dict;
  return dict;
}

Result<ArrayPtr> Reader::ReadColumnChunk(int rg, int col, RowSelection::Range scope,
                                         const RowSelection& selection,
                                         ScanMetrics* metrics) {
  const ColumnChunkMeta& chunk = meta_.row_groups[rg].columns[col];
  DataType type = meta_.schema->field(col).type();

  // Pick the pages to decode, then read one span from the first picked
  // page to the last: a range scan reads only its own pages, not the
  // whole chunk.
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
  std::shared_ptr<StringArray> dict;
  if (chunk.encoding == Encoding::kDictionary) {
    FUSION_ASSIGN_OR_RAISE(dict, ChunkDictionary(rg, col));
  }
  // Every byte is read before it is used, so the span is not zeroed.
  std::unique_ptr<uint8_t[]> bytes(new uint8_t[span_end - span_begin]);
  if (span_end > span_begin) {
    FUSION_RETURN_NOT_OK(ReadAt(chunk.offset + chunk.dict_size + span_begin,
                                span_end - span_begin, bytes.get()));
  }
  std::vector<PageView> views;
  views.reserve(pages.size());
  for (const PageMeta* page : pages) {
    FUSION_ASSIGN_OR_RAISE(
        PageView view, CheckPage(*page, type, chunk.encoding,
                                 bytes.get() + (page->offset - span_begin)));
    views.push_back(view);
  }

  // Copy the selected rows straight from the page bytes into the output
  // buffers (paper §6.8 step 4).
  const SelectedRows rows{views, selection, selection.CountRows()};
  int64_t nulls = 0;
  BufferPtr validity = GatherValidity(rows, &nulls);
  if (dict != nullptr) {
    // Dictionary chunks stay encoded end to end: the pages give int32
    // codes into the chunk's one shared dictionary.
    BufferPtr codes = GatherFixedWidth(rows, 4, validity.get());
    const int32_t* code = codes->data_as<int32_t>();
    const uint64_t dict_size = static_cast<uint64_t>(dict->length());
    for (int64_t i = 0; i < rows.count; ++i) {
      if (static_cast<uint32_t>(code[i]) >= dict_size &&
          (validity == nullptr || bit_util::GetBit(validity->data(), i))) {
        return Status::IOError("fpq: dict code out of range");
      }
    }
    return ArrayPtr(std::make_shared<DictionaryArray>(
        rows.count, std::move(codes), std::move(dict), std::move(validity), nulls));
  }
  switch (type.id()) {
    case TypeId::kBool: {
      BufferPtr bits = GatherBits(rows, validity.get());
      return ArrayPtr(std::make_shared<BooleanArray>(rows.count, std::move(bits),
                                                     std::move(validity), nulls));
    }
    case TypeId::kString:
      return GatherStrings(rows, std::move(validity), nulls);
    default: {
      BufferPtr values = GatherFixedWidth(rows, type.byte_width(), validity.get());
      return MakeFixedWidthArray(type, rows.count, std::move(values),
                                 std::move(validity), nulls);
    }
  }
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
                                            ScanMetrics* metrics) {
  const RowGroupMeta& rg_meta = meta_.row_groups[rg];
  if (rows.start < 0 || rows.start > rows.end || rows.end > rg_meta.num_rows) {
    return Status::Invalid("fpq: row range " + std::to_string(rows.start) + ".." +
                           std::to_string(rows.end) + " outside row group " +
                           std::to_string(rg));
  }
  if (metrics != nullptr) {
    ++metrics->row_groups_read;
    metrics->rows_total += rows.end - rows.start;
  }
  // Late materialization (paper §6.8 steps 2-4), starting from the range.
  RowSelection selection;
  selection.AddRange(rows.start, rows.end);

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
