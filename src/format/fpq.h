#ifndef FUSION_FORMAT_FPQ_H_
#define FUSION_FORMAT_FPQ_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "arrow/record_batch.h"
#include "arrow/scalar.h"
#include "arrow/type.h"
#include "format/bloom.h"
#include "format/predicate.h"
#include "format/row_selection.h"
#include "common/result.h"

namespace fusion {
namespace format {
namespace fpq {

/// FPQ is the repository's from-scratch stand-in for Apache Parquet
/// (DESIGN.md §5.2): a footer-indexed columnar file with row groups,
/// pages, dictionary encoding, zone maps at row-group and page level,
/// and split-block Bloom filters. The reader implements the full
/// late-materialization pipeline of paper §6.8.

constexpr uint32_t kMagic = 0x46505131;  // "FPQ1"
/// V2 footers append a per-chunk distinct-value estimate (ndv) after
/// null_count. The reader accepts both; V1 files report ndv = -1.
constexpr uint32_t kMagicV2 = 0x46505132;  // "FPQ2"

enum class Encoding : uint8_t {
  kPlain = 0,
  kDictionary = 1,
};

/// Per-page metadata: location + zone map (the "Page Index").
struct PageMeta {
  int64_t first_row = 0;  // row offset within the row group
  int64_t num_rows = 0;
  uint64_t offset = 0;  // byte offset relative to the chunk's data section
  uint64_t size = 0;
  ColumnStats stats;
};

/// Per-column-chunk metadata within a row group.
struct ColumnChunkMeta {
  Encoding encoding = Encoding::kPlain;
  uint64_t offset = 0;  // absolute file offset of the chunk (incl. dict)
  uint64_t size = 0;    // total chunk bytes (dict + pages)
  uint64_t dict_size = 0;  // leading dictionary block bytes (0 if plain)
  ColumnStats stats;
  uint64_t bloom_offset = 0;  // absolute; 0 when absent
  uint64_t bloom_size = 0;
  std::vector<PageMeta> pages;
};

struct RowGroupMeta {
  int64_t num_rows = 0;
  std::vector<ColumnChunkMeta> columns;
};

struct FileMeta {
  SchemaPtr schema;
  std::vector<RowGroupMeta> row_groups;
  int64_t num_rows = 0;
};

struct WriteOptions {
  int64_t row_group_rows = 64 * 1024;
  int64_t page_rows = 8 * 1024;
  bool enable_bloom = true;
  /// Strings switch to dictionary encoding when the distinct count in a
  /// row group is at most this and below half the value count.
  int64_t dict_max_cardinality = 4096;
  bool enable_dictionary = true;
};

/// Hash used for Bloom filter insert/probe. Must be identical on the
/// write path (array values) and the read path (predicate scalars).
uint64_t BloomHashScalar(const Scalar& value, DataType column_type);

/// \brief Streaming FPQ writer: buffers batches and flushes a row group
/// every `row_group_rows` rows.
class Writer {
 public:
  Writer(std::string path, SchemaPtr schema, WriteOptions options = {});
  ~Writer();

  Status Open();
  Status WriteBatch(const RecordBatch& batch);
  /// Flush remaining rows and write the footer.
  Status Close();

 private:
  Status FlushRowGroup();

  std::string path_;
  SchemaPtr schema_;
  WriteOptions options_;
  std::FILE* file_ = nullptr;
  uint64_t pos_ = 0;
  std::vector<RecordBatchPtr> buffered_;
  int64_t buffered_rows_ = 0;
  FileMeta meta_;
};

/// Convenience one-shot write.
Status WriteFile(const std::string& path, const SchemaPtr& schema,
                 const std::vector<RecordBatchPtr>& batches,
                 const WriteOptions& options = {});

/// Per-scan counters surfaced by the reader so benchmarks and tests can
/// observe pruning effectiveness (row groups skipped, pages skipped...).
struct ScanMetrics {
  int64_t row_groups_pruned = 0;
  /// Scan units decoded: a whole row group or a page range of one.
  int64_t row_groups_read = 0;
  int64_t pages_skipped = 0;
  int64_t pages_read = 0;
  int64_t rows_selected = 0;
  int64_t rows_total = 0;
  /// Scan units served from / decoded into the shared buffer cache
  /// (bumped by the catalog scan layer, not the reader; hits do not
  /// count toward pages_read/row_groups_read, which measure real IO).
  int64_t buffer_cache_hits = 0;
  int64_t buffer_cache_misses = 0;
};

/// \brief FPQ file reader with predicate pushdown and late
/// materialization.
class Reader {
 public:
  static Result<std::shared_ptr<Reader>> Open(const std::string& path);
  ~Reader();

  const SchemaPtr& schema() const { return meta_.schema; }
  int num_row_groups() const { return static_cast<int>(meta_.row_groups.size()); }
  int64_t num_rows() const { return meta_.num_rows; }
  const RowGroupMeta& row_group(int i) const { return meta_.row_groups[i]; }
  const std::string& path() const { return path_; }
  /// Identity string for external caches (path + size + mtime),
  /// captured at Open. It changes whenever the file may have been
  /// rewritten, so cache keys built on it never serve stale batches
  /// for a reused path (e.g. temp files across tests).
  const std::string& cache_identity() const { return cache_identity_; }

  /// Zone-map + Bloom test: may row group `rg` contain rows matching the
  /// conjunction? (Paper §6.8 step 1.)
  Result<bool> RowGroupMayMatch(int rg, const std::vector<ColumnPredicate>& preds);

  /// Scan rows [rows.start, rows.end) of one row group with pushed
  /// predicates: evaluates predicate columns first, refines a
  /// RowSelection that starts from the range, then decodes only the
  /// needed pages of the remaining columns (steps 2-4 of §6.8), copying
  /// the selected rows straight from the page bytes into each column.
  /// Only pages the range overlaps are read or counted in `metrics`.
  Result<RecordBatchPtr> ScanRowGroup(int rg, RowSelection::Range rows,
                                      const std::vector<int>& projection,
                                      const std::vector<ColumnPredicate>& preds,
                                      ScanMetrics* metrics = nullptr);

 private:
  Reader(std::string path, int fd, FileMeta meta)
      : path_(std::move(path)), fd_(fd), meta_(std::move(meta)),
        dicts_(meta_.row_groups.size() *
               static_cast<size_t>(meta_.schema->num_fields())) {}

  /// Decode `columns` for `selection`, which lies inside `scope`. Pages
  /// outside `scope` belong to other scan units and are ignored; pages
  /// inside it that the selection misses count as skipped.
  Result<RecordBatchPtr> ReadColumns(int rg, RowSelection::Range scope,
                                     const std::vector<int>& columns,
                                     const RowSelection& selection,
                                     ScanMetrics* metrics);
  /// Gather the selected rows of one column chunk's pages into one
  /// array: every page is checked once, then each run of selected rows
  /// inside a page is one copy into the output buffers. Dictionary
  /// chunks give a DictionaryArray over the chunk's shared dictionary.
  Result<ArrayPtr> ReadColumnChunk(int rg, int col, RowSelection::Range scope,
                                   const RowSelection& selection,
                                   ScanMetrics* metrics);
  /// The dictionary of a dictionary-encoded chunk, read and built once
  /// while any batch still holds it, so every range of the row group
  /// shares one instance.
  Result<std::shared_ptr<StringArray>> ChunkDictionary(int rg, int col);
  Status ReadAt(uint64_t offset, uint64_t size, uint8_t* out) const;

  std::string path_;
  int fd_ = -1;
  FileMeta meta_;
  std::string cache_identity_;
  /// One slot per (row group, column), at rg * num_fields + col.
  std::mutex dicts_mutex_;
  std::vector<std::weak_ptr<StringArray>> dicts_;
};

}  // namespace fpq
}  // namespace format
}  // namespace fusion

#endif  // FUSION_FORMAT_FPQ_H_
