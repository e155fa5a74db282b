#include "catalog/file_tables.h"

#include <dirent.h>
#include <sys/stat.h>

#include <algorithm>
#include <cmath>

#include "arrow/ipc.h"
#include "exec/buffer_cache.h"
#include "exec/runtime_filter.h"
#include "exec/scheduler.h"

namespace fusion {
namespace catalog {

// ---------------------------------------------------------------- FpqTable

namespace {

/// Rows [rows.start, rows.end) of one row group of one file.
struct ScanUnit {
  std::shared_ptr<format::fpq::Reader> reader;
  int row_group;
  format::RowSelection::Range rows;
};

/// Cut a row group at the page boundaries of its first column into the
/// whole number of ranges nearest rows / `target_rows` (at least one, at
/// most one per page) whose page counts differ by at most one. (The
/// writer pages every column alike; where another writer did not, a
/// range only decodes part of some pages.)
std::vector<format::RowSelection::Range> PageRanges(
    const format::fpq::RowGroupMeta& rg, int64_t target_rows) {
  const int64_t pages = rg.columns.empty() ? 0 : rg.columns[0].pages.size();
  const int64_t ranges = std::clamp<int64_t>(
      std::llround(static_cast<double>(rg.num_rows) / target_rows), 1,
      std::max<int64_t>(1, pages));
  std::vector<format::RowSelection::Range> out;
  int64_t start = 0;
  for (int64_t i = 1; i < ranges; ++i) {
    const int64_t end = rg.columns[0].pages[i * pages / ranges].first_row;
    out.push_back({start, end});
    start = end;
  }
  out.push_back({start, rg.num_rows});
  return out;
}

}  // namespace

/// Iterator over a list of scan units: skips units a ready runtime
/// filter rules out, then runs the late-materialization scan of each —
/// served through the shared decoded-batch cache when one is attached
/// to the ScanRequest.
class FpqScanIterator : public BatchIterator {
 public:
  FpqScanIterator(FpqTable* table, std::vector<ScanUnit> units,
                  std::vector<int> projection,
                  std::vector<format::ColumnPredicate> predicates, int64_t limit,
                  exec::BufferCachePtr cache,
                  exec::TaskGroupPtr group, exec::CancellationTokenPtr cancel,
                  std::vector<RuntimeScanFilter> runtime_filters)
      : table_(table), units_(std::move(units)), projection_(std::move(projection)),
        predicates_(std::move(predicates)), limit_(limit), cache_(std::move(cache)),
        group_(std::move(group)), cancel_(std::move(cancel)),
        runtime_filters_(std::move(runtime_filters)) {
    // Predicates select which rows a decoded row group contains, so they
    // are part of the cache key.
    for (const auto& p : predicates_) {
      selection_fingerprint_ += p.ToString();
      selection_fingerprint_ += ';';
    }
  }

  ~FpqScanIterator() override { table_->MergeMetrics(metrics_); }

  Result<RecordBatchPtr> Next() override {
    // The previous batch leaves the scan: drop its eviction pin.
    pin_.Release();
    while (pos_ < units_.size()) {
      if (limit_ >= 0 && rows_emitted_ >= limit_) return RecordBatchPtr(nullptr);
      ScanUnit& unit = units_[pos_++];
      // Runtime-filter zone pruning: once a join build has published,
      // its key min/max can rule out the unit's row group. Checked before
      // the buffer cache — a pruned unit is never decoded or cached —
      // and deliberately NOT part of the cache key: pruning only skips
      // units, it never changes a decoded batch.
      if (!runtime_filters_.empty()) {
        FUSION_ASSIGN_OR_RAISE(bool rf_match, RuntimeFilterMayMatch(unit));
        if (!rf_match) {
          ++metrics_.row_groups_pruned;
          metrics_.rows_total += unit.rows.end - unit.rows.start;
          continue;
        }
      }
      RecordBatchPtr batch;
      if (cache_ != nullptr) {
        FUSION_ASSIGN_OR_RAISE(batch, ScanUnitCached(unit));
      } else {
        FUSION_ASSIGN_OR_RAISE(
            batch, unit.reader->ScanRowGroup(unit.row_group, unit.rows, projection_,
                                             predicates_, &metrics_));
      }
      if (batch->num_rows() == 0) continue;
      if (limit_ >= 0 && rows_emitted_ + batch->num_rows() > limit_) {
        batch = batch->Slice(0, limit_ - rows_emitted_);
      }
      rows_emitted_ += batch->num_rows();
      return batch;
    }
    return RecordBatchPtr(nullptr);
  }

 private:
  Result<bool> RuntimeFilterMayMatch(const ScanUnit& unit) {
    for (const auto& rsf : runtime_filters_) {
      if (rsf.filter == nullptr || !rsf.filter->ready()) continue;
      const Scalar& min = rsf.filter->min_key();
      const Scalar& max = rsf.filter->max_key();
      if (min.is_null() || max.is_null()) continue;
      std::vector<format::ColumnPredicate> range;
      range.push_back({rsf.column, format::ColumnPredicate::Op::kGtEq, {min}});
      range.push_back({rsf.column, format::ColumnPredicate::Op::kLtEq, {max}});
      FUSION_ASSIGN_OR_RAISE(
          bool may_match, unit.reader->RowGroupMayMatch(unit.row_group, range));
      if (!may_match) return false;
    }
    return true;
  }

  /// Serve one unit through the buffer cache: a hit returns the decoded
  /// batch without touching the file; a miss decodes once for all
  /// concurrent scans of this unit (scan sharing) and caches the result.
  Result<RecordBatchPtr> ScanUnitCached(const ScanUnit& unit) {
    const std::string key = exec::BufferCacheKey(
        unit.reader->cache_identity(), unit.row_group, unit.rows.start,
        unit.rows.end, projection_, selection_fingerprint_);
    format::fpq::ScanMetrics decode_metrics;
    bool decoded = false;
    auto decode = [&]() -> Result<RecordBatchPtr> {
      decoded = true;
      return unit.reader->ScanRowGroup(unit.row_group, unit.rows, projection_,
                                       predicates_, &decode_metrics);
    };
    FUSION_ASSIGN_OR_RAISE(
        auto pin, cache_->GetOrDecode(key, decode, group_.get(), cancel_.get()));
    if (decoded) {
      ++metrics_.buffer_cache_misses;
      metrics_.row_groups_pruned += decode_metrics.row_groups_pruned;
      metrics_.row_groups_read += decode_metrics.row_groups_read;
      metrics_.pages_skipped += decode_metrics.pages_skipped;
      metrics_.pages_read += decode_metrics.pages_read;
      metrics_.rows_selected += decode_metrics.rows_selected;
      metrics_.rows_total += decode_metrics.rows_total;
    } else {
      // Hit (or coalesced onto another scan's decode): account the rows
      // but none of the IO counters — no bytes were read or decoded.
      ++metrics_.buffer_cache_hits;
      metrics_.rows_total += unit.rows.end - unit.rows.start;
      if (pin.batch() != nullptr) metrics_.rows_selected += pin.batch()->num_rows();
    }
    RecordBatchPtr batch = pin.batch();
    // Hold the pin until the next Next() call so eviction never races
    // the batch out from under the in-flight pipeline.
    pin_ = std::move(pin);
    return batch;
  }

  FpqTable* table_;
  std::vector<ScanUnit> units_;
  std::vector<int> projection_;
  std::vector<format::ColumnPredicate> predicates_;
  int64_t limit_;
  exec::BufferCachePtr cache_;
  exec::TaskGroupPtr group_;
  exec::CancellationTokenPtr cancel_;
  std::vector<RuntimeScanFilter> runtime_filters_;
  std::string selection_fingerprint_;
  exec::BufferCache::Pin pin_;
  size_t pos_ = 0;
  int64_t rows_emitted_ = 0;
  format::fpq::ScanMetrics metrics_;
};

Result<std::shared_ptr<FpqTable>> FpqTable::Open(std::vector<std::string> paths,
                                                 exec::CacheManagerPtr meta_cache) {
  if (paths.empty()) return Status::Invalid("FpqTable: no input files");
  std::vector<std::shared_ptr<format::fpq::Reader>> readers;
  readers.reserve(paths.size());
  for (const auto& path : paths) {
    FUSION_ASSIGN_OR_RAISE(auto reader, format::fpq::Reader::Open(path));
    if (!readers.empty() && !reader->schema()->Equals(*readers[0]->schema())) {
      return Status::Invalid("FpqTable: schema mismatch in " + path);
    }
    readers.push_back(std::move(reader));
  }
  SchemaPtr schema = readers[0]->schema();
  return std::shared_ptr<FpqTable>(new FpqTable(std::move(schema),
                                                std::move(readers),
                                                std::move(meta_cache)));
}

TableStatistics FpqTable::FileStatistics(const format::fpq::Reader& reader) const {
  // Keyed on the reader's cache identity (path + size + mtime), so a
  // rewritten file never serves stale statistics.
  if (meta_cache_ != nullptr) {
    if (auto cached = meta_cache_->GetFileStats(reader.cache_identity())) {
      return *std::move(cached);
    }
  }
  TableStatistics stats;
  stats.column_stats.resize(schema_->num_fields());
  for (int c = 0; c < schema_->num_fields(); ++c) {
    stats.column_stats[c].min = Scalar::Null(schema_->field(c).type());
    stats.column_stats[c].max = Scalar::Null(schema_->field(c).type());
  }
  // Summing chunk NDVs overcounts values repeated across chunks; capped
  // at the row count below, the result stays a safe upper bound. A
  // single chunk without stats poisons the whole column to "unknown".
  std::vector<int64_t> ndv_sums(schema_->num_fields(), 0);
  for (int g = 0; g < reader.num_row_groups(); ++g) {
    const auto& rg = reader.row_group(g);
    for (int c = 0; c < schema_->num_fields(); ++c) {
      const auto& chunk = rg.columns[c];
      format::ColumnStats& cs = stats.column_stats[c];
      cs.null_count += chunk.stats.null_count;
      if (ndv_sums[c] >= 0) {
        ndv_sums[c] = chunk.stats.ndv < 0 ? -1 : ndv_sums[c] + chunk.stats.ndv;
      }
      if (!chunk.stats.min.is_null() &&
          (cs.min.is_null() || chunk.stats.min.Compare(cs.min) < 0)) {
        cs.min = chunk.stats.min;
      }
      if (!chunk.stats.max.is_null() &&
          (cs.max.is_null() || chunk.stats.max.Compare(cs.max) > 0)) {
        cs.max = chunk.stats.max;
      }
    }
  }
  stats.num_rows = reader.num_rows();
  for (int c = 0; c < schema_->num_fields(); ++c) {
    format::ColumnStats& cs = stats.column_stats[c];
    cs.row_count = reader.num_rows();
    cs.ndv = ndv_sums[c] < 0 ? -1 : std::min(ndv_sums[c], reader.num_rows());
  }
  if (meta_cache_ != nullptr) {
    meta_cache_->PutFileStats(reader.cache_identity(), stats);
  }
  return stats;
}

TableStatistics FpqTable::statistics() const {
  TableStatistics stats;
  int64_t rows = 0;
  stats.column_stats.resize(schema_->num_fields());
  for (int c = 0; c < schema_->num_fields(); ++c) {
    stats.column_stats[c].min = Scalar::Null(schema_->field(c).type());
    stats.column_stats[c].max = Scalar::Null(schema_->field(c).type());
  }
  std::vector<int64_t> ndv_sums(schema_->num_fields(), 0);
  for (const auto& reader : readers_) {
    TableStatistics file = FileStatistics(*reader);
    rows += file.num_rows.value_or(0);
    for (int c = 0; c < schema_->num_fields(); ++c) {
      const format::ColumnStats& fc = file.column_stats[c];
      format::ColumnStats& cs = stats.column_stats[c];
      cs.null_count += fc.null_count;
      if (ndv_sums[c] >= 0) {
        ndv_sums[c] = fc.ndv < 0 ? -1 : ndv_sums[c] + fc.ndv;
      }
      if (!fc.min.is_null() && (cs.min.is_null() || fc.min.Compare(cs.min) < 0)) {
        cs.min = fc.min;
      }
      if (!fc.max.is_null() && (cs.max.is_null() || fc.max.Compare(cs.max) > 0)) {
        cs.max = fc.max;
      }
    }
  }
  for (int c = 0; c < schema_->num_fields(); ++c) {
    format::ColumnStats& cs = stats.column_stats[c];
    cs.row_count = rows;
    cs.ndv = ndv_sums[c] < 0 ? -1 : std::min(ndv_sums[c], rows);
  }
  stats.num_rows = rows;
  return stats;
}

FilterPushdown FpqTable::SupportsFilterPushdown(
    const format::ColumnPredicate& pred) const {
  if (!pushdown_enabled_) return FilterPushdown::kUnsupported;
  if (schema_->GetFieldIndex(pred.column) < 0) return FilterPushdown::kUnsupported;
  // The scan evaluates pushed predicates row-by-row after pruning, so
  // results are exact and the engine can drop its Filter.
  return FilterPushdown::kExact;
}

Result<std::vector<BatchIteratorPtr>> FpqTable::Scan(const ScanRequest& request) {
  std::vector<int> projection = ResolveProjection(*schema_, request.projection);
  std::vector<format::ColumnPredicate> predicates =
      pushdown_enabled_ ? request.predicates
                        : std::vector<format::ColumnPredicate>{};
  // Row groups are cut into page ranges of about 1/(kScanUnitsPerPartition
  // x partitions) of the table, so a table of few row groups still keeps
  // every partition busy; a row group under 1.5 times that size stays
  // whole. One partition reads whole row groups.
  int64_t table_rows = 0;
  for (const auto& reader : readers_) table_rows += reader->num_rows();
  const int64_t target_units =
      int64_t{kScanUnitsPerPartition} * request.target_partitions;
  const int64_t range_rows =
      request.target_partitions > 1
          ? std::max<int64_t>(1, (table_rows + target_units - 1) / target_units)
          : INT64_MAX;
  std::vector<ScanUnit> units;
  format::fpq::ScanMetrics pruned;
  for (const auto& reader : readers_) {
    for (int g = 0; g < reader->num_row_groups(); ++g) {
      const format::fpq::RowGroupMeta& rg = reader->row_group(g);
      // Zone maps and Bloom filters judge a row group once, before it
      // is cut into ranges.
      if (!predicates.empty()) {
        FUSION_ASSIGN_OR_RAISE(bool may_match, reader->RowGroupMayMatch(g, predicates));
        if (!may_match) {
          ++pruned.row_groups_pruned;
          pruned.rows_total += rg.num_rows;
          continue;
        }
      }
      for (const auto& rows : PageRanges(rg, range_rows)) {
        units.push_back({reader, g, rows});
      }
    }
  }
  MergeMetrics(pruned);
  std::vector<BatchIteratorPtr> out;
  auto unit_rows = [](const ScanUnit& u) { return u.rows.end - u.rows.start; };
  for (auto& part :
       DealScanUnits(std::move(units), request.target_partitions, unit_rows)) {
    out.push_back(std::make_unique<FpqScanIterator>(
        this, std::move(part), projection, predicates, request.limit,
        request.buffer_cache, request.task_group, request.cancel,
        request.runtime_filters));
  }
  return out;
}

std::string FpqTable::ToString() const {
  return "FpqTable(" + std::to_string(readers_.size()) + " files)";
}

void FpqTable::MergeMetrics(const format::fpq::ScanMetrics& m) {
  std::lock_guard<std::mutex> lock(metrics_mu_);
  metrics_.row_groups_pruned += m.row_groups_pruned;
  metrics_.row_groups_read += m.row_groups_read;
  metrics_.pages_skipped += m.pages_skipped;
  metrics_.pages_read += m.pages_read;
  metrics_.rows_selected += m.rows_selected;
  metrics_.rows_total += m.rows_total;
  metrics_.buffer_cache_hits += m.buffer_cache_hits;
  metrics_.buffer_cache_misses += m.buffer_cache_misses;
}

format::fpq::ScanMetrics FpqTable::ConsumeMetrics() {
  std::lock_guard<std::mutex> lock(metrics_mu_);
  format::fpq::ScanMetrics out = metrics_;
  metrics_ = {};
  return out;
}

// ---------------------------------------------------------------- CsvTable

namespace {

/// Drains a list of per-file iterators in order (one scan partition
/// covering several files).
class ChainedBatchIterator : public BatchIterator {
 public:
  explicit ChainedBatchIterator(std::vector<BatchIteratorPtr> inner)
      : inner_(std::move(inner)) {}

  Result<RecordBatchPtr> Next() override {
    while (pos_ < inner_.size()) {
      FUSION_ASSIGN_OR_RAISE(auto batch, inner_[pos_]->Next());
      if (batch != nullptr) return batch;
      ++pos_;
    }
    return RecordBatchPtr(nullptr);
  }

 private:
  std::vector<BatchIteratorPtr> inner_;
  size_t pos_ = 0;
};

/// One iterator per partition over the per-file iterators dealt to it.
std::vector<BatchIteratorPtr> DealFiles(std::vector<BatchIteratorPtr> files,
                                        int target_partitions) {
  std::vector<BatchIteratorPtr> out;
  // A file's rows are unknown before it is read: deal files round-robin.
  auto one = [](const BatchIteratorPtr&) { return int64_t{1}; };
  for (auto& part : DealScanUnits(std::move(files), target_partitions, one)) {
    if (part.size() == 1) {
      out.push_back(std::move(part[0]));
    } else {
      out.push_back(std::make_unique<ChainedBatchIterator>(std::move(part)));
    }
  }
  return out;
}

/// Streams batches from one CSV file, applying projection and limit.
class CsvScanIterator : public BatchIterator {
 public:
  CsvScanIterator(std::string path, format::csv::Options options,
                  std::vector<int> projection, int64_t limit)
      : path_(std::move(path)), options_(std::move(options)),
        projection_(std::move(projection)), limit_(limit) {}

  Result<RecordBatchPtr> Next() override {
    if (reader_ == nullptr) {
      FUSION_ASSIGN_OR_RAISE(reader_, format::csv::CsvReader::Open(path_, options_));
    }
    if (limit_ >= 0 && rows_emitted_ >= limit_) return RecordBatchPtr(nullptr);
    FUSION_ASSIGN_OR_RAISE(auto batch, reader_->Next());
    if (batch == nullptr) return RecordBatchPtr(nullptr);
    FUSION_ASSIGN_OR_RAISE(batch, batch->Project(projection_));
    if (limit_ >= 0 && rows_emitted_ + batch->num_rows() > limit_) {
      batch = batch->Slice(0, limit_ - rows_emitted_);
    }
    rows_emitted_ += batch->num_rows();
    return batch;
  }

 private:
  std::string path_;
  format::csv::Options options_;
  std::vector<int> projection_;
  int64_t limit_;
  std::shared_ptr<format::csv::CsvReader> reader_;
  int64_t rows_emitted_ = 0;
};

}  // namespace

Result<std::shared_ptr<CsvTable>> CsvTable::Open(std::vector<std::string> paths,
                                                 format::csv::Options options) {
  if (paths.empty()) return Status::Invalid("CsvTable: no input files");
  FUSION_ASSIGN_OR_RAISE(SchemaPtr schema,
                         format::csv::InferSchema(paths[0], options));
  options.schema = schema;
  return std::shared_ptr<CsvTable>(
      new CsvTable(std::move(schema), std::move(paths), std::move(options)));
}

Result<std::vector<BatchIteratorPtr>> CsvTable::Scan(const ScanRequest& request) {
  std::vector<int> projection = ResolveProjection(*schema_, request.projection);
  std::vector<BatchIteratorPtr> files;
  for (const auto& path : paths_) {
    files.push_back(
        std::make_unique<CsvScanIterator>(path, options_, projection, request.limit));
  }
  return DealFiles(std::move(files), request.target_partitions);
}

std::string CsvTable::ToString() const {
  return "CsvTable(" + std::to_string(paths_.size()) + " files)";
}

// --------------------------------------------------------------- JsonTable

namespace {

class EagerBatchIterator : public BatchIterator {
 public:
  explicit EagerBatchIterator(std::vector<RecordBatchPtr> batches)
      : batches_(std::move(batches)) {}
  Result<RecordBatchPtr> Next() override {
    if (pos_ >= batches_.size()) return RecordBatchPtr(nullptr);
    return batches_[pos_++];
  }

 private:
  std::vector<RecordBatchPtr> batches_;
  size_t pos_ = 0;
};

/// Lazily reads a whole JSON file on first pull.
class JsonScanIterator : public BatchIterator {
 public:
  JsonScanIterator(std::string path, format::json::Options options,
                   std::vector<int> projection, int64_t limit)
      : path_(std::move(path)), options_(std::move(options)),
        projection_(std::move(projection)), limit_(limit) {}

  Result<RecordBatchPtr> Next() override {
    if (!loaded_) {
      FUSION_ASSIGN_OR_RAISE(batches_, format::json::ReadFile(path_, options_));
      loaded_ = true;
    }
    while (pos_ < batches_.size()) {
      if (limit_ >= 0 && rows_emitted_ >= limit_) return RecordBatchPtr(nullptr);
      FUSION_ASSIGN_OR_RAISE(auto batch, batches_[pos_++]->Project(projection_));
      if (limit_ >= 0 && rows_emitted_ + batch->num_rows() > limit_) {
        batch = batch->Slice(0, limit_ - rows_emitted_);
      }
      rows_emitted_ += batch->num_rows();
      return batch;
    }
    return RecordBatchPtr(nullptr);
  }

 private:
  std::string path_;
  format::json::Options options_;
  std::vector<int> projection_;
  int64_t limit_;
  bool loaded_ = false;
  std::vector<RecordBatchPtr> batches_;
  size_t pos_ = 0;
  int64_t rows_emitted_ = 0;
};

}  // namespace

Result<std::shared_ptr<JsonTable>> JsonTable::Open(std::vector<std::string> paths,
                                                   format::json::Options options) {
  if (paths.empty()) return Status::Invalid("JsonTable: no input files");
  FUSION_ASSIGN_OR_RAISE(SchemaPtr schema,
                         format::json::InferSchema(paths[0], options));
  options.schema = schema;
  return std::shared_ptr<JsonTable>(
      new JsonTable(std::move(schema), std::move(paths), std::move(options)));
}

Result<std::vector<BatchIteratorPtr>> JsonTable::Scan(const ScanRequest& request) {
  std::vector<int> projection = ResolveProjection(*schema_, request.projection);
  std::vector<BatchIteratorPtr> files;
  for (const auto& path : paths_) {
    files.push_back(std::make_unique<JsonScanIterator>(path, options_, projection,
                                                       request.limit));
  }
  return DealFiles(std::move(files), request.target_partitions);
}

std::string JsonTable::ToString() const {
  return "JsonTable(" + std::to_string(paths_.size()) + " files)";
}

// ---------------------------------------------------------------- IpcTable

Result<std::shared_ptr<IpcTable>> IpcTable::Open(std::vector<std::string> paths) {
  if (paths.empty()) return Status::Invalid("IpcTable: no input files");
  ipc::FileReader reader(paths[0]);
  FUSION_RETURN_NOT_OK(reader.Open());
  FUSION_ASSIGN_OR_RAISE(auto first, reader.Next());
  if (first == nullptr) return Status::Invalid("IpcTable: empty file " + paths[0]);
  return std::shared_ptr<IpcTable>(new IpcTable(first->schema(), std::move(paths)));
}

Result<std::vector<BatchIteratorPtr>> IpcTable::Scan(const ScanRequest& request) {
  std::vector<int> projection = ResolveProjection(*schema_, request.projection);
  std::vector<BatchIteratorPtr> files;
  for (const auto& path : paths_) {
    FUSION_ASSIGN_OR_RAISE(auto batches, ipc::ReadFile(path));
    std::vector<RecordBatchPtr> projected;
    int64_t remaining = request.limit < 0 ? INT64_MAX : request.limit;
    for (auto& b : batches) {
      if (remaining <= 0) break;
      FUSION_ASSIGN_OR_RAISE(auto p, b->Project(projection));
      if (p->num_rows() > remaining) p = p->Slice(0, remaining);
      remaining -= p->num_rows();
      projected.push_back(std::move(p));
    }
    files.push_back(std::make_unique<EagerBatchIterator>(std::move(projected)));
  }
  return DealFiles(std::move(files), request.target_partitions);
}

// ------------------------------------------------------------------ listing

Result<std::vector<std::string>> ListFiles(const std::string& dir,
                                           const std::string& extension,
                                           const exec::CacheManagerPtr& cache) {
  const std::string cache_key = dir + "|" + extension;
  if (cache != nullptr) {
    if (auto cached = cache->GetListing(cache_key)) return *std::move(cached);
  }
  DIR* d = ::opendir(dir.c_str());
  if (d == nullptr) return Status::IOError("cannot open directory " + dir);
  std::vector<std::string> out;
  while (dirent* entry = ::readdir(d)) {
    std::string name = entry->d_name;
    if (name.size() > extension.size() &&
        name.compare(name.size() - extension.size(), extension.size(), extension) ==
            0) {
      out.push_back(dir + "/" + name);
    }
  }
  ::closedir(d);
  std::sort(out.begin(), out.end());
  if (cache != nullptr) cache->PutListing(cache_key, out);
  return out;
}

Result<TableProviderPtr> OpenTable(const std::string& path,
                                   exec::CacheManagerPtr cache) {
  struct stat st;
  if (::stat(path.c_str(), &st) != 0) {
    return Status::IOError("no such file or directory: " + path);
  }
  auto ends_with = [](const std::string& s, const std::string& suffix) {
    return s.size() >= suffix.size() &&
           s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
  };
  std::vector<std::string> files;
  std::string probe = path;
  if (S_ISDIR(st.st_mode)) {
    for (const char* ext : {".fpq", ".csv", ".json", ".ipc"}) {
      FUSION_ASSIGN_OR_RAISE(files, ListFiles(path, ext, cache));
      if (!files.empty()) {
        probe = files[0];
        break;
      }
    }
    if (files.empty()) return Status::Invalid("no data files in directory " + path);
  } else {
    files = {path};
  }
  if (ends_with(probe, ".fpq")) {
    FUSION_ASSIGN_OR_RAISE(auto t, FpqTable::Open(files, std::move(cache)));
    return TableProviderPtr(t);
  }
  if (ends_with(probe, ".csv")) {
    FUSION_ASSIGN_OR_RAISE(auto t, CsvTable::Open(files));
    return TableProviderPtr(t);
  }
  if (ends_with(probe, ".json")) {
    FUSION_ASSIGN_OR_RAISE(auto t, JsonTable::Open(files));
    return TableProviderPtr(t);
  }
  if (ends_with(probe, ".ipc")) {
    FUSION_ASSIGN_OR_RAISE(auto t, IpcTable::Open(files));
    return TableProviderPtr(t);
  }
  return Status::Invalid("unrecognized file extension: " + probe);
}

}  // namespace catalog
}  // namespace fusion
