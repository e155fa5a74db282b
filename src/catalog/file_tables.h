#ifndef FUSION_CATALOG_FILE_TABLES_H_
#define FUSION_CATALOG_FILE_TABLES_H_

#include <mutex>
#include <string>
#include <vector>

#include "catalog/table_provider.h"
#include "exec/cache_manager.h"
#include "format/csv.h"
#include "format/fpq.h"
#include "format/json.h"

namespace fusion {
namespace catalog {

/// \brief Table over one or more FPQ files (the engine's Parquet
/// stand-in). Implements exact filter pushdown via zone maps, Bloom
/// filters and late materialization, plus projection and limit
/// pushdown. A scan unit is a row group, or a page range of one when the
/// row group holds more than its share of the table for the partition
/// count; units are dealt to fixed partitions (see DealScanUnits).
class FpqTable : public TableProvider {
 public:
  /// Open all files (footers only) and verify schema compatibility.
  /// `meta_cache` (optional) caches per-file statistics across queries
  /// so statistics() stops re-walking every row-group footer.
  static Result<std::shared_ptr<FpqTable>> Open(
      std::vector<std::string> paths, exec::CacheManagerPtr meta_cache = nullptr);

  SchemaPtr schema() const override { return schema_; }
  TableStatistics statistics() const override;
  FilterPushdown SupportsFilterPushdown(
      const format::ColumnPredicate& pred) const override;
  Result<std::vector<BatchIteratorPtr>> Scan(const ScanRequest& request) override;
  std::string ToString() const override;

  /// Declare a sort order the files are known to satisfy.
  void SetSortOrder(std::vector<OrderedColumn> order) { order_ = std::move(order); }
  std::vector<OrderedColumn> sort_order() const override { return order_; }

  /// Disable scan-time predicate evaluation (zone maps and Bloom filters
  /// still prune row groups) — used by ablation benchmarks.
  void SetLateMaterialization(bool enabled) { late_materialization_ = enabled; }
  /// Disable all scan-time pruning (the tightly-integrated baseline
  /// configuration; see DESIGN.md §5.1).
  void SetPushdownEnabled(bool enabled) { pushdown_enabled_ = enabled; }

  /// Cumulative scan metrics across all Scan() calls (for tests/benches).
  format::fpq::ScanMetrics ConsumeMetrics();

 private:
  FpqTable(SchemaPtr schema,
           std::vector<std::shared_ptr<format::fpq::Reader>> readers,
           exec::CacheManagerPtr meta_cache)
      : schema_(std::move(schema)), readers_(std::move(readers)),
        meta_cache_(std::move(meta_cache)) {}

  void MergeMetrics(const format::fpq::ScanMetrics& m);
  /// Statistics of one file, consulting/filling meta_cache_.
  TableStatistics FileStatistics(const format::fpq::Reader& reader) const;

  SchemaPtr schema_;
  std::vector<std::shared_ptr<format::fpq::Reader>> readers_;
  exec::CacheManagerPtr meta_cache_;
  std::vector<OrderedColumn> order_;
  bool late_materialization_ = true;
  bool pushdown_enabled_ = true;

  std::mutex metrics_mu_;
  format::fpq::ScanMetrics metrics_;

  friend class FpqScanIterator;
};

/// \brief Table over one or more CSV files; schema inferred from the
/// first file. Files are the scan units.
class CsvTable : public TableProvider {
 public:
  static Result<std::shared_ptr<CsvTable>> Open(std::vector<std::string> paths,
                                                format::csv::Options options = {});

  SchemaPtr schema() const override { return schema_; }
  Result<std::vector<BatchIteratorPtr>> Scan(const ScanRequest& request) override;
  std::string ToString() const override;

  const std::vector<std::string>& paths() const { return paths_; }
  const format::csv::Options& options() const { return options_; }

 private:
  CsvTable(SchemaPtr schema, std::vector<std::string> paths,
           format::csv::Options options)
      : schema_(std::move(schema)), paths_(std::move(paths)),
        options_(std::move(options)) {}

  SchemaPtr schema_;
  std::vector<std::string> paths_;
  format::csv::Options options_;
};

/// \brief Table over newline-delimited JSON files.
class JsonTable : public TableProvider {
 public:
  static Result<std::shared_ptr<JsonTable>> Open(std::vector<std::string> paths,
                                                 format::json::Options options = {});

  SchemaPtr schema() const override { return schema_; }
  Result<std::vector<BatchIteratorPtr>> Scan(const ScanRequest& request) override;
  std::string ToString() const override;

 private:
  JsonTable(SchemaPtr schema, std::vector<std::string> paths,
            format::json::Options options)
      : schema_(std::move(schema)), paths_(std::move(paths)),
        options_(std::move(options)) {}

  SchemaPtr schema_;
  std::vector<std::string> paths_;
  format::json::Options options_;
};

/// \brief Table over Arrow-IPC-style files (arrow/ipc.h).
class IpcTable : public TableProvider {
 public:
  static Result<std::shared_ptr<IpcTable>> Open(std::vector<std::string> paths);

  SchemaPtr schema() const override { return schema_; }
  Result<std::vector<BatchIteratorPtr>> Scan(const ScanRequest& request) override;
  std::string ToString() const override { return "IpcTable"; }

 private:
  IpcTable(SchemaPtr schema, std::vector<std::string> paths)
      : schema_(std::move(schema)), paths_(std::move(paths)) {}

  SchemaPtr schema_;
  std::vector<std::string> paths_;
};

/// List files under `dir` with the given extension (non-recursive),
/// sorted by name — the Hive-style "listing table" helper (paper §5.2.1).
/// With a cache manager, the listing is served from / stored in its
/// directory-listing LRU (paper §7.4: LIST calls are expensive on
/// object stores).
Result<std::vector<std::string>> ListFiles(const std::string& dir,
                                           const std::string& extension,
                                           const exec::CacheManagerPtr& cache = nullptr);

/// Open a directory or single file as a table, dispatching on extension
/// (".fpq", ".csv", ".json", ".ipc"). `cache` feeds directory listings
/// and (for FPQ) per-file statistics through the metadata cache.
Result<TableProviderPtr> OpenTable(const std::string& path,
                                   exec::CacheManagerPtr cache = nullptr);

}  // namespace catalog
}  // namespace fusion

#endif  // FUSION_CATALOG_FILE_TABLES_H_
