#ifndef FUSION_CATALOG_TABLE_PROVIDER_H_
#define FUSION_CATALOG_TABLE_PROVIDER_H_

#include <algorithm>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "arrow/record_batch.h"
#include "arrow/type.h"
#include "common/result.h"
#include "format/predicate.h"
#include "row/row_format.h"

namespace fusion {
namespace exec {
// Forward declarations (exec/stream.h includes this header, so the
// serving-layer context below must not pull exec headers back in).
class BufferCache;
class TaskGroup;
class CancellationToken;
class RuntimeFilter;
}  // namespace exec

namespace catalog {

/// Table-level statistics available at planning time (paper §5.4.1):
/// row counts plus per-column min/max/null-count zone data. Defined at
/// the format layer so metadata caches below the catalog can hold them.
using TableStatistics = format::TableStatistics;

/// A column of a known sort order, e.g. files sorted by (ts ASC).
struct OrderedColumn {
  std::string column;
  row::SortOptions options;
};

/// How fully a provider can absorb a pushed-down filter.
enum class FilterPushdown {
  kUnsupported,  ///< engine must re-apply the filter
  kInexact,      ///< provider prunes but may return false positives
  kExact,        ///< provider guarantees only matching rows
};

/// A runtime filter attached to a scan: the named column must have a
/// join partner in `filter`'s build side for the row to survive. The
/// filter may still be pending (pass-through) or bypassed at any time.
struct RuntimeScanFilter {
  std::string column;
  std::shared_ptr<exec::RuntimeFilter> filter;
};

/// Pull-based iterator of record batches; one per scan partition.
class BatchIterator {
 public:
  virtual ~BatchIterator() = default;
  /// Next batch, or nullptr when the partition is exhausted.
  virtual Result<RecordBatchPtr> Next() = 0;
};

using BatchIteratorPtr = std::unique_ptr<BatchIterator>;

/// Parameters pushed into a scan (paper §7.3: projection, filter and
/// limit pushdown, partitioned parallel reads).
struct ScanRequest {
  /// Column indices to produce (in order). Empty = all columns.
  std::vector<int> projection;
  /// Conjunctive predicates offered for pushdown.
  std::vector<format::ColumnPredicate> predicates;
  /// Stop after this many rows (best effort), -1 = unlimited.
  int64_t limit = -1;
  /// Desired parallelism; providers return at most this many
  /// partitions (see DealScanUnits).
  int target_partitions = 1;
  /// Serving-layer context, set by the physical planner. `buffer_cache`
  /// lets file scans serve decoded batches from (and coalesce decodes
  /// through) the shared cache; `task_group`/`cancel` are the query's
  /// scheduling context so cache waits park cooperatively and honor
  /// cancellation. All optional (null = cold scan, blocking waits).
  std::shared_ptr<exec::BufferCache> buffer_cache;
  std::shared_ptr<exec::TaskGroup> task_group;
  std::shared_ptr<exec::CancellationToken> cancel;
  /// Runtime Bloom filters published sideways by hash-join build sides
  /// (see exec/runtime_filter.h). Providers that understand them may
  /// prune whole row groups against a ready filter's min/max; row-level
  /// filtering happens in ScanExec above the buffer cache either way,
  /// so a provider is free to ignore these.
  std::vector<RuntimeScanFilter> runtime_filters;
};

/// \brief The data-source extension point (paper §7.3). Built-in
/// sources (memory, CSV, FPQ, JSON, IPC) implement exactly this API.
class TableProvider {
 public:
  virtual ~TableProvider() = default;

  virtual SchemaPtr schema() const = 0;

  /// Planning-time statistics; default: unknown.
  virtual TableStatistics statistics() const { return {}; }

  /// How the provider handles each pushed filter.
  virtual FilterPushdown SupportsFilterPushdown(
      const format::ColumnPredicate& pred) const {
    (void)pred;
    return FilterPushdown::kUnsupported;
  }

  /// Any sort order the data is known to satisfy (paper §6.7).
  virtual std::vector<OrderedColumn> sort_order() const { return {}; }

  /// Open the scan: one BatchIterator per partition.
  virtual Result<std::vector<BatchIteratorPtr>> Scan(const ScanRequest& request) = 0;

  /// Human-readable description for EXPLAIN output.
  virtual std::string ToString() const { return "TableProvider"; }
};

using TableProviderPtr = std::shared_ptr<TableProvider>;

/// Scan units a provider aims to offer per partition. FpqTable cuts a
/// row group into page ranges when it holds more than its share of
/// 1/(kScanUnitsPerPartition x partitions) of the table.
constexpr int kScanUnitsPerPartition = 4;

/// Deal scan units, in table order, into min(target_partitions, units)
/// partitions (one empty partition when there are no units). Each unit
/// goes to the partition with the fewest rows so far (`rows_of(unit)`),
/// the lowest index on a tie, so equal units go round-robin and no
/// partition ends further ahead of another than the largest unit's
/// rows. The assignment depends only on the units, never on timing, and
/// each partition keeps its units in table order, so a sorted table
/// stays sorted within every partition.
template <typename Unit, typename RowsOf>
std::vector<std::vector<Unit>> DealScanUnits(std::vector<Unit> units,
                                             int target_partitions, RowsOf rows_of) {
  const size_t parts = std::max<size_t>(
      1, std::min<size_t>(static_cast<size_t>(std::max(1, target_partitions)),
                          units.size()));
  std::vector<std::vector<Unit>> out(parts);
  std::vector<int64_t> rows(parts, 0);
  for (auto& unit : units) {
    const size_t p = std::min_element(rows.begin(), rows.end()) - rows.begin();
    rows[p] += rows_of(unit);
    out[p].push_back(std::move(unit));
  }
  return out;
}

/// Resolve a ScanRequest projection to concrete indices/schema.
std::vector<int> ResolveProjection(const Schema& schema,
                                   const std::vector<int>& projection);
SchemaPtr ProjectedSchema(const SchemaPtr& schema, const std::vector<int>& projection);

}  // namespace catalog
}  // namespace fusion

#endif  // FUSION_CATALOG_TABLE_PROVIDER_H_
