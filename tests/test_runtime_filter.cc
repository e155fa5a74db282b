// Runtime Bloom-filter pushdown (sideways information passing): oracle
// sweep against the FUSION_RUNTIME_FILTERS=off baseline across join
// shapes (grouped probe sides too), key cardinalities and partition
// counts; the plan shapes whose group keys carry a filter; the filter's
// false-positive rate under a low build estimate; channel state-machine
// units; non-blocking (bypass-latch) scan behaviour; fault injection on
// the FPQ read path.

#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "arrow/builder.h"
#include "catalog/file_tables.h"
#include "common/fault_injector.h"
#include "exec/runtime_filter.h"
#include "format/bloom.h"
#include "format/fpq.h"
#include "physical/scan_exec.h"
#include "tests/test_util.h"

namespace fusion {
namespace test {
namespace {

struct FaultInjectorGuard {
  explicit FaultInjectorGuard(FaultInjectorPtr injector) {
    FaultInjector::Install(std::move(injector));
  }
  ~FaultInjectorGuard() { FaultInjector::Install(nullptr); }
};

// ------------------------------------------------------------- test data

/// Key layouts for the dimension (build) side relative to the fact keys.
enum class Cardinality { kLow, kHigh, kDisjoint };

const char* CardinalityName(Cardinality c) {
  switch (c) {
    case Cardinality::kLow: return "low";
    case Cardinality::kHigh: return "high";
    case Cardinality::kDisjoint: return "disjoint";
  }
  return "?";
}

/// Writes fact (8192 rows, several row groups) and dim (64 rows) FPQ
/// files. Fact keys cycle 0..255 when `c` is kLow (dense overlap with
/// dim), run 0..8191 when kHigh (dim hits ~1/128 of them), and dim keys
/// sit at 10^6.. when kDisjoint (empty join; min/max zone pruning).
/// `fks`/`ks` mirror the integer keys as strings — low-cardinality fact
/// strings dictionary-encode, exercising the per-code probe path.
class RuntimeFilterData {
 public:
  explicit RuntimeFilterData(Cardinality c) : cardinality_(c) {
    dir_ = "/tmp/fusion_rf_test_" + std::to_string(::getpid()) + "_" +
           CardinalityName(c);
    ::mkdir(dir_.c_str(), 0755);
    fact_path_ = dir_ + "/fact.fpq";
    dim_path_ = dir_ + "/dim.fpq";
    BuildFact();
    BuildDim();
  }

  ~RuntimeFilterData() {
    std::remove(fact_path_.c_str());
    std::remove(dim_path_.c_str());
    ::rmdir(dir_.c_str());
  }

  core::SessionContextPtr MakeSession(const std::string& rf_mode,
                                      int partitions) const {
    exec::SessionConfig config;
    config.runtime_filter_mode = rf_mode;
    config.target_partitions = partitions;
    auto ctx = core::SessionContext::Make(config);
    EXPECT_TRUE(ctx->RegisterFpq("fact", fact_path_).ok());
    EXPECT_TRUE(ctx->RegisterFpq("dim", dim_path_).ok());
    return ctx;
  }

 private:
  void BuildFact() {
    Int64Builder fk;
    StringBuilder fks;
    Int64Builder val;
    for (int64_t i = 0; i < 8192; ++i) {
      int64_t key = cardinality_ == Cardinality::kLow ? i % 256 : i;
      // Sprinkle null keys: they never match and must be prunable.
      if (i % 97 == 0) {
        fk.AppendNull();
        fks.AppendNull();
      } else {
        fk.Append(key);
        fks.Append("k" + std::to_string(key % 256));
      }
      val.Append(i);
    }
    auto schema = std::make_shared<Schema>(std::vector<Field>{
        {"fk", int64(), true},
        {"fks", utf8(), true},
        {"val", int64(), true}});
    auto batch = std::make_shared<RecordBatch>(
        schema, 8192,
        std::vector<ArrayPtr>{*fk.Finish(), *fks.Finish(), *val.Finish()});
    format::fpq::WriteOptions options;
    options.row_group_rows = 1024;  // several row groups => zone pruning
    ASSERT_OK(format::fpq::WriteFile(fact_path_, schema, {batch}, options));
  }

  void BuildDim() {
    Int64Builder k;
    StringBuilder ks;
    StringBuilder tag;
    for (int64_t i = 0; i < 64; ++i) {
      int64_t key = 0;
      switch (cardinality_) {
        case Cardinality::kLow: key = i * 4; break;            // 0..252
        case Cardinality::kHigh: key = i * 128; break;         // 0..8064
        case Cardinality::kDisjoint: key = 1000000 + i; break; // no overlap
      }
      k.Append(key);
      ks.Append("k" + std::to_string(key % 256));
      tag.Append("tag" + std::to_string(i % 8));
    }
    auto schema = std::make_shared<Schema>(std::vector<Field>{
        {"k", int64(), true},
        {"ks", utf8(), true},
        {"tag", utf8(), true}});
    auto batch = std::make_shared<RecordBatch>(
        schema, 64,
        std::vector<ArrayPtr>{*k.Finish(), *ks.Finish(), *tag.Finish()});
    ASSERT_OK(format::fpq::WriteFile(dim_path_, schema, {batch}));
  }

  Cardinality cardinality_;
  std::string dir_;
  std::string fact_path_;
  std::string dim_path_;
};

int64_t SumRfPruned(const physical::PlanMetricsNode& node) {
  int64_t total = node.rf_pruned_rows;
  for (const auto& c : node.children) total += SumRfPruned(c);
  return total;
}

int64_t SumRfChecked(const physical::PlanMetricsNode& node) {
  int64_t total = node.rf_checked_rows;
  for (const auto& c : node.children) total += SumRfChecked(c);
  return total;
}

// ------------------------------------------------------------ oracle sweep

/// Join shapes covering RF-safe kinds (inner/left/semi/anti), the
/// dictionary string-key path, a multi-join whose filter must trace
/// through an intermediate join, aggregation on top, the RF-unsafe
/// right join (the planner must refuse the filter, results still match),
/// and groupings under the join whose plain-column keys carry the filter
/// to the scan below them: HAVING between the join and the aggregate,
/// semi and anti joins, COUNT(DISTINCT) and median, a DISTINCT, a second
/// group key and a dictionary string key.
const std::vector<std::string>& OracleQueries() {
  static const std::vector<std::string> queries = {
      "SELECT f.val, d.tag FROM fact f JOIN dim d ON f.fk = d.k",
      "SELECT d.tag, f.val FROM dim d LEFT JOIN fact f ON d.k = f.fk",
      "SELECT f.val FROM fact f LEFT SEMI JOIN dim d ON f.fk = d.k",
      "SELECT f.val FROM fact f LEFT ANTI JOIN dim d ON f.fk = d.k",
      "SELECT f.val, d.tag FROM fact f JOIN dim d ON f.fks = d.ks",
      "SELECT f.val, a.tag, b.tag FROM fact f JOIN dim a ON f.fk = a.k "
      "JOIN dim b ON f.fk = b.k",
      "SELECT d.tag, count(*), sum(f.val) FROM fact f JOIN dim d "
      "ON f.fk = d.k GROUP BY d.tag",
      "SELECT f.val, d.tag FROM fact f RIGHT JOIN dim d ON f.fk = d.k",
      "SELECT f.val FROM fact f JOIN dim d ON f.fk = d.k "
      "WHERE f.val % 3 = 0 AND d.tag <> 'tag7'",
      "WITH g AS (SELECT fk, count(*) AS c, sum(val) AS s FROM fact GROUP BY fk "
      "HAVING sum(val) % 3 <> 0) "
      "SELECT g.fk, g.c, g.s, d.tag FROM g JOIN dim d ON g.fk = d.k",
      "SELECT g.fk, g.c FROM (SELECT fk, count(*) AS c FROM fact GROUP BY fk) g "
      "LEFT SEMI JOIN dim d ON g.fk = d.k",
      "SELECT g.fk, g.c FROM (SELECT fk, count(*) AS c FROM fact GROUP BY fk) g "
      "LEFT ANTI JOIN dim d ON g.fk = d.k",
      "SELECT d.tag FROM dim d LEFT ANTI JOIN "
      "(SELECT fk, count(*) AS c FROM fact GROUP BY fk) g ON d.k = g.fk",
      "WITH g AS (SELECT fk, count(DISTINCT val % 5) AS cd, median(val) AS med "
      "FROM fact GROUP BY fk) "
      "SELECT g.fk, g.cd, g.med, d.tag FROM g JOIN dim d ON g.fk = d.k",
      "SELECT g.fk, d.tag FROM (SELECT DISTINCT fk FROM fact) g "
      "JOIN dim d ON g.fk = d.k",
      "WITH g AS (SELECT fks, fk, max(val) AS m FROM fact GROUP BY fks, fk) "
      "SELECT g.fks, g.m, d.tag FROM g JOIN dim d ON g.fk = d.k",
      "WITH g AS (SELECT fks, count(*) AS c, sum(val) AS s FROM fact GROUP BY fks) "
      "SELECT g.fks, g.c, g.s, d.tag FROM g JOIN dim d ON g.fks = d.ks",
  };
  return queries;
}

class RuntimeFilterOracle : public ::testing::TestWithParam<Cardinality> {};

TEST_P(RuntimeFilterOracle, ModesAgreeWithOffBaseline) {
  RuntimeFilterData data(GetParam());
  for (int partitions : {1, 3, 4}) {
    for (const auto& sql : OracleQueries()) {
      auto off_ctx = data.MakeSession("off", partitions);
      ASSERT_OK_AND_ASSIGN(auto off, off_ctx->ExecuteSqlWithMetrics(sql));
      ASSERT_EQ(SumRfChecked(off.metrics), 0)
          << "off mode must not touch runtime filters: " << sql;
      auto baseline = SortedStringRows(off.batches);
      for (const char* mode : {"force", "auto"}) {
        auto ctx = data.MakeSession(mode, partitions);
        ASSERT_OK_AND_ASSIGN(auto got, ctx->ExecuteSqlWithMetrics(sql));
        EXPECT_EQ(SortedStringRows(got.batches), baseline)
            << "mode=" << mode << " partitions=" << partitions
            << " cardinality=" << CardinalityName(GetParam()) << " sql=" << sql;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Cardinalities, RuntimeFilterOracle,
                         ::testing::Values(Cardinality::kLow,
                                           Cardinality::kHigh,
                                           Cardinality::kDisjoint),
                         [](const auto& info) {
                           return CardinalityName(info.param);
                         });

TEST(RuntimeFilterTest, SelectiveJoinPrunesProbeRows) {
  RuntimeFilterData data(Cardinality::kHigh);
  auto ctx = data.MakeSession("force", 1);
  ASSERT_OK_AND_ASSIGN(
      auto result,
      ctx->ExecuteSqlWithMetrics(
          "SELECT f.val, d.tag FROM fact f JOIN dim d ON f.fk = d.k"));
  EXPECT_GT(SumRfChecked(result.metrics), 0);
  EXPECT_GT(SumRfPruned(result.metrics), 0);
  // Dim hits 64 of 8192 distinct fact keys; the Bloom filter must drop
  // the overwhelming majority of probe rows.
  EXPECT_GT(SumRfPruned(result.metrics), SumRfChecked(result.metrics) / 2);
}

TEST(RuntimeFilterTest, DisjointKeysPruneEverything) {
  RuntimeFilterData data(Cardinality::kDisjoint);
  auto ctx = data.MakeSession("force", 1);
  ASSERT_OK_AND_ASSIGN(
      auto result,
      ctx->ExecuteSqlWithMetrics(
          "SELECT f.val, d.tag FROM fact f JOIN dim d ON f.fk = d.k"));
  EXPECT_EQ(result.batches.size() == 0 ? 0 : TotalRows(result.batches), 0);
  // Build keys live at 10^6..; every probe row group's zone map misses
  // the [min,max] range, so rows are pruned wholesale or row-by-row.
  EXPECT_GT(SumRfPruned(result.metrics) +
                (SumRfChecked(result.metrics) == 0 ? 1 : 0),
            0);
}

TEST(RuntimeFilterTest, UnsafeKindsGetNoFilter) {
  RuntimeFilterData data(Cardinality::kHigh);
  // RIGHT JOIN preserves the probe side: unmatched probe rows ARE the
  // interesting output and must never be pruned.
  auto ctx = data.MakeSession("force", 1);
  ASSERT_OK_AND_ASSIGN(
      auto result,
      ctx->ExecuteSqlWithMetrics(
          "SELECT f.val, d.tag FROM dim d RIGHT JOIN fact f ON d.k = f.fk"));
  EXPECT_EQ(SumRfChecked(result.metrics), 0);
  EXPECT_EQ(TotalRows(result.batches), 8192);
}

/// The `ScanExec: <table>` line of the physical plan EXPLAIN prints.
std::string ScanLine(core::SessionContext* ctx, const std::string& sql,
                     const std::string& table) {
  auto batches = ctx->ExecuteSql("EXPLAIN " + sql);
  if (!batches.ok()) return batches.status().ToString();
  const std::string text = (*batches)[0]->column(0)->ValueToString(0);
  const size_t at = text.find("ScanExec: " + table, text.find("== Physical Plan =="));
  if (at == std::string::npos) return "no scan of " + table;
  return text.substr(at, text.find('\n', at) - at);
}

const physical::PlanMetricsNode* FindNode(const physical::PlanMetricsNode& node,
                                          const std::string& prefix) {
  if (node.description.rfind(prefix, 0) == 0) return &node;
  for (const auto& c : node.children) {
    if (const auto* found = FindNode(c, prefix)) return found;
  }
  return nullptr;
}

TEST(RuntimeFilterPlanTest, FiltersPassThroughPlainGroupKeys) {
  RuntimeFilterData data(Cardinality::kHigh);
  for (int partitions : {1, 4}) {
    SCOPED_TRACE("partitions=" + std::to_string(partitions));
    auto ctx = data.MakeSession("force", partitions);
    // A group key that is a plain column, of an aggregate or of a
    // DISTINCT, carries the join's filter to the scan under the grouping.
    const std::string grouped =
        "WITH g AS (SELECT fk, count(*) AS c FROM fact GROUP BY fk) "
        "SELECT g.fk, g.c, d.tag FROM g JOIN dim d ON g.fk = d.k";
    const std::string distinct =
        "SELECT g.fk, d.tag FROM (SELECT DISTINCT fk FROM fact) g "
        "JOIN dim d ON g.fk = d.k";
    for (const std::string& sql : {grouped, distinct}) {
      EXPECT_NE(ScanLine(ctx.get(), sql, "fact").find("runtime_filter=[fk]"),
                std::string::npos)
          << sql;
    }
    // An expression key, a global aggregate's output and an aggregate
    // output beside a group key stop the trace.
    for (const char* sql : {
             "WITH g AS (SELECT fk % 7 AS k7, count(*) AS c FROM fact GROUP BY fk % 7) "
             "SELECT g.k7, g.c, d.tag FROM g JOIN dim d ON g.k7 = d.k",
             "SELECT g.m FROM (SELECT max(fk) AS m FROM fact) g "
             "LEFT SEMI JOIN dim d ON g.m = d.k",
             "WITH a AS (SELECT fk, count(*) AS cnt FROM fact GROUP BY fk) "
             "SELECT d.tag, a.fk FROM dim d JOIN a ON d.k = a.cnt"}) {
      const std::string line = ScanLine(ctx.get(), sql, "fact");
      EXPECT_EQ(line.rfind("ScanExec: fact", 0), 0u) << line;
      EXPECT_EQ(line.find("runtime_filter"), std::string::npos) << sql;
    }
    // The scan under the aggregate prunes: 63 of fact's 8192 keys match.
    ASSERT_OK_AND_ASSIGN(auto result, ctx->ExecuteSqlWithMetrics(grouped));
    const auto* scan = FindNode(result.metrics, "ScanExec: fact");
    ASSERT_NE(scan, nullptr);
    EXPECT_GT(scan->rf_pruned_rows, 8192 / 2);
    EXPECT_EQ(TotalRows(result.batches), 63);
  }
}

TEST(RuntimeFilterTest, FilterIsSizedForTheRealBuild) {
  // The build keeps the 5,000 even keys of b (k = 0..9999), which the
  // planner estimates at 1,000 rows (10% for `k % 2 = 0`). The probe p
  // holds every key of 0..9999 ten times, so every probe batch spans the
  // build's min/max and only the Bloom filter prunes. Sized for the
  // build's real rows, it passes the 50,000 matching probe rows and at
  // most 2% of the 50,000 others. A filter sized for 1,024 keys (64
  // blocks) holding 5,000 keys would set each probed lane bit with
  // probability 1 - (31/32)^78 = 0.92 and pass 0.92^8, about half, of
  // them.
  auto b_schema = fusion::schema({Field("k", int64(), false)});
  auto p_schema = fusion::schema({Field("fk", int64(), false)});
  std::vector<int64_t> b_keys(10000), p_keys(100000);
  for (int64_t i = 0; i < 10000; ++i) b_keys[i] = i;
  for (int64_t i = 0; i < 100000; ++i) p_keys[i] = i % 10000;
  auto b = std::make_shared<RecordBatch>(b_schema, 10000,
                                         std::vector<ArrayPtr>{MakeInt64Array(b_keys)});
  auto p = std::make_shared<RecordBatch>(p_schema, 100000,
                                         std::vector<ArrayPtr>{MakeInt64Array(p_keys)});
  const std::string sql =
      "SELECT count(*) FROM p JOIN (SELECT k FROM b WHERE k % 2 = 0) e ON p.fk = e.k";
  for (int partitions : {1, 4}) {
    SCOPED_TRACE("partitions=" + std::to_string(partitions));
    exec::SessionConfig config;
    config.runtime_filter_mode = "force";
    config.target_partitions = partitions;
    auto ctx = core::SessionContext::Make(config);
    ASSERT_OK(ctx->RegisterTable(
        "b", catalog::MemoryTable::Make(b_schema, SliceBatch(b, 1024)).ValueOrDie()));
    ASSERT_OK(ctx->RegisterTable(
        "p", catalog::MemoryTable::Make(p_schema, SliceBatch(p, 1024)).ValueOrDie()));
    ASSERT_OK_AND_ASSIGN(auto result, ctx->ExecuteSqlWithMetrics(sql));
    EXPECT_EQ(ToStringRows(result.batches)[0][0], "50000");
    const auto* join = FindNode(result.metrics, "HashJoinExec");
    ASSERT_NE(join, nullptr);
    // The case needs a build estimated far below its 5,000 rows.
    EXPECT_NE(join->description.find("(build=1000,"), std::string::npos)
        << join->description;
    EXPECT_NE(join->description.find("runtime_filter="), std::string::npos);
    EXPECT_EQ(SumRfChecked(result.metrics), 100000);
    const int64_t passed = SumRfChecked(result.metrics) - SumRfPruned(result.metrics);
    EXPECT_GE(passed, 50000);
    EXPECT_LE(passed, 50000 + 50000 * 2 / 100);
  }
}

// --------------------------------------------------- fault injection run

TEST(RuntimeFilterTest, FpqReadFaultIsCleanError) {
  RuntimeFilterData data(Cardinality::kHigh);
  ASSERT_OK_AND_ASSIGN(auto inj, FaultInjector::Make("fpq.read:0.5", 7));
  auto ctx = data.MakeSession("force", 4);
  FaultInjectorGuard guard(inj);
  // Build-side or probe-side reads may fail; either way the query ends
  // with a clean error (never a hang: a failed build latches kBypass).
  auto res = ctx->ExecuteSql(
      "SELECT f.val, d.tag FROM fact f JOIN dim d ON f.fk = d.k");
  if (!res.ok()) {
    EXPECT_NE(res.status().ToString().find("fault-injected"),
              std::string::npos);
  }
}

// --------------------------------------------------------- channel units

TEST(RuntimeFilterChannelTest, PublishOnceLatch) {
  exec::RuntimeFilterRegistry registry;
  auto rf = registry.Create("fk");
  EXPECT_EQ(rf->state(), exec::RuntimeFilter::State::kPending);
  EXPECT_FALSE(rf->ready());

  format::BloomFilter bloom(128);
  bloom.Insert(42);
  rf->Publish(std::move(bloom), Scalar::Int64(1), Scalar::Int64(9), 10);
  ASSERT_TRUE(rf->ready());
  EXPECT_EQ(rf->build_rows(), 10);
  EXPECT_TRUE(rf->bloom().MightContain(42));

  // Later transitions are ignored: first past the latch wins.
  rf->Bypass();
  EXPECT_TRUE(rf->ready());
  format::BloomFilter other(128);
  rf->Publish(std::move(other), Scalar::Null(int64()),
              Scalar::Null(int64()), 0);
  EXPECT_EQ(rf->build_rows(), 10);

  auto bypassed = registry.Create("other");
  bypassed->Bypass();
  EXPECT_EQ(bypassed->state(), exec::RuntimeFilter::State::kBypass);
  EXPECT_EQ(registry.filters().size(), 2u);
}

// ----------------------------------------- non-blocking scan behaviour

/// Replays a fixed batch list; used to drive RuntimeFilterStream
/// directly without a file behind it.
class VectorIterator : public catalog::BatchIterator {
 public:
  explicit VectorIterator(std::vector<RecordBatchPtr> batches)
      : batches_(std::move(batches)) {}
  Result<RecordBatchPtr> Next() override {
    if (pos_ >= batches_.size()) return RecordBatchPtr(nullptr);
    return batches_[pos_++];
  }

 private:
  std::vector<RecordBatchPtr> batches_;
  size_t pos_ = 0;
};

RecordBatchPtr MakeKeyBatch(int64_t start, int64_t n) {
  Int64Builder key;
  for (int64_t i = 0; i < n; ++i) key.Append(start + i);
  auto schema = std::make_shared<Schema>(
      std::vector<Field>{{"key", int64(), true}});
  return std::make_shared<RecordBatch>(schema, n,
                                       std::vector<ArrayPtr>{*key.Finish()});
}

TEST(RuntimeFilterStreamTest, PendingFilterNeverBlocksThenApplies) {
  auto schema = std::make_shared<Schema>(
      std::vector<Field>{{"key", int64(), true}});
  auto rf = std::make_shared<exec::RuntimeFilter>(0, "key");
  auto checked = std::make_shared<exec::MetricValue>();
  auto pruned = std::make_shared<exec::MetricValue>();

  std::vector<RecordBatchPtr> batches = {MakeKeyBatch(0, 100),
                                         MakeKeyBatch(0, 100)};
  auto inner = std::make_unique<exec::IteratorStream>(
      schema, std::make_unique<VectorIterator>(std::move(batches)));
  physical::RuntimeFilterStream stream(
      std::move(inner), schema, {{0, rf}}, checked, pruned);

  // Still pending: the batch passes through untouched, immediately.
  ASSERT_OK_AND_ASSIGN(auto first, stream.Next());
  ASSERT_NE(first, nullptr);
  EXPECT_EQ(first->num_rows(), 100);
  EXPECT_EQ(checked->value(), 0);

  // Publish keys {0..9}: the next batch is filtered down.
  format::BloomFilter bloom(128);
  auto keys = MakeKeyBatch(0, 10)->column(0);
  std::vector<uint64_t> hashes;
  ASSERT_OK(compute::HashArray(*keys, 0, &hashes));
  for (uint64_t h : hashes) bloom.Insert(h);
  rf->Publish(std::move(bloom), Scalar::Int64(0), Scalar::Int64(9), 10);

  ASSERT_OK_AND_ASSIGN(auto second, stream.Next());
  ASSERT_NE(second, nullptr);
  EXPECT_EQ(second->num_rows(), 10);
  EXPECT_EQ(checked->value(), 100);
  EXPECT_EQ(pruned->value(), 90);
}

TEST(RuntimeFilterStreamTest, BypassedFilterPassesThrough) {
  auto schema = std::make_shared<Schema>(
      std::vector<Field>{{"key", int64(), true}});
  auto rf = std::make_shared<exec::RuntimeFilter>(0, "key");
  rf->Bypass();
  auto checked = std::make_shared<exec::MetricValue>();
  auto pruned = std::make_shared<exec::MetricValue>();
  std::vector<RecordBatchPtr> batches = {MakeKeyBatch(0, 50)};
  auto inner = std::make_unique<exec::IteratorStream>(
      schema, std::make_unique<VectorIterator>(std::move(batches)));
  physical::RuntimeFilterStream stream(
      std::move(inner), schema, {{0, rf}}, checked, pruned);
  ASSERT_OK_AND_ASSIGN(auto batch, stream.Next());
  ASSERT_NE(batch, nullptr);
  EXPECT_EQ(batch->num_rows(), 50);
  EXPECT_EQ(checked->value(), 0);
  EXPECT_EQ(pruned->value(), 0);
}

}  // namespace
}  // namespace test
}  // namespace fusion
