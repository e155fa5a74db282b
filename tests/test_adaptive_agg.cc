// Adaptive partitioned aggregation: randomized oracle checks against
// the single-partition plan across group cardinalities (collapsing,
// medium, ~unique), partition counts, and every FUSION_AGG_BYPASS mode;
// the COUNT(DISTINCT) rewrite checked against the plan without it; plus
// scan-unit balance regression tests for the scan sources that feed
// it, and run-to-run determinism of float aggregates over a
// multi-partition scan.

#include "tests/test_util.h"

#include <bit>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <set>

#include "catalog/file_tables.h"
#include "catalog/memory_table.h"
#include "format/fpq.h"
#include "optimizer/optimizer.h"
#include "physical/execution_plan.h"

namespace fusion {
namespace test {
namespace {

/// Scoped FUSION_AGG_BYPASS override ("" = unset).
class ScopedBypassEnv {
 public:
  explicit ScopedBypassEnv(const char* value) {
    if (value != nullptr && *value != '\0') {
      ::setenv("FUSION_AGG_BYPASS", value, 1);
    } else {
      ::unsetenv("FUSION_AGG_BYPASS");
    }
  }
  ~ScopedBypassEnv() { ::unsetenv("FUSION_AGG_BYPASS"); }
};

/// A table of `n` rows with int64/string keys of the given cardinality,
/// a nullable value column and a float column, sliced into many small
/// batches so multi-partition scans have units to distribute. No sort
/// order: the planner must use the hash (not streaming) aggregate.
catalog::TableProviderPtr MakeRandomTable(int64_t n, int64_t cardinality,
                                          uint64_t seed) {
  std::mt19937_64 rng(seed);
  Int64Builder k;
  StringBuilder ks;
  Int64Builder v;
  Float64Builder f;
  for (int64_t i = 0; i < n; ++i) {
    const int64_t key = static_cast<int64_t>(rng() % cardinality);
    k.Append(key);
    ks.Append("g" + std::to_string(key));
    if (rng() % 11 == 0) {
      v.AppendNull();
    } else {
      v.Append(static_cast<int64_t>(rng() % 1000) - 500);
    }
    f.Append(static_cast<double>(rng() % 10000) * 0.25);
  }
  auto schema = fusion::schema({Field("k", int64(), false),
                                Field("ks", utf8(), false),
                                Field("v", int64(), true),
                                Field("f", float64(), false)});
  std::vector<ArrayPtr> cols = {k.Finish().ValueOrDie(), ks.Finish().ValueOrDie(),
                                v.Finish().ValueOrDie(), f.Finish().ValueOrDie()};
  auto batch = std::make_shared<RecordBatch>(schema, n, std::move(cols));
  return catalog::MemoryTable::Make(schema, SliceBatch(batch, 512)).ValueOrDie();
}

core::SessionContextPtr MakeSession(const catalog::TableProviderPtr& table,
                                    int partitions) {
  exec::SessionConfig config;
  config.target_partitions = partitions;
  // Decide the bypass within the test's data size (default probe window
  // is 100k rows).
  config.agg_bypass_probe_rows = 2000;
  auto ctx = core::SessionContext::Make(config);
  ctx->RegisterTable("r", table).Abort();
  return ctx;
}

const char* kQueries[] = {
    "SELECT k, count(*), sum(v), min(v), max(f) FROM r GROUP BY k",
    "SELECT ks, count(*), sum(v) FROM r GROUP BY ks",
    "SELECT k, ks, avg(f) FROM r GROUP BY k, ks",
    "SELECT DISTINCT k FROM r",
    "SELECT k, count(*) FROM r WHERE v > 0 GROUP BY k",
    "SELECT count(*), sum(v), min(v), max(f), avg(f) FROM r",
    "SELECT count(*), sum(v), max(f) FROM r WHERE k < 0",
    "SELECT k, count(DISTINCT v), count(DISTINCT ks) FROM r GROUP BY k",
    "SELECT count(DISTINCT v), count(DISTINCT ks) FILTER (WHERE v > 0) FROM r",
    "SELECT ks, median(f), count(*) FROM r GROUP BY ks",
};

void CheckAgainstOracle(int64_t n, int64_t cardinality, uint64_t seed) {
  auto table = MakeRandomTable(n, cardinality, seed);
  auto reference = MakeSession(table, /*partitions=*/1);
  for (const char* sql : kQueries) {
    ASSERT_OK_AND_ASSIGN(auto expected_batches, reference->ExecuteSql(sql));
    auto expected = SortedStringRows(expected_batches);
    for (int partitions : {1, 4}) {
      for (const char* bypass : {"off", "force", ""}) {
        ScopedBypassEnv env(bypass);
        auto session = MakeSession(table, partitions);
        ASSERT_OK_AND_ASSIGN(auto batches, session->ExecuteSql(sql));
        EXPECT_EQ(SortedStringRows(batches), expected)
            << sql << " [partitions=" << partitions << " bypass="
            << (*bypass != '\0' ? bypass : "auto")
            << " cardinality=" << cardinality << "]";
      }
    }
  }
}

TEST(AdaptiveAggOracleTest, CollapsingCardinality) {
  // Few groups: pre-aggregation collapses almost everything; the auto
  // bypass must stay off.
  CheckAgainstOracle(/*n=*/20000, /*cardinality=*/5, /*seed=*/101);
}

TEST(AdaptiveAggOracleTest, MediumCardinality) {
  CheckAgainstOracle(/*n=*/20000, /*cardinality=*/997, /*seed=*/202);
}

TEST(AdaptiveAggOracleTest, NearUniqueCardinality) {
  // Groups ~ rows: the auto bypass fires and rows flow through as
  // per-row partial state; results must not change.
  CheckAgainstOracle(/*n=*/20000, /*cardinality=*/1000000, /*seed=*/303);
}

TEST(AdaptiveAggOracleTest, BypassMetricsSurfaceInExplain) {
  auto table = MakeRandomTable(20000, 1000000, 404);
  ScopedBypassEnv env("force");
  auto session = MakeSession(table, 4);
  ASSERT_OK_AND_ASSIGN(
      auto batches,
      session->ExecuteSql(
          "EXPLAIN ANALYZE SELECT k, count(*) FROM r GROUP BY k"));
  ASSERT_EQ(TotalRows(batches), 1);
  std::string text = batches[0]->column(0)->ValueToString(0);
  EXPECT_NE(text.find("PartitionedAggregateExec"), std::string::npos) << text;
  EXPECT_NE(text.find("bypass_rows="), std::string::npos) << text;
}

TEST(AdaptiveAggOracleTest, CountDistinctFloatsMatchSelectDistinct) {
  // count(DISTINCT) compares values the way DISTINCT compares rows:
  // -0.0 equals 0.0, NaNs with different payloads are one value, and
  // NULL is not counted.
  Float64Builder f;
  for (double v : {-0.0, 0.0, std::bit_cast<double>(0x7ff8000000000001ULL),
                   std::bit_cast<double>(0x7ff8000000000002ULL), 1.5, -0.0, 1.5}) {
    f.Append(v);
  }
  f.AppendNull();
  auto schema = fusion::schema({Field("f", float64(), true)});
  auto batch = std::make_shared<RecordBatch>(
      schema, 8, std::vector<ArrayPtr>{f.Finish().ValueOrDie()});
  auto table = catalog::MemoryTable::Make(schema, SliceBatch(batch, 2)).ValueOrDie();
  for (int partitions : {1, 4}) {
    auto session = MakeSession(table, partitions);
    ASSERT_OK_AND_ASSIGN(auto distinct,
                         session->ExecuteSql("SELECT DISTINCT f FROM r "
                                             "WHERE f IS NOT NULL"));
    ASSERT_OK_AND_ASSIGN(auto counted,
                         session->ExecuteSql("SELECT count(DISTINCT f) FROM r"));
    EXPECT_EQ(TotalRows(distinct), 3) << "partitions=" << partitions;
    EXPECT_EQ(ToStringRows(counted)[0][0], std::to_string(TotalRows(distinct)))
        << "partitions=" << partitions;
  }
}

// --------------------------------------------- single_distinct_to_groupby

/// A table for COUNT(DISTINCT) rewrites: an int key `k` whose group 0
/// has only NULL `v`, a dictionary-encoded string key `ks`, a nullable
/// int `v`, a float `f` drawn from -0.0, 0.0, two NaN payloads, 1.5 and
/// NULL, and a float `w` whose sums are exact in any order.
catalog::TableProviderPtr MakeDistinctTable(int64_t n, uint64_t seed) {
  std::mt19937_64 rng(seed);
  const double kFloats[] = {-0.0, 0.0, std::bit_cast<double>(0x7ff8000000000001ULL),
                            std::bit_cast<double>(0x7ff8000000000002ULL), 1.5};
  Int64Builder k;
  DictionaryBuilder ks;
  Int64Builder v;
  Float64Builder f;
  Float64Builder w;
  for (int64_t i = 0; i < n; ++i) {
    const int64_t key = static_cast<int64_t>(rng() % 37);
    k.Append(key);
    ks.Append("s" + std::to_string(rng() % 11));
    if (key == 0 || rng() % 9 == 0) {
      v.AppendNull();
    } else {
      v.Append(static_cast<int64_t>(rng() % 300) - 150);
    }
    const uint64_t fi = rng() % 6;
    if (fi == 5) {
      f.AppendNull();
    } else {
      f.Append(kFloats[fi]);
    }
    w.Append(static_cast<double>(rng() % 4000) * 0.25 - 500);
  }
  auto schema = fusion::schema({Field("k", int64(), false), Field("ks", utf8(), false),
                                Field("v", int64(), true), Field("f", float64(), true),
                                Field("w", float64(), false)});
  std::vector<ArrayPtr> cols = {k.Finish().ValueOrDie(), ks.Finish().ValueOrDie(),
                                v.Finish().ValueOrDie(), f.Finish().ValueOrDie(),
                                w.Finish().ValueOrDie()};
  auto batch = std::make_shared<RecordBatch>(schema, n, std::move(cols));
  return catalog::MemoryTable::Make(schema, SliceBatch(batch, 512)).ValueOrDie();
}

/// The default rules minus single_distinct_to_groupby: COUNT(DISTINCT)
/// stays one aggregate over a table of (group, value) pairs.
core::SessionContextPtr MakeSessionWithoutRewrite(
    const catalog::TableProviderPtr& table, int partitions) {
  auto ctx = MakeSession(table, partitions);
  const optimizer::Optimizer defaults = optimizer::Optimizer::Default();
  optimizer::Optimizer without;
  for (const auto& rule : defaults.rules()) {
    if (rule->name() != "single_distinct_to_groupby") without.AddRule(rule);
  }
  *ctx->optimizer() = without;
  return ctx;
}

/// Does any aggregate of the optimized plan for `sql` still count
/// DISTINCT values itself?
bool PlansCountDistinct(core::SessionContext* ctx, const std::string& sql) {
  auto plan = ctx->CreateLogicalPlan(sql).ValueOrDie();
  plan = ctx->OptimizePlan(plan).ValueOrDie();
  std::function<bool(const logical::PlanPtr&)> visit = [&](const logical::PlanPtr& p) {
    for (const auto& a : p->aggr_exprs) {
      if (logical::Unalias(a)->function_name == "count_distinct") return true;
    }
    return std::any_of(p->children.begin(), p->children.end(), visit);
  };
  return visit(plan);
}

TEST(SingleDistinctToGroupByTest, MatchesPlanWithoutRewrite) {
  auto table = MakeDistinctTable(/*n=*/12000, /*seed=*/808);
  const char* queries[] = {
      "SELECT count(DISTINCT v), count(*), count(v), sum(w), min(v), max(w), avg(w) "
      "FROM r",
      "SELECT k, count(DISTINCT v), count(*), count(v), sum(v), min(w), max(v), "
      "avg(v) FROM r GROUP BY k",
      "SELECT ks, count(DISTINCT v) AS u, avg(w), count(*) FROM r GROUP BY ks",
      "SELECT k, ks, count(DISTINCT v), sum(w) FROM r GROUP BY k, ks",
      "SELECT k, count(DISTINCT ks) FROM r GROUP BY k",
      "SELECT count(DISTINCT f), count(*), sum(w) FROM r",
      "SELECT ks, count(DISTINCT f), count(f) FROM r GROUP BY ks",
      // No group keys and no rows: the counts must be 0, not NULL.
      "SELECT count(DISTINCT v), count(*), count(v), sum(v), avg(w) FROM r "
      "WHERE false",
      "SELECT k, count(DISTINCT v), count(*) FROM r WHERE false GROUP BY k",
      "SELECT k, count(DISTINCT v) AS u FROM r GROUP BY k "
      "HAVING count(DISTINCT v) > 40",
      "SELECT k % 5, count(DISTINCT v % 7), count(DISTINCT v % 7) + 1 FROM r "
      "GROUP BY k % 5",
      "SELECT k, count(DISTINCT v), sum(w) FILTER (WHERE v > 0), "
      "count(*) FILTER (WHERE v IS NULL) FROM r GROUP BY k",
  };
  auto reference = MakeSessionWithoutRewrite(table, /*partitions=*/1);
  for (const char* sql : queries) {
    ASSERT_TRUE(PlansCountDistinct(reference.get(), sql)) << sql;
    ASSERT_FALSE(PlansCountDistinct(MakeSession(table, 1).get(), sql))
        << "not rewritten: " << sql;
    ASSERT_OK_AND_ASSIGN(auto expected_batches, reference->ExecuteSql(sql));
    auto expected = SortedStringRows(expected_batches);
    for (int partitions : {1, 4}) {
      for (const char* bypass : {"off", "force", ""}) {
        ScopedBypassEnv env(bypass);
        auto session = MakeSession(table, partitions);
        ASSERT_OK_AND_ASSIGN(auto batches, session->ExecuteSql(sql));
        EXPECT_EQ(SortedStringRows(batches), expected)
            << sql << " [partitions=" << partitions
            << " bypass=" << (*bypass != '\0' ? bypass : "auto") << "]";
      }
    }
  }
}

TEST(SingleDistinctToGroupByTest, OtherShapesKeepOneAggregate) {
  auto session = MakeSession(MakeDistinctTable(1000, 910), 4);
  for (const char* sql : {
           "SELECT k, count(DISTINCT v), count(DISTINCT ks) FROM r GROUP BY k",
           "SELECT count(DISTINCT v) FILTER (WHERE w > 0) FROM r",
           "SELECT ks, count(DISTINCT v), median(w) FROM r GROUP BY ks",
       }) {
    EXPECT_TRUE(PlansCountDistinct(session.get(), sql)) << sql;
  }
}

// ------------------------------------------------------ scan unit balance

/// Drain one iterator, counting rows.
int64_t DrainRows(const catalog::BatchIteratorPtr& it) {
  int64_t rows = 0;
  for (;;) {
    auto batch = it->Next();
    EXPECT_TRUE(batch.ok()) << batch.status().ToString();
    if (!batch.ok() || *batch == nullptr) break;
    rows += (*batch)->num_rows();
  }
  return rows;
}

TEST(MorselBalanceTest, MemoryTableSplitsUnitsWithinOne) {
  // 10 equal 512-row batches over 4 partitions: round-robin must give
  // every partition 2 or 3 units — never the 7/1/1/1 static-split skew.
  auto table = MakeRandomTable(10 * 512, 100, 505);
  catalog::ScanRequest request;
  request.target_partitions = 4;
  ASSERT_OK_AND_ASSIGN(auto iterators, table->Scan(request));
  ASSERT_EQ(iterators.size(), 4u);
  std::vector<int64_t> rows;
  for (auto& it : iterators) rows.push_back(DrainRows(it));
  const auto [lo, hi] = std::minmax_element(rows.begin(), rows.end());
  EXPECT_LE(*hi - *lo, 512) << "unit imbalance exceeds one 512-row batch";
  EXPECT_EQ(*lo + *hi + rows[1] + rows[2], 10 * 512);
}

TEST(MorselBalanceTest, ParallelQueryOverManyUnitsStaysCorrect) {
  // End-to-end: a 4-partition query over 40 units dealt round-robin;
  // every row is aggregated exactly once.
  auto table = MakeRandomTable(40 * 512, 37, 707);
  auto session = MakeSession(table, 4);
  ASSERT_OK_AND_ASSIGN(auto rows,
                       session->ExecuteSql("SELECT sum(cnt) FROM (SELECT k, "
                                           "count(*) AS cnt FROM r GROUP BY k)"));
  EXPECT_EQ(ToStringRows(rows)[0][0], std::to_string(40 * 512));
}

// ----------------------------------------------------------- determinism

/// An FPQ table of 16 row groups of 8192 rows: g cycles through 8 groups
/// and f is a float of mixed sign whose magnitude spans 1e-3 to 1e10, so
/// the bits of sum(f) depend on which rows each partition adds up.
catalog::TableProviderPtr MakeFloatSumTable() {
  const int64_t n = 16 * 8192;
  std::mt19937_64 rng(2026);
  std::uniform_real_distribution<double> exponent(-3.0, 10.0);
  Int64Builder g;
  Float64Builder f;
  for (int64_t i = 0; i < n; ++i) {
    g.Append(i % 8);
    const double magnitude = std::pow(10.0, exponent(rng));
    f.Append(rng() % 2 == 0 ? magnitude : -magnitude);
  }
  auto schema = fusion::schema({Field("g", int64(), false), Field("f", float64(), false)});
  auto batch = std::make_shared<RecordBatch>(
      schema, n, std::vector<ArrayPtr>{g.Finish().ValueOrDie(), f.Finish().ValueOrDie()});
  const std::string path = "/tmp/fusion_test_float_sum.fpq";
  format::fpq::WriteOptions options;
  options.row_group_rows = 8192;
  format::fpq::WriteFile(path, schema, {batch}, options).Abort();
  return catalog::FpqTable::Open({path}).ValueOrDie();
}

core::SessionContextPtr FourPartitionSession(const catalog::TableProviderPtr& table) {
  exec::SessionConfig config;
  config.target_partitions = 4;
  auto ctx = core::SessionContext::Make(config);
  ctx->RegisterTable("t", table).Abort();
  return ctx;
}

TEST(ScanDeterminismTest, GroupedFloatSumIsBitIdenticalAcrossRuns) {
  auto session = FourPartitionSession(MakeFloatSumTable());
  std::set<std::string> results;
  for (int run = 0; run < 30; ++run) {
    ASSERT_OK_AND_ASSIGN(
        auto batches,
        session->ExecuteSql("SELECT g, sum(f) FROM t GROUP BY g ORDER BY g"));
    std::string bits;
    for (const auto& batch : batches) {
      const auto& sums = checked_cast<Float64Array>(*batch->column(1));
      for (int64_t i = 0; i < sums.length(); ++i) {
        char buf[64];
        std::snprintf(buf, sizeof(buf), "%a;", sums.Value(i));
        bits += buf;
      }
    }
    results.insert(bits);
  }
  EXPECT_EQ(results.size(), 1u) << "sum(f) took " << results.size()
                                << " different bit patterns in 30 runs";
}

TEST(ScanDeterminismTest, MaxEqualityCteFindsItsRow) {
  // The CTE is evaluated twice; both evaluations must sum alike for the
  // group holding the maximum to equal it.
  auto session = FourPartitionSession(MakeFloatSumTable());
  int misses = 0;
  for (int run = 0; run < 30; ++run) {
    ASSERT_OK_AND_ASSIGN(
        auto batches,
        session->ExecuteSql("WITH r AS (SELECT g, sum(f) AS s FROM t GROUP BY g) "
                            "SELECT count(*) FROM r WHERE s = (SELECT max(s) FROM r)"));
    if (ToStringRows(batches)[0][0] != "1") ++misses;
  }
  EXPECT_EQ(misses, 0) << "of 30 runs";
}

}  // namespace
}  // namespace test
}  // namespace fusion
