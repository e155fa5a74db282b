// Window functions (paper §6.5): frames, ranks and offsets; aggregates
// over OVER checked against the same aggregate over a self-join; the
// plan shape of grouped window specifications; the memory a window
// partition holds; and TIE, which shares the window evaluator.

#include "tests/test_util.h"

#include <cmath>
#include <functional>
#include <limits>

#include "baseline/tie_engine.h"
#include "exec/memory_pool.h"

namespace fusion {
namespace test {
namespace {

TEST(WindowTest, SortReuseMatchesExplicitSort) {
  // Table t is declared sorted by id: the window can reuse the input
  // order (paper Â§6.5). A derived (order-destroying) source forces the
  // sort path; results must agree.
  auto ctx = MakeTestSession(200);
  const char* reuse =
      "SELECT id, sum(v) OVER (ORDER BY id) AS rs FROM t";
  const char* resort =
      "SELECT id, sum(v) OVER (ORDER BY id) AS rs "
      "FROM (SELECT * FROM t WHERE id >= 0 OR v > 0) u";
  ASSERT_OK_AND_ASSIGN(auto a, ctx->ExecuteSql(reuse));
  ASSERT_OK_AND_ASSIGN(auto b, ctx->ExecuteSql(resort));
  EXPECT_EQ(SortedStringRows(a), SortedStringRows(b));
}

TEST(WindowTest, RunningAggregatesAndRanks) {
  auto ctx = MakeTestSession(12);
  ASSERT_OK_AND_ASSIGN(
      auto batches,
      ctx->ExecuteSql(
          "SELECT id, rank() OVER (PARTITION BY grp ORDER BY v DESC) AS r, "
          "dense_rank() OVER (PARTITION BY grp ORDER BY v DESC) AS dr, "
          "avg(v) OVER (PARTITION BY grp) AS gavg "
          "FROM t ORDER BY id"));
  EXPECT_EQ(TotalRows(batches), 12);
}

TEST(WindowTest, ExplicitRowsFrame) {
  auto ctx = MakeTestSession(6);
  ASSERT_OK_AND_ASSIGN(
      auto batches,
      ctx->ExecuteSql("SELECT id, sum(id) OVER (ORDER BY id ROWS BETWEEN 1 "
                      "PRECEDING AND 1 FOLLOWING) AS s FROM t ORDER BY id"));
  auto rows = ToStringRows(batches);
  // id: 0..5; s[0]=0+1=1, s[1]=0+1+2=3, ..., s[5]=4+5=9
  EXPECT_EQ(rows[0][1], "1");
  EXPECT_EQ(rows[1][1], "3");
  EXPECT_EQ(rows[5][1], "9");
}

TEST(WindowTest, LagLeadFirstLast) {
  auto ctx = MakeTestSession(5);
  ASSERT_OK_AND_ASSIGN(
      auto batches,
      ctx->ExecuteSql(
          "SELECT id, lag(id) OVER (ORDER BY id) AS prev, "
          "lead(id) OVER (ORDER BY id) AS next, "
          "first_value(id) OVER (ORDER BY id) AS f, "
          "last_value(id) OVER (ORDER BY id ROWS BETWEEN UNBOUNDED PRECEDING "
          "AND UNBOUNDED FOLLOWING) AS l FROM t ORDER BY id"));
  auto rows = ToStringRows(batches);
  EXPECT_EQ(rows[0][1], "null");
  EXPECT_EQ(rows[1][1], "0");
  EXPECT_EQ(rows[0][2], "1");
  EXPECT_EQ(rows[4][2], "null");
  EXPECT_EQ(rows[3][3], "0");
  EXPECT_EQ(rows[3][4], "4");
}

/// A session whose table `name` holds `columns`, in batches of `batch_rows`.
core::SessionContextPtr SessionWith(
    const std::string& name, const std::vector<Field>& fields,
    std::vector<ArrayPtr> columns, exec::SessionConfig config = {},
    int64_t batch_rows = 1024,
    exec::RuntimeEnvPtr env = std::make_shared<exec::RuntimeEnv>()) {
  auto ctx = core::SessionContext::Make(config, std::move(env));
  auto schema = fusion::schema(fields);
  const int64_t rows = columns.front()->length();
  auto batch = std::make_shared<RecordBatch>(schema, rows, std::move(columns));
  ctx->RegisterTable(name, catalog::MemoryTable::Make(schema, SliceBatch(batch, batch_rows))
                               .ValueOrDie())
      .Abort();
  return ctx;
}

/// `values` as a DictionaryArray: codes into one dictionary of the
/// distinct values.
ArrayPtr MakeDictionaryArray(const std::vector<std::string>& values,
                             const std::vector<bool>& valid) {
  auto dense = MakeStringArray(values, valid);
  std::vector<std::string> dict;
  auto codes = std::make_shared<Buffer>(static_cast<int64_t>(values.size()) * 4);
  for (size_t i = 0; i < values.size(); ++i) {
    auto it = std::find(dict.begin(), dict.end(), values[i]);
    if (it == dict.end()) it = dict.insert(dict.end(), values[i]);
    codes->mutable_data_as<int32_t>()[i] = static_cast<int32_t>(it - dict.begin());
  }
  return std::make_shared<DictionaryArray>(
      dense->length(), codes,
      std::static_pointer_cast<StringArray>(MakeStringArray(dict)), dense->validity(),
      dense->null_count());
}

/// `sql` planned by the session and run by the TIE baseline.
Result<std::vector<RecordBatchPtr>> RunTie(const core::SessionContextPtr& ctx,
                                           const std::string& sql) {
  FUSION_ASSIGN_OR_RAISE(auto plan, ctx->CreateLogicalPlan(sql));
  FUSION_ASSIGN_OR_RAISE(auto optimized, ctx->OptimizePlan(plan));
  baseline::TieEngine engine;
  return engine.Execute(optimized);
}

/// Equal text, or doubles within 1e-9 relative with NaN equal to NaN:
/// stddev and var merge their partial states in a different order.
bool SameValue(const Array& a, const Array& b, int64_t row) {
  if (a.IsNull(row) || b.IsNull(row)) return a.IsNull(row) && b.IsNull(row);
  if (a.type().id() == TypeId::kFloat64 && b.type().id() == TypeId::kFloat64) {
    const double x = checked_cast<Float64Array>(a).Value(row);
    const double y = checked_cast<Float64Array>(b).Value(row);
    if (std::isnan(x) || std::isnan(y)) return std::isnan(x) && std::isnan(y);
    return x == y || std::fabs(x - y) <= 1e-9 * std::max(std::fabs(x), std::fabs(y));
  }
  return a.ValueToString(row) == b.ValueToString(row);
}

/// Every column of `got` matches `want` in type and, row for row, in value.
void ExpectSameResult(const std::vector<RecordBatchPtr>& got,
                      const std::vector<RecordBatchPtr>& want, const std::string& what) {
  ASSERT_FALSE(got.empty()) << what;
  ASSERT_FALSE(want.empty()) << what;
  ASSERT_OK_AND_ASSIGN(auto g, ConcatenateBatches(got[0]->schema(), got));
  ASSERT_OK_AND_ASSIGN(auto w, ConcatenateBatches(want[0]->schema(), want));
  ASSERT_EQ(g->num_rows(), w->num_rows()) << what;
  ASSERT_EQ(g->num_columns(), w->num_columns()) << what;
  for (int c = 0; c < g->num_columns(); ++c) {
    const std::string column = what + ", column " + w->schema()->field(c).name();
    EXPECT_EQ(g->schema()->field(c).type().ToString(),
              w->schema()->field(c).type().ToString())
        << column;
    for (int64_t r = 0; r < g->num_rows(); ++r) {
      if (!SameValue(*g->column(c), *w->column(c), r)) {
        ADD_FAILURE() << column << ", row " << r << ": " << g->column(c)->ValueToString(r)
                      << " != " << w->column(c)->ValueToString(r);
        break;
      }
    }
  }
}

// --------------------------------------------------------------- defects

/// Table w: g, k (int64) and f (float64), in that row order.
core::SessionContextPtr DefectSession(const std::vector<int64_t>& g,
                                      const std::vector<int64_t>& k,
                                      const std::vector<double>& f) {
  return SessionWith("w",
                     {Field("g", int64(), false), Field("k", int64(), false),
                      Field("f", float64(), false)},
                     {MakeInt64Array(g), MakeInt64Array(k), MakeFloat64Array(f)});
}

TEST(WindowDefectTest, CountStarCountsThePartition) {
  auto ctx = DefectSession({1, 2, 1}, {1, 2, 3}, {0, 0, 0});
  ASSERT_OK_AND_ASSIGN(
      auto batches,
      ctx->ExecuteSql("SELECT k, count(*) OVER (PARTITION BY g) AS c FROM w ORDER BY k"));
  EXPECT_EQ(ToStringRows(batches),
            (std::vector<StringRow>{{"1", "2"}, {"2", "1"}, {"3", "2"}}));
}

TEST(WindowDefectTest, Int64SumIsExactPast2To53) {
  auto ctx = DefectSession({1, 1}, {9007199254740993, 1}, {0, 0});
  ASSERT_OK_AND_ASSIGN(auto window,
                       ctx->ExecuteSql("SELECT sum(k) OVER (PARTITION BY g) FROM w"));
  ASSERT_OK_AND_ASSIGN(auto grouped, ctx->ExecuteSql("SELECT sum(k) FROM w GROUP BY g"));
  EXPECT_EQ(ToStringRows(window),
            (std::vector<StringRow>{{"9007199254740994"}, {"9007199254740994"}}));
  EXPECT_EQ(ToStringRows(grouped)[0][0], "9007199254740994");
}

TEST(WindowDefectTest, DecimalSumAndAvgKeepGroupByTypes) {
  auto ctx = DefectSession({1, 1}, {9007199254740993, 1}, {0, 0});
  ASSERT_OK_AND_ASSIGN(
      auto window,
      ctx->ExecuteSql("SELECT k, sum(CAST(k AS DECIMAL(20,2)) / 3) OVER "
                      "(PARTITION BY g ORDER BY k) AS s, avg(CAST(k AS DECIMAL(20,2))) "
                      "OVER (PARTITION BY g) AS a FROM w ORDER BY k"));
  ASSERT_OK_AND_ASSIGN(
      auto grouped,
      ctx->ExecuteSql("SELECT sum(CAST(k AS DECIMAL(20,2)) / 3) AS s, "
                      "avg(CAST(k AS DECIMAL(20,2))) AS a FROM w GROUP BY g"));
  EXPECT_EQ(ToStringRows(window),
            (std::vector<StringRow>{
                {"1", "0.333333", "4503599627370497.000000"},
                {"9007199254740993", "3002399751580331.333333", "4503599627370497.000000"}}));
  EXPECT_EQ(ToStringRows(grouped)[0],
            (StringRow{"3002399751580331.333333", "4503599627370497.000000"}));
  EXPECT_EQ(window[0]->schema()->field(1).type(), grouped[0]->schema()->field(0).type());
  EXPECT_EQ(window[0]->schema()->field(2).type(), grouped[0]->schema()->field(1).type());
}

TEST(WindowDefectTest, SlidingSumForgetsANaNThatLeftTheFrame) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  auto ctx = DefectSession({1, 1, 1, 1}, {1, 2, 3, 4}, {nan, 1e20, 1, -1e20});
  ASSERT_OK_AND_ASSIGN(
      auto batches,
      ctx->ExecuteSql("SELECT k, sum(f) OVER (PARTITION BY g ORDER BY k ROWS BETWEEN "
                      "1 PRECEDING AND CURRENT ROW) AS s FROM w ORDER BY k"));
  EXPECT_EQ(ToStringRows(batches),
            (std::vector<StringRow>{{"1", "nan"}, {"2", "nan"}, {"3", "1e+20"},
                                    {"4", "-1e+20"}}));
}

TEST(WindowDefectTest, LargestFollowingOffsetReachesThePartitionEnd) {
  auto ctx = DefectSession({1, 1, 1, 1}, {3, 4, 5, 6}, {0, 0, 0, 0});
  const std::string sql =
      "SELECT k, sum(k) OVER (PARTITION BY g ORDER BY k ROWS BETWEEN "
      "9223372036854775807 FOLLOWING AND 9223372036854775807 FOLLOWING) AS none, "
      "sum(k) OVER (PARTITION BY g ORDER BY k ROWS BETWEEN CURRENT ROW AND "
      "9223372036854775807 FOLLOWING) AS rest FROM w ORDER BY k";
  const std::vector<StringRow> want = {
      {"3", "null", "18"}, {"4", "null", "15"}, {"5", "null", "11"}, {"6", "null", "6"}};
  ASSERT_OK_AND_ASSIGN(auto fusion, ctx->ExecuteSql(sql));
  EXPECT_EQ(ToStringRows(fusion), want);
  ASSERT_OK_AND_ASSIGN(auto tie, RunTie(ctx, sql));
  EXPECT_EQ(ToStringRows(tie), want);
}

TEST(WindowDefectTest, CallsDifferingOnlyInFrameOrNullsStayApart) {
  auto ctx = DefectSession({1, 1, 1, 1}, {3, 4, 5, 6}, {0, 0, 0, 0});
  ASSERT_OK_AND_ASSIGN(
      auto frames,
      ctx->ExecuteSql("SELECT k, sum(k) OVER (PARTITION BY g ORDER BY k ROWS BETWEEN "
                      "CURRENT ROW AND CURRENT ROW) AS one, sum(k) OVER (PARTITION BY g "
                      "ORDER BY k) AS running FROM w ORDER BY k"));
  EXPECT_EQ(ToStringRows(frames), (std::vector<StringRow>{{"3", "3", "3"},
                                                          {"4", "4", "7"},
                                                          {"5", "5", "12"},
                                                          {"6", "6", "18"}}));
  auto nulls = SessionWith("n", {Field("x", int64(), true)},
                           {MakeInt64Array({1, 0, 2}, {true, false, true})});
  ASSERT_OK_AND_ASSIGN(
      auto firsts,
      nulls->ExecuteSql("SELECT first_value(x) OVER (ORDER BY x NULLS FIRST) AS a, "
                        "first_value(x) OVER (ORDER BY x) AS b FROM n"));
  EXPECT_EQ(ToStringRows(firsts), (std::vector<StringRow>{
                                      {"null", "1"}, {"null", "1"}, {"null", "1"}}));
}

TEST(WindowDefectTest, KeysDifferingOnlyInArgumentsSortApart) {
  // A function call, a CASE and an IN list print their arguments only in
  // the logical text; each window must still sort by its own key.
  auto ctx = SessionWith(
      "w", {Field("a", int64(), false), Field("b", int64(), false), Field("v", int64(), false)},
      {MakeInt64Array({1, 1, 2, 2}), MakeInt64Array({1, 2, 1, 2}),
       MakeInt64Array({10, 20, 30, 40})});
  const std::vector<std::pair<std::string, std::string>> keys = {
      {"PARTITION BY abs(a)", "PARTITION BY abs(b)"},
      {"PARTITION BY CASE WHEN a = 1 THEN 0 ELSE 1 END",
       "PARTITION BY CASE WHEN b = 1 THEN 0 ELSE 1 END"},
      {"PARTITION BY a IN (1, 3)", "PARTITION BY b IN (1, 3)"},
      {"ORDER BY abs(a) DESC, v ROWS BETWEEN UNBOUNDED PRECEDING AND CURRENT ROW",
       "ORDER BY abs(b) DESC, v ROWS BETWEEN UNBOUNDED PRECEDING AND CURRENT ROW"}};
  const std::vector<std::vector<StringRow>> want = {
      {{"10", "30", "40"}, {"20", "30", "60"}, {"30", "70", "40"}, {"40", "70", "60"}},
      {{"10", "30", "40"}, {"20", "30", "60"}, {"30", "70", "40"}, {"40", "70", "60"}},
      {{"10", "30", "40"}, {"20", "30", "60"}, {"30", "70", "40"}, {"40", "70", "60"}},
      {{"10", "80", "70"}, {"20", "100", "20"}, {"30", "30", "100"}, {"40", "70", "60"}}};
  for (size_t i = 0; i < keys.size(); ++i) {
    const std::string sql = "SELECT v, sum(v) OVER (" + keys[i].first + ") AS x, sum(v) OVER (" +
                            keys[i].second + ") AS y FROM w ORDER BY v";
    for (int partitions : {1, 4}) {
      ctx->config().target_partitions = partitions;
      ASSERT_OK_AND_ASSIGN(auto fusion, ctx->ExecuteSql(sql));
      EXPECT_EQ(ToStringRows(fusion), want[i]) << sql << " at " << partitions;
    }
    ASSERT_OK_AND_ASSIGN(auto tie, RunTie(ctx, sql));
    EXPECT_EQ(ToStringRows(tie), want[i]) << sql << " in TIE";
  }
}

TEST(WindowDefectTest, TieHonoursFramesAndPeers) {
  auto ctx = DefectSession({1, 1, 1, 1}, {3, 4, 5, 6}, {0, 0, 0, 0});
  const std::string sql =
      "SELECT k, sum(k) OVER (PARTITION BY g) AS s, "
      "count(k) OVER (PARTITION BY g ORDER BY g) AS c FROM w ORDER BY k";
  const std::vector<StringRow> want = {
      {"3", "18", "4"}, {"4", "18", "4"}, {"5", "18", "4"}, {"6", "18", "4"}};
  ASSERT_OK_AND_ASSIGN(auto tie, RunTie(ctx, sql));
  EXPECT_EQ(ToStringRows(tie), want);
  ASSERT_OK_AND_ASSIGN(auto fusion, ctx->ExecuteSql(sql));
  EXPECT_EQ(ToStringRows(fusion), want);
}

// --------------------------------------------------------------- oracle

/// The oracle's table w, rows in shuffled order: partition key g (four
/// partitions of 30 rows), unique order key id, peer key o (two rows
/// per value within a partition), pos (a row's place in its partition
/// by id), and value columns with NULLs: i int64 past 2^53, d
/// decimal(15,2), f float64 with integral values, NaN, ±inf and -0.0,
/// s utf8 and ds dictionary strings.
core::SessionContextPtr OracleSession(exec::SessionConfig config) {
  constexpr int64_t kRows = 120;
  Int64Builder g, id, o, pos, i;
  Decimal128Builder d(decimal128(15, 2));
  Float64Builder f;
  std::vector<std::string> s(kRows), ds(kRows);
  std::vector<bool> s_valid(kRows), ds_valid(kRows);
  for (int64_t r = 0; r < kRows; ++r) {
    const int64_t k = (r * 37) % kRows;
    g.Append(k % 4);
    id.Append(k);
    o.Append(k / 8);
    pos.Append(k / 4);
    if (k % 5 == 0) {
      i.AppendNull();
    } else {
      i.Append(k % 3 == 0 ? (int64_t{1} << 53) + k : (k % 2 ? -1 : 1) * k * 1000003);
    }
    if (k % 6 == 1) {
      d.AppendNull();
    } else {
      d.Append(Decimal128(k * 12345 - 700000));
    }
    if (k % 7 == 3) {
      f.AppendNull();
    } else if (k == 17) {
      f.Append(std::numeric_limits<double>::quiet_NaN());
    } else if (k == 42 || k == 46) {
      f.Append(k == 42 ? std::numeric_limits<double>::infinity()
                       : -std::numeric_limits<double>::infinity());
    } else {
      f.Append(k == 9 ? -0.0 : static_cast<double>(k % 13 - 6));
    }
    s[r] = "s" + std::to_string(k * 7 % 23);
    s_valid[r] = k % 9 != 2;
    ds[r] = "k" + std::to_string(k % 6);
    ds_valid[r] = k % 8 != 5;
  }
  return SessionWith(
      "w",
      {Field("g", int64(), false), Field("id", int64(), false), Field("o", int64(), false),
       Field("pos", int64(), false), Field("i", int64(), true),
       Field("d", decimal128(15, 2), true), Field("f", float64(), true),
       Field("s", utf8(), true), Field("ds", utf8(), true)},
      {g.Finish().ValueOrDie(), id.Finish().ValueOrDie(), o.Finish().ValueOrDie(),
       pos.Finish().ValueOrDie(), i.Finish().ValueOrDie(), d.Finish().ValueOrDie(),
       f.Finish().ValueOrDie(), MakeStringArray(s, s_valid),
       MakeDictionaryArray(ds, ds_valid)},
      config, /*batch_rows=*/16);
}

/// (target partitions, batch size): 7-row batches split every window
/// partition across batches; 8,192-row ones bring several window
/// partitions to one evaluation.
constexpr std::pair<int, int64_t> kOracleConfigs[] = {
    {1, 7}, {3, 7}, {4, 7}, {1, 8192}, {4, 8192}};

TEST(WindowOracleTest, AggregatesMatchGroupByOverTheirFrames) {
  // Each frame, and the ON clause of a LEFT self-join that selects it.
  const std::vector<std::pair<std::string, std::string>> frames = {
      {"PARTITION BY g", "b.g = a.g"},
      {"PARTITION BY g ORDER BY o", "b.g = a.g AND b.o <= a.o"},
      {"PARTITION BY g ORDER BY id ROWS BETWEEN 2 PRECEDING AND CURRENT ROW",
       "b.g = a.g AND b.pos BETWEEN a.pos - 2 AND a.pos"},
      {"PARTITION BY g ORDER BY id ROWS BETWEEN CURRENT ROW AND 3 FOLLOWING",
       "b.g = a.g AND b.pos BETWEEN a.pos AND a.pos + 3"},
      {"PARTITION BY g ORDER BY id ROWS BETWEEN 2 PRECEDING AND 1 FOLLOWING",
       "b.g = a.g AND b.pos BETWEEN a.pos - 2 AND a.pos + 1"},
      {"PARTITION BY g ORDER BY id ROWS BETWEEN 3 PRECEDING AND 2 PRECEDING",
       "b.g = a.g AND b.pos BETWEEN a.pos - 3 AND a.pos - 2"},
  };
  // (window call, the same aggregate over the joined rows b)
  std::vector<std::pair<std::string, std::string>> calls = {{"count(*)", "count(b.id)"}};
  for (const char* column : {"i", "d", "f"}) {
    for (const char* fn : {"sum", "avg", "count", "min", "max", "stddev", "var", "median"}) {
      calls.emplace_back(std::string(fn) + "(" + column + ")",
                         std::string(fn) + "(b." + column + ")");
    }
  }
  for (const char* column : {"s", "ds"}) {
    for (const char* fn : {"min", "max", "count"}) {
      calls.emplace_back(std::string(fn) + "(" + column + ")",
                         std::string(fn) + "(b." + column + ")");
    }
  }
  for (auto [partitions, batch_size] : kOracleConfigs) {
    exec::SessionConfig config;
    config.target_partitions = partitions;
    config.batch_size = batch_size;
    auto ctx = OracleSession(config);
    for (const auto& [over, on] : frames) {
      std::string window = "SELECT id";
      std::string reference = "SELECT a.id";
      for (size_t c = 0; c < calls.size(); ++c) {
        window += ", " + calls[c].first + " OVER (" + over + ") AS c" + std::to_string(c);
        reference += ", " + calls[c].second + " AS c" + std::to_string(c);
      }
      window += " FROM w ORDER BY id";
      reference += " FROM w a LEFT JOIN w b ON " + on + " GROUP BY a.id ORDER BY a.id";
      const std::string what = over + " at " + std::to_string(partitions) +
                               " partitions, batch size " + std::to_string(batch_size);
      ASSERT_OK_AND_ASSIGN(auto got, ctx->ExecuteSql(window));
      ASSERT_OK_AND_ASSIGN(auto want, ctx->ExecuteSql(reference));
      ExpectSameResult(got, want, what);
      ASSERT_OK_AND_ASSIGN(auto tie, RunTie(ctx, window));
      ExpectSameResult(tie, got, "TIE, " + what);
    }
  }
}

TEST(WindowOracleTest, RanksAndOffsetsMatchSelfJoins) {
  // Two specifications, so two WindowExecs, each evaluating many window
  // partitions per batch. Each column against a join that finds its value;
  // a partition of w holds pos 0..29.
  const std::string window =
      "SELECT id, row_number() OVER (PARTITION BY g ORDER BY id) AS rn, "
      "rank() OVER (PARTITION BY g ORDER BY o) AS rk, "
      "dense_rank() OVER (PARTITION BY g ORDER BY o) AS dr, "
      "lag(i) OVER (PARTITION BY g ORDER BY id) AS lg, "
      "lead(s, 2) OVER (PARTITION BY g ORDER BY id) AS ld, "
      "first_value(f) OVER (PARTITION BY g ORDER BY id ROWS BETWEEN 2 PRECEDING AND "
      "CURRENT ROW) AS fv, "
      "last_value(d) OVER (PARTITION BY g ORDER BY id ROWS BETWEEN CURRENT ROW AND 3 "
      "FOLLOWING) AS lv FROM w ORDER BY id";
  const std::vector<std::string> references = {
      "SELECT a.id, count(b.id) FROM w a JOIN w b ON b.g = a.g AND b.id <= a.id",
      "SELECT a.id, count(b.id) + 1 FROM w a LEFT JOIN w b ON b.g = a.g AND b.o < a.o",
      "SELECT a.id, count(DISTINCT b.o) FROM w a JOIN w b ON b.g = a.g AND b.o <= a.o",
      "SELECT a.id, b.i FROM w a LEFT JOIN w b ON b.g = a.g AND b.pos = a.pos - 1",
      "SELECT a.id, b.s FROM w a LEFT JOIN w b ON b.g = a.g AND b.pos = a.pos + 2",
      "SELECT a.id, b.f FROM w a JOIN w b ON b.g = a.g AND "
      "b.pos = CASE WHEN a.pos < 2 THEN 0 ELSE a.pos - 2 END",
      "SELECT a.id, b.d FROM w a JOIN w b ON b.g = a.g AND "
      "b.pos = CASE WHEN a.pos > 26 THEN 29 ELSE a.pos + 3 END",
  };
  for (auto [partitions, batch_size] : kOracleConfigs) {
    exec::SessionConfig config;
    config.target_partitions = partitions;
    config.batch_size = batch_size;
    auto ctx = OracleSession(config);
    const std::string what = std::to_string(partitions) + " partitions, batch size " +
                             std::to_string(batch_size);
    ASSERT_OK_AND_ASSIGN(auto got, ctx->ExecuteSql(window));
    const auto rows = ToStringRows(got);
    ASSERT_EQ(rows.size(), 120u);
    for (size_t c = 0; c < references.size(); ++c) {
      const std::string sql =
          references[c] + (c < 3 ? " GROUP BY a.id ORDER BY a.id" : " ORDER BY a.id");
      ASSERT_OK_AND_ASSIGN(auto want, ctx->ExecuteSql(sql));
      const auto want_rows = ToStringRows(want);
      ASSERT_EQ(want_rows.size(), rows.size()) << sql;
      for (size_t r = 0; r < rows.size(); ++r) {
        ASSERT_EQ(rows[r][c + 1], want_rows[r][1])
            << got[0]->schema()->field(static_cast<int>(c) + 1).name() << ", id "
            << rows[r][0] << " at " << what;
      }
    }
    ASSERT_OK_AND_ASSIGN(auto tie, RunTie(ctx, window));
    ExpectSameResult(tie, got, "TIE at " + what);
  }
}

// ------------------------------------------------------- plan and memory

TEST(WindowPlanTest, EachSpecificationSortsBelowItsOwnWindowExec) {
  exec::SessionConfig config;
  config.target_partitions = 4;
  auto ctx = MakeTestSession(100, config);
  const std::string over_grp = " OVER (PARTITION BY grp ORDER BY id)";
  const std::string sql = "SELECT id, sum(v)" + over_grp +
                          ", rank() OVER (ORDER BY v), avg(v)" + over_grp + " FROM t";
  ASSERT_OK_AND_ASSIGN(auto logical, ctx->CreateLogicalPlan(sql));
  ASSERT_OK_AND_ASSIGN(auto optimized, ctx->OptimizePlan(logical));
  ASSERT_OK_AND_ASSIGN(auto plan, ctx->CreatePhysicalPlan(optimized));
  // Each WindowExec reads the sort PlanSort builds for its input: a
  // SortExec per scan partition and a merge under the first, one SortExec
  // over the first window's single partition under the second.
  int windows = 0;
  int merged = 0;
  std::function<void(const physical::ExecPlanPtr&)> visit =
      [&](const physical::ExecPlanPtr& node) {
        if (node->name() == "WindowExec") {
          ++windows;
          const physical::ExecPlanPtr below = node->children()[0];
          if (below->name() == "SortPreservingMergeExec") {
            ++merged;
            EXPECT_EQ(below->children()[0]->name(), "SortExec") << plan->ToString();
            EXPECT_EQ(below->children()[0]->output_partitions(), 4) << plan->ToString();
          } else {
            EXPECT_EQ(below->name(), "SortExec") << plan->ToString();
            EXPECT_EQ(below->children()[0]->name(), "WindowExec") << plan->ToString();
          }
        }
        for (const auto& child : node->children()) visit(child);
      };
  visit(plan);
  EXPECT_EQ(windows, 2) << plan->ToString();
  EXPECT_EQ(merged, 1) << plan->ToString();

  // Columns come out in select order, each as its window alone gives it.
  ASSERT_OK_AND_ASSIGN(auto all, ctx->ExecuteSql(sql + " ORDER BY id"));
  ASSERT_EQ(all[0]->num_columns(), 4);
  EXPECT_EQ(all[0]->schema()->field(2).name(), "rank() OVER ( ORDER BY v)");
  const auto rows = ToStringRows(all);
  const std::vector<std::string> alone = {"sum(v)" + over_grp, "rank() OVER (ORDER BY v)",
                                          "avg(v)" + over_grp};
  for (size_t c = 0; c < alone.size(); ++c) {
    ASSERT_OK_AND_ASSIGN(auto one,
                         ctx->ExecuteSql("SELECT id, " + alone[c] + " FROM t ORDER BY id"));
    const auto one_rows = ToStringRows(one);
    ASSERT_EQ(one_rows.size(), rows.size());
    for (size_t r = 0; r < rows.size(); ++r) {
      ASSERT_EQ(rows[r][c + 1], one_rows[r][1]) << alone[c] << " row " << r;
    }
  }
}

TEST(WindowPlanTest, DeclaredOrderPlansNoSort) {
  exec::SessionConfig config;
  config.target_partitions = 1;
  auto ctx = MakeTestSession(200, config);
  ASSERT_OK_AND_ASSIGN(
      auto logical, ctx->CreateLogicalPlan("SELECT id, sum(v) OVER (ORDER BY id) AS rs FROM t"));
  ASSERT_OK_AND_ASSIGN(auto optimized, ctx->OptimizePlan(logical));
  ASSERT_OK_AND_ASSIGN(auto plan, ctx->CreatePhysicalPlan(optimized));
  const std::string text = plan->ToString();
  EXPECT_NE(text.find("WindowExec"), std::string::npos) << text;
  EXPECT_EQ(text.find("SortExec"), std::string::npos) << text;
}

/// Table w of `rows` rows: partition key g (`rows` / `partition_rows`
/// partitions) and order key id, the rows in shuffled order.
core::SessionContextPtr MemorySession(int64_t rows, int64_t partition_rows,
                                      exec::RuntimeEnvPtr env) {
  exec::SessionConfig config;
  config.target_partitions = 4;
  config.batch_size = 1024;
  Int64Builder g, id;
  for (int64_t r = 0; r < rows; ++r) {
    const int64_t k = (r * 7919) % rows;
    g.Append(k / partition_rows);
    id.Append(k);
  }
  return SessionWith("w", {Field("g", int64(), false), Field("id", int64(), false)},
                     {g.Finish().ValueOrDie(), id.Finish().ValueOrDie()}, config,
                     /*batch_rows=*/1024, std::move(env));
}

constexpr const char* kMemoryQuery =
    "SELECT g, id, sum(id) OVER (PARTITION BY g ORDER BY id) AS s FROM w";

TEST(WindowMemoryTest, PartitionLargerThanThePoolFailsWithNothingLeftCharged) {
  // One window partition of 40,000 rows (640 KB) against a 128 KB pool.
  auto env = std::make_shared<exec::RuntimeEnv>();
  auto pool = std::make_shared<exec::GreedyMemoryPool>(128 * 1024);
  env->memory_pool = pool;
  auto ctx = MemorySession(40000, 40000, env);
  auto result = ctx->ExecuteSql(kMemoryQuery);
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsOutOfMemory()) << result.status().ToString();
  EXPECT_EQ(pool->bytes_allocated(), 0);
}

TEST(WindowMemoryTest, SpillingSortFeedsAWindowThatFitsThePool) {
  // 40 window partitions of 1,000 rows (16 KB each; 640 KB in all)
  // against a 96 KB pool: each sort partition (160 KB) spills, and the
  // window holds one partition and a batch at a time.
  auto env = std::make_shared<exec::RuntimeEnv>();
  auto pool = std::make_shared<exec::GreedyMemoryPool>(96 * 1024);
  env->memory_pool = pool;
  ASSERT_OK_AND_ASSIGN(auto limited,
                       MemorySession(40000, 1000, env)->ExecuteSqlWithMetrics(kMemoryQuery));
  ASSERT_OK_AND_ASSIGN(auto unlimited,
                       MemorySession(40000, 1000, std::make_shared<exec::RuntimeEnv>())
                           ->ExecuteSql(kMemoryQuery));
  EXPECT_EQ(SortedStringRows(limited.batches), SortedStringRows(unlimited));
  EXPECT_EQ(TotalRows(limited.batches), 40000);
  EXPECT_EQ(pool->bytes_allocated(), 0);
  // The sort spilled, and the window charged its rows to the pool.
  const physical::PlanMetricsNode* node = &limited.metrics;
  while (node->name != "WindowExec") node = &node->children.at(0);
  EXPECT_GT(node->mem_reserved_bytes, 0);
  std::function<int64_t(const physical::PlanMetricsNode&)> spills =
      [&](const physical::PlanMetricsNode& n) {
        int64_t total = n.spill_count;
        for (const auto& child : n.children) total += spills(child);
        return total;
      };
  EXPECT_GT(spills(limited.metrics), 0);
}

TEST(WindowMemoryTest, FrameStateLargerThanThePoolFailsWithNothingLeftCharged) {
  // median keeps every value of a frame: over a running frame the merged
  // states of 4,000 rows hold 8 million values, far past a 1 MB pool
  // that the rows themselves (64 KB) fit.
  auto env = std::make_shared<exec::RuntimeEnv>();
  auto pool = std::make_shared<exec::GreedyMemoryPool>(1024 * 1024);
  env->memory_pool = pool;
  auto result = MemorySession(4000, 4000, env)
                    ->ExecuteSql("SELECT g, id, median(id) OVER (PARTITION BY g ORDER BY id) "
                                 "AS m FROM w");
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsOutOfMemory()) << result.status().ToString();
  EXPECT_EQ(pool->bytes_allocated(), 0);
}

TEST(WindowMemoryTest, LargeFrameStatesMergeInSeveralRounds) {
  // A running median over 3,000 rows merges 4.5 million values, more than
  // one round takes; the median of ids 0..i is i / 2.
  ASSERT_OK_AND_ASSIGN(
      auto batches,
      MemorySession(3000, 3000, std::make_shared<exec::RuntimeEnv>())
          ->ExecuteSql("SELECT id, median(id) OVER (ORDER BY id) AS m FROM w ORDER BY id"));
  ASSERT_EQ(TotalRows(batches), 3000);
  int64_t row = 0;
  for (const auto& batch : batches) {
    const auto& m = checked_cast<Float64Array>(*batch->column(1));
    for (int64_t i = 0; i < batch->num_rows(); ++i, ++row) {
      ASSERT_EQ(m.Value(i), static_cast<double>(row) / 2) << "id " << row;
    }
  }
}

}  // namespace
}  // namespace test
}  // namespace fusion
