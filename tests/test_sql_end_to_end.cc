// End-to-end SQL tests exercising the full stack: parser -> planner ->
// optimizer -> physical planner -> execution.

#include "tests/test_util.h"

#include <limits>

namespace fusion {
namespace test {
namespace {

TEST(SqlEndToEnd, SelectStar) {
  auto ctx = MakeTestSession(10);
  ASSERT_OK_AND_ASSIGN(auto batches, ctx->ExecuteSql("SELECT * FROM t"));
  EXPECT_EQ(TotalRows(batches), 10);
  EXPECT_EQ(batches[0]->num_columns(), 5);
}

TEST(SqlEndToEnd, Projection) {
  auto ctx = MakeTestSession(5);
  ASSERT_OK_AND_ASSIGN(auto batches,
                       ctx->ExecuteSql("SELECT id, id * 2 AS dbl FROM t"));
  auto rows = ToStringRows(batches);
  ASSERT_EQ(rows.size(), 5u);
  EXPECT_EQ(rows[3][0], "3");
  EXPECT_EQ(rows[3][1], "6");
}

TEST(SqlEndToEnd, FilterWhere) {
  auto ctx = MakeTestSession(100);
  ASSERT_OK_AND_ASSIGN(auto batches,
                       ctx->ExecuteSql("SELECT id FROM t WHERE id >= 90"));
  EXPECT_EQ(TotalRows(batches), 10);
}

TEST(SqlEndToEnd, FilterCompound) {
  auto ctx = MakeTestSession(100);
  ASSERT_OK_AND_ASSIGN(
      auto batches,
      ctx->ExecuteSql(
          "SELECT id FROM t WHERE (id < 10 OR id >= 95) AND grp = 'a'"));
  // grp 'a' = ids divisible by 3: 0,3,6,9 under 10; 96,99 in 95..99.
  EXPECT_EQ(TotalRows(batches), 6);
}

TEST(SqlEndToEnd, AggregateCountSumAvg) {
  auto ctx = MakeTestSession(100);
  ASSERT_OK_AND_ASSIGN(
      auto batches,
      ctx->ExecuteSql("SELECT count(*), count(v), sum(id), avg(f) FROM t"));
  auto rows = ToStringRows(batches);
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0][0], "100");
  EXPECT_EQ(rows[0][1], "86");  // every 7th v (i%7==6) is null: 14 nulls
  EXPECT_EQ(rows[0][2], "4950");
  EXPECT_EQ(rows[0][3], "24.75");
}

TEST(SqlEndToEnd, GroupBy) {
  auto ctx = MakeTestSession(99);
  // A key repeated by name, by ordinal, or qualified and unqualified
  // groups like the key once, however the select list spells it.
  for (const char* select : {"grp", "t.grp"}) {
    for (const char* keys : {"grp", "grp, grp", "1, grp", "t.grp, grp", "grp, t.grp"}) {
      const std::string sql = std::string("SELECT ") + select +
                              ", count(*) AS c FROM t GROUP BY " + keys +
                              " ORDER BY grp";
      ASSERT_OK_AND_ASSIGN(auto batches, ctx->ExecuteSql(sql));
      auto rows = ToStringRows(batches);
      ASSERT_EQ(rows.size(), 3u) << sql;
      EXPECT_EQ(rows[0][0], "a") << sql;
      EXPECT_EQ(rows[0][1], "33") << sql;
      EXPECT_EQ(rows[2][0], "c") << sql;
    }
  }
}

TEST(SqlEndToEnd, GroupByHaving) {
  auto ctx = MakeTestSession(100);
  ASSERT_OK_AND_ASSIGN(
      auto batches,
      ctx->ExecuteSql("SELECT grp, count(*) AS c FROM t GROUP BY grp "
                      "HAVING count(*) > 33"));
  // 100 rows: a gets 34, b 33, c 33.
  auto rows = ToStringRows(batches);
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0][0], "a");
  EXPECT_EQ(rows[0][1], "34");
}

TEST(SqlEndToEnd, OrderByLimit) {
  auto ctx = MakeTestSession(100);
  ASSERT_OK_AND_ASSIGN(
      auto batches,
      ctx->ExecuteSql("SELECT id FROM t ORDER BY id DESC LIMIT 3"));
  auto rows = ToStringRows(batches);
  ASSERT_EQ(rows.size(), 3u);
  EXPECT_EQ(rows[0][0], "99");
  EXPECT_EQ(rows[1][0], "98");
  EXPECT_EQ(rows[2][0], "97");
}

TEST(SqlEndToEnd, OrderByExpressionNotProjected) {
  auto ctx = MakeTestSession(10);
  ASSERT_OK_AND_ASSIGN(auto batches,
                       ctx->ExecuteSql("SELECT grp FROM t ORDER BY id DESC LIMIT 2"));
  auto rows = ToStringRows(batches);
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0][0], "a");  // id 9 -> 9%3=0 -> 'a'
  EXPECT_EQ(rows[1][0], "c");  // id 8 -> 'c'
}

TEST(SqlEndToEnd, LimitOffset) {
  auto ctx = MakeTestSession(20);
  ASSERT_OK_AND_ASSIGN(
      auto batches,
      ctx->ExecuteSql("SELECT id FROM t ORDER BY id LIMIT 5 OFFSET 10"));
  auto rows = ToStringRows(batches);
  ASSERT_EQ(rows.size(), 5u);
  EXPECT_EQ(rows[0][0], "10");
  EXPECT_EQ(rows[4][0], "14");
}

TEST(SqlEndToEnd, Distinct) {
  auto ctx = MakeTestSession(100);
  ASSERT_OK_AND_ASSIGN(auto batches,
                       ctx->ExecuteSql("SELECT DISTINCT grp FROM t"));
  EXPECT_EQ(TotalRows(batches), 3);
}

TEST(SqlEndToEnd, CountDistinct) {
  auto ctx = MakeTestSession(100);
  ASSERT_OK_AND_ASSIGN(auto batches,
                       ctx->ExecuteSql("SELECT count(DISTINCT grp) FROM t"));
  auto rows = ToStringRows(batches);
  EXPECT_EQ(rows[0][0], "3");
}

TEST(SqlEndToEnd, CaseExpression) {
  auto ctx = MakeTestSession(10);
  ASSERT_OK_AND_ASSIGN(
      auto batches,
      ctx->ExecuteSql("SELECT CASE WHEN id < 5 THEN 'low' ELSE 'high' END AS "
                      "bucket, count(*) FROM t GROUP BY 1 ORDER BY 1"));
  auto rows = ToStringRows(batches);
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0][0], "high");
  EXPECT_EQ(rows[0][1], "5");
  EXPECT_EQ(rows[1][0], "low");
}

TEST(SqlEndToEnd, LikePatterns) {
  auto ctx = MakeTestSession(25);
  ASSERT_OK_AND_ASSIGN(auto batches,
                       ctx->ExecuteSql("SELECT count(*) FROM t WHERE s LIKE 'row1%'"));
  // row1, row10..row19: 11 matches.
  EXPECT_EQ(ToStringRows(batches)[0][0], "11");
}

TEST(SqlEndToEnd, InList) {
  auto ctx = MakeTestSession(20);
  ASSERT_OK_AND_ASSIGN(
      auto batches, ctx->ExecuteSql("SELECT count(*) FROM t WHERE id IN (1, 5, 99)"));
  EXPECT_EQ(ToStringRows(batches)[0][0], "2");
}

TEST(SqlEndToEnd, Between) {
  auto ctx = MakeTestSession(20);
  ASSERT_OK_AND_ASSIGN(
      auto batches,
      ctx->ExecuteSql("SELECT count(*) FROM t WHERE id BETWEEN 5 AND 8"));
  EXPECT_EQ(ToStringRows(batches)[0][0], "4");
}

TEST(SqlEndToEnd, IsNull) {
  auto ctx = MakeTestSession(70);
  ASSERT_OK_AND_ASSIGN(auto batches,
                       ctx->ExecuteSql("SELECT count(*) FROM t WHERE v IS NULL"));
  EXPECT_EQ(ToStringRows(batches)[0][0], "10");
}

TEST(SqlEndToEnd, ScalarFunctions) {
  auto ctx = MakeTestSession(3);
  ASSERT_OK_AND_ASSIGN(
      auto batches,
      ctx->ExecuteSql("SELECT upper(grp), length(s), abs(0 - id) FROM t "
                      "WHERE id = 2"));
  auto rows = ToStringRows(batches);
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0][0], "C");
  EXPECT_EQ(rows[0][1], "4");
  EXPECT_EQ(rows[0][2], "2");
}

TEST(SqlEndToEnd, UnionAll) {
  auto ctx = MakeTestSession(5);
  ASSERT_OK_AND_ASSIGN(
      auto batches,
      ctx->ExecuteSql("SELECT id FROM t UNION ALL SELECT id FROM t"));
  EXPECT_EQ(TotalRows(batches), 10);
}

TEST(SqlEndToEnd, UnionDistinct) {
  auto ctx = MakeTestSession(5);
  ASSERT_OK_AND_ASSIGN(auto batches,
                       ctx->ExecuteSql("SELECT id FROM t UNION SELECT id FROM t"));
  EXPECT_EQ(TotalRows(batches), 5);
}

TEST(SqlEndToEnd, IntersectAndExcept) {
  auto ctx = MakeTestSession(10);
  ASSERT_OK_AND_ASSIGN(
      auto inter,
      ctx->ExecuteSql("SELECT id FROM t WHERE id < 6 INTERSECT "
                      "SELECT id FROM t WHERE id > 3"));
  EXPECT_EQ(TotalRows(inter), 2);  // {4, 5}
  ASSERT_OK_AND_ASSIGN(
      auto except,
      ctx->ExecuteSql("SELECT id FROM t WHERE id < 6 EXCEPT "
                      "SELECT id FROM t WHERE id > 3"));
  EXPECT_EQ(TotalRows(except), 4);  // {0,1,2,3}
  // INTERSECT deduplicates.
  ASSERT_OK_AND_ASSIGN(
      auto dedup,
      ctx->ExecuteSql("SELECT grp FROM t INTERSECT SELECT grp FROM t"));
  EXPECT_EQ(TotalRows(dedup), 3);
}

TEST(SqlEndToEnd, SubqueryInFrom) {
  auto ctx = MakeTestSession(50);
  ASSERT_OK_AND_ASSIGN(
      auto batches,
      ctx->ExecuteSql("SELECT grp, total FROM (SELECT grp, sum(id) AS total "
                      "FROM t GROUP BY grp) sub WHERE total > 400 ORDER BY grp"));
  // ids 0..49: grp a sums 408, b 425, c 392 -> two groups above 400.
  EXPECT_EQ(TotalRows(batches), 2);
}

TEST(SqlEndToEnd, Cte) {
  auto ctx = MakeTestSession(10);
  ASSERT_OK_AND_ASSIGN(
      auto batches,
      ctx->ExecuteSql("WITH big AS (SELECT id FROM t WHERE id >= 5) "
                      "SELECT count(*) FROM big"));
  EXPECT_EQ(ToStringRows(batches)[0][0], "5");
}

TEST(SqlEndToEnd, SelfJoin) {
  auto ctx = MakeTestSession(10);
  ASSERT_OK_AND_ASSIGN(
      auto batches,
      ctx->ExecuteSql("SELECT count(*) FROM t a JOIN t b ON a.id = b.id"));
  EXPECT_EQ(ToStringRows(batches)[0][0], "10");
}

TEST(SqlEndToEnd, JoinWithCondition) {
  auto ctx = MakeTestSession(10);
  // Each row of a joins rows of b with same grp: 10 rows -> groups of
  // sizes 4(a:0,3,6,9),3,3 -> 16+9+9 = 34 pairs.
  ASSERT_OK_AND_ASSIGN(
      auto batches,
      ctx->ExecuteSql("SELECT count(*) FROM t a JOIN t b ON a.grp = b.grp"));
  EXPECT_EQ(ToStringRows(batches)[0][0], "34");
}

TEST(SqlEndToEnd, LeftJoinPreservesRows) {
  auto ctx = MakeTestSession(10);
  ASSERT_OK_AND_ASSIGN(
      auto batches,
      ctx->ExecuteSql(
          "SELECT a.id, b.id FROM t a LEFT JOIN (SELECT id FROM t WHERE id < 3) b "
          "ON a.id = b.id ORDER BY a.id"));
  auto rows = ToStringRows(batches);
  ASSERT_EQ(rows.size(), 10u);
  EXPECT_EQ(rows[0][1], "0");
  EXPECT_EQ(rows[5][1], "null");
}

TEST(SqlEndToEnd, ImplicitJoinViaWhere) {
  auto ctx = MakeTestSession(10);
  ASSERT_OK_AND_ASSIGN(
      auto batches,
      ctx->ExecuteSql("SELECT count(*) FROM t a, t b WHERE a.id = b.id"));
  EXPECT_EQ(ToStringRows(batches)[0][0], "10");
}

TEST(SqlEndToEnd, InSubquery) {
  auto ctx = MakeTestSession(20);
  ASSERT_OK_AND_ASSIGN(
      auto batches,
      ctx->ExecuteSql("SELECT count(*) FROM t WHERE id IN "
                      "(SELECT id FROM t WHERE id < 5)"));
  EXPECT_EQ(ToStringRows(batches)[0][0], "5");
}

TEST(SqlEndToEnd, NotInSubquery) {
  auto ctx = MakeTestSession(20);
  ASSERT_OK_AND_ASSIGN(
      auto batches,
      ctx->ExecuteSql("SELECT count(*) FROM t WHERE id NOT IN "
                      "(SELECT id FROM t WHERE id < 5)"));
  EXPECT_EQ(ToStringRows(batches)[0][0], "15");
}

TEST(SqlEndToEnd, ScalarSubquery) {
  auto ctx = MakeTestSession(10);
  ASSERT_OK_AND_ASSIGN(
      auto batches,
      ctx->ExecuteSql("SELECT count(*) FROM t WHERE id > "
                      "(SELECT avg(id) FROM t)"));
  EXPECT_EQ(ToStringRows(batches)[0][0], "5");
}

TEST(SqlEndToEnd, WindowRowNumber) {
  auto ctx = MakeTestSession(9);
  ASSERT_OK_AND_ASSIGN(
      auto batches,
      ctx->ExecuteSql(
          "SELECT id, row_number() OVER (PARTITION BY grp ORDER BY id DESC) AS rn "
          "FROM t ORDER BY id"));
  auto rows = ToStringRows(batches);
  ASSERT_EQ(rows.size(), 9u);
  // grp a = {0,3,6}; id 6 is first DESC -> rn 1; id 0 -> rn 3.
  EXPECT_EQ(rows[0][1], "3");
  EXPECT_EQ(rows[6][1], "1");
}

TEST(SqlEndToEnd, WindowOrderPlacesNanLast) {
  // NaN sorts above every number, as ORDER BY and min/max place it,
  // whatever the input row order.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (const std::vector<double>& xs :
       {std::vector<double>{2, nan, 1, 3}, std::vector<double>{nan, 2, 1, 3}}) {
    exec::SessionConfig config;
    config.target_partitions = 1;
    auto ctx = core::SessionContext::Make(config);
    auto schema = fusion::schema({Field("x", float64(), false)});
    auto batch = std::make_shared<RecordBatch>(
        schema, 4, std::vector<ArrayPtr>{MakeFloat64Array(xs)});
    ASSERT_OK(ctx->RegisterTable("w", catalog::MemoryTable::Make(schema, {batch})
                                          .ValueOrDie()));
    ASSERT_OK_AND_ASSIGN(
        auto batches,
        ctx->ExecuteSql("SELECT x, row_number() OVER (ORDER BY x) AS rn FROM w "
                        "ORDER BY rn"));
    auto rows = ToStringRows(batches);
    ASSERT_EQ(rows.size(), 4u);
    EXPECT_EQ(rows[3][0], "nan");
    EXPECT_EQ(rows[3][1], "4");
    EXPECT_EQ(rows[0][0], "1");
  }
}

TEST(SqlEndToEnd, WindowRunningSum) {
  auto ctx = MakeTestSession(5);
  ASSERT_OK_AND_ASSIGN(
      auto batches,
      ctx->ExecuteSql("SELECT id, sum(id) OVER (ORDER BY id) AS rs FROM t "
                      "ORDER BY id"));
  auto rows = ToStringRows(batches);
  EXPECT_EQ(rows[4][1], "10");  // 0+1+2+3+4
}

TEST(SqlEndToEnd, AggregateFilterClause) {
  auto ctx = MakeTestSession(10);
  ASSERT_OK_AND_ASSIGN(
      auto batches,
      ctx->ExecuteSql("SELECT count(*) FILTER (WHERE id < 5) AS low, "
                      "count(*) AS total FROM t"));
  auto rows = ToStringRows(batches);
  EXPECT_EQ(rows[0][0], "5");
  EXPECT_EQ(rows[0][1], "10");
}

TEST(SqlEndToEnd, Explain) {
  auto ctx = MakeTestSession(5);
  ASSERT_OK_AND_ASSIGN(auto batches,
                       ctx->ExecuteSql("EXPLAIN SELECT id FROM t WHERE id > 2"));
  auto rows = ToStringRows(batches);
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_NE(rows[0][0].find("Logical Plan"), std::string::npos);
  EXPECT_NE(rows[0][0].find("Physical Plan"), std::string::npos);
}

TEST(SqlEndToEnd, ExplainAnalyze) {
  auto ctx = MakeTestSession(30);
  // groups cycle a,b,c -> exactly 3 output rows; the scan sees all 30.
  ASSERT_OK_AND_ASSIGN(
      auto batches,
      ctx->ExecuteSql("EXPLAIN ANALYZE SELECT grp, count(*) FROM t GROUP BY grp"));
  auto rows = ToStringRows(batches);
  ASSERT_EQ(rows.size(), 1u);
  const std::string& plan = rows[0][0];
  EXPECT_NE(plan.find("EXPLAIN ANALYZE"), std::string::npos) << plan;

  // Every operator line carries metrics with real row counts.
  bool saw_aggregate = false;
  bool saw_scan = false;
  size_t pos = 0;
  while (pos < plan.size()) {
    size_t eol = plan.find('\n', pos);
    if (eol == std::string::npos) eol = plan.size();
    std::string line = plan.substr(pos, eol - pos);
    pos = eol + 1;
    if (line.find("Exec") == std::string::npos) continue;
    EXPECT_NE(line.find("metrics=["), std::string::npos) << line;
    EXPECT_NE(line.find("output_rows="), std::string::npos) << line;
    EXPECT_NE(line.find("elapsed_compute="), std::string::npos) << line;
    if (line.find("AggregateExec") != std::string::npos) {
      saw_aggregate = true;
      EXPECT_NE(line.find("output_rows=3"), std::string::npos) << line;
    }
    if (line.find("ScanExec") != std::string::npos) {
      saw_scan = true;
      EXPECT_NE(line.find("output_rows=30"), std::string::npos) << line;
    }
  }
  EXPECT_TRUE(saw_aggregate) << plan;
  EXPECT_TRUE(saw_scan) << plan;
}

TEST(SqlEndToEnd, ErrorUnknownTable) {
  auto ctx = MakeTestSession(5);
  auto result = ctx->ExecuteSql("SELECT * FROM missing_table");
  EXPECT_FALSE(result.ok());
}

TEST(SqlEndToEnd, ErrorUnknownColumn) {
  auto ctx = MakeTestSession(5);
  auto result = ctx->ExecuteSql("SELECT nope FROM t");
  EXPECT_FALSE(result.ok());
}

TEST(SqlEndToEnd, ErrorSyntax) {
  auto ctx = MakeTestSession(5);
  auto result = ctx->ExecuteSql("SELEC id FROM t");
  EXPECT_FALSE(result.ok());
}

TEST(SqlEndToEnd, MultiplePartitionsMatchSinglePartition) {
  exec::SessionConfig parallel;
  parallel.target_partitions = 4;
  auto ctx1 = MakeTestSession(500);
  auto ctx4 = MakeTestSession(500, parallel);
  const char* query =
      "SELECT grp, count(*) AS c, sum(v) AS sv FROM t GROUP BY grp ORDER BY grp";
  ASSERT_OK_AND_ASSIGN(auto r1, ctx1->ExecuteSql(query));
  ASSERT_OK_AND_ASSIGN(auto r4, ctx4->ExecuteSql(query));
  EXPECT_EQ(ToStringRows(r1), ToStringRows(r4));
}

}  // namespace
}  // namespace test
}  // namespace fusion
