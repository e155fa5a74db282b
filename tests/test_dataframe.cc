// Tests for the DataFrame / LogicalPlanBuilder APIs (paper §5.3.3) and
// the SessionContext extension surfaces.

#include "tests/test_util.h"

namespace fusion {
namespace test {
namespace {

using logical::AggregateCall;
using logical::AliasExpr;
using logical::Binary;
using logical::BinaryOp;
using logical::Col;
using logical::Lit;

TEST(DataFrameTest, SelectFilterCollect) {
  auto ctx = MakeTestSession(20);
  auto df = ctx->Table("t").ValueOrDie();
  auto result = df.Filter(Binary(Col("id"), BinaryOp::kGtEq, Lit(int64_t{15})))
                    .ValueOrDie()
                    .SelectColumns({"id", "grp"})
                    .ValueOrDie();
  ASSERT_OK_AND_ASSIGN(auto batches, result.Collect());
  EXPECT_EQ(TotalRows(batches), 5);
  EXPECT_EQ(batches[0]->num_columns(), 2);
}

TEST(DataFrameTest, AggregateMatchesSql) {
  auto ctx = MakeTestSession(60);
  auto registry = ctx->registry();
  auto sum_fn = registry->GetAggregate("sum").ValueOrDie();
  auto df = ctx->Table("t")
                .ValueOrDie()
                .Aggregate({Col("grp")},
                           {AliasExpr(AggregateCall(sum_fn, {Col("v")}), "sv")})
                .ValueOrDie();
  ASSERT_OK_AND_ASSIGN(auto df_rows, df.Collect());
  ASSERT_OK_AND_ASSIGN(auto sql_rows,
                       ctx->ExecuteSql("SELECT grp, sum(v) FROM t GROUP BY grp"));
  EXPECT_EQ(SortedStringRows(df_rows), SortedStringRows(sql_rows));
}

TEST(DataFrameTest, JoinAndCount) {
  auto ctx = MakeTestSession(15);
  auto a = ctx->Table("t").ValueOrDie();
  auto b = ctx->Table("t").ValueOrDie();
  auto joined =
      a.Join(b, logical::JoinKind::kInner, {"id"}, {"id"}).ValueOrDie();
  ASSERT_OK_AND_ASSIGN(int64_t count, joined.Count());
  EXPECT_EQ(count, 15);
}

TEST(DataFrameTest, WithColumnAndSort) {
  auto ctx = MakeTestSession(5);
  auto df = ctx->Table("t")
                .ValueOrDie()
                .WithColumn("id2", Binary(Col("id"), BinaryOp::kMultiply,
                                          Lit(int64_t{2})))
                .ValueOrDie()
                .Sort({{Col("id2"), {.descending = true, .nulls_first = false}}})
                .ValueOrDie()
                .Limit(0, 1)
                .ValueOrDie();
  ASSERT_OK_AND_ASSIGN(auto batches, df.Collect());
  auto rows = ToStringRows(batches);
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0].back(), "8");
}

TEST(DataFrameTest, UnionAndDistinct) {
  auto ctx = MakeTestSession(4);
  auto df = ctx->Table("t").ValueOrDie().SelectColumns({"grp"}).ValueOrDie();
  auto twice = df.Union(df).ValueOrDie();
  ASSERT_OK_AND_ASSIGN(int64_t all, twice.Count());
  EXPECT_EQ(all, 8);
  ASSERT_OK_AND_ASSIGN(int64_t distinct,
                       twice.Distinct().ValueOrDie().Count());
  EXPECT_EQ(distinct, 3);  // a, b, c (4 rows cycle a,b,c,a)
}

TEST(DataFrameTest, ShowStringFormatsTable) {
  auto ctx = MakeTestSession(2);
  auto df = ctx->Table("t").ValueOrDie().SelectColumns({"id"}).ValueOrDie();
  ASSERT_OK_AND_ASSIGN(auto text, df.ShowString());
  EXPECT_NE(text.find("| id"), std::string::npos);
  EXPECT_NE(text.find("| 1 "), std::string::npos);
}

TEST(LogicalPlanBuilderTest, BuildsSamePlansAsSql) {
  auto ctx = MakeTestSession(30);
  auto provider = ctx->GetTable("t").ValueOrDie();
  ASSERT_OK_AND_ASSIGN(auto scan,
                       logical::LogicalPlanBuilder::Scan("t", provider));
  ASSERT_OK_AND_ASSIGN(
      auto filtered,
      scan.Filter(Binary(Col("id"), BinaryOp::kLt, Lit(int64_t{10}))));
  ASSERT_OK_AND_ASSIGN(auto projected, filtered.Project({Col("id")}));
  ASSERT_OK_AND_ASSIGN(auto built, projected.Sort({{Col("id"), {}}}));
  ASSERT_OK_AND_ASSIGN(auto rows, ctx->ExecutePlan(built.Build()));
  ASSERT_OK_AND_ASSIGN(auto sql_rows,
                       ctx->ExecuteSql("SELECT id FROM t WHERE id < 10 ORDER BY id"));
  EXPECT_EQ(ToStringRows(rows), ToStringRows(sql_rows));
}

TEST(LogicalPlanBuilderTest, ValuesAndEmpty) {
  auto ctx = MakeTestSession(1);
  ASSERT_OK_AND_ASSIGN(auto values,
                       logical::LogicalPlanBuilder::Values(
                           {{Lit(int64_t{1}), Lit("x")},
                            {Lit(int64_t{2}), Lit("y")}}));
  ASSERT_OK_AND_ASSIGN(auto rows, ctx->ExecutePlan(values.Build()));
  EXPECT_EQ(TotalRows(rows), 2);
  EXPECT_EQ(ToStringRows(rows)[1][1], "y");
}

TEST(SessionTest, RegisterAndDeregister) {
  auto ctx = MakeTestSession(3);
  EXPECT_TRUE(ctx->GetTable("t").ok());
  ASSERT_OK(ctx->DeregisterTable("t"));
  EXPECT_FALSE(ctx->GetTable("t").ok());
  EXPECT_FALSE(ctx->ExecuteSql("SELECT * FROM t").ok());
}

TEST(SessionTest, MultipleSchemas) {
  auto ctx = MakeTestSession(3);
  auto extra = std::make_shared<catalog::MemorySchemaProvider>();
  auto provider = ctx->GetTable("t").ValueOrDie();
  ASSERT_OK(extra->RegisterTable("mirror", provider));
  ASSERT_OK(ctx->catalog_provider()->RegisterSchema("staging", extra));
  ASSERT_OK_AND_ASSIGN(auto batches,
                       ctx->ExecuteSql("SELECT count(*) FROM staging.mirror"));
  EXPECT_EQ(ToStringRows(batches)[0][0], "3");
}

TEST(SessionTest, FileRegistrationHelpers) {
  auto ctx = core::SessionContext::Make();
  // CSV via helper.
  std::FILE* f = std::fopen("/tmp/fusion_test_session.csv", "wb");
  std::fputs("a,b\n1,x\n2,y\n", f);
  std::fclose(f);
  ASSERT_OK(ctx->RegisterCsv("c", "/tmp/fusion_test_session.csv"));
  ASSERT_OK_AND_ASSIGN(auto rows, ctx->ExecuteSql("SELECT count(*) FROM c"));
  EXPECT_EQ(ToStringRows(rows)[0][0], "2");
  // JSON via helper.
  f = std::fopen("/tmp/fusion_test_session.json", "wb");
  std::fputs("{\"a\": 1}\n{\"a\": 2}\n{\"a\": 3}\n", f);
  std::fclose(f);
  ASSERT_OK(ctx->RegisterJson("j", "/tmp/fusion_test_session.json"));
  ASSERT_OK_AND_ASSIGN(auto jrows, ctx->ExecuteSql("SELECT sum(a) FROM j"));
  EXPECT_EQ(ToStringRows(jrows)[0][0], "6");
}

TEST(SessionTest, UserDefinedScalarFunctionViaSql) {
  auto ctx = MakeTestSession(4);
  auto fn = std::make_shared<logical::ScalarFunctionDef>();
  fn->name = "triple";
  fn->return_type = [](const std::vector<DataType>&) -> Result<DataType> {
    return int64();
  };
  fn->impl = [](const std::vector<ColumnarValue>& args,
                int64_t num_rows) -> Result<ColumnarValue> {
    FUSION_ASSIGN_OR_RAISE(auto arr, args[0].ToArray(num_rows));
    const auto& in = checked_cast<Int64Array>(*arr);
    Int64Builder out;
    for (int64_t i = 0; i < num_rows; ++i) {
      if (in.IsNull(i)) {
        out.AppendNull();
      } else {
        out.Append(in.Value(i) * 3);
      }
    }
    FUSION_ASSIGN_OR_RAISE(auto result, out.Finish());
    return ColumnarValue(std::move(result));
  };
  ASSERT_OK(ctx->RegisterScalarFunction(fn));
  ASSERT_OK_AND_ASSIGN(auto rows,
                       ctx->ExecuteSql("SELECT triple(id) FROM t WHERE id = 3"));
  EXPECT_EQ(ToStringRows(rows)[0][0], "9");
}

TEST(SessionTest, ConfigAblationsPreserveResults) {
  // Every optimization toggle must be semantics-preserving.
  const char* queries[] = {
      "SELECT grp, count(*) FROM t GROUP BY grp",
      "SELECT id FROM t WHERE id > 40 ORDER BY id DESC LIMIT 5",
      "SELECT count(DISTINCT grp) FROM t WHERE v IS NOT NULL",
  };
  auto reference_ctx = MakeTestSession(50);
  for (const char* q : queries) {
    ASSERT_OK_AND_ASSIGN(auto reference, reference_ctx->ExecuteSql(q));
    for (int mask = 0; mask < 8; ++mask) {
      exec::SessionConfig config;
      config.enable_predicate_pushdown = mask & 1;
      config.enable_topk = mask & 2;
      config.target_partitions = 1 + mask % 3;
      auto ctx = MakeTestSession(50, config);
      ASSERT_OK_AND_ASSIGN(auto got, ctx->ExecuteSql(q));
      EXPECT_EQ(SortedStringRows(got), SortedStringRows(reference))
          << q << " mask=" << mask;
    }
  }
}

}  // namespace
}  // namespace test
}  // namespace fusion
