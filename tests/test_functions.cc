// Tests for the built-in function library (paper §5.4.3) evaluated
// through SQL, plus interval analysis / range propagation (§5.4.2).

#include "tests/test_util.h"

#include <array>
#include <cmath>
#include <limits>

#include "logical/interval_analysis.h"
#include "logical/expr_eval.h"

namespace fusion {
namespace test {
namespace {

/// Evaluate a constant SQL expression and return its single value.
std::string Eval(core::SessionContextPtr& ctx, const std::string& expr) {
  auto batches = ctx->ExecuteSql("SELECT " + expr);
  batches.status().Abort();
  return ToStringRows(*batches)[0][0];
}

TEST(FunctionTest, Math) {
  auto ctx = MakeTestSession(1);
  EXPECT_EQ(Eval(ctx, "abs(-7)"), "7");
  EXPECT_EQ(Eval(ctx, "abs(-1.5)"), "1.5");
  EXPECT_EQ(Eval(ctx, "sqrt(16)"), "4");
  EXPECT_EQ(Eval(ctx, "power(2, 10)"), "1024");
  EXPECT_EQ(Eval(ctx, "ceil(1.2)"), "2");
  EXPECT_EQ(Eval(ctx, "floor(1.8)"), "1");
  EXPECT_EQ(Eval(ctx, "round(2.567, 2)"), "2.57");
  EXPECT_EQ(Eval(ctx, "round(2.4)"), "2");
  EXPECT_EQ(Eval(ctx, "sign(-3)"), "-1");
  EXPECT_EQ(Eval(ctx, "exp(0)"), "1");
  EXPECT_EQ(Eval(ctx, "ln(1)"), "0");
  EXPECT_EQ(Eval(ctx, "log10(1000)"), "3");
}

TEST(FunctionTest, Strings) {
  auto ctx = MakeTestSession(1);
  EXPECT_EQ(Eval(ctx, "upper('abc')"), "ABC");
  EXPECT_EQ(Eval(ctx, "lower('AbC')"), "abc");
  EXPECT_EQ(Eval(ctx, "length('hello')"), "5");
  EXPECT_EQ(Eval(ctx, "char_length('hello')"), "5");
  EXPECT_EQ(Eval(ctx, "substr('hello', 2, 3)"), "ell");
  EXPECT_EQ(Eval(ctx, "trim('  x  ')"), "x");
  EXPECT_EQ(Eval(ctx, "concat('a', 'b', 'c')"), "abc");
  EXPECT_EQ(Eval(ctx, "concat('n=', 42)"), "n=42");
  EXPECT_EQ(Eval(ctx, "replace('aXbXc', 'X', '-')"), "a-b-c");
  EXPECT_EQ(Eval(ctx, "starts_with('hello', 'he')"), "true");
  EXPECT_EQ(Eval(ctx, "ends_with('hello', 'lo')"), "true");
  EXPECT_EQ(Eval(ctx, "contains('hello', 'ell')"), "true");
  EXPECT_EQ(Eval(ctx, "'a' || 'b' || 3"), "ab3");
}

TEST(FunctionTest, Temporal) {
  auto ctx = MakeTestSession(1);
  EXPECT_EQ(Eval(ctx, "date_part('year', date '2024-03-15')"), "2024");
  EXPECT_EQ(Eval(ctx, "EXTRACT(month FROM date '2024-03-15')"), "3");
  EXPECT_EQ(Eval(ctx, "EXTRACT(day FROM date '2024-03-15')"), "15");
  EXPECT_EQ(Eval(ctx, "EXTRACT(hour FROM timestamp '2024-03-15 13:45:10')"),
            "13");
  EXPECT_EQ(Eval(ctx, "EXTRACT(minute FROM timestamp '2024-03-15 13:45:10')"),
            "45");
  // to_date parses into the date32 domain.
  EXPECT_EQ(Eval(ctx, "date_part('year', to_date('1999-12-31'))"), "1999");
}

TEST(FunctionTest, Conditional) {
  auto ctx = MakeTestSession(1);
  EXPECT_EQ(Eval(ctx, "coalesce(NULL, NULL, 5)"), "5");
  EXPECT_EQ(Eval(ctx, "coalesce(NULL, 'x')"), "x");
  EXPECT_EQ(Eval(ctx, "nullif(3, 3)"), "null");
  EXPECT_EQ(Eval(ctx, "nullif(3, 4)"), "3");
}

TEST(FunctionTest, NullPropagation) {
  auto ctx = MakeTestSession(1);
  EXPECT_EQ(Eval(ctx, "upper(NULL)"), "null");
  EXPECT_EQ(Eval(ctx, "abs(NULL)"), "null");
  EXPECT_EQ(Eval(ctx, "NULL + 1"), "null");
  EXPECT_EQ(Eval(ctx, "1 = NULL"), "null");
  EXPECT_EQ(Eval(ctx, "NULL IS NULL"), "true");
}

TEST(FunctionTest, DateArithmeticWithIntervals) {
  auto ctx = MakeTestSession(1);
  EXPECT_EQ(Eval(ctx, "date_part('year', date '1998-12-01' - interval '90' day)"),
            "1998");
  EXPECT_EQ(Eval(ctx, "date_part('month', date '1998-12-01' - interval '90' day)"),
            "9");
  EXPECT_EQ(Eval(ctx, "date_part('day', date '1998-12-01' - interval '90' day)"),
            "2");
  EXPECT_EQ(Eval(ctx, "date_part('month', date '2000-01-31' + interval '1' month)"),
            "2");
  // Day clamps: Jan 31 + 1 month -> Feb 29 (2000 is a leap year).
  EXPECT_EQ(Eval(ctx, "date_part('day', date '2000-01-31' + interval '1' month)"),
            "29");
  EXPECT_EQ(Eval(ctx, "date_part('year', date '1995-06-15' + interval '2' year)"),
            "1997");
}

TEST(FunctionTest, UnknownFunctionErrors) {
  auto ctx = MakeTestSession(1);
  EXPECT_FALSE(ctx->ExecuteSql("SELECT frobnicate(1)").ok());
  EXPECT_FALSE(ctx->ExecuteSql("SELECT substr('x')").ok());  // arity
}

TEST(IntervalAnalysisTest, ArithmeticPropagation) {
  using logical::AnalyzeExprInterval;
  using logical::ValueInterval;
  logical::ColumnBounds bounds;
  bounds["x"] = ValueInterval::Of(Scalar::Int64(0), Scalar::Int64(10));
  bounds["y"] = ValueInterval::Of(Scalar::Int64(-5), Scalar::Int64(5));

  ASSERT_OK_AND_ASSIGN(
      auto sum, AnalyzeExprInterval(logical::Binary(logical::Col("x"),
                                                    logical::BinaryOp::kPlus,
                                                    logical::Col("y")),
                                    bounds));
  EXPECT_DOUBLE_EQ(sum.lo.AsDouble(), -5);
  EXPECT_DOUBLE_EQ(sum.hi.AsDouble(), 15);

  ASSERT_OK_AND_ASSIGN(
      auto prod, AnalyzeExprInterval(logical::Binary(logical::Col("x"),
                                                     logical::BinaryOp::kMultiply,
                                                     logical::Col("y")),
                                     bounds));
  EXPECT_DOUBLE_EQ(prod.lo.AsDouble(), -50);
  EXPECT_DOUBLE_EQ(prod.hi.AsDouble(), 50);

  ASSERT_OK_AND_ASSIGN(auto unknown,
                       AnalyzeExprInterval(logical::Col("zzz"), bounds));
  EXPECT_TRUE(unknown.IsUnbounded());
}

TEST(IntervalAnalysisTest, PredicatePruning) {
  using logical::PredicateMaySatisfy;
  using logical::ValueInterval;
  logical::ColumnBounds bounds;
  bounds["x"] = ValueInterval::Of(Scalar::Int64(100), Scalar::Int64(200));

  auto pred = [&](logical::BinaryOp op, int64_t v) {
    return logical::Binary(logical::Col("x"), op, logical::Lit(v));
  };
  // x in [100,200]: x > 300 impossible, x > 150 possible.
  ASSERT_OK_AND_ASSIGN(bool impossible,
                       PredicateMaySatisfy(pred(logical::BinaryOp::kGt, 300),
                                           bounds));
  EXPECT_FALSE(impossible);
  ASSERT_OK_AND_ASSIGN(bool possible,
                       PredicateMaySatisfy(pred(logical::BinaryOp::kGt, 150),
                                           bounds));
  EXPECT_TRUE(possible);
  ASSERT_OK_AND_ASSIGN(bool eq_out,
                       PredicateMaySatisfy(pred(logical::BinaryOp::kEq, 99),
                                           bounds));
  EXPECT_FALSE(eq_out);
  // Conjunction: one impossible arm kills it; disjunction survives.
  ASSERT_OK_AND_ASSIGN(
      bool conj,
      PredicateMaySatisfy(logical::And(pred(logical::BinaryOp::kGt, 300),
                                       pred(logical::BinaryOp::kLt, 150)),
                          bounds));
  EXPECT_FALSE(conj);
  ASSERT_OK_AND_ASSIGN(
      bool disj,
      PredicateMaySatisfy(logical::Or(pred(logical::BinaryOp::kGt, 300),
                                      pred(logical::BinaryOp::kLt, 150)),
                          bounds));
  EXPECT_TRUE(disj);
}

TEST(IntervalAnalysisTest, SelectivityHeuristics) {
  using logical::EstimateSelectivity;
  auto eq = logical::Binary(logical::Col("x"), logical::BinaryOp::kEq,
                            logical::Lit(int64_t{1}));
  auto range = logical::Binary(logical::Col("x"), logical::BinaryOp::kLt,
                               logical::Lit(int64_t{1}));
  EXPECT_LT(EstimateSelectivity(eq), EstimateSelectivity(range));
  EXPECT_LT(EstimateSelectivity(logical::And(eq, range)),
            EstimateSelectivity(eq));
  EXPECT_GE(EstimateSelectivity(logical::Or(eq, range)),
            EstimateSelectivity(range));
  EXPECT_DOUBLE_EQ(EstimateSelectivity(nullptr), 1.0);
}

TEST(ConstantEvalTest, BinaryOperators) {
  using logical::Binary;
  using logical::BinaryOp;
  using logical::EvaluateConstantExpr;
  using logical::Lit;
  ASSERT_OK_AND_ASSIGN(auto sum, EvaluateConstantExpr(Binary(
                                     Lit(int64_t{2}), BinaryOp::kPlus, Lit(0.5))));
  EXPECT_EQ(sum.type(), float64());
  EXPECT_DOUBLE_EQ(sum.double_value(), 2.5);
  ASSERT_OK_AND_ASSIGN(auto div0, EvaluateConstantExpr(Binary(
                                      Lit(int64_t{1}), BinaryOp::kDivide,
                                      Lit(int64_t{0}))));
  EXPECT_TRUE(div0.is_null());
  EXPECT_EQ(div0.type(), int64());
  // Kleene: false AND null = false.
  ASSERT_OK_AND_ASSIGN(auto kleene,
                       EvaluateConstantExpr(Binary(Lit(Scalar::Bool(false)),
                                                   BinaryOp::kAnd,
                                                   Lit(Scalar::Null(boolean())))));
  EXPECT_FALSE(kleene.is_null());
  EXPECT_FALSE(kleene.bool_value());
}

/// One value per type the expression list uses, as the SQL literal that
/// denotes it and as a column of a one-row table.
struct ConstantOperand {
  std::string name;
  std::string literal;
  ArrayPtr column;
};

std::vector<ConstantOperand> ConstantOperands() {
  const double inf = std::numeric_limits<double>::infinity();
  return {
      {"i32", "CAST(7 AS INT4)", MakeInt32Array({7})},
      {"i64", "5", MakeInt64Array({5})},
      {"iz", "0", MakeInt64Array({0})},
      {"dbl", "2.5", MakeFloat64Array({2.5})},
      {"zero", "0.0", MakeFloat64Array({0.0})},
      {"nan", "CAST('NaN' AS DOUBLE)", MakeFloat64Array({std::nan("")})},
      {"pinf", "CAST('inf' AS DOUBLE)", MakeFloat64Array({inf})},
      {"ninf", "CAST('-inf' AS DOUBLE)", MakeFloat64Array({-inf})},
      {"dec", "CAST(1.50 AS DECIMAL(10,2))",
       MakeDecimal128Array(10, 2, {Decimal128(150)})},
      {"s", "'abc'", MakeStringArray({"abc"})},
      {"sn", "' 12'", MakeStringArray({" 12"})},
      {"sd", "'2020-01-01'", MakeStringArray({"2020-01-01"})},
      {"snan", "'NaN'", MakeStringArray({"NaN"})},
      {"d", "DATE '2020-01-01'", MakeDate32Array({18262})},
      {"b", "true", MakeBooleanArray({true})},
      {"n", "NULL", MakeArrayOfNulls(null_type(), 1).ValueOrDie()},
  };
}

/// Replace each {name} in `pattern` with the operand's literal or column.
std::string Instantiate(const std::string& pattern,
                        const std::vector<ConstantOperand>& operands,
                        bool literal) {
  std::string out = pattern;
  for (const auto& op : operands) {
    const std::string hole = "{" + op.name + "}";
    for (size_t at = out.find(hole); at != std::string::npos; at = out.find(hole)) {
      out.replace(at, hole.size(), literal ? "(" + op.literal + ")" : op.name);
    }
  }
  return out;
}

TEST(ConstantEvalTest, FoldedMatchesColumnEvaluation) {
  const auto operands = ConstantOperands();
  std::vector<Field> fields;
  std::vector<ArrayPtr> columns;
  for (const auto& op : operands) {
    fields.emplace_back(op.name, op.column->type(), true);
    columns.push_back(op.column);
  }
  auto schema = fusion::schema(fields);
  auto batch = std::make_shared<RecordBatch>(schema, 1, std::move(columns));
  auto ctx = core::SessionContext::Make();
  ASSERT_OK(ctx->RegisterTable("t", catalog::MemoryTable::Make(schema, {batch})
                                        .ValueOrDie()));

  const std::vector<std::string> patterns = {
      // Every binary operator, over int32, int64, double, decimal,
      // string, date, bool and NULL operands.
      "{i64} + {i32}", "{i32} - {i64}", "{i64} * {dbl}", "{i64} / {i32}",
      "{i64} % {i32}", "{i64} / {iz}", "{i64} % {iz}", "{i64} / {zero}",
      "{dbl} % {zero}", "{nan} + {dbl}", "{pinf} + {ninf}", "{pinf} * {zero}",
      "{dec} + {dec}", "{dec} * {dec}", "{dec} / {dec}", "{dec} - {i64}",
      "{dec} * {dbl}", "{dec} % {i32}", "{dec} / {iz}",
      "{d} + {i64}", "{d} - {i32}", "{i64} + {d}", "{d} - {d}", "{i64} - {d}",
      "{d} * {i64}", "{n} + {i64}", "{dbl} * {n}", "{dec} - {n}", "{d} + {n}",
      "{i64} = {i32}", "{i64} <> {dbl}", "{i32} < {dbl}", "{dec} <= {dbl}",
      "{dec} > {i64}", "{s} >= {sn}", "{nan} = {nan}", "{nan} > {pinf}",
      "{ninf} < {i64}", "{d} = {sd}", "{i64} = {sn}", "{i64} = {n}",
      "{b} = {b}", "{b} AND {n}", "NOT {b} AND {n}", "{b} OR {n}",
      "NOT {b} OR {n}", "{b} AND NOT {b}", "{b} AND {i64}", "{zero} OR {n}",
      "{nan} AND {b}", "{s} AND {b}", "{s} || {s}", "{s} || {i64}",
      "{dbl} || {s}", "{s} || {n}",
      // CAST.
      "CAST({s} AS BIGINT)", "CAST({sn} AS BIGINT)", "CAST({sd} AS DATE)",
      "CAST({snan} AS DOUBLE) = 1.0", "CAST({snan} AS DOUBLE)",
      "CAST({i64} AS VARCHAR)", "CAST({dbl} AS INT4)", "CAST({dec} AS DOUBLE)",
      "CAST({i64} AS DECIMAL(12,2))", "CAST({dbl} AS DECIMAL(10,1))",
      "CAST({b} AS BIGINT)", "CAST({n} AS BIGINT)", "CAST({d} AS TIMESTAMP)",
      "CAST({d} AS TIMESTAMP) + {i64}", "CAST({sd} AS TIMESTAMP)",
      // CASE with and without ELSE.
      "CASE WHEN {b} THEN {i64} ELSE {i32} END",
      "CASE WHEN {i64} > {dbl} THEN {s} END",
      "CASE WHEN {n} THEN 1 ELSE 2 END", "CASE WHEN NOT {b} THEN {n} END",
      "CASE WHEN {iz} THEN 1 ELSE 2 END",
      "CASE {i64} WHEN 5 THEN 'five' ELSE 'other' END",
      // IN.
      "{iz} IN (NULL, 5)", "{i64} IN (NULL, 5)", "{i32} IN (NULL, 5)",
      "{i64} NOT IN (NULL, 6)", "{i64} NOT IN (6, 7)", "{s} IN ('abc', NULL)",
      "{s} NOT IN ('x', NULL)", "{d} IN (DATE '2020-01-01', NULL)",
      "{d} IN ('2020-01-01')", "CAST({d} AS TIMESTAMP) IN ('2020-01-01 00:00:00')",
      "{dbl} IN (1, 2.5)", "{zero} IN (0, 1)", "{dec} IN (1.5, NULL)", "{dec} IN (1.2)",
      "{nan} IN (CAST('NaN' AS DOUBLE), 1)", "{b} IN (false, NULL)",
      "{n} IN (1, 2)",
      // LIKE, NOT, IS NULL, negation, one scalar function.
      "{s} LIKE 'a%'", "{s} NOT LIKE '%c'", "{n} LIKE 'a%'", "{s} LIKE NULL",
      "NOT {b}", "NOT {n}", "NOT {i32}", "{n} IS NULL", "{i64} IS NOT NULL", "{nan} IS NULL",
      "-{i64}", "-{i32}", "-{dbl}", "-{dec}", "-{ninf}", "-{n}",
      "upper({s})", "length({s}) + {i32}", "abs(-{dbl})", "abs(-{dec})",
  };
  for (const auto& pattern : patterns) {
    const std::string folded_sql = "SELECT " + Instantiate(pattern, operands, true);
    const std::string column_sql =
        "SELECT " + Instantiate(pattern, operands, false) + " FROM t";
    auto folded = ctx->ExecuteSql(folded_sql);
    auto column = ctx->ExecuteSql(column_sql);
    ASSERT_EQ(folded.ok(), column.ok())
        << folded_sql << " -> " << folded.status().ToString() << "\n"
        << column_sql << " -> " << column.status().ToString();
    if (!folded.ok()) {
      EXPECT_EQ(folded.status().code(), column.status().code())
          << folded_sql << " -> " << folded.status().ToString() << "\n"
          << column_sql << " -> " << column.status().ToString();
      continue;
    }
    ASSERT_EQ(TotalRows(*folded), 1) << folded_sql;
    ASSERT_EQ(TotalRows(*column), 1) << column_sql;
    EXPECT_EQ((*folded)[0]->schema()->field(0).type(),
              (*column)[0]->schema()->field(0).type())
        << folded_sql;
    EXPECT_EQ(ToStringRows(*folded), ToStringRows(*column)) << folded_sql;
  }
}

TEST(InListTest, NullItemGivesThreeValuedAnswer) {
  // 64 rows in 8 batches; every column holds (id % 8) in its own type,
  // and every 9th row is NULL.
  const int64_t n = 64;
  Int64Builder id, k;
  NumericBuilder<int32_t> d(date32());
  StringBuilder s;
  DictionaryBuilder kd;
  Decimal128Builder dec(decimal128(10, 2));
  Float64Builder x;
  int64_t fives = 0, valid = 0;
  for (int64_t i = 0; i < n; ++i) {
    const int64_t v = i % 8;
    id.Append(i);
    if (i % 9 == 4) {
      k.AppendNull();
      d.AppendNull();
      s.AppendNull();
      kd.AppendNull();
      dec.AppendNull();
      x.AppendNull();
      continue;
    }
    ++valid;
    fives += v == 5;
    k.Append(v);
    d.Append(static_cast<int32_t>(18262 + v));
    s.Append("v" + std::to_string(v));
    kd.Append("v" + std::to_string(v));
    dec.Append(Decimal128(v * 100));
    x.Append(static_cast<double>(v));
  }
  auto schema = fusion::schema(
      {Field("id", int64(), false), Field("k", int64(), true), Field("d", date32(), true),
       Field("s", utf8(), true), Field("kd", dictionary(), true),
       Field("dec", decimal128(10, 2), true), Field("x", float64(), true)});
  auto batch = std::make_shared<RecordBatch>(
      schema, n,
      std::vector<ArrayPtr>{id.Finish().ValueOrDie(), k.Finish().ValueOrDie(),
                            d.Finish().ValueOrDie(), s.Finish().ValueOrDie(),
                            kd.Finish().ValueOrDie(), dec.Finish().ValueOrDie(),
                            x.Finish().ValueOrDie()});
  auto table = catalog::MemoryTable::Make(schema, SliceBatch(batch, 8)).ValueOrDie();

  // Each column with the list (NULL, <5 in its type>) and the value 0
  // as a constant of the same type.
  const std::vector<std::array<std::string, 3>> cases = {
      {"k", "NULL, 5", "0"},
      {"d", "NULL, DATE '2020-01-06'", "DATE '2020-01-01'"},
      {"s", "NULL, 'v5'", "'v0'"},
      {"kd", "NULL, 'v5'", "'v0'"},
      {"dec", "NULL, 5", "CAST(0 AS DECIMAL(10,2))"},
      {"x", "NULL, 5", "0.0"},
  };
  auto count = [](core::SessionContextPtr& ctx, const std::string& sql) {
    auto batches = ctx->ExecuteSql(sql);
    EXPECT_TRUE(batches.ok()) << sql << " -> " << batches.status().ToString();
    return batches.ok() ? ToStringRows(*batches)[0][0] : "error";
  };
  for (int partitions : {1, 4}) {
    exec::SessionConfig config;
    config.target_partitions = partitions;
    auto ctx = core::SessionContext::Make(config);
    ASSERT_OK(ctx->RegisterTable("t", table));
    for (const auto& [col, list, zero] : cases) {
      const std::string in = col + " IN (" + list + ")";
      const std::string not_in = col + " NOT IN (" + list + ")";
      SCOPED_TRACE(in + " at " + std::to_string(partitions) + " partitions");
      // A row matching no item is NULL, so NOT IN keeps no row.
      EXPECT_EQ(count(ctx, "SELECT count(*) FROM t WHERE " + in), std::to_string(fives));
      EXPECT_EQ(count(ctx, "SELECT count(*) FROM t WHERE " + not_in), "0");
      EXPECT_EQ(count(ctx, "SELECT count(*) FROM t WHERE (" + in + ") IS NULL"),
                std::to_string(n - fives));
      EXPECT_EQ(count(ctx, "SELECT count(*) FROM t WHERE (" + not_in + ") = false"),
                std::to_string(fives));
      // Without the NULL item a non-match is false.
      EXPECT_EQ(count(ctx, "SELECT count(*) FROM t WHERE " + col + " NOT IN (" +
                               list.substr(6) + ")"),
                std::to_string(valid - fives));
      // The same lists over a constant.
      EXPECT_EQ(count(ctx, "SELECT " + zero + " IN (" + list + ")"), "null");
      EXPECT_EQ(count(ctx, "SELECT " + zero + " NOT IN (" + list + ")"), "null");
    }
  }
}

TEST(InListTest, ItemMatchesAsEqualityDoes) {
  // `k IN (x)` is `k = x` for an integer column and an item of any type:
  // a number the column cannot hold exactly (5.5, DECIMAL 4.5) matches
  // nothing, and a string item is parsed as `=` parses it.
  Int64Builder k64;
  NumericBuilder<int32_t> k32(int32());
  for (int64_t i = 0; i < 40; ++i) {
    if (i % 10 == 9) {
      k64.AppendNull();
      k32.AppendNull();
      continue;
    }
    k64.Append(i % 10);
    k32.Append(static_cast<int32_t>(i % 10));
  }
  auto schema =
      fusion::schema({Field("k64", int64(), true), Field("k32", int32(), true)});
  auto batch = std::make_shared<RecordBatch>(
      schema, 40,
      std::vector<ArrayPtr>{k64.Finish().ValueOrDie(), k32.Finish().ValueOrDie()});
  auto table = catalog::MemoryTable::Make(schema, SliceBatch(batch, 8)).ValueOrDie();

  // Each list with the equality it must equal; {k} is the column or 5.
  const std::vector<std::pair<std::string, std::string>> cases = {
      {"5", "{k} = 5"},
      {"5.5", "{k} = 5.5"},
      {"5.0", "{k} = 5.0"},
      {"4.5", "{k} = 4.5"},
      {"CAST(4.5 AS DECIMAL(2,1))", "{k} = CAST(4.5 AS DECIMAL(2,1))"},
      {"CAST(5.0 AS DECIMAL(2,1))", "{k} = CAST(5.0 AS DECIMAL(2,1))"},
      {"CAST(5 AS DECIMAL(3,0))", "{k} = CAST(5 AS DECIMAL(3,0))"},
      {"'5'", "{k} = '5'"},
      {"'05'", "{k} = '05'"},
      {"' 5'", "{k} = ' 5'"},
      {"'5.5'", "{k} = '5.5'"},
      {"'abc'", "{k} = 'abc'"},
      {"5.5, 6", "{k} = 5.5 OR {k} = 6"},
      {"5, 1e20", "{k} = 5 OR {k} = 1e20"},
      {"-1e20", "{k} = -1e20"},
      {"5, CAST('nan' AS DOUBLE)", "{k} = 5 OR {k} = CAST('nan' AS DOUBLE)"},
      {"5, NULL", "{k} = 5 OR {k} = NULL"},
  };
  auto fill = [](std::string pattern, const std::string& k) {
    for (size_t at = pattern.find("{k}"); at != std::string::npos;
         at = pattern.find("{k}")) {
      pattern.replace(at, 3, k);
    }
    return pattern;
  };
  for (int partitions : {1, 4}) {
    exec::SessionConfig config;
    config.target_partitions = partitions;
    auto ctx = core::SessionContext::Make(config);
    ASSERT_OK(ctx->RegisterTable("t", table));
    for (const auto& [list, equality] : cases) {
      for (const std::string k : {"k64", "k32", "5"}) {
        const std::string sql = "SELECT " + k + " IN (" + list + "), " +
                                fill(equality, k) + ", " + k + " NOT IN (" + list +
                                "), NOT (" + fill(equality, k) + ")" +
                                (k == "5" ? "" : " FROM t");
        SCOPED_TRACE(sql + " at " + std::to_string(partitions) + " partitions");
        ASSERT_OK_AND_ASSIGN(auto batches, ctx->ExecuteSql(sql));
        const auto rows = ToStringRows(batches);
        ASSERT_EQ(rows.size(), k == "5" ? 1u : 40u);
        for (const auto& row : rows) {
          EXPECT_EQ(row[0], row[1]);
          EXPECT_EQ(row[2], row[3]);
        }
      }
    }
  }
  ASSERT_OK_AND_ASSIGN(auto folded,
                       core::SessionContext::Make()->ExecuteSql(
                           "SELECT 5 IN (5.5), 5 IN (CAST(4.5 AS DECIMAL(2,1))), "
                           "5 IN ('5')"));
  EXPECT_EQ(ToStringRows(folded)[0], (StringRow{"false", "false", "true"}));
}

TEST(CastTest, StringToNumberTakesOnlyAWholeNumber) {
  // Text that is not one number of the target's kind, once leading and
  // trailing whitespace are dropped, casts to NULL: folded and over a
  // column alike.
  const std::vector<std::array<std::string, 3>> cases = {
      {"12abc", "BIGINT", "null"},     {"1e3", "BIGINT", "null"},
      {"1.5", "BIGINT", "null"},       {"1 2", "BIGINT", "null"},
      {"", "BIGINT", "null"},          {" 12", "BIGINT", "12"},
      {"12 ", "BIGINT", "12"},         {" -7 ", "INT", "-7"},
      {"1.5x", "DOUBLE", "null"},      {" ", "DOUBLE", "null"},
      {" 1.5", "DOUBLE", "1.5"},       {"1e3", "DOUBLE", "1000"},
      {" 1.5 ", "DECIMAL(3,1)", "1.5"}, {"1.5x", "DECIMAL(3,1)", "null"},
  };
  for (const auto& [text, type, want] : cases) {
    SCOPED_TRACE("CAST('" + text + "' AS " + type + ")");
    ASSERT_OK_AND_ASSIGN(auto folded,
                         core::SessionContext::Make()->ExecuteSql(
                             "SELECT CAST('" + text + "' AS " + type + ")"));
    EXPECT_EQ(ToStringRows(folded)[0][0], want);
    ASSERT_OK_AND_ASSIGN(auto column, QueryColumn(MakeStringArray({text}),
                                                  "SELECT CAST(x AS " + type +
                                                      ") FROM v"));
    EXPECT_EQ(ToStringRows(column)[0][0], want);
  }
}

TEST(CastTest, IntegerCastOfAValueTheTypeCannotHoldIsNull) {
  // NaN, the infinities and values outside the target's range have no
  // integer value: folded and over a column alike, from a double, an
  // integer, a string or a decimal, they cast to NULL.
  // Doubles truncate toward zero, so the bounds are -2^63 <= x < 2^63
  // and -2^31 - 1 < x < 2^31. (INT is BIGINT here; INT4 is 32 bits.)
  struct Case {
    std::string literal;
    ArrayPtr column;
    std::string type;
    std::string want;
  };
  const double inf = std::numeric_limits<double>::infinity();
  const std::vector<Case> cases = {
      {"1e20", MakeFloat64Array({1e20}), "BIGINT", "null"},
      {"9.3e18", MakeFloat64Array({9.3e18}), "BIGINT", "null"},
      {"9.223372036854775808e18", MakeFloat64Array({0x1p63}), "BIGINT", "null"},
      {"CAST('inf' AS DOUBLE)", MakeFloat64Array({inf}), "BIGINT", "null"},
      {"CAST('-inf' AS DOUBLE)", MakeFloat64Array({-inf}), "BIGINT", "null"},
      {"CAST('nan' AS DOUBLE)", MakeFloat64Array({std::nan("")}), "BIGINT", "null"},
      {"CAST('nan' AS DOUBLE)", MakeFloat64Array({std::nan("")}), "INT4", "null"},
      {"1e10", MakeFloat64Array({1e10}), "INT4", "null"},
      {"2147483648.0", MakeFloat64Array({2147483648.0}), "INT4", "null"},
      {"-2147483649.0", MakeFloat64Array({-2147483649.0}), "INT4", "null"},
      {"3000000000", MakeInt64Array({3000000000}), "INT4", "null"},
      {"-2147483649", MakeInt64Array({-2147483649}), "INT4", "null"},
      {"'3000000000'", MakeStringArray({"3000000000"}), "INT4", "null"},
      {"'99999999999999999999'", MakeStringArray({"99999999999999999999"}), "BIGINT",
       "null"},
      {"CAST(3000000000 AS DECIMAL(10,0))",
       MakeDecimal128Array(10, 0, {Decimal128(3000000000)}), "INT4", "null"},
      // Rounds half away from zero, to 2^31.
      {"CAST(2147483647.5 AS DECIMAL(11,1))",
       MakeDecimal128Array(11, 1, {Decimal128(21474836475)}), "INT4", "null"},
      {"CAST('100000000000000000000' AS DECIMAL(21,0))",
       MakeDecimal128Array(21, 0, {Decimal128(5, 7766279631452241920ULL)}), "BIGINT",
       "null"},
      // In range: the value truncates toward zero (a decimal rounds).
      {"CAST(2147483646.5 AS DECIMAL(11,1))",
       MakeDecimal128Array(11, 1, {Decimal128(21474836465)}), "INT4", "2147483647"},
      {"-9.223372036854775808e18", MakeFloat64Array({-0x1p63}), "BIGINT",
       "-9223372036854775808"},
      {"2.9", MakeFloat64Array({2.9}), "BIGINT", "2"},
      {"-2.9", MakeFloat64Array({-2.9}), "BIGINT", "-2"},
      {"2147483647.9", MakeFloat64Array({2147483647.9}), "INT4", "2147483647"},
      {"-2147483648.9", MakeFloat64Array({-2147483648.9}), "INT4", "-2147483648"},
      {"-2147483648", MakeInt64Array({-2147483648}), "INT4", "-2147483648"},
      {"'-2147483648'", MakeStringArray({"-2147483648"}), "INT4", "-2147483648"},
  };
  for (const auto& c : cases) {
    SCOPED_TRACE("CAST(" + c.literal + " AS " + c.type + ")");
    ASSERT_OK_AND_ASSIGN(auto folded,
                         core::SessionContext::Make()->ExecuteSql(
                             "SELECT CAST(" + c.literal + " AS " + c.type + ")"));
    EXPECT_EQ(ToStringRows(folded)[0][0], c.want);
    ASSERT_OK_AND_ASSIGN(
        auto column, QueryColumn(c.column, "SELECT CAST(x AS " + c.type + ") FROM v"));
    EXPECT_EQ(ToStringRows(column)[0][0], c.want);
  }
}

}  // namespace
}  // namespace test
}  // namespace fusion
