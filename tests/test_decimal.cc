// Decimal128 end-to-end tests: parsing, scale-propagation rules,
// randomized arithmetic and aggregation against an exact __int128
// oracle, overflow-to-error behavior, storage round-trips (FPQ, IPC,
// flight, plan serde), and Fusion-vs-TIE agreement for decimal
// group-by and joins at 1 and 4 partitions.

#include "tests/test_util.h"

#include <sys/stat.h>
#include <unistd.h>

#include <cstring>

#include "arrow/decimal.h"
#include "arrow/ipc.h"
#include "baseline/tie_engine.h"
#include "catalog/file_tables.h"
#include "compute/aggregate_kernels.h"
#include "compute/arithmetic.h"
#include "compute/cast.h"
#include "flight/client.h"
#include "flight/server.h"
#include "format/fpq.h"

namespace fusion {
namespace test {
namespace {

Decimal128 D(int64_t unscaled) { return Decimal128(unscaled); }

ArrayPtr MakeDecimalArray(const DataType& type,
                          const std::vector<int64_t>& unscaled,
                          const std::vector<bool>& valid = {}) {
  Decimal128Builder b(type);
  for (size_t i = 0; i < unscaled.size(); ++i) {
    if (!valid.empty() && !valid[i]) {
      b.AppendNull();
    } else {
      b.Append(D(unscaled[i]));
    }
  }
  return b.Finish().ValueOrDie();
}

// ------------------------------------------------------------ parsing

TEST(Decimal, ParseInfersPrecisionAndScale) {
  Decimal128 v;
  int precision = 0, scale = 0;
  ASSERT_TRUE(DecimalFromString("123.45", &v, &precision, &scale));
  EXPECT_EQ(v, D(12345));
  EXPECT_EQ(precision, 5);
  EXPECT_EQ(scale, 2);

  ASSERT_TRUE(DecimalFromString("-0.007", &v, &precision, &scale));
  EXPECT_EQ(v, D(-7));
  EXPECT_EQ(scale, 3);

  EXPECT_FALSE(DecimalFromString("1e2", &v, &precision, &scale));
  EXPECT_FALSE(DecimalFromString("abc", &v, &precision, &scale));
  EXPECT_FALSE(DecimalFromString("", &v, &precision, &scale));
  // 39 digits exceeds the 38-digit cap.
  EXPECT_FALSE(DecimalFromString(std::string(39, '9'), &v, &precision, &scale));
}

TEST(Decimal, ParseToTargetRoundsHalfAway) {
  Decimal128 v;
  ASSERT_TRUE(DecimalFromString("1.005", 10, 2, &v));
  EXPECT_EQ(v, D(101));  // round half away from zero
  ASSERT_TRUE(DecimalFromString("-1.005", 10, 2, &v));
  EXPECT_EQ(v, D(-101));
  ASSERT_TRUE(DecimalFromString("7", 10, 2, &v));
  EXPECT_EQ(v, D(700));
  // Integer digits exceed the precision.
  EXPECT_FALSE(DecimalFromString("123456789.0", 8, 2, &v));
}

TEST(Decimal, ToStringPlacesPoint) {
  EXPECT_EQ(DecimalToString(D(12345), 2), "123.45");
  EXPECT_EQ(DecimalToString(D(-7), 3), "-0.007");
  EXPECT_EQ(DecimalToString(D(5), 0), "5");
}

// ------------------------------------------- scale propagation rules

TEST(Decimal, ScalePropagationRules) {
  using compute::ArithmeticOp;
  auto result = [](ArithmeticOp op, int p1, int s1, int p2, int s2) {
    return compute::DecimalBinaryResultType(op, decimal128(p1, s1),
                                            decimal128(p2, s2))
        .ValueOrDie();
  };
  // add/sub: s = max(s1,s2), p grows by one carry digit.
  EXPECT_EQ(result(ArithmeticOp::kAdd, 15, 2, 10, 4), decimal128(18, 4));
  // mul: scales add.
  EXPECT_EQ(result(ArithmeticOp::kMultiply, 15, 2, 15, 2), decimal128(31, 4));
  // div: at least 6 fractional digits.
  EXPECT_EQ(result(ArithmeticOp::kDivide, 15, 2, 15, 2), decimal128(38, 6));
  // mul with s1+s2 > 38 is unrepresentable.
  EXPECT_RAISES(compute::DecimalBinaryResultType(
      ArithmeticOp::kMultiply, decimal128(38, 20), decimal128(38, 20)));
}

// ------------------------------------- randomized arithmetic oracle

TEST(Decimal, RandomizedArithmeticMatchesInt128Oracle) {
  std::mt19937_64 rng(42);
  const DataType lt = decimal128(15, 2);
  const DataType rt = decimal128(12, 3);
  const int n = 500;
  std::vector<int64_t> a(n), b(n);
  for (int i = 0; i < n; ++i) {
    a[i] = static_cast<int64_t>(rng() % 2000000) - 1000000;  // +-10000.00
    b[i] = static_cast<int64_t>(rng() % 2000000) - 1000000;  // +-1000.000
    if (b[i] == 0) b[i] = 1;
  }
  ArrayPtr la = MakeDecimalArray(lt, a);
  ArrayPtr ra = MakeDecimalArray(rt, b);

  using compute::ArithmeticOp;
  for (ArithmeticOp op : {ArithmeticOp::kAdd, ArithmeticOp::kSubtract,
                          ArithmeticOp::kMultiply, ArithmeticOp::kDivide}) {
    ASSERT_OK_AND_ASSIGN(auto out, compute::Arithmetic(op, *la, *ra));
    ASSERT_OK_AND_ASSIGN(
        DataType ot, compute::DecimalBinaryResultType(op, lt, rt));
    ASSERT_EQ(out->type(), ot);
    const auto& arr = checked_cast<Decimal128Array>(*out);
    for (int i = 0; i < n; ++i) {
      __int128 expect = 0;
      switch (op) {
        case ArithmeticOp::kAdd:
          // Rescale both to scale 3, then add.
          expect = static_cast<__int128>(a[i]) * 10 + b[i];
          break;
        case ArithmeticOp::kSubtract:
          expect = static_cast<__int128>(a[i]) * 10 - b[i];
          break;
        case ArithmeticOp::kMultiply:
          // Scales add: no rescaling of operands.
          expect = static_cast<__int128>(a[i]) * b[i];
          break;
        case ArithmeticOp::kDivide: {
          // out scale 6: widen dividend by 10^(6 - 2 + 3), round
          // half away from zero.
          __int128 numer = static_cast<__int128>(a[i]) * 10000000;
          __int128 denom = b[i];
          __int128 q = numer / denom;
          __int128 rem = numer % denom;
          __int128 abs_rem = rem < 0 ? -rem : rem;
          __int128 abs_den = denom < 0 ? -denom : denom;
          if (2 * abs_rem >= abs_den) q += ((numer < 0) != (denom < 0)) ? -1 : 1;
          expect = q;
          break;
        }
        default:
          break;
      }
      ASSERT_EQ(arr.Value(i).ToInt128(), expect)
          << "op " << static_cast<int>(op) << " row " << i << ": " << a[i]
          << " vs " << b[i];
    }
  }
}

TEST(Decimal, ArithmeticOverflowIsErrorNotWraparound) {
  // max decimal: 10^38 - 1.
  Decimal128 big;
  ASSERT_TRUE(DecimalFromString(std::string(38, '9'), 38, 0, &big));
  Decimal128Builder b1(decimal128(38, 0)), b2(decimal128(38, 0));
  b1.Append(big);
  b2.Append(big);
  ArrayPtr a1 = b1.Finish().ValueOrDie();
  ArrayPtr a2 = b2.Finish().ValueOrDie();
  EXPECT_RAISES(compute::Arithmetic(compute::ArithmeticOp::kAdd, *a1, *a2));
  EXPECT_RAISES(compute::Arithmetic(compute::ArithmeticOp::kMultiply, *a1, *a2));
}

TEST(Decimal, DivisionByZeroYieldsNull) {
  const DataType t = decimal128(10, 2);
  ArrayPtr num = MakeDecimalArray(t, {100, 200});
  ArrayPtr den = MakeDecimalArray(t, {0, 100});
  ASSERT_OK_AND_ASSIGN(
      auto out, compute::Arithmetic(compute::ArithmeticOp::kDivide, *num, *den));
  EXPECT_TRUE(out->IsNull(0));
  EXPECT_FALSE(out->IsNull(1));
}

// -------------------------------------------------- aggregate oracle

TEST(Decimal, AggregatesMatchInt128Oracle) {
  std::mt19937_64 rng(7);
  const DataType t = decimal128(15, 2);
  const int n = 1000;
  std::vector<int64_t> vals(n);
  std::vector<bool> valid(n);
  __int128 sum = 0;
  int64_t count = 0;
  int64_t min_v = 0, max_v = 0;
  bool seen = false;
  for (int i = 0; i < n; ++i) {
    vals[i] = static_cast<int64_t>(rng() % 20000000) - 10000000;
    valid[i] = (rng() % 11) != 0;
    if (!valid[i]) continue;
    sum += vals[i];
    ++count;
    if (!seen || vals[i] < min_v) min_v = vals[i];
    if (!seen || vals[i] > max_v) max_v = vals[i];
    seen = true;
  }
  ArrayPtr arr = MakeDecimalArray(t, vals, valid);

  ASSERT_OK_AND_ASSIGN(auto sql, QueryColumn(arr, "SELECT sum(x), avg(x) FROM v"));
  ASSERT_EQ(TotalRows(sql), 1);
  Scalar s = Scalar::FromArray(*sql[0]->column(0), 0);
  EXPECT_EQ(s.type(), decimal128(38, 2));
  EXPECT_EQ(s.decimal_value().ToInt128(), sum);

  ASSERT_OK_AND_ASSIGN(Scalar mn, compute::MinArray(*arr));
  ASSERT_OK_AND_ASSIGN(Scalar mx, compute::MaxArray(*arr));
  EXPECT_EQ(mn.type(), t);
  EXPECT_EQ(mn.decimal_value(), D(min_v));
  EXPECT_EQ(mx.decimal_value(), D(max_v));

  // avg widens by 4 fractional digits and rounds half away from zero.
  Scalar avg = Scalar::FromArray(*sql[0]->column(1), 0);
  EXPECT_EQ(avg.type(), decimal128(38, 6));
  __int128 numer = sum * 10000;
  __int128 q = numer / count;
  __int128 rem = numer % count;
  if (rem < 0) rem = -rem;
  if (2 * rem >= count) q += (numer < 0) ? -1 : 1;
  EXPECT_EQ(avg.decimal_value().ToInt128(), q);
}

TEST(Decimal, SumOverflowIsError) {
  Decimal128 big;
  ASSERT_TRUE(DecimalFromString(std::string(38, '9'), 38, 0, &big));
  Decimal128Builder b(decimal128(38, 0));
  b.Append(big);
  b.Append(big);
  ArrayPtr arr = b.Finish().ValueOrDie();
  EXPECT_RAISES(QueryColumn(arr, "SELECT sum(x) FROM v"));
}

// --------------------------------------------------------------- casts

TEST(Decimal, Casts) {
  const DataType t = decimal128(10, 2);
  ArrayPtr arr = MakeDecimalArray(t, {12345, -250, 99});  // 123.45 -2.50 0.99

  ASSERT_OK_AND_ASSIGN(auto dbl, compute::Cast(*arr, float64()));
  EXPECT_DOUBLE_EQ(checked_cast<Float64Array>(*dbl).Value(0), 123.45);

  // decimal -> int64 rounds half away from zero.
  ASSERT_OK_AND_ASSIGN(auto i64, compute::Cast(*arr, int64()));
  EXPECT_EQ(checked_cast<Int64Array>(*i64).Value(0), 123);
  EXPECT_EQ(checked_cast<Int64Array>(*i64).Value(1), -3);  // -2.50 -> -3
  EXPECT_EQ(checked_cast<Int64Array>(*i64).Value(2), 1);   // 0.99 -> 1

  // Rescale: widen then narrow back.
  ASSERT_OK_AND_ASSIGN(auto wide, compute::Cast(*arr, decimal128(20, 5)));
  EXPECT_EQ(checked_cast<Decimal128Array>(*wide).Value(0), D(12345000));
  ASSERT_OK_AND_ASSIGN(auto back, compute::Cast(*wide, t));
  EXPECT_EQ(checked_cast<Decimal128Array>(*back).Value(0), D(12345));

  // String -> decimal: malformed becomes null.
  StringBuilder sb;
  sb.Append("12.34");
  sb.Append("oops");
  ASSERT_OK_AND_ASSIGN(auto from_str, compute::Cast(*sb.Finish().ValueOrDie(), t));
  EXPECT_EQ(checked_cast<Decimal128Array>(*from_str).Value(0), D(1234));
  EXPECT_TRUE(from_str->IsNull(1));
}

// ---------------------------------------------------- storage round-trips

RecordBatchPtr MakeMoneyBatch(int64_t n) {
  auto sch = fusion::schema({Field("k", int64(), false),
                             Field("price", decimal128(15, 2), true),
                             Field("tag", utf8(), false)});
  Int64Builder k;
  Decimal128Builder price(decimal128(15, 2));
  StringBuilder tag;
  std::mt19937_64 rng(99);
  for (int64_t i = 0; i < n; ++i) {
    k.Append(i % 10);
    if (i % 13 == 12) {
      price.AppendNull();
    } else {
      price.Append(D(static_cast<int64_t>(rng() % 2000000) - 1000000));
    }
    tag.Append(i % 2 == 0 ? "even" : "odd");
  }
  std::vector<ArrayPtr> cols = {k.Finish().ValueOrDie(),
                                price.Finish().ValueOrDie(),
                                tag.Finish().ValueOrDie()};
  return std::make_shared<RecordBatch>(sch, n, std::move(cols));
}

bool DecimalColumnsByteIdentical(const Array& a, const Array& b) {
  if (a.length() != b.length() || a.type() != b.type()) return false;
  const auto& da = checked_cast<Decimal128Array>(a);
  const auto& db = checked_cast<Decimal128Array>(b);
  for (int64_t i = 0; i < a.length(); ++i) {
    if (a.IsNull(i) != b.IsNull(i)) return false;
    if (a.IsNull(i)) continue;
    Decimal128 va = da.Value(i), vb = db.Value(i);
    if (std::memcmp(&va, &vb, sizeof(Decimal128)) != 0) return false;
  }
  return true;
}

TEST(Decimal, IpcRoundTripByteIdentical) {
  auto batch = MakeMoneyBatch(300);
  auto bytes = ipc::SerializeBatch(*batch);
  ASSERT_OK_AND_ASSIGN(auto back, ipc::DeserializeBatch(bytes.data(), bytes.size()));
  ASSERT_EQ(back->schema()->field(1).type(), decimal128(15, 2));
  EXPECT_TRUE(DecimalColumnsByteIdentical(*batch->column(1), *back->column(1)));
}

TEST(Decimal, FpqRoundTripByteIdentical) {
  ::mkdir("/tmp/fusion_test_decimal", 0755);
  const std::string path = "/tmp/fusion_test_decimal/money.fpq";
  ::unlink(path.c_str());
  auto batch = MakeMoneyBatch(500);
  ASSERT_OK(format::fpq::WriteFile(path, batch->schema(),
                                   SliceBatch(batch, 128), {}));

  auto ctx = core::SessionContext::Make();
  ASSERT_OK_AND_ASSIGN(auto table, catalog::FpqTable::Open({path}));
  ASSERT_OK(ctx->RegisterTable("money", table));
  ASSERT_OK_AND_ASSIGN(auto rows,
                       ctx->ExecuteSql("SELECT k, price, tag FROM money"));
  ASSERT_EQ(TotalRows(rows), 500);
  // Reassemble the price column in row order and compare bytes.
  Decimal128Builder all(decimal128(15, 2));
  for (const auto& b : rows) {
    ASSERT_EQ(b->schema()->field(1).type(), decimal128(15, 2));
    const auto& col = checked_cast<Decimal128Array>(*b->column(1));
    for (int64_t i = 0; i < b->num_rows(); ++i) {
      if (col.IsNull(i)) {
        all.AppendNull();
      } else {
        all.Append(col.Value(i));
      }
    }
  }
  ArrayPtr joined = all.Finish().ValueOrDie();
  EXPECT_TRUE(DecimalColumnsByteIdentical(*batch->column(1), *joined));

  // Predicate pushdown over decimal zone maps must not change results.
  ASSERT_OK_AND_ASSIGN(
      auto filtered,
      ctx->ExecuteSql("SELECT count(*) FROM money WHERE price > 0.00"));
  int64_t expect = 0;
  const auto& price = checked_cast<Decimal128Array>(*batch->column(1));
  for (int64_t i = 0; i < 500; ++i) {
    if (!price.IsNull(i) && price.Value(i) > D(0)) ++expect;
  }
  EXPECT_EQ(ToStringRows(filtered)[0][0], std::to_string(expect));
}

TEST(Decimal, FlightRoundTripByteIdentical) {
  auto ctx = core::SessionContext::Make();
  auto batch = MakeMoneyBatch(400);
  auto table =
      catalog::MemoryTable::Make(batch->schema(), SliceBatch(batch, 64))
          .ValueOrDie();
  ASSERT_OK(ctx->RegisterTable("money", table));

  ASSERT_OK_AND_ASSIGN(auto server, flight::FlightServer::Start(ctx));
  ASSERT_OK_AND_ASSIGN(
      auto client, flight::FlightClient::Connect("127.0.0.1", server->port()));
  const char* sql = "SELECT k, price FROM money ORDER BY k, price";
  ASSERT_OK_AND_ASSIGN(auto expected, ctx->ExecuteSql(sql));
  ASSERT_OK_AND_ASSIGN(auto got, client->Get(sql));
  ASSERT_EQ(TotalRows(got), TotalRows(expected));
  ASSERT_FALSE(got.empty());
  EXPECT_EQ(got[0]->schema()->field(1).type(), decimal128(15, 2));
  EXPECT_EQ(ToStringRows(got), ToStringRows(expected));
  client.reset();
  server->Shutdown();
}

// ------------------------------------------------------- SQL frontend

TEST(Decimal, SqlCastAndExactLiterals) {
  auto ctx = MakeTestSession(10);
  ASSERT_OK_AND_ASSIGN(
      auto r1, ctx->ExecuteSql("SELECT CAST(1.05 AS DECIMAL(10,2)) * "
                               "CAST(3 AS DECIMAL(10,0)) FROM t LIMIT 1"));
  EXPECT_EQ(ToStringRows(r1)[0][0], "3.15");

  // 0.1 + 0.2 is exact in decimal, famously not in float64.
  ASSERT_OK_AND_ASSIGN(
      auto r2, ctx->ExecuteSql("SELECT CAST(0.1 AS DECIMAL(10,1)) + "
                               "CAST(0.2 AS DECIMAL(10,1)) FROM t LIMIT 1"));
  EXPECT_EQ(ToStringRows(r2)[0][0], "0.3");

  // A literal that does not fit the declared type is a plan error.
  EXPECT_RAISES(
      ctx->ExecuteSql("SELECT CAST(12345.0 AS DECIMAL(4,2)) FROM t LIMIT 1")
          .status());

  // Column through a decimal cast: id=4 -> 4.00.
  ASSERT_OK_AND_ASSIGN(
      auto r3, ctx->ExecuteSql("SELECT CAST(id AS DECIMAL(12,2)) FROM t "
                               "WHERE id = 4"));
  EXPECT_EQ(ToStringRows(r3)[0][0], "4.00");
}

// --------------------------------------------- engine vs TIE agreement

class DecimalCrossEngineTest : public ::testing::Test {
 protected:
  static core::SessionContextPtr MakeSession(int partitions) {
    exec::SessionConfig config;
    config.target_partitions = partitions;
    auto ctx = core::SessionContext::Make(config);
    RegisterTables(ctx.get());
    return ctx;
  }

  static void RegisterTables(core::SessionContext* ctx) {
    // sales(k int64, region string, amount decimal(15,2), rate decimal(8,4))
    {
      Int64Builder k;
      StringBuilder region;
      Decimal128Builder amount(decimal128(15, 2));
      Decimal128Builder rate(decimal128(8, 4));
      const char* regions[] = {"east", "west", "north", "south"};
      std::mt19937_64 rng(1234);
      for (int64_t i = 0; i < 800; ++i) {
        k.Append(i % 40);
        region.Append(regions[i % 4]);
        if (i % 17 == 16) {
          amount.AppendNull();
        } else {
          amount.Append(D(static_cast<int64_t>(rng() % 2000000) - 500000));
        }
        rate.Append(D(static_cast<int64_t>(rng() % 5000)));
      }
      auto sch = fusion::schema({Field("k", int64(), false),
                                 Field("region", utf8(), false),
                                 Field("amount", decimal128(15, 2), true),
                                 Field("rate", decimal128(8, 4), false)});
      std::vector<ArrayPtr> cols = {
          k.Finish().ValueOrDie(), region.Finish().ValueOrDie(),
          amount.Finish().ValueOrDie(), rate.Finish().ValueOrDie()};
      auto batch = std::make_shared<RecordBatch>(sch, 800, std::move(cols));
      auto table =
          catalog::MemoryTable::Make(sch, SliceBatch(batch, 96)).ValueOrDie();
      ctx->RegisterTable("sales", table).Abort();
    }
    // prices(pk decimal(15,2), label string) - decimal join key.
    {
      Decimal128Builder pk(decimal128(15, 2));
      StringBuilder label;
      for (int64_t i = 0; i < 40; ++i) {
        pk.Append(D(i * 100));  // i.00
        label.Append("L" + std::to_string(i));
      }
      auto sch = fusion::schema({Field("pk", decimal128(15, 2), false),
                                 Field("label", utf8(), false)});
      std::vector<ArrayPtr> cols = {pk.Finish().ValueOrDie(),
                                    label.Finish().ValueOrDie()};
      auto batch = std::make_shared<RecordBatch>(sch, 40, std::move(cols));
      auto table =
          catalog::MemoryTable::Make(sch, SliceBatch(batch, 16)).ValueOrDie();
      ctx->RegisterTable("prices", table).Abort();
    }
  }

  static std::vector<StringRow> RunTieRows(core::SessionContext* ctx,
                                           const std::string& sql) {
    auto plan = ctx->CreateLogicalPlan(sql);
    plan.status().Abort();
    auto optimized = ctx->OptimizePlan(*plan);
    optimized.status().Abort();
    baseline::TieEngine engine;
    auto result = engine.Execute(*optimized);
    result.status().Abort();
    auto rows = ToStringRows(*result);
    std::sort(rows.begin(), rows.end());
    return rows;
  }

  void Compare(const std::string& sql) {
    auto tie_ctx = MakeSession(1);
    auto tie = RunTieRows(tie_ctx.get(), sql);
    for (int partitions : {1, 4}) {
      auto ctx = MakeSession(partitions);
      ASSERT_OK_AND_ASSIGN(auto rows, ctx->ExecuteSql(sql));
      EXPECT_EQ(SortedStringRows(rows), tie)
          << sql << " @" << partitions << " partitions";
    }
  }
};

TEST_F(DecimalCrossEngineTest, GroupByAggregatesAgree) {
  Compare(
      "SELECT region, sum(amount), min(amount), max(amount), avg(amount), "
      "count(amount) FROM sales GROUP BY region");
  Compare(
      "SELECT k, sum(amount * rate) FROM sales GROUP BY k");
}

TEST_F(DecimalCrossEngineTest, DecimalGroupKeysAgree) {
  Compare("SELECT rate, count(*) FROM sales GROUP BY rate");
}

TEST_F(DecimalCrossEngineTest, DecimalJoinKeysAgree) {
  Compare(
      "SELECT label, sum(amount) FROM sales, prices "
      "WHERE CAST(k AS DECIMAL(15,2)) = pk GROUP BY label");
}

TEST_F(DecimalCrossEngineTest, FilterAndOrderByAgree) {
  Compare(
      "SELECT k, amount FROM sales WHERE amount > 100.00 "
      "ORDER BY amount DESC, k LIMIT 50");
}

// --------------------------------------- TPC-H Q1 style exact sums

TEST(Decimal, Q1StyleSumsExactlyRounded) {
  // lineitem-style columns; sums validated against a handwritten
  // __int128 computation with the kernel's scale rules.
  const int64_t n = 2000;
  Decimal128Builder price(decimal128(15, 2));
  Decimal128Builder disc(decimal128(15, 2));
  StringBuilder flag;
  std::mt19937_64 rng(5);
  std::vector<int64_t> pv(n), dv(n);
  for (int64_t i = 0; i < n; ++i) {
    pv[i] = static_cast<int64_t>(rng() % 10000000) + 100;   // up to 100000.00
    dv[i] = static_cast<int64_t>(rng() % 11);               // 0.00 .. 0.10
    price.Append(D(pv[i]));
    disc.Append(D(dv[i]));
    flag.Append(i % 2 == 0 ? "A" : "N");
  }
  auto sch = fusion::schema({Field("l_extendedprice", decimal128(15, 2), false),
                             Field("l_discount", decimal128(15, 2), false),
                             Field("l_returnflag", utf8(), false)});
  std::vector<ArrayPtr> cols = {price.Finish().ValueOrDie(),
                                disc.Finish().ValueOrDie(),
                                flag.Finish().ValueOrDie()};
  auto batch = std::make_shared<RecordBatch>(sch, n, std::move(cols));
  auto table =
      catalog::MemoryTable::Make(sch, SliceBatch(batch, 256)).ValueOrDie();
  auto ctx = core::SessionContext::Make();
  ASSERT_OK(ctx->RegisterTable("lineitem", table));

  ASSERT_OK_AND_ASSIGN(
      auto rows,
      ctx->ExecuteSql(
          "SELECT l_returnflag, sum(l_extendedprice) AS base, "
          "sum(l_extendedprice * (1 - l_discount)) AS disc_price "
          "FROM lineitem GROUP BY l_returnflag ORDER BY l_returnflag"));
  auto got = ToStringRows(rows);
  ASSERT_EQ(got.size(), 2u);

  // Oracle: (1 - l_discount) carries scale 2; the product carries
  // scale 4. Sums stay at the element scale.
  for (int g = 0; g < 2; ++g) {
    __int128 base = 0, disc_price = 0;
    for (int64_t i = 0; i < n; ++i) {
      if ((i % 2 == 0) != (g == 0)) continue;
      base += pv[i];
      disc_price += static_cast<__int128>(pv[i]) * (100 - dv[i]);
    }
    EXPECT_EQ(got[g][1], DecimalToString(Decimal128::FromInt128(base), 2));
    EXPECT_EQ(got[g][2], DecimalToString(Decimal128::FromInt128(disc_price), 4));
  }
}

// ---------------------------------------------------- row-format keys

TEST(Decimal, SortOrdersDecimalsNumerically) {
  auto ctx = core::SessionContext::Make();
  Decimal128Builder v(decimal128(10, 2));
  for (int64_t x : {-500, 250, 0, -1, 99999, 3}) v.Append(D(x));
  auto sch = fusion::schema({Field("v", decimal128(10, 2), false)});
  std::vector<ArrayPtr> cols = {v.Finish().ValueOrDie()};
  auto batch = std::make_shared<RecordBatch>(sch, 6, std::move(cols));
  auto table = catalog::MemoryTable::Make(sch, {batch}).ValueOrDie();
  ASSERT_OK(ctx->RegisterTable("d", table));
  ASSERT_OK_AND_ASSIGN(auto rows,
                       ctx->ExecuteSql("SELECT v FROM d ORDER BY v"));
  auto got = ToStringRows(rows);
  std::vector<std::string> expect = {"-5.00", "-0.01", "0.00",
                                     "0.03",  "2.50",  "999.99"};
  ASSERT_EQ(got.size(), expect.size());
  for (size_t i = 0; i < expect.size(); ++i) EXPECT_EQ(got[i][0], expect[i]);
}

}  // namespace
}  // namespace test
}  // namespace fusion
