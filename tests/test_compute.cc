// Unit + property tests for the compute kernel library.

#include "tests/test_util.h"

#include "compute/aggregate_kernels.h"
#include "compute/arithmetic.h"
#include "compute/boolean.h"
#include "compute/cast.h"
#include "compute/compare.h"
#include "compute/hash_kernels.h"
#include "compute/selection.h"
#include "compute/string_kernels.h"
#include "compute/temporal.h"

namespace fusion {
namespace test {
namespace {

using compute::ArithmeticOp;
using compute::CompareOp;

TEST(ArithmeticTest, AddWithNullPropagation) {
  auto a = MakeInt64Array({1, 2, 3}, {true, false, true});
  auto b = MakeInt64Array({10, 20, 30});
  ASSERT_OK_AND_ASSIGN(auto out, compute::Arithmetic(ArithmeticOp::kAdd, *a, *b));
  EXPECT_EQ(checked_cast<Int64Array>(*out).Value(0), 11);
  EXPECT_TRUE(out->IsNull(1));
  EXPECT_EQ(checked_cast<Int64Array>(*out).Value(2), 33);
}

TEST(ArithmeticTest, IntegerDivisionByZeroYieldsNull) {
  auto a = MakeInt64Array({10, 10});
  auto b = MakeInt64Array({2, 0});
  ASSERT_OK_AND_ASSIGN(auto out, compute::Arithmetic(ArithmeticOp::kDivide, *a, *b));
  EXPECT_EQ(checked_cast<Int64Array>(*out).Value(0), 5);
  EXPECT_TRUE(out->IsNull(1));
}

TEST(ArithmeticTest, ModuloAndFloat) {
  auto a = MakeInt64Array({10, 7});
  auto b = MakeInt64Array({3, 4});
  ASSERT_OK_AND_ASSIGN(auto out, compute::Arithmetic(ArithmeticOp::kModulo, *a, *b));
  EXPECT_EQ(checked_cast<Int64Array>(*out).Value(0), 1);
  auto f = MakeFloat64Array({1.0, 2.0});
  ASSERT_OK_AND_ASSIGN(auto fo, compute::ArithmeticScalar(ArithmeticOp::kMultiply,
                                                          *f, Scalar::Float64(2.5)));
  EXPECT_DOUBLE_EQ(checked_cast<Float64Array>(*fo).Value(1), 5.0);
}

TEST(ArithmeticTest, ScalarOnLeft) {
  auto a = MakeInt64Array({1, 2, 3});
  ASSERT_OK_AND_ASSIGN(auto out, compute::ScalarArithmetic(ArithmeticOp::kSubtract,
                                                           Scalar::Int64(10), *a));
  EXPECT_EQ(checked_cast<Int64Array>(*out).Value(2), 7);
}

TEST(ArithmeticTest, Negate) {
  auto a = MakeInt64Array({1, -2}, {true, true});
  ASSERT_OK_AND_ASSIGN(auto out, compute::Negate(*a));
  EXPECT_EQ(checked_cast<Int64Array>(*out).Value(0), -1);
  EXPECT_EQ(checked_cast<Int64Array>(*out).Value(1), 2);
}

TEST(CompareTest, AllOpsInt64) {
  auto a = MakeInt64Array({1, 2, 3});
  auto b = MakeInt64Array({2, 2, 2});
  struct Case {
    CompareOp op;
    std::vector<bool> expected;
  };
  for (const Case& c : std::vector<Case>{
           {CompareOp::kEq, {false, true, false}},
           {CompareOp::kNeq, {true, false, true}},
           {CompareOp::kLt, {true, false, false}},
           {CompareOp::kLtEq, {true, true, false}},
           {CompareOp::kGt, {false, false, true}},
           {CompareOp::kGtEq, {false, true, true}},
       }) {
    ASSERT_OK_AND_ASSIGN(auto out, compute::Compare(c.op, *a, *b));
    const auto& bm = checked_cast<BooleanArray>(*out);
    for (int i = 0; i < 3; ++i) {
      EXPECT_EQ(bm.Value(i), c.expected[i]) << static_cast<int>(c.op) << " @" << i;
    }
  }
}

TEST(CompareTest, StringsAndScalarCoercion) {
  auto s = MakeStringArray({"apple", "banana"});
  ASSERT_OK_AND_ASSIGN(auto out,
                       compute::CompareScalar(CompareOp::kGt, *s,
                                              Scalar::String("avocado")));
  const auto& bm = checked_cast<BooleanArray>(*out);
  EXPECT_FALSE(bm.Value(0));
  EXPECT_TRUE(bm.Value(1));
  // Int column vs double scalar coerces.
  auto i = MakeInt64Array({1, 5});
  ASSERT_OK_AND_ASSIGN(auto out2, compute::CompareScalar(CompareOp::kGt, *i,
                                                         Scalar::Float64(2.5)));
  EXPECT_FALSE(checked_cast<BooleanArray>(*out2).Value(0));
  EXPECT_TRUE(checked_cast<BooleanArray>(*out2).Value(1));
}

TEST(CompareTest, NullScalarComparison) {
  auto a = MakeInt64Array({1, 2});
  ASSERT_OK_AND_ASSIGN(auto out, compute::CompareScalar(CompareOp::kEq, *a,
                                                        Scalar::Null(int64())));
  EXPECT_EQ(out->null_count(), 2);
}

TEST(BooleanTest, KleeneAnd) {
  // (T,F,N) x (T,F,N)
  auto a = MakeBooleanArray({true, true, true, false, false, false, true, false,
                             true},
                            {true, true, true, true, true, true, false, false,
                             false});
  auto b = MakeBooleanArray({true, false, true, true, false, true, true, true,
                             false},
                            {true, true, false, true, true, false, false, true,
                             true});
  ASSERT_OK_AND_ASSIGN(auto out, compute::And(*a, *b));
  const auto& bm = checked_cast<BooleanArray>(*out);
  // T&T=T, T&F=F, T&N=N, F&T=F, F&F=F, F&N=F, N&N=N, N&T=N, N&F=F
  EXPECT_TRUE(bm.IsValid(0) && bm.Value(0));
  EXPECT_TRUE(bm.IsValid(1) && !bm.Value(1));
  EXPECT_TRUE(bm.IsNull(2));
  EXPECT_TRUE(bm.IsValid(4) && !bm.Value(4));
  EXPECT_TRUE(bm.IsValid(5) && !bm.Value(5));  // F AND N = F
  EXPECT_TRUE(bm.IsNull(6));
  EXPECT_TRUE(bm.IsNull(7));
  EXPECT_TRUE(bm.IsValid(8) && !bm.Value(8));  // N AND F = F
}

TEST(BooleanTest, KleeneOr) {
  auto a = MakeBooleanArray({true, false, false}, {true, true, false});
  auto b = MakeBooleanArray({false, false, true}, {true, false, true});
  ASSERT_OK_AND_ASSIGN(auto out, compute::Or(*a, *b));
  const auto& bm = checked_cast<BooleanArray>(*out);
  EXPECT_TRUE(bm.Value(0));
  EXPECT_TRUE(bm.IsNull(1));  // F OR N = N
  EXPECT_TRUE(bm.IsValid(2) && bm.Value(2));  // N OR T = T
}

TEST(BooleanTest, NotKeepsNulls) {
  auto a = MakeBooleanArray({true, false, true}, {true, true, false});
  ASSERT_OK_AND_ASSIGN(auto out, compute::Not(*a));
  const auto& bm = checked_cast<BooleanArray>(*out);
  EXPECT_FALSE(bm.Value(0));
  EXPECT_TRUE(bm.Value(1));
  EXPECT_TRUE(bm.IsNull(2));
}

TEST(CastTest, NumericMatrix) {
  auto i = MakeInt64Array({1, -3});
  ASSERT_OK_AND_ASSIGN(auto f, compute::Cast(*i, float64()));
  EXPECT_DOUBLE_EQ(checked_cast<Float64Array>(*f).Value(1), -3.0);
  ASSERT_OK_AND_ASSIGN(auto i32, compute::Cast(*i, int32()));
  EXPECT_EQ(checked_cast<Int32Array>(*i32).Value(0), 1);
  ASSERT_OK_AND_ASSIGN(auto back, compute::Cast(*f, int64()));
  EXPECT_EQ(checked_cast<Int64Array>(*back).Value(1), -3);
}

TEST(CastTest, StringToNumberUnparsableIsNull) {
  auto s = MakeStringArray({"42", "x7", "-1"});
  ASSERT_OK_AND_ASSIGN(auto out, compute::Cast(*s, int64()));
  EXPECT_EQ(checked_cast<Int64Array>(*out).Value(0), 42);
  EXPECT_TRUE(out->IsNull(1));
  EXPECT_EQ(checked_cast<Int64Array>(*out).Value(2), -1);
}

TEST(CastTest, DateToTimestamp) {
  auto d = MakeDate32Array({1});
  ASSERT_OK_AND_ASSIGN(auto ts, compute::Cast(*d, timestamp()));
  EXPECT_EQ(checked_cast<Int64Array>(*ts).Value(0), 86400LL * 1000000LL);
}

TEST(CastTest, CastScalarIsTheOneRowCast) {
  ASSERT_OK_AND_ASSIGN(auto as_double, compute::CastScalar(Scalar::Int64(7), float64()));
  EXPECT_EQ(as_double.double_value(), 7.0);
  ASSERT_OK_AND_ASSIGN(auto as_string, compute::CastScalar(Scalar::Int64(7), utf8()));
  EXPECT_EQ(as_string.string_value(), "7");
  ASSERT_OK_AND_ASSIGN(auto parsed, compute::CastScalar(Scalar::String("42"), int64()));
  EXPECT_EQ(parsed.int_value(), 42);
  ASSERT_OK_AND_ASSIGN(auto null_cast,
                       compute::CastScalar(Scalar::Null(int64()), utf8()));
  EXPECT_TRUE(null_cast.is_null());
  EXPECT_EQ(null_cast.type(), utf8());
  // Unparsable text is NULL, as in a column; dates parse as DATE literals.
  ASSERT_OK_AND_ASSIGN(auto garbage, compute::CastScalar(Scalar::String("abc"), int64()));
  EXPECT_TRUE(garbage.is_null());
  ASSERT_OK_AND_ASSIGN(auto date,
                       compute::CastScalar(Scalar::String("2020-01-01"), date32()));
  EXPECT_EQ(date.int_value(), 18262);
}

TEST(CastTest, CommonTypeLattice) {
  ASSERT_OK_AND_ASSIGN(auto t1, compute::CommonType(int32(), int64()));
  EXPECT_EQ(t1, int64());
  ASSERT_OK_AND_ASSIGN(auto t2, compute::CommonType(int64(), float64()));
  EXPECT_EQ(t2, float64());
  ASSERT_OK_AND_ASSIGN(auto t3, compute::CommonType(utf8(), date32()));
  EXPECT_EQ(t3, date32());
  ASSERT_OK_AND_ASSIGN(auto t4, compute::CommonType(null_type(), utf8()));
  EXPECT_EQ(t4, utf8());
}

TEST(SelectionTest, FilterDropsNullMaskSlots) {
  auto schema = fusion::schema({Field("a", int64())});
  auto batch = std::make_shared<RecordBatch>(
      schema, 4, std::vector<ArrayPtr>{MakeInt64Array({1, 2, 3, 4})});
  auto mask = MakeBooleanArray({true, false, true, true},
                               {true, true, true, false});
  ASSERT_OK_AND_ASSIGN(auto out,
                       compute::FilterBatch(*batch,
                                            checked_cast<BooleanArray>(*mask)));
  EXPECT_EQ(out->num_rows(), 2);  // row 3's mask is null -> dropped
  EXPECT_EQ(checked_cast<Int64Array>(*out->column(0)).Value(1), 3);
}

TEST(SelectionTest, TakeWithNegativeEmitsNull) {
  auto arr = MakeStringArray({"a", "b", "c"});
  ASSERT_OK_AND_ASSIGN(auto out, compute::Take(*arr, {2, -1, 0}));
  const auto& sa = checked_cast<StringArray>(*out);
  EXPECT_EQ(sa.Value(0), "c");
  EXPECT_TRUE(sa.IsNull(1));
  EXPECT_EQ(sa.Value(2), "a");
}

TEST(StringKernelTest, LikeShapes) {
  auto arr = MakeStringArray({"hello world", "world hello", "HELLO", "h", ""});
  struct Case {
    const char* pattern;
    bool ci;
    std::vector<bool> expected;
  };
  for (const Case& c : std::vector<Case>{
           {"hello world", false, {true, false, false, false, false}},
           {"hello%", false, {true, false, false, false, false}},
           {"%hello", false, {false, true, false, false, false}},
           {"%hello%", false, {true, true, false, false, false}},
           {"h_llo%", false, {true, false, false, false, false}},
           {"hello", true, {false, false, true, false, false}},
           {"%", false, {true, true, true, true, true}},
       }) {
    compute::LikeMatcher matcher(c.pattern, c.ci);
    ASSERT_OK_AND_ASSIGN(auto out, compute::Like(*arr, matcher));
    const auto& bm = checked_cast<BooleanArray>(*out);
    for (int i = 0; i < 5; ++i) {
      EXPECT_EQ(bm.Value(i), c.expected[i]) << c.pattern << " @" << i;
    }
  }
}

TEST(StringKernelTest, SpecializedShapesMatchGeneric) {
  // Property: the specialized fast paths agree with the generic
  // backtracking matcher on random inputs.
  std::mt19937 rng(99);
  const char* alphabet = "ab%_";
  for (int trial = 0; trial < 200; ++trial) {
    std::string pattern;
    for (int i = 0; i < static_cast<int>(rng() % 6); ++i) {
      pattern.push_back(alphabet[rng() % 4]);
    }
    std::string value;
    for (int i = 0; i < static_cast<int>(rng() % 8); ++i) {
      value.push_back(alphabet[rng() % 2]);  // only 'a'/'b'
    }
    compute::LikeMatcher specialized(pattern);
    // Force the generic path by prepending/appending nothing but
    // underscores trick: wrap with '_'-free equivalent is hard, so
    // re-derive expectation from a simple recursive oracle.
    std::function<bool(size_t, size_t)> oracle = [&](size_t v, size_t p) -> bool {
      if (p == pattern.size()) return v == value.size();
      if (pattern[p] == '%') {
        for (size_t skip = v; skip <= value.size(); ++skip) {
          if (oracle(skip, p + 1)) return true;
        }
        return false;
      }
      if (v == value.size()) return false;
      if (pattern[p] == '_' || pattern[p] == value[v]) return oracle(v + 1, p + 1);
      return false;
    };
    EXPECT_EQ(specialized.Matches(value), oracle(0, 0))
        << "pattern='" << pattern << "' value='" << value << "'";
  }
}

TEST(StringKernelTest, Transformations) {
  auto arr = MakeStringArray({" Mixed Case ", ""});
  ASSERT_OK_AND_ASSIGN(auto upper, compute::Upper(*arr));
  EXPECT_EQ(checked_cast<StringArray>(*upper).Value(0), " MIXED CASE ");
  ASSERT_OK_AND_ASSIGN(auto lower, compute::Lower(*arr));
  EXPECT_EQ(checked_cast<StringArray>(*lower).Value(0), " mixed case ");
  ASSERT_OK_AND_ASSIGN(auto trimmed, compute::Trim(*arr));
  EXPECT_EQ(checked_cast<StringArray>(*trimmed).Value(0), "Mixed Case");
  ASSERT_OK_AND_ASSIGN(auto sub, compute::Substr(*arr, 2, 5));
  EXPECT_EQ(checked_cast<StringArray>(*sub).Value(0), "Mixed");
  ASSERT_OK_AND_ASSIGN(auto len, compute::Length(*arr));
  EXPECT_EQ(checked_cast<Int64Array>(*len).Value(1), 0);
  ASSERT_OK_AND_ASSIGN(auto replaced, compute::ReplaceAll(*arr, "Case", "Bag"));
  EXPECT_EQ(checked_cast<StringArray>(*replaced).Value(0), " Mixed Bag ");
}

TEST(StringKernelTest, PredicatesAndConcat) {
  auto arr = MakeStringArray({"prefix_mid_suffix"});
  ASSERT_OK_AND_ASSIGN(auto sw, compute::StartsWith(*arr, "prefix"));
  EXPECT_TRUE(checked_cast<BooleanArray>(*sw).Value(0));
  ASSERT_OK_AND_ASSIGN(auto ew, compute::EndsWith(*arr, "suffix"));
  EXPECT_TRUE(checked_cast<BooleanArray>(*ew).Value(0));
  ASSERT_OK_AND_ASSIGN(auto ct, compute::Contains(*arr, "mid"));
  EXPECT_TRUE(checked_cast<BooleanArray>(*ct).Value(0));
  auto other = MakeStringArray({"!"});
  ASSERT_OK_AND_ASSIGN(auto cc, compute::ConcatStrings(*arr, *other));
  EXPECT_EQ(checked_cast<StringArray>(*cc).Value(0), "prefix_mid_suffix!");
}

TEST(TemporalTest, CivilDateRoundTripProperty) {
  std::mt19937 rng(7);
  for (int trial = 0; trial < 500; ++trial) {
    int32_t days = static_cast<int32_t>(rng() % 40000) - 10000;  // ~1942..2079
    auto c = compute::CivilFromDays(days);
    EXPECT_EQ(compute::DaysFromCivil(c.year, c.month, c.day), days);
    EXPECT_GE(c.month, 1);
    EXPECT_LE(c.month, 12);
    EXPECT_GE(c.day, 1);
    EXPECT_LE(c.day, 31);
  }
}

TEST(TemporalTest, ParseAndFormatDates) {
  ASSERT_OK_AND_ASSIGN(int32_t days, compute::ParseDate32("1970-01-02"));
  EXPECT_EQ(days, 1);
  EXPECT_EQ(compute::FormatDate32(days), "1970-01-02");
  ASSERT_OK_AND_ASSIGN(int64_t ts, compute::ParseTimestamp("1970-01-01 00:01:00"));
  EXPECT_EQ(ts, 60LL * 1000000LL);
  EXPECT_RAISES(compute::ParseDate32("not-a-date").status());
}

TEST(TemporalTest, ExtractFields) {
  ASSERT_OK_AND_ASSIGN(int32_t days, compute::ParseDate32("2024-06-15"));
  auto arr = MakeDate32Array({days});
  ASSERT_OK_AND_ASSIGN(auto year, compute::Extract(compute::DateField::kYear, *arr));
  EXPECT_EQ(checked_cast<Int64Array>(*year).Value(0), 2024);
  ASSERT_OK_AND_ASSIGN(auto month,
                       compute::Extract(compute::DateField::kMonth, *arr));
  EXPECT_EQ(checked_cast<Int64Array>(*month).Value(0), 6);
  ASSERT_OK_AND_ASSIGN(auto day, compute::Extract(compute::DateField::kDay, *arr));
  EXPECT_EQ(checked_cast<Int64Array>(*day).Value(0), 15);
}

TEST(TemporalTest, DateTrunc) {
  ASSERT_OK_AND_ASSIGN(int32_t days, compute::ParseDate32("2024-06-15"));
  auto arr = MakeDate32Array({days});
  ASSERT_OK_AND_ASSIGN(auto month,
                       compute::DateTrunc(compute::TruncUnit::kMonth, *arr));
  EXPECT_EQ(compute::FormatDate32(checked_cast<Int32Array>(*month).Value(0)),
            "2024-06-01");
  ASSERT_OK_AND_ASSIGN(auto year,
                       compute::DateTrunc(compute::TruncUnit::kYear, *arr));
  EXPECT_EQ(compute::FormatDate32(checked_cast<Int32Array>(*year).Value(0)),
            "2024-01-01");
}

TEST(HashKernelTest, EqualRowsHashEqual) {
  auto a1 = MakeInt64Array({1, 2, 1});
  auto b1 = MakeStringArray({"x", "y", "x"});
  std::vector<uint64_t> hashes;
  ASSERT_OK(compute::HashColumns({a1, b1}, &hashes));
  EXPECT_EQ(hashes[0], hashes[2]);
  EXPECT_NE(hashes[0], hashes[1]);
}

TEST(HashKernelTest, NullsHashConsistently) {
  auto a = MakeInt64Array({1, 1}, {false, false});
  std::vector<uint64_t> hashes;
  ASSERT_OK(compute::HashColumns({a}, &hashes));
  EXPECT_EQ(hashes[0], hashes[1]);
}

TEST(AggregateKernelTest, SumMinMaxCountMean) {
  auto arr = MakeInt64Array({5, 1, 9, 3}, {true, true, false, true});
  ASSERT_OK_AND_ASSIGN(auto mn, compute::MinArray(*arr));
  EXPECT_EQ(mn.int_value(), 1);
  ASSERT_OK_AND_ASSIGN(auto mx, compute::MaxArray(*arr));
  EXPECT_EQ(mx.int_value(), 5);
  ASSERT_OK_AND_ASSIGN(auto batches,
                       QueryColumn(arr, "SELECT sum(x), count(x), avg(x) FROM v"));
  EXPECT_EQ(ToStringRows(batches), (std::vector<StringRow>{{"9", "3", "3"}}));
}

TEST(AggregateKernelTest, AllNullInput) {
  auto arr = MakeInt64Array({1, 2}, {false, false});
  ASSERT_OK_AND_ASSIGN(auto mn, compute::MinArray(*arr));
  EXPECT_TRUE(mn.is_null());
  ASSERT_OK_AND_ASSIGN(auto batches, QueryColumn(arr, "SELECT sum(x), count(x) FROM v"));
  EXPECT_EQ(ToStringRows(batches), (std::vector<StringRow>{{"null", "0"}}));
}

TEST(AggregateKernelTest, StringMinMax) {
  auto arr = MakeStringArray({"pear", "apple", "zebra"});
  ASSERT_OK_AND_ASSIGN(auto mn, compute::MinArray(*arr));
  EXPECT_EQ(mn.string_value(), "apple");
  ASSERT_OK_AND_ASSIGN(auto mx, compute::MaxArray(*arr));
  EXPECT_EQ(mx.string_value(), "zebra");
}

TEST(InListTest, IntAndStringPaths) {
  auto i = MakeInt64Array({1, 5, 7}, {true, true, false});
  ASSERT_OK_AND_ASSIGN(auto out,
                       compute::InList(*i, {Scalar::Int64(5), Scalar::Int64(9)}));
  const auto& bm = checked_cast<BooleanArray>(*out);
  EXPECT_FALSE(bm.Value(0));
  EXPECT_TRUE(bm.Value(1));
  EXPECT_TRUE(bm.IsNull(2));

  auto s = MakeStringArray({"a", "b"});
  ASSERT_OK_AND_ASSIGN(auto out2, compute::InList(*s, {Scalar::String("b")}));
  EXPECT_TRUE(checked_cast<BooleanArray>(*out2).Value(1));
}

}  // namespace
}  // namespace test
}  // namespace fusion
