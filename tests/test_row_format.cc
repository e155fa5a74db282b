// Property tests for the normalized-key row format (paper §6.6): the
// memcmp order of encoded keys must equal the logical comparison order
// for every type and every ASC/DESC x NULLS FIRST/LAST combination.

#include "tests/test_util.h"

#include <limits>

#include "row/row_format.h"

namespace fusion {
namespace test {
namespace {

using row::GroupKeyEncoder;
using row::RowEncoder;
using row::SortOptions;

/// Random array of the given type with ~20% nulls.
/// With `nan_and_inf`, doubles include NaNs of both signs and infinities.
ArrayPtr RandomArray(DataType type, int64_t n, std::mt19937* rng,
                     bool nan_and_inf = false) {
  std::vector<bool> valid(n);
  for (int64_t i = 0; i < n; ++i) valid[i] = (*rng)() % 5 != 0;
  switch (type.id()) {
    case TypeId::kInt64: {
      std::vector<int64_t> v(n);
      for (auto& x : v) x = static_cast<int64_t>((*rng)()) - (1LL << 31);
      return MakeInt64Array(v, valid);
    }
    case TypeId::kInt32: {
      std::vector<int32_t> v(n);
      for (auto& x : v) x = static_cast<int32_t>((*rng)());
      return MakeInt32Array(v, valid);
    }
    case TypeId::kFloat64: {
      const double kSpecial[] = {std::numeric_limits<double>::quiet_NaN(),
                                 -std::numeric_limits<double>::quiet_NaN(),
                                 std::numeric_limits<double>::infinity(),
                                 -std::numeric_limits<double>::infinity()};
      std::vector<double> v(n);
      for (auto& x : v) {
        x = (static_cast<double>((*rng)()) / 1e6 - 2000.0);
        if (nan_and_inf && (*rng)() % 8 == 0) x = kSpecial[(*rng)() % 4];
      }
      return MakeFloat64Array(v, valid);
    }
    case TypeId::kString: {
      std::vector<std::string> v(n);
      for (auto& x : v) {
        int len = static_cast<int>((*rng)() % 6);
        for (int c = 0; c < len; ++c) {
          // Include NUL and 0xFF to stress the escape encoding.
          x.push_back(static_cast<char>((*rng)() % 256));
        }
      }
      return MakeStringArray(v, valid);
    }
    case TypeId::kBool: {
      std::vector<bool> v(n);
      for (int64_t i = 0; i < n; ++i) v[i] = (*rng)() % 2 == 0;
      return MakeBooleanArray(v, valid);
    }
    case TypeId::kDate32: {
      std::vector<int32_t> v(n);
      for (auto& x : v) x = static_cast<int32_t>((*rng)() % 30000);
      return MakeDate32Array(v, valid);
    }
    default: {
      std::vector<int64_t> v(n);
      for (auto& x : v) x = static_cast<int64_t>((*rng)());
      return MakeTimestampArray(v, valid);
    }
  }
}

struct RowFormatCase {
  DataType type;
  bool descending;
  bool nulls_first;
};

class RowFormatOrderTest : public ::testing::TestWithParam<RowFormatCase> {};

TEST_P(RowFormatOrderTest, EncodedOrderMatchesLogicalOrder) {
  const RowFormatCase& param = GetParam();
  std::mt19937 rng(12345);
  const int64_t n = 300;
  auto arr = RandomArray(param.type, n, &rng, /*nan_and_inf=*/true);
  std::vector<ArrayPtr> columns = {arr};
  SortOptions opt{param.descending, param.nulls_first};
  RowEncoder encoder({param.type}, {opt});
  std::vector<std::string> keys;
  ASSERT_OK(encoder.EncodeColumns(columns, &keys));
  for (int64_t i = 0; i < n; ++i) {
    for (int64_t j = i + 1; j < n; ++j) {
      int logical = row::CompareRows(columns, i, columns, j, {opt});
      int encoded = keys[i].compare(keys[j]);
      int enc_sign = encoded < 0 ? -1 : (encoded > 0 ? 1 : 0);
      if (logical == 0) {
        // Equal values must encode identically.
        EXPECT_EQ(keys[i], keys[j]) << "rows " << i << "," << j;
      } else {
        EXPECT_EQ(enc_sign, logical) << "rows " << i << "," << j;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllTypesAndOrders, RowFormatOrderTest,
    ::testing::Values(
        RowFormatCase{int64(), false, false}, RowFormatCase{int64(), true, false},
        RowFormatCase{int64(), false, true}, RowFormatCase{int64(), true, true},
        RowFormatCase{int32(), false, false}, RowFormatCase{int32(), true, true},
        RowFormatCase{float64(), false, false},
        RowFormatCase{float64(), true, false},
        RowFormatCase{float64(), false, true},
        RowFormatCase{utf8(), false, false}, RowFormatCase{utf8(), true, false},
        RowFormatCase{utf8(), false, true}, RowFormatCase{utf8(), true, true},
        RowFormatCase{boolean(), false, false},
        RowFormatCase{boolean(), true, false},
        RowFormatCase{date32(), false, false},
        RowFormatCase{timestamp(), true, false}));

TEST(RowFormatTest, MultiColumnOrder) {
  std::mt19937 rng(77);
  std::vector<ArrayPtr> columns = {RandomArray(int64(), 200, &rng),
                                   RandomArray(utf8(), 200, &rng),
                                   RandomArray(float64(), 200, &rng)};
  std::vector<SortOptions> options = {{false, false}, {true, true}, {false, true}};
  RowEncoder encoder({int64(), utf8(), float64()}, options);
  std::vector<std::string> keys;
  ASSERT_OK(encoder.EncodeColumns(columns, &keys));
  for (int64_t i = 0; i < 200; i += 7) {
    for (int64_t j = 1; j < 200; j += 11) {
      int logical = row::CompareRows(columns, i, columns, j, options);
      int encoded = keys[i].compare(keys[j]);
      int enc_sign = encoded < 0 ? -1 : (encoded > 0 ? 1 : 0);
      if (logical != 0) {
        EXPECT_EQ(enc_sign, logical);
      }
    }
  }
}

TEST(GroupKeyTest, RoundTripAllTypes) {
  std::mt19937 rng(55);
  std::vector<DataType> types = {int64(), utf8(), float64(), boolean(), date32()};
  std::vector<ArrayPtr> columns;
  for (DataType t : types) columns.push_back(RandomArray(t, 100, &rng));
  GroupKeyEncoder encoder(types);
  std::vector<std::string> keys(100);
  for (int64_t r = 0; r < 100; ++r) {
    encoder.EncodeRow(columns, r, &keys[r]);
  }
  ASSERT_OK_AND_ASSIGN(auto decoded, encoder.DecodeKeys(keys));
  ASSERT_EQ(decoded.size(), types.size());
  for (size_t c = 0; c < types.size(); ++c) {
    EXPECT_TRUE(ArraysEqual(*decoded[c], *columns[c])) << "column " << c;
  }
}

TEST(GroupKeyTest, EqualRowsSameKeyDistinctRowsDifferentKey) {
  auto a = MakeInt64Array({1, 1, 2}, {true, true, true});
  auto b = MakeStringArray({"x", "x", "x"});
  GroupKeyEncoder encoder({int64(), utf8()});
  std::string k0, k1, k2;
  encoder.EncodeRow({a, b}, 0, &k0);
  encoder.EncodeRow({a, b}, 1, &k1);
  encoder.EncodeRow({a, b}, 2, &k2);
  EXPECT_EQ(k0, k1);
  EXPECT_NE(k0, k2);
}

TEST(GroupKeyTest, NullDistinctFromZeroAndEmpty) {
  auto i = MakeInt64Array({0, 0}, {true, false});
  auto s = MakeStringArray({"", ""}, {true, false});
  GroupKeyEncoder encoder({int64(), utf8()});
  std::string k0, k1;
  encoder.EncodeRow({i, s}, 0, &k0);
  encoder.EncodeRow({i, s}, 1, &k1);
  EXPECT_NE(k0, k1);
}

TEST(GroupKeyTest, SplitKeysFindsEachKeyAndRejectsShortOnes) {
  auto i = MakeInt64Array({7, 0, -3}, {true, false, true});
  auto s = MakeStringArray({"ab", "", "xyz"});
  GroupKeyEncoder encoder({int64(), utf8()});
  std::vector<std::string> keys(3);
  std::string all;
  for (int64_t r = 0; r < 3; ++r) {
    encoder.EncodeRow({i, s}, r, &keys[r]);
    all += keys[r];
  }
  std::vector<std::string_view> views;
  ASSERT_OK(encoder.SplitKeys(all, &views));
  ASSERT_EQ(views.size(), 3u);
  for (size_t r = 0; r < 3; ++r) EXPECT_EQ(views[r], keys[r]);
  // Every cut inside a key is an error, never a read past the end.
  const size_t ends[] = {keys[0].size(), keys[0].size() + keys[1].size()};
  for (size_t cut = 1; cut < all.size(); ++cut) {
    if (cut == ends[0] || cut == ends[1]) continue;  // whole keys
    views.clear();
    EXPECT_FALSE(encoder.SplitKeys(std::string_view(all).substr(0, cut), &views).ok())
        << "cut at " << cut;
  }
}

}  // namespace
}  // namespace test
}  // namespace fusion
