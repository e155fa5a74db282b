// Unit tests for the columnar memory substrate: arrays, builders,
// slicing, concatenation, record batches, scalars and IPC round-trips.

#include "tests/test_util.h"

#include "arrow/ipc.h"

namespace fusion {
namespace test {
namespace {

TEST(DataTypeTest, Basics) {
  EXPECT_TRUE(int64().is_integer());
  EXPECT_TRUE(float64().is_floating());
  EXPECT_TRUE(utf8().is_string());
  EXPECT_TRUE(date32().is_temporal());
  EXPECT_TRUE(timestamp().is_temporal());
  EXPECT_EQ(int32().byte_width(), 4);
  EXPECT_EQ(int64().byte_width(), 8);
  EXPECT_EQ(utf8().byte_width(), 0);
  EXPECT_EQ(int64().ToString(), "int64");
}

TEST(DataTypeTest, FromStringRoundTrip) {
  for (DataType t : {boolean(), int32(), int64(), float64(), utf8(), date32(),
                     timestamp()}) {
    ASSERT_OK_AND_ASSIGN(DataType parsed, TypeFromString(t.ToString()));
    EXPECT_EQ(parsed, t);
  }
  EXPECT_RAISES(TypeFromString("decimal128").status());
}

TEST(SchemaTest, FieldLookup) {
  Schema s({Field("a", int64()), Field("b", utf8()), Field("a", float64())});
  EXPECT_EQ(s.num_fields(), 3);
  EXPECT_EQ(s.GetFieldIndex("b"), 1);
  EXPECT_EQ(s.GetFieldIndex("a"), 0);  // first occurrence wins
  EXPECT_EQ(s.GetFieldIndex("zzz"), -1);
  EXPECT_RAISES(s.GetFieldByName("zzz").status());
}

TEST(SchemaTest, Project) {
  Schema s({Field("a", int64()), Field("b", utf8()), Field("c", float64())});
  auto p = s.Project({2, 0});
  EXPECT_EQ(p->num_fields(), 2);
  EXPECT_EQ(p->field(0).name(), "c");
  EXPECT_EQ(p->field(1).name(), "a");
}

TEST(ArrayTest, Int64WithNulls) {
  auto arr = MakeInt64Array({1, 2, 3}, {true, false, true});
  EXPECT_EQ(arr->length(), 3);
  EXPECT_EQ(arr->null_count(), 1);
  EXPECT_TRUE(arr->IsNull(1));
  EXPECT_EQ(checked_cast<Int64Array>(*arr).Value(2), 3);
  EXPECT_EQ(arr->ValueToString(1), "null");
}

TEST(ArrayTest, StringValues) {
  auto arr = MakeStringArray({"alpha", "", "gamma"}, {true, true, false});
  const auto& sa = checked_cast<StringArray>(*arr);
  EXPECT_EQ(sa.Value(0), "alpha");
  EXPECT_EQ(sa.Value(1), "");
  EXPECT_TRUE(sa.IsNull(2));
}

TEST(ArrayTest, BooleanTrueCount) {
  auto arr = MakeBooleanArray({true, false, true, true}, {true, true, true, false});
  EXPECT_EQ(checked_cast<BooleanArray>(*arr).TrueCount(), 2);
}

TEST(ArrayTest, SliceNumeric) {
  auto arr = MakeInt64Array({10, 20, 30, 40, 50}, {true, true, false, true, true});
  auto slice = arr->Slice(1, 3);
  EXPECT_EQ(slice->length(), 3);
  EXPECT_EQ(checked_cast<Int64Array>(*slice).Value(0), 20);
  EXPECT_TRUE(slice->IsNull(1));
  EXPECT_EQ(slice->null_count(), 1);
}

TEST(ArrayTest, SliceString) {
  auto arr = MakeStringArray({"aa", "bb", "cc", "dd"});
  auto slice = arr->Slice(2, 2);
  EXPECT_EQ(checked_cast<StringArray>(*slice).Value(0), "cc");
  EXPECT_EQ(checked_cast<StringArray>(*slice).Value(1), "dd");
}

TEST(ArrayTest, ConcatenatePreservesNulls) {
  auto a = MakeInt64Array({1, 2}, {true, false});
  auto b = MakeInt64Array({3}, {true});
  ASSERT_OK_AND_ASSIGN(auto merged, Concatenate({a, b}));
  EXPECT_EQ(merged->length(), 3);
  EXPECT_EQ(merged->null_count(), 1);
  EXPECT_TRUE(merged->IsNull(1));
  EXPECT_EQ(checked_cast<Int64Array>(*merged).Value(2), 3);
}

TEST(ArrayTest, ConcatenateStrings) {
  auto a = MakeStringArray({"x", "yy"});
  auto b = MakeStringArray({"zzz"}, {false});
  ASSERT_OK_AND_ASSIGN(auto merged, Concatenate({a, b}));
  const auto& sa = checked_cast<StringArray>(*merged);
  EXPECT_EQ(sa.Value(0), "x");
  EXPECT_EQ(sa.Value(1), "yy");
  EXPECT_TRUE(sa.IsNull(2));
}

TEST(ArrayTest, ConcatenateMixedTypesFails) {
  auto a = MakeInt64Array({1});
  auto b = MakeFloat64Array({1.0});
  EXPECT_RAISES(Concatenate({a, b}).status());
}

TEST(ArrayTest, ArraysEqual) {
  auto a = MakeInt64Array({1, 2, 3}, {true, false, true});
  auto b = MakeInt64Array({1, 99, 3}, {true, false, true});
  auto c = MakeInt64Array({1, 2, 3});
  EXPECT_TRUE(ArraysEqual(*a, *b));  // null positions equal; values ignored
  EXPECT_FALSE(ArraysEqual(*a, *c));
}

TEST(ArrayTest, MakeArrayOfNulls) {
  for (DataType t : {boolean(), int32(), int64(), float64(), utf8(), date32(),
                     timestamp()}) {
    ASSERT_OK_AND_ASSIGN(auto arr, MakeArrayOfNulls(t, 5));
    EXPECT_EQ(arr->length(), 5);
    EXPECT_EQ(arr->null_count(), 5);
    EXPECT_TRUE(arr->IsNull(0));
    EXPECT_TRUE(arr->IsNull(4));
  }
}

TEST(RecordBatchTest, MakeValidatesLengths) {
  auto schema = fusion::schema({Field("a", int64()), Field("b", int64())});
  auto short_col = MakeInt64Array({1});
  auto long_col = MakeInt64Array({1, 2});
  EXPECT_RAISES(RecordBatch::Make(schema, {short_col, long_col}).status());
}

TEST(RecordBatchTest, MakeValidatesTypes) {
  auto schema = fusion::schema({Field("a", int64())});
  EXPECT_RAISES(RecordBatch::Make(schema, {MakeFloat64Array({1.0})}).status());
}

TEST(RecordBatchTest, ProjectAndSlice) {
  auto schema = fusion::schema({Field("a", int64()), Field("b", utf8())});
  auto batch = std::make_shared<RecordBatch>(
      schema, 3,
      std::vector<ArrayPtr>{MakeInt64Array({1, 2, 3}),
                            MakeStringArray({"x", "y", "z"})});
  ASSERT_OK_AND_ASSIGN(auto projected, batch->Project({1}));
  EXPECT_EQ(projected->num_columns(), 1);
  EXPECT_EQ(projected->schema()->field(0).name(), "b");
  auto sliced = batch->Slice(1, 2);
  EXPECT_EQ(sliced->num_rows(), 2);
  EXPECT_EQ(checked_cast<Int64Array>(*sliced->column(0)).Value(0), 2);
}

TEST(RecordBatchTest, SliceBatchChunks) {
  auto schema = fusion::schema({Field("a", int64())});
  std::vector<int64_t> values(100);
  auto batch = std::make_shared<RecordBatch>(
      schema, 100, std::vector<ArrayPtr>{MakeInt64Array(values)});
  auto chunks = SliceBatch(batch, 30);
  EXPECT_EQ(chunks.size(), 4u);
  EXPECT_EQ(chunks[3]->num_rows(), 10);
}

TEST(ScalarTest, CompareAcrossTypes) {
  EXPECT_LT(Scalar::Int64(1).Compare(Scalar::Int64(2)), 0);
  EXPECT_EQ(Scalar::Int32(5).Compare(Scalar::Float64(5.0)), 0);
  EXPECT_GT(Scalar::String("b").Compare(Scalar::String("a")), 0);
  EXPECT_LT(Scalar::Null(int64()).Compare(Scalar::Int64(0)), 0);
}

TEST(ScalarTest, FromArrayRoundTrip) {
  auto arr = MakeStringArray({"hello"}, {true});
  Scalar s = Scalar::FromArray(*arr, 0);
  EXPECT_EQ(s.string_value(), "hello");
  ASSERT_OK_AND_ASSIGN(auto rebuilt, s.MakeArray(3));
  EXPECT_EQ(rebuilt->length(), 3);
  EXPECT_EQ(checked_cast<StringArray>(*rebuilt).Value(2), "hello");
}

TEST(ScalarTest, HashEqualValuesAgree) {
  EXPECT_EQ(Scalar::Int64(12).Hash(), Scalar::Int64(12).Hash());
  EXPECT_EQ(Scalar::String("abc").Hash(), Scalar::String("abc").Hash());
  EXPECT_NE(Scalar::String("abc").Hash(), Scalar::String("abd").Hash());
}

TEST(IpcTest, RoundTripAllTypes) {
  auto schema = fusion::schema(
      {Field("b", boolean()), Field("i32", int32()), Field("i64", int64()),
       Field("f", float64()), Field("s", utf8()), Field("d", date32()),
       Field("ts", timestamp())});
  std::vector<ArrayPtr> cols = {
      MakeBooleanArray({true, false, true}, {true, false, true}),
      MakeInt32Array({1, 2, 3}),
      MakeInt64Array({10, 20, 30}, {false, true, true}),
      MakeFloat64Array({0.5, -1.5, 2.25}),
      MakeStringArray({"a", "", "ccc"}, {true, true, false}),
      MakeDate32Array({1000, 2000, 3000}),
      MakeTimestampArray({1, 2, 3}),
  };
  auto batch = std::make_shared<RecordBatch>(schema, 3, std::move(cols));
  auto blob = ipc::SerializeBatch(*batch);
  ASSERT_OK_AND_ASSIGN(auto back, ipc::DeserializeBatch(blob.data(), blob.size()));
  EXPECT_TRUE(batch->Equals(*back));
  EXPECT_TRUE(back->schema()->Equals(*schema));
}

TEST(IpcTest, FileRoundTripMultipleBatches) {
  auto schema = fusion::schema({Field("x", int64())});
  std::vector<RecordBatchPtr> batches;
  for (int i = 0; i < 3; ++i) {
    batches.push_back(std::make_shared<RecordBatch>(
        schema, 2, std::vector<ArrayPtr>{MakeInt64Array({i, i + 10})}));
  }
  std::string path = "/tmp/fusion_test_ipc.bin";
  ASSERT_OK(ipc::WriteFile(path, batches));
  ASSERT_OK_AND_ASSIGN(auto back, ipc::ReadFile(path));
  ASSERT_EQ(back.size(), 3u);
  for (int i = 0; i < 3; ++i) {
    EXPECT_TRUE(batches[i]->Equals(*back[i]));
  }
}

TEST(IpcTest, TruncatedBlobErrors) {
  auto schema = fusion::schema({Field("x", int64())});
  auto batch = std::make_shared<RecordBatch>(
      schema, 2, std::vector<ArrayPtr>{MakeInt64Array({1, 2})});
  auto blob = ipc::SerializeBatch(*batch);
  EXPECT_RAISES(ipc::DeserializeBatch(blob.data(), blob.size() / 2).status());
  EXPECT_RAISES(ipc::DeserializeBatch(blob.data(), 2).status());
}

TEST(ColumnarValueTest, ScalarBroadcast) {
  ColumnarValue v(Scalar::Int64(9));
  EXPECT_TRUE(v.is_scalar());
  ASSERT_OK_AND_ASSIGN(auto arr, v.ToArray(4));
  EXPECT_EQ(arr->length(), 4);
  EXPECT_EQ(checked_cast<Int64Array>(*arr).Value(3), 9);
}

}  // namespace
}  // namespace test
}  // namespace fusion
