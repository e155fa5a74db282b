// Tests for the CSV and JSON data sources: schema inference, quoting,
// nulls, round-trips and malformed-input behaviour.

#include "tests/test_util.h"

#include <cstdio>
#include <limits>

#include "compute/cast.h"
#include "format/csv.h"
#include "format/json.h"

namespace fusion {
namespace test {
namespace {

namespace csv = format::csv;
namespace json = format::json;

std::string WriteTemp(const char* name, const std::string& content) {
  std::string path = std::string("/tmp/fusion_test_") + name;
  std::FILE* f = std::fopen(path.c_str(), "wb");
  std::fwrite(content.data(), 1, content.size(), f);
  std::fclose(f);
  return path;
}

TEST(CsvTest, InferSchemaTypes) {
  auto path = WriteTemp("infer.csv",
                        "i,f,d,b,s\n"
                        "1,1.5,2024-01-01,true,hello\n"
                        "2,2.5,2024-01-02,false,world\n");
  ASSERT_OK_AND_ASSIGN(auto schema, csv::InferSchema(path, {}));
  EXPECT_EQ(schema->field(0).type(), int64());
  EXPECT_EQ(schema->field(1).type(), float64());
  EXPECT_EQ(schema->field(2).type(), date32());
  EXPECT_EQ(schema->field(3).type(), boolean());
  EXPECT_EQ(schema->field(4).type(), utf8());
}

TEST(CsvTest, TypeDemotionIntToFloatToString) {
  auto path = WriteTemp("demote.csv", "x\n1\n2.5\n3\n");
  ASSERT_OK_AND_ASSIGN(auto schema, csv::InferSchema(path, {}));
  EXPECT_EQ(schema->field(0).type(), float64());
  auto path2 = WriteTemp("demote2.csv", "x\n1\nhello\n");
  ASSERT_OK_AND_ASSIGN(auto schema2, csv::InferSchema(path2, {}));
  EXPECT_EQ(schema2->field(0).type(), utf8());
}

TEST(CsvTest, EmptyFieldsAreNull) {
  auto path = WriteTemp("nulls.csv", "a,b\n1,x\n,y\n3,\n");
  ASSERT_OK_AND_ASSIGN(auto batches, csv::ReadFile(path));
  ASSERT_EQ(batches.size(), 1u);
  EXPECT_TRUE(batches[0]->column(0)->IsNull(1));
  EXPECT_TRUE(batches[0]->column(1)->IsNull(2));
  EXPECT_EQ(checked_cast<Int64Array>(*batches[0]->column(0)).Value(2), 3);
}

TEST(CsvTest, QuotedFieldsWithCommasAndEscapes) {
  auto path = WriteTemp("quotes.csv",
                        "a,b\n"
                        "\"hello, world\",1\n"
                        "\"she said \"\"hi\"\"\",2\n");
  ASSERT_OK_AND_ASSIGN(auto batches, csv::ReadFile(path));
  const auto& s = checked_cast<StringArray>(*batches[0]->column(0));
  EXPECT_EQ(s.Value(0), "hello, world");
  EXPECT_EQ(s.Value(1), "she said \"hi\"");
}

TEST(CsvTest, QuotedNewlineInsideField) {
  auto path = WriteTemp("embedded_nl.csv", "a,b\n\"line1\nline2\",7\n");
  ASSERT_OK_AND_ASSIGN(auto batches, csv::ReadFile(path));
  ASSERT_EQ(batches[0]->num_rows(), 1);
  EXPECT_EQ(checked_cast<StringArray>(*batches[0]->column(0)).Value(0),
            "line1\nline2");
}

TEST(CsvTest, NoHeaderGeneratesColumnNames) {
  auto path = WriteTemp("nohdr.csv", "1,a\n2,b\n");
  csv::Options options;
  options.has_header = false;
  ASSERT_OK_AND_ASSIGN(auto batches, csv::ReadFile(path, options));
  EXPECT_EQ(batches[0]->schema()->field(0).name(), "column_1");
  EXPECT_EQ(batches[0]->num_rows(), 2);
}

TEST(CsvTest, BatchBoundaries) {
  std::string content = "x\n";
  for (int i = 0; i < 100; ++i) content += std::to_string(i) + "\n";
  auto path = WriteTemp("batches.csv", content);
  csv::Options options;
  options.batch_rows = 32;
  ASSERT_OK_AND_ASSIGN(auto batches, csv::ReadFile(path, options));
  EXPECT_EQ(batches.size(), 4u);
  EXPECT_EQ(TotalRows(batches), 100);
  EXPECT_EQ(checked_cast<Int64Array>(*batches[3]->column(0)).Value(3), 99);
}

TEST(CsvTest, WriteReadRoundTrip) {
  auto schema = fusion::schema({Field("i", int64()), Field("s", utf8()),
                                Field("f", float64()), Field("d", date32())});
  auto batch = std::make_shared<RecordBatch>(
      schema, 3,
      std::vector<ArrayPtr>{
          MakeInt64Array({1, 2, 3}, {true, false, true}),
          MakeStringArray({"plain", "with,comma", "with\"quote"}),
          MakeFloat64Array({1.5, 2.5, 3.5}),
          MakeDate32Array({0, 100, 20000})});
  std::string path = "/tmp/fusion_test_csv_rt.csv";
  ASSERT_OK(csv::WriteFile(path, {batch}));
  ASSERT_OK_AND_ASSIGN(auto back, csv::ReadFile(path));
  auto rows = ToStringRows(back);
  ASSERT_EQ(rows.size(), 3u);
  EXPECT_EQ(rows[0][0], "1");
  EXPECT_EQ(rows[1][0], "null");
  EXPECT_EQ(rows[1][1], "with,comma");
  EXPECT_EQ(rows[2][1], "with\"quote");
  EXPECT_EQ(back[0]->schema()->field(3).type(), date32());
}

TEST(CsvTest, ExplicitSchemaOverridesInference) {
  auto path = WriteTemp("explicit.csv", "a\n1\n2\n");
  csv::Options options;
  options.schema = fusion::schema({Field("a", float64())});
  ASSERT_OK_AND_ASSIGN(auto batches, csv::ReadFile(path, options));
  EXPECT_EQ(batches[0]->column(0)->type(), float64());
}

TEST(CsvTest, MissingFileErrors) {
  EXPECT_RAISES(csv::ReadFile("/tmp/definitely_missing.csv").status());
}

TEST(CsvTest, SplitLineHelper) {
  std::vector<std::string> fields;
  csv::SplitLine("a,b,,d", ',', &fields);
  ASSERT_EQ(fields.size(), 4u);
  EXPECT_EQ(fields[2], "");
  csv::SplitLine("\"x,y\",z", ',', &fields);
  ASSERT_EQ(fields.size(), 2u);
  EXPECT_EQ(fields[0], "x,y");
}

TEST(CsvTest, FieldsParseAsCastParsesText) {
  const std::vector<DataType> types = {int32(),          int64(), float64(),
                                       decimal128(10, 2), date32(), timestamp()};
  const std::vector<std::string> texts = {
      "12abc", " 12", "1.5x", "99999999999999999999", "12.345", "-7", "1e3", " 2.5 ",
      "2024-02-29", "2024-02-29 12:34:56", "2024-13-01", "3000000000", "abc"};
  for (DataType type : types) {
    for (const std::string& text : texts) {
      const std::string what = "'" + text + "' as " + type.ToString();
      auto path = WriteTemp("cast_rules.csv", "x\n" + text + "\n");
      csv::Options options;
      options.schema = fusion::schema({Field("x", type, true)});
      auto read = csv::ReadFile(path, options);
      auto cast = compute::Cast(*MakeStringArray({text}), type);
      ASSERT_EQ(read.ok(), cast.ok()) << what << ": " << read.status().ToString() << " / "
                                      << cast.status().ToString();
      if (!cast.ok()) continue;
      ASSERT_EQ(read->size(), 1u) << what;
      EXPECT_EQ((*read)[0]->column(0)->ValueToString(0), (*cast)->ValueToString(0)) << what;
    }
  }
}

TEST(CsvTest, ValueInfersATypeExactlyWhenItParsesAsOne) {
  auto path = WriteTemp("infer_rules.csv",
                        "a,b,c,d,e\n"
                        " 12,12abc,1.5x,99999999999999999999,2024-13-01\n"
                        "13,1,2.5,1,2024-01-01\n");
  ASSERT_OK_AND_ASSIGN(auto schema, csv::InferSchema(path, {}));
  EXPECT_EQ(schema->field(0).type(), int64());
  EXPECT_EQ(schema->field(1).type(), utf8());
  EXPECT_EQ(schema->field(2).type(), utf8());
  EXPECT_EQ(schema->field(3).type(), float64());
  EXPECT_EQ(schema->field(4).type(), utf8());
  ASSERT_OK_AND_ASSIGN(auto batches, csv::ReadFile(path));
  EXPECT_EQ(batches[0]->column(0)->ValueToString(0), "12");
}

TEST(CsvTest, UnreadableColumnTypeFailsToOpen) {
  auto path = WriteTemp("unreadable.csv", "x\nabc\n");
  csv::Options options;
  options.schema = fusion::schema({Field("x", dictionary(), true)});
  auto reader = csv::CsvReader::Open(path, options);
  ASSERT_FALSE(reader.ok());
  EXPECT_TRUE(reader.status().IsTypeError()) << reader.status().ToString();
}

TEST(JsonTest, InferAndRead) {
  auto path = WriteTemp("basic.json",
                        "{\"a\": 1, \"b\": \"x\", \"c\": 1.5, \"d\": true}\n"
                        "{\"a\": 2, \"b\": \"y\", \"c\": 2.0, \"d\": false}\n");
  ASSERT_OK_AND_ASSIGN(auto batches, json::ReadFile(path));
  ASSERT_EQ(batches.size(), 1u);
  auto schema = batches[0]->schema();
  EXPECT_EQ(schema->GetFieldByName("a").ValueOrDie().type(), int64());
  EXPECT_EQ(schema->GetFieldByName("b").ValueOrDie().type(), utf8());
  EXPECT_EQ(schema->GetFieldByName("c").ValueOrDie().type(), float64());
  EXPECT_EQ(schema->GetFieldByName("d").ValueOrDie().type(), boolean());
  EXPECT_EQ(batches[0]->num_rows(), 2);
}

TEST(JsonTest, MissingKeysAndNulls) {
  auto path = WriteTemp("missing.json",
                        "{\"a\": 1, \"b\": \"x\"}\n"
                        "{\"a\": null}\n"
                        "{\"b\": \"z\", \"a\": 3}\n");
  ASSERT_OK_AND_ASSIGN(auto batches, json::ReadFile(path));
  EXPECT_TRUE(batches[0]->column(0)->IsNull(1));
  EXPECT_TRUE(batches[0]->column(1)->IsNull(1));
  EXPECT_EQ(checked_cast<Int64Array>(*batches[0]->column(0)).Value(2), 3);
}

TEST(JsonTest, IntWidensToFloat) {
  auto path = WriteTemp("widen.json", "{\"x\": 1}\n{\"x\": 2.5}\n");
  ASSERT_OK_AND_ASSIGN(auto batches, json::ReadFile(path));
  EXPECT_EQ(batches[0]->column(0)->type(), float64());
  EXPECT_DOUBLE_EQ(checked_cast<Float64Array>(*batches[0]->column(0)).Value(0), 1.0);
}

TEST(JsonTest, DoubleOutsideAnInt64ColumnsRangeIsNull) {
  auto path = WriteTemp("int_range.json",
                        "{\"x\": 2.9}\n{\"x\": 1e20}\n{\"x\": -9.3e18}\n"
                        "{\"x\": -9.223372036854775808e18}\n{\"x\": 7}\n");
  json::Options options;
  options.schema = fusion::schema({Field("x", int64(), true)});
  ASSERT_OK_AND_ASSIGN(auto batches, json::ReadFile(path, options));
  const auto& x = checked_cast<Int64Array>(*batches[0]->column(0));
  EXPECT_EQ(x.Value(0), 2);
  EXPECT_TRUE(x.IsNull(1));
  EXPECT_TRUE(x.IsNull(2));
  EXPECT_EQ(x.Value(3), std::numeric_limits<int64_t>::min());
  EXPECT_EQ(x.Value(4), 7);
}

TEST(JsonTest, NestedValuesKeptAsRawText) {
  auto path = WriteTemp("nested.json",
                        "{\"a\": {\"x\": 1}, \"b\": [1, 2, 3]}\n");
  ASSERT_OK_AND_ASSIGN(auto batches, json::ReadFile(path));
  const auto& a = checked_cast<StringArray>(*batches[0]->column(0));
  EXPECT_EQ(a.Value(0), "{\"x\": 1}");
  const auto& b = checked_cast<StringArray>(*batches[0]->column(1));
  EXPECT_EQ(b.Value(0), "[1, 2, 3]");
}

TEST(JsonTest, StringEscapes) {
  auto path = WriteTemp("escapes.json", R"({"s": "line\nbreak \"quoted\""})"
                                        "\n");
  ASSERT_OK_AND_ASSIGN(auto batches, json::ReadFile(path));
  EXPECT_EQ(checked_cast<StringArray>(*batches[0]->column(0)).Value(0),
            "line\nbreak \"quoted\"");
}

TEST(JsonTest, MalformedLineErrors) {
  auto path = WriteTemp("broken.json", "{\"a\": 1}\nnot json at all\n");
  EXPECT_RAISES(json::ReadFile(path).status());
}

TEST(JsonTest, ParseObjectHelper) {
  ASSERT_OK_AND_ASSIGN(auto kvs, json::ParseObject("{\"k\": -42}"));
  ASSERT_EQ(kvs.size(), 1u);
  EXPECT_EQ(kvs[0].first, "k");
  EXPECT_EQ(kvs[0].second.int_value, -42);
  EXPECT_RAISES(json::ParseObject("[1,2]").status());
  EXPECT_RAISES(json::ParseObject("{\"k\": }").status());
}

}  // namespace
}  // namespace test
}  // namespace fusion
