// Dictionary-encoded string execution: FPQ dict chunks must come back
// as DictionaryArray (codes + shared dictionary, no eager decode) with
// logical values identical to the dense path, dictionary-aware kernels
// must agree with their dense counterparts, and randomized SQL over a
// dict-backed FPQ table must match the same data served from plain CSV.

#include "tests/test_util.h"

#include <sys/stat.h>

#include "catalog/file_tables.h"
#include "compute/cast.h"
#include "compute/compare.h"
#include "compute/selection.h"
#include "compute/string_kernels.h"
#include "format/csv.h"
#include "format/fpq.h"

namespace fusion {
namespace test {
namespace {

namespace fpq = format::fpq;
using format::ColumnPredicate;

/// Low-cardinality string column with optional nulls, plus an int64
/// payload. The string column dictionary-encodes under default options.
RecordBatchPtr MakeDictBatch(int64_t n, uint32_t seed, bool with_nulls) {
  std::mt19937 rng(seed);
  std::vector<int64_t> ids(n);
  std::vector<std::string> tags(n);
  std::vector<bool> valid(n, true);
  for (int64_t i = 0; i < n; ++i) {
    ids[i] = static_cast<int64_t>(rng() % 1000);
    tags[i] = "grp_" + std::to_string(rng() % 37);
    if (with_nulls && rng() % 5 == 0) valid[i] = false;
  }
  auto schema = fusion::schema(
      {Field("id", int64(), false), Field("tag", utf8(), with_nulls)});
  return std::make_shared<RecordBatch>(
      schema, n,
      std::vector<ArrayPtr>{MakeInt64Array(ids),
                            MakeStringArray(tags, with_nulls ? valid
                                                             : std::vector<bool>{})});
}

TEST(DictionaryReadTest, DictChunksDecodeToDictionaryArrays) {
  auto batch = MakeDictBatch(6000, 11, /*with_nulls=*/false);
  fpq::WriteOptions options;
  options.page_rows = 700;
  std::string path = "/tmp/fusion_test_dict_array.fpq";
  ASSERT_OK(fpq::WriteFile(path, batch->schema(), {batch}, options));
  ASSERT_OK_AND_ASSIGN(auto reader, fpq::Reader::Open(path));
  ASSERT_EQ(reader->row_group(0).columns[1].encoding, fpq::Encoding::kDictionary);
  ASSERT_OK_AND_ASSIGN(auto back,
                       reader->ScanRowGroup(0, {0, reader->row_group(0).num_rows},
                                            {0, 1}, {}));
  // The string column arrives still encoded, and all pages of the chunk
  // share one dictionary instance.
  ASSERT_TRUE(back->column(1)->type().is_dictionary());
  const auto& dict_col = checked_cast<DictionaryArray>(*back->column(1));
  EXPECT_LE(dict_col.dict_size(), 37);
  // Logical values are identical to what was written.
  EXPECT_TRUE(ArraysEqual(*batch->column(1), *back->column(1)));
  // Densifying reproduces the original dense array exactly.
  EXPECT_TRUE(ArraysEqual(*batch->column(1), *dict_col.Densify()));
}

TEST(DictionaryReadTest, NullableDictColumnRoundTrips) {
  // Codes are stored positionally (one per row, 0 for null); a reader
  // that only consumes codes for valid rows desynchronizes after the
  // first null, so this covers every page with interleaved nulls.
  auto batch = MakeDictBatch(5000, 12, /*with_nulls=*/true);
  fpq::WriteOptions options;
  options.page_rows = 600;
  std::string path = "/tmp/fusion_test_dict_nulls.fpq";
  ASSERT_OK(fpq::WriteFile(path, batch->schema(), {batch}, options));
  ASSERT_OK_AND_ASSIGN(auto reader, fpq::Reader::Open(path));
  ASSERT_EQ(reader->row_group(0).columns[1].encoding, fpq::Encoding::kDictionary);
  ASSERT_OK_AND_ASSIGN(auto back,
                       reader->ScanRowGroup(0, {0, reader->row_group(0).num_rows},
                                            {0, 1}, {}));
  ASSERT_TRUE(back->column(1)->type().is_dictionary());
  EXPECT_EQ(back->column(1)->null_count(), batch->column(1)->null_count());
  EXPECT_TRUE(ArraysEqual(*batch->column(1), *back->column(1)));
}

TEST(DictionaryReadTest, RowSelectionTakesCodesOnly) {
  auto batch = MakeDictBatch(8000, 13, /*with_nulls=*/false);
  fpq::WriteOptions options;
  options.page_rows = 500;
  std::string path = "/tmp/fusion_test_dict_sel.fpq";
  ASSERT_OK(fpq::WriteFile(path, batch->schema(), {batch}, options));
  ASSERT_OK_AND_ASSIGN(auto reader, fpq::Reader::Open(path));
  std::vector<ColumnPredicate> preds = {
      {"id", ColumnPredicate::Op::kLt, {Scalar::Int64(200)}}};
  for (bool late : {false, true}) {
    fpq::ScanMetrics metrics;
    ASSERT_OK_AND_ASSIGN(auto filtered,
                         reader->ScanRowGroup(0, {0, reader->row_group(0).num_rows},
                                              {0, 1}, preds, late, &metrics));
    ASSERT_TRUE(filtered->column(1)->type().is_dictionary());
    const auto& ids = checked_cast<Int64Array>(*filtered->column(0));
    int64_t expected = 0;
    const auto& all_ids = checked_cast<Int64Array>(*batch->column(0));
    for (int64_t i = 0; i < batch->num_rows(); ++i) {
      if (all_ids.Value(i) < 200) ++expected;
    }
    EXPECT_EQ(filtered->num_rows(), expected) << "late=" << late;
    for (int64_t i = 0; i < filtered->num_rows(); ++i) {
      EXPECT_LT(ids.Value(i), 200);
    }
  }
}

TEST(DictionaryKernelTest, KernelsAgreeWithDenseExecution) {
  auto batch = MakeDictBatch(4000, 14, /*with_nulls=*/true);
  fpq::WriteOptions options;
  std::string path = "/tmp/fusion_test_dict_kernels.fpq";
  ASSERT_OK(fpq::WriteFile(path, batch->schema(), {batch}, options));
  ASSERT_OK_AND_ASSIGN(auto reader, fpq::Reader::Open(path));
  ASSERT_OK_AND_ASSIGN(auto back,
                       reader->ScanRowGroup(0, {0, reader->row_group(0).num_rows},
                                            {1}, {}));
  ArrayPtr dict_col = back->column(0);
  ASSERT_TRUE(dict_col->type().is_dictionary());
  ArrayPtr dense_col = compute::EnsureDense(dict_col);
  ASSERT_TRUE(dense_col->type().is_string());

  // Constant comparison resolves against the dictionary once.
  for (auto op : {compute::CompareOp::kEq, compute::CompareOp::kLt,
                  compute::CompareOp::kGtEq}) {
    ASSERT_OK_AND_ASSIGN(auto lhs,
                         compute::CompareScalar(op, *dict_col, Scalar::String("grp_7")));
    ASSERT_OK_AND_ASSIGN(auto rhs,
                         compute::CompareScalar(op, *dense_col, Scalar::String("grp_7")));
    EXPECT_TRUE(ArraysEqual(*lhs, *rhs));
  }
  // LIKE-style predicates consult each dictionary entry once.
  ASSERT_OK_AND_ASSIGN(auto dict_like, compute::StartsWith(*dict_col, "grp_1"));
  ASSERT_OK_AND_ASSIGN(auto dense_like, compute::StartsWith(*dense_col, "grp_1"));
  EXPECT_TRUE(ArraysEqual(*dict_like, *dense_like));
  // Transforms rewrite the dictionary and keep the codes.
  ASSERT_OK_AND_ASSIGN(auto upper, compute::Upper(*dict_col));
  EXPECT_TRUE(upper->type().is_dictionary());
  ASSERT_OK_AND_ASSIGN(auto dense_upper, compute::Upper(*dense_col));
  EXPECT_TRUE(ArraysEqual(*upper, *dense_upper));
}

/// Oracle: the same logical rows registered twice — once as a dict-
/// encoded FPQ file, once as plain CSV — must produce identical SQL
/// results for filters, aggregations, and joins on the string column.
class DictionaryOracleTest : public ::testing::TestWithParam<int> {};

TEST_P(DictionaryOracleTest, SqlMatchesCsvBackedTable) {
  const int partitions = GetParam();
  std::mt19937 rng(900 + static_cast<uint32_t>(partitions));
  const int64_t n = 20000;
  std::vector<int64_t> ids(n);
  std::vector<int64_t> vals(n);
  std::vector<std::string> tags(n);
  for (int64_t i = 0; i < n; ++i) {
    ids[i] = i;
    vals[i] = static_cast<int64_t>(rng() % 500);
    tags[i] = "grp_" + std::to_string(rng() % 64);
  }
  auto schema = fusion::schema({Field("id", int64(), false),
                                Field("v", int64(), false),
                                Field("tag", utf8(), false)});
  auto batch = std::make_shared<RecordBatch>(
      schema, n,
      std::vector<ArrayPtr>{MakeInt64Array(ids), MakeInt64Array(vals),
                            MakeStringArray(tags)});

  std::string fpq_path = "/tmp/fusion_test_dict_oracle.fpq";
  std::string csv_path = "/tmp/fusion_test_dict_oracle.csv";
  fpq::WriteOptions options;
  options.row_group_rows = 4096;  // several row groups -> several dicts
  ASSERT_OK(fpq::WriteFile(fpq_path, schema, SliceBatch(batch, 1500), options));
  ASSERT_OK(format::csv::WriteFile(csv_path, {batch}));

  // A small dimension table joined on the string column.
  std::vector<std::string> dim_tags;
  std::vector<std::string> dim_labels;
  for (int i = 0; i < 64; i += 2) {  // half the vocabulary
    dim_tags.push_back("grp_" + std::to_string(i));
    dim_labels.push_back(i % 4 == 0 ? "even4" : "other");
  }
  auto dim_schema = fusion::schema(
      {Field("tag", utf8(), false), Field("label", utf8(), false)});
  auto dim_batch = std::make_shared<RecordBatch>(
      dim_schema, static_cast<int64_t>(dim_tags.size()),
      std::vector<ArrayPtr>{MakeStringArray(dim_tags), MakeStringArray(dim_labels)});

  exec::SessionConfig config;
  config.target_partitions = partitions;
  auto dict_ctx = core::SessionContext::Make(config);
  auto csv_ctx = core::SessionContext::Make(config);
  ASSERT_OK_AND_ASSIGN(auto fpq_table, catalog::FpqTable::Open({fpq_path}));
  ASSERT_OK(dict_ctx->RegisterTable("td", fpq_table));
  ASSERT_OK(csv_ctx->RegisterCsv("td", csv_path));
  for (auto* ctx : {dict_ctx.get(), csv_ctx.get()}) {
    ASSERT_OK_AND_ASSIGN(
        auto dim, catalog::MemoryTable::Make(dim_schema, {dim_batch}));
    ASSERT_OK(ctx->RegisterTable("dim", dim));
  }

  std::vector<std::string> queries;
  // Randomized filter + GROUP BY on the string key.
  for (int q = 0; q < 4; ++q) {
    std::string c = "grp_" + std::to_string(rng() % 64);
    queries.push_back("SELECT tag, count(*), sum(v) FROM td WHERE tag "
                      + std::string(q % 2 == 0 ? ">= '" : "= '") + c +
                      "' GROUP BY tag");
  }
  queries.push_back("SELECT tag, count(*) FROM td WHERE tag LIKE 'grp_1%' "
                    "GROUP BY tag");
  queries.push_back("SELECT count(DISTINCT tag) FROM td");
  queries.push_back("SELECT v, count(DISTINCT tag) AS d, count(DISTINCT tag) "
                    "FILTER (WHERE id < 12000) AS df FROM td GROUP BY v");
  queries.push_back("SELECT min(tag), max(tag) FROM td WHERE v < 250");
  // Join on the string column, then aggregate.
  queries.push_back("SELECT dim.label, count(*), sum(td.v) FROM td "
                    "JOIN dim ON td.tag = dim.tag GROUP BY dim.label");
  queries.push_back("SELECT td.tag, dim.label FROM td JOIN dim ON "
                    "td.tag = dim.tag WHERE td.id < 50");

  for (const auto& sql : queries) {
    ASSERT_OK_AND_ASSIGN(auto dict_rows, dict_ctx->ExecuteSql(sql));
    ASSERT_OK_AND_ASSIGN(auto csv_rows, csv_ctx->ExecuteSql(sql));
    EXPECT_EQ(SortedStringRows(dict_rows), SortedStringRows(csv_rows))
        << sql << " @" << partitions << " partitions";
  }
}

INSTANTIATE_TEST_SUITE_P(Partitions, DictionaryOracleTest,
                         ::testing::Values(1, 4),
                         [](const auto& info) {
                           return "P" + std::to_string(info.param);
                         });

}  // namespace
}  // namespace test
}  // namespace fusion
