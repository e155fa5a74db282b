// Tests for the FPQ columnar file format: round-trips, row-group and
// page structure, zone-map and Bloom pruning, dictionary encoding, the
// late-materialization property that pruning never changes results,
// page-range scans and the FpqTable partitions built from them, and
// footer validation against corrupt files.

#include "tests/test_util.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <numeric>

#include "catalog/file_tables.h"
#include "compute/selection.h"
#include "exec/buffer_cache.h"
#include "format/fpq.h"
#include "format/fpq_internal.h"

namespace fusion {
namespace test {
namespace {

using format::ColumnPredicate;
using format::ColumnStats;
using format::RowSelection;
namespace fpq = format::fpq;

RecordBatchPtr MakeDataBatch(int64_t n, uint32_t seed) {
  std::mt19937 rng(seed);
  std::vector<int64_t> ids(n);
  std::vector<double> values(n);
  std::vector<std::string> tags(n);
  std::vector<bool> valid(n);
  for (int64_t i = 0; i < n; ++i) {
    ids[i] = i;
    values[i] = static_cast<double>(rng() % 10000) / 10.0;
    tags[i] = "tag" + std::to_string(rng() % 20);
    valid[i] = rng() % 10 != 0;
  }
  auto schema = fusion::schema({Field("id", int64(), false),
                                Field("value", float64(), true),
                                Field("tag", utf8(), false)});
  return std::make_shared<RecordBatch>(
      schema, n,
      std::vector<ArrayPtr>{MakeInt64Array(ids), MakeFloat64Array(values, valid),
                            MakeStringArray(tags)});
}

/// Every row of row group `g`.
RowSelection::Range AllRows(const fpq::Reader& reader, int g) {
  return {0, reader.row_group(g).num_rows};
}

/// The rows of `batch` that pass every predicate (a null result drops
/// the row), found by evaluating the predicates on its columns.
Result<RecordBatchPtr> FilterRows(const RecordBatchPtr& batch,
                                  const std::vector<ColumnPredicate>& preds) {
  std::vector<bool> keep(static_cast<size_t>(batch->num_rows()), true);
  for (const auto& pred : preds) {
    FUSION_ASSIGN_OR_RAISE(auto column, batch->GetColumnByName(pred.column));
    FUSION_ASSIGN_OR_RAISE(auto mask_arr, format::EvaluatePredicate(pred, *column));
    const auto& mask = checked_cast<BooleanArray>(*mask_arr);
    for (int64_t i = 0; i < batch->num_rows(); ++i) {
      if (!(mask.IsValid(i) && mask.Value(i))) keep[static_cast<size_t>(i)] = false;
    }
  }
  std::vector<int64_t> indices;
  for (int64_t i = 0; i < batch->num_rows(); ++i) {
    if (keep[static_cast<size_t>(i)]) indices.push_back(i);
  }
  return compute::TakeBatch(*batch, indices);
}

TEST(RowSelectionTest, FromMaskAndCount) {
  auto s = RowSelection::FromMask({true, true, false, true, false, false, true});
  EXPECT_EQ(s.ranges().size(), 3u);
  EXPECT_EQ(s.CountRows(), 4);
  EXPECT_TRUE(s.Overlaps(0, 1));
  EXPECT_FALSE(s.Overlaps(4, 6));
  EXPECT_TRUE(s.Overlaps(5, 7));
}

TEST(RowSelectionTest, Intersect) {
  auto a = RowSelection::FromMask({true, true, true, false, true, true});
  auto b = RowSelection::FromMask({false, true, true, true, true, false});
  auto c = a.Intersect(b);
  EXPECT_EQ(c.CountRows(), 3);  // rows 1,2,4
  EXPECT_TRUE(c.Overlaps(1, 3));
  EXPECT_FALSE(c.Overlaps(3, 4));
}

TEST(BloomFilterTest, NoFalseNegatives) {
  format::BloomFilter bloom(1000);
  std::mt19937 rng(3);
  std::vector<uint64_t> keys;
  for (int i = 0; i < 1000; ++i) keys.push_back(rng());
  for (uint64_t k : keys) bloom.Insert(k);
  for (uint64_t k : keys) EXPECT_TRUE(bloom.MightContain(k));
}

TEST(BloomFilterTest, LowFalsePositiveRate) {
  format::BloomFilter bloom(1000);
  std::mt19937 rng(4);
  for (int i = 0; i < 1000; ++i) bloom.Insert(rng() | 1);  // odd-ish keys
  int false_positives = 0;
  std::mt19937 probe_rng(5);
  for (int i = 0; i < 10000; ++i) {
    if (bloom.MightContain(probe_rng() << 20)) ++false_positives;
  }
  EXPECT_LT(false_positives, 600);  // ~1% design rate; generous bound
}

TEST(PredicateTest, StatsMayMatch) {
  ColumnStats stats;
  stats.min = Scalar::Int64(10);
  stats.max = Scalar::Int64(20);
  stats.row_count = 100;
  auto pred = [](ColumnPredicate::Op op, int64_t v) {
    return ColumnPredicate{"c", op, {Scalar::Int64(v)}};
  };
  using Op = ColumnPredicate::Op;
  EXPECT_TRUE(StatsMayMatch(pred(Op::kEq, 15), stats));
  EXPECT_FALSE(StatsMayMatch(pred(Op::kEq, 25), stats));
  EXPECT_FALSE(StatsMayMatch(pred(Op::kEq, 5), stats));
  EXPECT_FALSE(StatsMayMatch(pred(Op::kLt, 10), stats));
  EXPECT_TRUE(StatsMayMatch(pred(Op::kLt, 11), stats));
  EXPECT_FALSE(StatsMayMatch(pred(Op::kGt, 20), stats));
  EXPECT_TRUE(StatsMayMatch(pred(Op::kGtEq, 20), stats));
  EXPECT_TRUE(StatsMayMatch({"c", Op::kIn,
                             {Scalar::Int64(1), Scalar::Int64(12)}},
                            stats));
  EXPECT_FALSE(StatsMayMatch({"c", Op::kIn, {Scalar::Int64(1)}}, stats));
  // Null-related stats.
  stats.null_count = 0;
  EXPECT_FALSE(StatsMayMatch({"c", Op::kIsNull, {}}, stats));
  stats.null_count = 5;
  EXPECT_TRUE(StatsMayMatch({"c", Op::kIsNull, {}}, stats));
}

TEST(FpqTest, RoundTripSingleRowGroup) {
  auto batch = MakeDataBatch(1000, 1);
  std::string path = "/tmp/fusion_test_rt.fpq";
  ASSERT_OK(fpq::WriteFile(path, batch->schema(), {batch}));
  ASSERT_OK_AND_ASSIGN(auto reader, fpq::Reader::Open(path));
  EXPECT_EQ(reader->num_rows(), 1000);
  EXPECT_EQ(reader->num_row_groups(), 1);
  ASSERT_OK_AND_ASSIGN(auto back,
                       reader->ScanRowGroup(0, AllRows(*reader, 0), {0, 1, 2}, {}));
  EXPECT_TRUE(batch->Equals(*back));
}

TEST(FpqTest, RoundTripMultipleRowGroupsAndPages) {
  auto batch = MakeDataBatch(10000, 2);
  fpq::WriteOptions options;
  options.row_group_rows = 3000;
  options.page_rows = 500;
  std::string path = "/tmp/fusion_test_rt_multi.fpq";
  ASSERT_OK(fpq::WriteFile(path, batch->schema(), SliceBatch(batch, 1000), options));
  ASSERT_OK_AND_ASSIGN(auto reader, fpq::Reader::Open(path));
  EXPECT_EQ(reader->num_row_groups(), 4);  // 3000+3000+3000+1000
  EXPECT_EQ(reader->num_rows(), 10000);
  // Reassemble and compare.
  std::vector<RecordBatchPtr> parts;
  for (int g = 0; g < reader->num_row_groups(); ++g) {
    ASSERT_OK_AND_ASSIGN(auto rg,
                         reader->ScanRowGroup(g, AllRows(*reader, g), {0, 1, 2}, {}));
    parts.push_back(rg);
  }
  ASSERT_OK_AND_ASSIGN(auto merged, ConcatenateBatches(batch->schema(), parts));
  EXPECT_TRUE(batch->Equals(*merged));
}

TEST(FpqTest, DictionaryEncodingKicksInAndRoundTrips) {
  // 20 distinct tags over 5000 rows -> dictionary-encoded chunk.
  auto batch = MakeDataBatch(5000, 3);
  std::string path = "/tmp/fusion_test_dict.fpq";
  fpq::WriteOptions options;
  options.page_rows = 700;
  ASSERT_OK(fpq::WriteFile(path, batch->schema(), {batch}, options));
  ASSERT_OK_AND_ASSIGN(auto reader, fpq::Reader::Open(path));
  EXPECT_EQ(reader->row_group(0).columns[2].encoding,
            fpq::Encoding::kDictionary);
  ASSERT_OK_AND_ASSIGN(auto back,
                       reader->ScanRowGroup(0, AllRows(*reader, 0), {2}, {}));
  EXPECT_TRUE(ArraysEqual(*batch->column(2), *back->column(0)));
}

TEST(FpqTest, RowGroupPruningByZoneMap) {
  auto batch = MakeDataBatch(8000, 4);  // id = 0..7999 ascending
  fpq::WriteOptions options;
  options.row_group_rows = 2000;
  std::string path = "/tmp/fusion_test_prune.fpq";
  ASSERT_OK(fpq::WriteFile(path, batch->schema(), {batch}, options));
  ASSERT_OK_AND_ASSIGN(auto reader, fpq::Reader::Open(path));
  std::vector<ColumnPredicate> preds = {
      {"id", ColumnPredicate::Op::kGtEq, {Scalar::Int64(7000)}}};
  int may_match = 0;
  for (int g = 0; g < reader->num_row_groups(); ++g) {
    ASSERT_OK_AND_ASSIGN(bool match, reader->RowGroupMayMatch(g, preds));
    if (match) ++may_match;
  }
  EXPECT_EQ(may_match, 1);  // only the last row group
}

TEST(FpqTest, BloomFilterPrunesPointLookups) {
  auto batch = MakeDataBatch(4000, 5);
  std::string path = "/tmp/fusion_test_bloom.fpq";
  ASSERT_OK(fpq::WriteFile(path, batch->schema(), {batch}));
  ASSERT_OK_AND_ASSIGN(auto reader, fpq::Reader::Open(path));
  // A tag that never occurs: zone maps (min/max strings) may overlap but
  // the Bloom filter rejects it.
  std::vector<ColumnPredicate> preds = {
      {"tag", ColumnPredicate::Op::kEq, {Scalar::String("tag999zzz")}}};
  ASSERT_OK_AND_ASSIGN(bool match, reader->RowGroupMayMatch(0, preds));
  EXPECT_FALSE(match);
  // An existing tag must pass.
  std::vector<ColumnPredicate> hit = {
      {"tag", ColumnPredicate::Op::kEq, {Scalar::String("tag5")}}};
  ASSERT_OK_AND_ASSIGN(bool match2, reader->RowGroupMayMatch(0, hit));
  EXPECT_TRUE(match2);
}

TEST(FpqTest, LateMaterializationSkipsPages) {
  auto batch = MakeDataBatch(8192, 6);
  fpq::WriteOptions options;
  options.page_rows = 1024;
  std::string path = "/tmp/fusion_test_pages.fpq";
  ASSERT_OK(fpq::WriteFile(path, batch->schema(), {batch}, options));
  ASSERT_OK_AND_ASSIGN(auto reader, fpq::Reader::Open(path));
  std::vector<ColumnPredicate> preds = {
      {"id", ColumnPredicate::Op::kLt, {Scalar::Int64(100)}}};
  fpq::ScanMetrics metrics;
  ASSERT_OK_AND_ASSIGN(auto out,
                       reader->ScanRowGroup(0, AllRows(*reader, 0), {0, 2}, preds,
                                            &metrics));
  EXPECT_EQ(out->num_rows(), 100);
  EXPECT_GT(metrics.pages_skipped, 0);
  EXPECT_EQ(metrics.rows_selected, 100);
}

/// Property: scanning with pushdown+late materialization returns exactly
/// the written rows that pass random predicates.
TEST(FpqTest, PushdownEquivalenceProperty) {
  auto batch = MakeDataBatch(6000, 7);
  fpq::WriteOptions options;
  options.row_group_rows = 2048;
  options.page_rows = 256;
  std::string path = "/tmp/fusion_test_equiv.fpq";
  ASSERT_OK(fpq::WriteFile(path, batch->schema(), {batch}, options));
  ASSERT_OK_AND_ASSIGN(auto reader, fpq::Reader::Open(path));

  std::mt19937 rng(8);
  using Op = ColumnPredicate::Op;
  const Op ops[] = {Op::kEq, Op::kNeq, Op::kLt, Op::kLtEq, Op::kGt, Op::kGtEq};
  for (int trial = 0; trial < 30; ++trial) {
    std::vector<ColumnPredicate> preds;
    int num_preds = 1 + static_cast<int>(rng() % 2);
    for (int p = 0; p < num_preds; ++p) {
      if (rng() % 2 == 0) {
        preds.push_back({"id", ops[rng() % 6],
                         {Scalar::Int64(static_cast<int64_t>(rng() % 7000))}});
      } else {
        preds.push_back(
            {"value", ops[rng() % 6],
             {Scalar::Float64(static_cast<double>(rng() % 10000) / 10.0)}});
      }
    }
    std::vector<RecordBatchPtr> with_pushdown;
    for (int g = 0; g < reader->num_row_groups(); ++g) {
      ASSERT_OK_AND_ASSIGN(bool may, reader->RowGroupMayMatch(g, preds));
      if (may) {
        ASSERT_OK_AND_ASSIGN(auto scanned,
                             reader->ScanRowGroup(g, AllRows(*reader, g), {0, 1, 2},
                                                  preds));
        with_pushdown.push_back(scanned);
      }
    }
    ASSERT_OK_AND_ASSIGN(auto expected, FilterRows(batch, preds));
    EXPECT_EQ(ToStringRows(with_pushdown), ToStringRows({expected}))
        << "trial " << trial;
  }
}

TEST(FpqTest, ReadSubsetOfColumns) {
  auto batch = MakeDataBatch(500, 9);
  std::string path = "/tmp/fusion_test_proj.fpq";
  ASSERT_OK(fpq::WriteFile(path, batch->schema(), {batch}));
  ASSERT_OK_AND_ASSIGN(auto reader, fpq::Reader::Open(path));
  ASSERT_OK_AND_ASSIGN(auto out,
                       reader->ScanRowGroup(0, AllRows(*reader, 0), {2, 0}, {}));
  EXPECT_EQ(out->num_columns(), 2);
  EXPECT_EQ(out->schema()->field(0).name(), "tag");
  EXPECT_EQ(out->schema()->field(1).name(), "id");
}

TEST(FpqTest, CorruptFileErrors) {
  std::string path = "/tmp/fusion_test_corrupt.fpq";
  std::FILE* f = std::fopen(path.c_str(), "wb");
  std::fputs("this is not an fpq file at all, not even close", f);
  std::fclose(f);
  EXPECT_RAISES(fpq::Reader::Open(path).status());
  EXPECT_RAISES(fpq::Reader::Open("/tmp/does_not_exist.fpq").status());
}

TEST(FpqTest, StatsRecordedPerRowGroup) {
  auto batch = MakeDataBatch(4000, 10);
  fpq::WriteOptions options;
  options.row_group_rows = 1000;
  std::string path = "/tmp/fusion_test_stats.fpq";
  ASSERT_OK(fpq::WriteFile(path, batch->schema(), {batch}, options));
  ASSERT_OK_AND_ASSIGN(auto reader, fpq::Reader::Open(path));
  // id is ascending: rg1's min must be 1000.
  const auto& chunk = reader->row_group(1).columns[0];
  EXPECT_EQ(chunk.stats.min.int_value(), 1000);
  EXPECT_EQ(chunk.stats.max.int_value(), 1999);
  EXPECT_EQ(chunk.stats.row_count, 1000);
  // value column has nulls; count recorded.
  EXPECT_GT(reader->row_group(1).columns[1].stats.null_count, 0);
}

// ------------------------------------------------------ page-range scans

/// id int64 (the row number), value float64 with nulls, tag string with
/// nulls (20 distinct values: dictionary-encoded), amount decimal(12,2).
RecordBatchPtr MakeRangeBatch(int64_t n, uint32_t seed) {
  std::mt19937 rng(seed);
  Int64Builder id;
  Float64Builder value;
  StringBuilder tag;
  Decimal128Builder amount(12, 2);
  for (int64_t i = 0; i < n; ++i) {
    id.Append(i);
    if (rng() % 10 == 0) {
      value.AppendNull();
    } else {
      value.Append(static_cast<double>(rng() % 10000) / 10.0);
    }
    if (rng() % 8 == 0) {
      tag.AppendNull();
    } else {
      tag.Append("tag" + std::to_string(rng() % 20));
    }
    amount.Append(Decimal128(static_cast<int64_t>(rng() % 2000000) - 1000000));
  }
  auto schema = fusion::schema({Field("id", int64(), false),
                                Field("value", float64(), true),
                                Field("tag", utf8(), true),
                                Field("amount", decimal128(12, 2), false)});
  return std::make_shared<RecordBatch>(
      schema, n,
      std::vector<ArrayPtr>{id.Finish().ValueOrDie(), value.Finish().ValueOrDie(),
                            tag.Finish().ValueOrDie(), amount.Finish().ValueOrDie()});
}

TEST(FpqRangeTest, RangeScanEqualsThoseRowsOfTheFullScan) {
  auto batch = MakeRangeBatch(4096, 11);
  fpq::WriteOptions options;
  options.page_rows = 512;
  std::string path = "/tmp/fusion_test_range.fpq";
  ASSERT_OK(fpq::WriteFile(path, batch->schema(), {batch}, options));
  ASSERT_OK_AND_ASSIGN(auto reader, fpq::Reader::Open(path));
  ASSERT_EQ(reader->row_group(0).columns[2].encoding, fpq::Encoding::kDictionary);
  const std::vector<int> all = {0, 1, 2, 3};
  ASSERT_OK_AND_ASSIGN(auto full,
                       reader->ScanRowGroup(0, AllRows(*reader, 0), all, {}));
  const auto full_rows = ToStringRows({full});
  const RowSelection::Range range = {1024, 2560};  // pages 2, 3 and 4

  // No predicate: the range's rows, reading only its three pages.
  fpq::ScanMetrics metrics;
  ASSERT_OK_AND_ASSIGN(auto part, reader->ScanRowGroup(0, range, all, {}, &metrics));
  EXPECT_EQ(ToStringRows({part}),
            std::vector<StringRow>(full_rows.begin() + range.start,
                                   full_rows.begin() + range.end));
  EXPECT_EQ(metrics.pages_read, 3 * 4);
  EXPECT_EQ(metrics.pages_skipped, 0);
  EXPECT_EQ(metrics.rows_total, range.end - range.start);

  // Predicates on a plain, a dictionary and a decimal column: the
  // range's written rows that pass.
  using Op = ColumnPredicate::Op;
  std::vector<ColumnPredicate> preds = {
      {"value", Op::kGt, {Scalar::Float64(300.0)}},
      {"tag", Op::kNeq, {Scalar::String("tag7")}},
      {"amount", Op::kGtEq, {Scalar::Decimal(Decimal128(0), decimal128(12, 2))}}};
  ASSERT_OK_AND_ASSIGN(
      auto expected,
      FilterRows(batch->Slice(range.start, range.end - range.start), preds));
  ASSERT_GT(expected->num_rows(), 0);
  fpq::ScanMetrics m;
  ASSERT_OK_AND_ASSIGN(auto got, reader->ScanRowGroup(0, range, all, preds, &m));
  EXPECT_EQ(ToStringRows({got}), ToStringRows({expected}));
  // Every column read counts the range's three pages and no others:
  // three predicate columns, then the four projected ones.
  EXPECT_EQ(m.pages_read + m.pages_skipped, 7 * 3);
  EXPECT_RAISES(reader->ScanRowGroup(0, {0, 4097}, all, {}).status());
}

/// Every batch of every iterator, counting rows per iterator.
std::vector<RecordBatchPtr> Drain(std::vector<catalog::BatchIteratorPtr>* iterators,
                                  std::vector<int64_t>* rows_per_iterator) {
  std::vector<RecordBatchPtr> out;
  for (auto& it : *iterators) {
    int64_t rows = 0;
    for (;;) {
      auto batch = it->Next();
      EXPECT_TRUE(batch.ok()) << batch.status().ToString();
      if (!batch.ok() || *batch == nullptr) break;
      rows += (*batch)->num_rows();
      out.push_back(*batch);
    }
    rows_per_iterator->push_back(rows);
  }
  return out;
}

TEST(FpqRangeTest, TableScanDealsPageRangesToFixedPartitions) {
  // Two row groups of eight 512-row pages: at 4 partitions a unit's share
  // of the table is ceil(8192 / (4 x 4)) = 512 rows, so each row group is
  // cut into eight one-page ranges.
  auto batch = MakeRangeBatch(8192, 12);
  fpq::WriteOptions options;
  options.row_group_rows = 4096;
  options.page_rows = 512;
  std::string path = "/tmp/fusion_test_range_table.fpq";
  ASSERT_OK(fpq::WriteFile(path, batch->schema(), {batch}, options));
  ASSERT_OK_AND_ASSIGN(auto table, catalog::FpqTable::Open({path}));
  const auto expected = SortedStringRows({batch});

  auto cache = std::make_shared<exec::BufferCache>(int64_t{64} << 20);
  catalog::ScanRequest request;
  request.target_partitions = 4;
  request.buffer_cache = cache;
  for (int pass = 0; pass < 2; ++pass) {
    ASSERT_OK_AND_ASSIGN(auto iterators, table->Scan(request));
    ASSERT_EQ(iterators.size(), 4u);
    std::vector<int64_t> rows;
    auto batches = Drain(&iterators, &rows);
    iterators.clear();
    EXPECT_EQ(SortedStringRows(batches), expected);
    EXPECT_EQ(rows, (std::vector<int64_t>{2048, 2048, 2048, 2048}));
    auto metrics = table->ConsumeMetrics();
    // The first pass decodes each range once; the second hits every
    // range's own entry.
    EXPECT_EQ(metrics.buffer_cache_misses, pass == 0 ? 16 : 0);
    EXPECT_EQ(metrics.buffer_cache_hits, pass == 0 ? 0 : 16);
    EXPECT_EQ(metrics.rows_total, 8192);
    EXPECT_EQ(cache->stats().entries, 16);
  }

  // One partition reads whole row groups.
  request.target_partitions = 1;
  request.buffer_cache = nullptr;
  ASSERT_OK_AND_ASSIGN(auto iterators, table->Scan(request));
  ASSERT_EQ(iterators.size(), 1u);
  std::vector<int64_t> rows;
  auto batches = Drain(&iterators, &rows);
  iterators.clear();
  EXPECT_EQ(SortedStringRows(batches), expected);
  EXPECT_EQ(batches.size(), 2u);
  EXPECT_EQ(table->ConsumeMetrics().row_groups_read, 2);
}

TEST(FpqRangeTest, TableScanBalancesRowsAcrossPartitions) {
  // Twelve row groups of eight 512-row pages. At 4 partitions a row
  // group is 4/3 of a unit's share, so it stays whole and each partition
  // reads three. At other counts row groups are cut into ranges of equal
  // page counts, and no partition reads more than one unit (at most one
  // row group) beyond another.
  auto batch = MakeRangeBatch(12 * 4096, 13);
  fpq::WriteOptions options;
  options.row_group_rows = 4096;
  options.page_rows = 512;
  std::string path = "/tmp/fusion_test_range_balance.fpq";
  ASSERT_OK(fpq::WriteFile(path, batch->schema(), {batch}, options));
  ASSERT_OK_AND_ASSIGN(auto table, catalog::FpqTable::Open({path}));
  const auto expected = SortedStringRows({batch});
  for (int partitions : {2, 3, 4, 5, 6, 7, 8}) {
    catalog::ScanRequest request;
    request.target_partitions = partitions;
    ASSERT_OK_AND_ASSIGN(auto iterators, table->Scan(request));
    ASSERT_EQ(iterators.size(), static_cast<size_t>(partitions));
    std::vector<int64_t> rows;
    auto batches = Drain(&iterators, &rows);
    iterators.clear();
    EXPECT_EQ(SortedStringRows(batches), expected) << partitions;
    const auto [min, max] = std::minmax_element(rows.begin(), rows.end());
    EXPECT_LE(*max - *min, 4096) << partitions;
    if (partitions == 4) {
      EXPECT_EQ(*max, *min);
    }
    table->ConsumeMetrics();
  }
}

// ----------------------------------------------------- footer validation

std::vector<uint8_t> ReadBytes(const std::string& path) {
  std::vector<uint8_t> bytes;
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return bytes;
  uint8_t buf[4096];
  size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) {
    bytes.insert(bytes.end(), buf, buf + n);
  }
  std::fclose(f);
  return bytes;
}

/// Overwrite `path` with `bytes`. Rewriting in place, then trimming,
/// keeps the sweeps below fast (emptying a file first costs more).
void WriteBytes(const std::string& path, const std::vector<uint8_t>& bytes) {
  const int fd = ::open(path.c_str(), O_WRONLY | O_CREAT, 0644);
  ASSERT_GE(fd, 0);
  EXPECT_EQ(::pwrite(fd, bytes.data(), bytes.size(), 0),
            static_cast<ssize_t>(bytes.size()));
  EXPECT_EQ(::ftruncate(fd, static_cast<off_t>(bytes.size())), 0);
  ::close(fd);
}

/// The bytes of a MakeDataBatch file of 4 row groups.
std::vector<uint8_t> FourRowGroupFile(int64_t rg_rows, int64_t page_rows) {
  auto batch = MakeDataBatch(4 * rg_rows, 10);
  fpq::WriteOptions options;
  options.row_group_rows = rg_rows;
  options.page_rows = page_rows;
  std::string path = "/tmp/fusion_test_footer_src.fpq";
  EXPECT_TRUE(fpq::WriteFile(path, batch->schema(), {batch}, options).ok());
  return ReadBytes(path);
}

/// Where the footer starts: the trailer is the footer length (8 bytes)
/// and the magic (4 bytes).
size_t FooterStart(const std::vector<uint8_t>& file) {
  uint64_t footer_len;
  std::memcpy(&footer_len, file.data() + file.size() - 12, 8);
  return file.size() - 12 - footer_len;
}

/// Byte position of row group 0's first `id` page offset in the footer
/// of a MakeDataBatch file (id is field 0, int64, no nulls).
size_t FirstIdPageOffsetPos(const std::vector<uint8_t>& file) {
  size_t pos = FooterStart(file);
  auto u32 = [&](size_t at) {
    uint32_t v;
    std::memcpy(&v, file.data() + at, 4);
    return v;
  };
  const uint32_t num_fields = u32(pos);
  pos += 4;
  for (uint32_t i = 0; i < num_fields; ++i) pos += 4 + u32(pos) + 2;  // name, type, nullable
  pos += 8 + 4 + 8;            // file rows, row-group count, row-group rows
  pos += 1 + 8 + 8 + 8;        // encoding, offset, size, dict_size
  pos += 9 + 9;                // non-null int64 min and max
  pos += 8 + 8 + 8 + 8 + 4;    // nulls, ndv, bloom offset and size, pages
  return pos + 8 + 8;          // the page's first_row and num_rows
}

void PutU64(std::vector<uint8_t>* file, size_t pos, uint64_t v) {
  std::memcpy(file->data() + pos, &v, 8);
}

/// Open, prune and fully scan every row group, touching every value:
/// each predicate is pushed into one scan and applied to a full scan.
Status OpenAndScan(const std::string& path, const std::vector<ColumnPredicate>& point,
                   const std::vector<ColumnPredicate>& range) {
  FUSION_ASSIGN_OR_RAISE(auto reader, fpq::Reader::Open(path));
  std::vector<int> all(static_cast<size_t>(reader->schema()->num_fields()));
  std::iota(all.begin(), all.end(), 0);
  for (int g = 0; g < reader->num_row_groups(); ++g) {
    FUSION_ASSIGN_OR_RAISE(bool may_match, reader->RowGroupMayMatch(g, point));
    (void)may_match;
    const int64_t rows = reader->row_group(g).num_rows;
    FUSION_ASSIGN_OR_RAISE(auto full, reader->ScanRowGroup(g, {0, rows}, all, {}));
    (void)ToStringRows({full});
    for (const auto* preds : {&point, &range}) {
      FUSION_ASSIGN_OR_RAISE(auto batch, reader->ScanRowGroup(g, {0, rows}, all, *preds));
      (void)ToStringRows({batch});
      FUSION_ASSIGN_OR_RAISE(auto filtered, FilterRows(full, *preds));
      (void)ToStringRows({filtered});
    }
  }
  return Status::OK();
}

/// OpenAndScan with predicates on a MakeDataBatch file's columns.
Status OpenAndScan(const std::string& path) {
  return OpenAndScan(path, {{"tag", ColumnPredicate::Op::kEq, {Scalar::String("tag5")}}},
                     {{"id", ColumnPredicate::Op::kGtEq, {Scalar::Int64(500)}}});
}

// The file StatsRecordedPerRowGroup writes (sum(id) = 7998000).
TEST(FpqFooterTest, HugeFooterLengthIsIOError) {
  auto file = FourRowGroupFile(1000, 8192);
  PutU64(&file, file.size() - 12, uint64_t{1} << 50);
  const std::string path = "/tmp/fusion_test_footer_len.fpq";
  WriteBytes(path, file);
  auto st = fpq::Reader::Open(path).status();
  EXPECT_TRUE(st.IsIOError()) << st.ToString();
}

TEST(FpqFooterTest, PageOffsetPastItsChunkIsIOError) {
  const auto original = FourRowGroupFile(1000, 8192);
  const std::string path = "/tmp/fusion_test_footer_page.fpq";
  WriteBytes(path, original);
  ASSERT_OK(OpenAndScan(path));
  // 5000 lands inside the chunk but runs the 8001-byte page past its
  // end; 2^40 lies far outside the file.
  for (uint64_t offset : {uint64_t{5000}, uint64_t{1} << 40}) {
    auto file = original;
    PutU64(&file, FirstIdPageOffsetPos(file), offset);
    WriteBytes(path, file);
    auto st = fpq::Reader::Open(path).status();
    EXPECT_TRUE(st.IsIOError()) << offset << ": " << st.ToString();
  }
}

TEST(FpqFooterTest, SeededByteFlipsAndTruncationsNeverCrash) {
  // Small row groups of two pages each keep the 2000 scans quick.
  const auto original = FourRowGroupFile(200, 100);
  const size_t footer_start = FooterStart(original);
  const std::string path = "/tmp/fusion_test_footer_fuzz.fpq";
  std::mt19937_64 rng(20261019);
  int64_t accepted = 0;
  int64_t rejected = 0;
  auto check = [&](const std::vector<uint8_t>& file) {
    WriteBytes(path, file);
    Status st = OpenAndScan(path);
    if (st.ok()) {
      ++accepted;
    } else {
      ++rejected;
      EXPECT_FALSE(st.message().empty());
    }
  };
  // Flips anywhere in the footer and trailer.
  for (int trial = 0; trial < 2000; ++trial) {
    auto file = original;
    const int flips = 1 + static_cast<int>(rng() % 4);
    for (int i = 0; i < flips; ++i) {
      const size_t pos = footer_start + rng() % (file.size() - footer_start);
      file[pos] ^= static_cast<uint8_t>(1 + rng() % 255);
    }
    check(file);
  }
  // Truncation at every byte of the footer and trailer.
  for (size_t len = footer_start; len < original.size(); ++len) {
    check(std::vector<uint8_t>(original.begin(), original.begin() + len));
  }
  // Sanity: the sweep saw both outcomes.
  EXPECT_GT(accepted, 0);
  EXPECT_GT(rejected, 0);
}


// ------------------------------------------------- page gather oracle

/// One null in about `every` rows (none when `every` is 0).
BufferPtr RandomValidity(int64_t n, int every, std::mt19937* rng, int64_t* nulls) {
  *nulls = 0;
  if (every == 0) return nullptr;
  auto validity = std::make_shared<Buffer>(bit_util::BytesForBits(n));
  for (int64_t i = 0; i < n; ++i) {
    if ((*rng)() % every != 0) {
      bit_util::SetBit(validity->mutable_data(), i);
    } else {
      ++*nulls;
    }
  }
  return *nulls > 0 ? validity : nullptr;
}

/// A fixed-width column of random values. Null slots keep their
/// values, as arrays from other kernels may.
template <typename T, typename Gen>
ArrayPtr RandomFixedColumn(DataType type, int64_t n, int null_every, std::mt19937* rng,
                           Gen gen) {
  std::vector<T> values(static_cast<size_t>(n));
  for (auto& v : values) v = gen();
  int64_t nulls = 0;
  BufferPtr validity = RandomValidity(n, null_every, rng, &nulls);
  return std::make_shared<NumericArray<T>>(
      type, n, Buffer::CopyOf(values.data(), n * static_cast<int64_t>(sizeof(T))),
      std::move(validity), nulls);
}

/// Every plain type with and without nulls (null slots hold nonzero
/// values, set bits and non-empty strings), a random int64 `r` for
/// predicates and a low-cardinality string `tag` that the writer
/// dictionary-encodes. Strings include empty and multi-KiB values.
RecordBatchPtr MakeGatherBatch(int64_t n, uint32_t seed) {
  std::mt19937 rng(seed);
  std::vector<Field> fields;
  std::vector<ArrayPtr> columns;
  auto add = [&](const std::string& name, ArrayPtr column) {
    fields.emplace_back(name, column->type(), column->null_count() > 0);
    columns.push_back(std::move(column));
  };
  add("r", RandomFixedColumn<int64_t>(int64(), n, 0, &rng,
                                      [&] { return static_cast<int64_t>(rng() % 100); }));
  for (int null_every : {0, 5}) {
    const std::string suffix = null_every == 0 ? "" : "_n";
    add("i32" + suffix, RandomFixedColumn<int32_t>(int32(), n, null_every, &rng, [&] {
          return static_cast<int32_t>(rng());
        }));
    add("i64" + suffix, RandomFixedColumn<int64_t>(int64(), n, null_every, &rng, [&] {
          return static_cast<int64_t>((uint64_t{rng()} << 32) | rng());
        }));
    add("f64" + suffix, RandomFixedColumn<double>(float64(), n, null_every, &rng, [&] {
          const uint32_t pick = rng() % 20;
          if (pick == 0) return std::nan("");
          if (pick == 1) return -0.0;
          return static_cast<double>(static_cast<int32_t>(rng())) / 7.0;
        }));
    add("dec" + suffix,
        RandomFixedColumn<Decimal128>(decimal128(18, 3), n, null_every, &rng, [&] {
          return Decimal128(static_cast<int64_t>(rng() % 2000000000) - 1000000000);
        }));
    add("date" + suffix, RandomFixedColumn<int32_t>(date32(), n, null_every, &rng, [&] {
          return static_cast<int32_t>(rng() % 40000);
        }));
    add("ts" + suffix, RandomFixedColumn<int64_t>(timestamp(), n, null_every, &rng, [&] {
          return static_cast<int64_t>(rng()) * 1000;
        }));
    auto bits = std::make_shared<Buffer>(bit_util::BytesForBits(n));
    for (int64_t i = 0; i < n; ++i) {
      if (rng() % 2 == 0) bit_util::SetBit(bits->mutable_data(), i);
    }
    int64_t nulls = 0;
    auto validity = RandomValidity(n, null_every, &rng, &nulls);
    add("bool" + suffix, std::make_shared<BooleanArray>(n, bits, validity, nulls));
    auto offsets = std::make_shared<Buffer>((n + 1) * 4);
    std::string data;
    offsets->mutable_data_as<int32_t>()[0] = 0;
    for (int64_t i = 0; i < n; ++i) {
      const uint32_t pick = rng() % 50;
      const size_t len = pick < 5 ? 0 : pick == 5 ? 1024 + rng() % 4096 : rng() % 24;
      for (size_t k = 0; k < len; ++k) {
        data.push_back(static_cast<char>('a' + rng() % 26));
      }
      offsets->mutable_data_as<int32_t>()[i + 1] = static_cast<int32_t>(data.size());
    }
    validity = RandomValidity(n, null_every, &rng, &nulls);
    add("str" + suffix,
        std::make_shared<StringArray>(
            n, offsets, Buffer::CopyOf(data.data(), static_cast<int64_t>(data.size())),
            validity, nulls));
    std::vector<std::string> tags(static_cast<size_t>(n));
    for (auto& t : tags) t = "tag" + std::to_string(rng() % 30);
    std::vector<bool> valid(static_cast<size_t>(n), true);
    if (null_every > 0) {
      for (size_t i = 0; i < valid.size(); ++i) valid[i] = rng() % null_every != 0;
    }
    add("tag" + suffix,
        MakeStringArray(tags, null_every > 0 ? valid : std::vector<bool>{}));
  }
  return std::make_shared<RecordBatch>(fusion::schema(std::move(fields)), n,
                                       std::move(columns));
}

/// Expect `got` to hold `expected`'s rows: the same nulls, the same
/// values (doubles by bits, so NaN equals NaN), and every null slot of
/// `got` reads as zero, false or the empty string.
void ExpectSameColumn(const Array& expected, const Array& got, const std::string& what) {
  ASSERT_EQ(expected.length(), got.length()) << what;
  for (int64_t i = 0; i < got.length(); ++i) {
    ASSERT_EQ(expected.IsNull(i), got.IsNull(i)) << what << " row " << i;
    if (got.IsNull(i)) {
      bool empty;
      switch (got.type().id()) {
        case TypeId::kBool:
          empty = !checked_cast<BooleanArray>(got).Value(i);
          break;
        case TypeId::kString:
          empty = checked_cast<StringArray>(got).Value(i).empty();
          break;
        case TypeId::kDictionary:
          empty = checked_cast<DictionaryArray>(got).Code(i) == 0;
          break;
        case TypeId::kDecimal128:
          empty = checked_cast<Decimal128Array>(got).Value(i) == Decimal128(0);
          break;
        case TypeId::kFloat64:
          empty = std::signbit(checked_cast<Float64Array>(got).Value(i)) == 0 &&
                  checked_cast<Float64Array>(got).Value(i) == 0;
          break;
        default:
          empty = got.type().byte_width() == 4
                      ? checked_cast<Int32Array>(got).Value(i) == 0
                      : checked_cast<Int64Array>(got).Value(i) == 0;
      }
      ASSERT_TRUE(empty) << what << " row " << i << " is null but holds a value";
      continue;
    }
    if (got.type().id() == TypeId::kFloat64) {
      const double a = checked_cast<Float64Array>(expected).Value(i);
      const double b = checked_cast<Float64Array>(got).Value(i);
      ASSERT_EQ(std::memcmp(&a, &b, sizeof(a)), 0) << what << " row " << i;
    } else {
      ASSERT_TRUE(ArrayElementsEqual(expected, i, got, i)) << what << " row " << i;
    }
  }
}

TEST(FpqGatherTest, ScansEqualTheWrittenRows) {
  const int64_t n = 3000;
  auto batch = MakeGatherBatch(n, 31);
  std::vector<int> all(static_cast<size_t>(batch->num_columns()));
  std::iota(all.begin(), all.end(), 0);
  using Op = ColumnPredicate::Op;
  std::mt19937 rng(32);
  for (int64_t page_rows : {1, 7, 100, 1024}) {
    fpq::WriteOptions options;
    options.row_group_rows = 1400;
    options.page_rows = page_rows;
    const std::string path = "/tmp/fusion_test_gather.fpq";
    ASSERT_OK(fpq::WriteFile(path, batch->schema(), {batch}, options));
    ASSERT_OK_AND_ASSIGN(auto reader, fpq::Reader::Open(path));
    const auto& tag_chunk = reader->row_group(0).columns[
        static_cast<size_t>(batch->schema()->GetFieldIndex("tag"))];
    ASSERT_EQ(tag_chunk.encoding, fpq::Encoding::kDictionary);
    ASSERT_EQ(reader->row_group(0).columns[static_cast<size_t>(
                  batch->schema()->GetFieldIndex("str_n"))].encoding,
              fpq::Encoding::kPlain);
    int64_t rg_start = 0;
    for (int g = 0; g < reader->num_row_groups(); ++g) {
      const int64_t rg_rows = reader->row_group(g).num_rows;
      for (int trial = 0; trial < 16; ++trial) {
        // Whole row group, single rows, short ranges that may cross a
        // page boundary, and long ones.
        int64_t start = static_cast<int64_t>(rng() % rg_rows);
        int64_t length;
        switch (trial % 4) {
          case 0: start = 0; length = rg_rows; break;
          case 1: length = 1; break;
          case 2: length = 1 + static_cast<int64_t>(rng() % (2 * page_rows + 1)); break;
          default: length = static_cast<int64_t>(rng() % rg_rows);
        }
        const RowSelection::Range range = {start, std::min(rg_rows, start + length)};
        std::vector<ColumnPredicate> preds;
        switch (trial % 5) {
          case 0: break;
          case 1: preds.push_back({"r", Op::kLt, {Scalar::Int64(rng() % 100)}}); break;
          case 2:
            preds.push_back({"r", Op::kGtEq, {Scalar::Int64(90)}});
            preds.push_back({"i32_n", Op::kIsNotNull, {}});
            break;
          case 3: preds.push_back({"str_n", Op::kIsNull, {}}); break;
          default:
            preds.push_back({"tag_n", Op::kNeq, {Scalar::String("tag3")}});
            preds.push_back({"r", Op::kIn, {Scalar::Int64(1), Scalar::Int64(2),
                                           Scalar::Int64(50)}});
        }
        ASSERT_OK_AND_ASSIGN(auto expected,
                             FilterRows(batch->Slice(rg_start + range.start,
                                                     range.end - range.start),
                                        preds));
        ASSERT_OK_AND_ASSIGN(auto got, reader->ScanRowGroup(g, range, all, preds));
        ASSERT_EQ(got->num_rows(), expected->num_rows());
        for (int c = 0; c < got->num_columns(); ++c) {
          ExpectSameColumn(*expected->column(c), *got->column(c),
                           "page_rows " + std::to_string(page_rows) + " rg " +
                               std::to_string(g) + " trial " + std::to_string(trial) +
                               " column " + batch->schema()->field(c).name());
        }
      }
      rg_start += rg_rows;
    }
  }
}

// ----------------------------------------------------------- page fuzz

/// Where each page's `size` field sits in the file, per (row group,
/// column, page), found by walking the footer as the reader parses it.
struct PageSizeField {
  int row_group;
  int column;
  size_t pos;
  uint64_t size;
};

std::vector<PageSizeField> PageSizeFields(const std::vector<uint8_t>& file,
                                          const Schema& schema) {
  const size_t start = FooterStart(file);
  fpq::internal::ByteReader r(file.data() + start, file.size() - 12 - start);
  std::vector<PageSizeField> out;
  const uint32_t num_fields = r.U32().ValueOrDie();
  for (uint32_t f = 0; f < num_fields; ++f) {
    r.Str().ValueOrDie();
    const uint8_t type = r.U8().ValueOrDie();
    r.U8().ValueOrDie();
    if (static_cast<TypeId>(type) == TypeId::kDecimal128) {
      EXPECT_TRUE(r.Skip(2).ok());  // precision, scale
    }
  }
  r.U64().ValueOrDie();
  const uint32_t num_rgs = r.U32().ValueOrDie();
  for (uint32_t g = 0; g < num_rgs; ++g) {
    r.U64().ValueOrDie();
    for (uint32_t c = 0; c < num_fields; ++c) {
      const DataType type = schema.field(static_cast<int>(c)).type();
      EXPECT_TRUE(r.Skip(1 + 8 + 8 + 8).ok());  // encoding, offset, size, dict_size
      fpq::internal::ReadScalar(&r, type).ValueOrDie();
      fpq::internal::ReadScalar(&r, type).ValueOrDie();
      EXPECT_TRUE(r.Skip(8 + 8 + 8 + 8).ok());  // nulls, ndv, bloom offset and size
      const uint32_t pages = r.U32().ValueOrDie();
      for (uint32_t p = 0; p < pages; ++p) {
        EXPECT_TRUE(r.Skip(8 + 8 + 8).ok());  // first_row, num_rows, offset
        const size_t pos = static_cast<size_t>(r.cursor() - file.data());
        out.push_back({static_cast<int>(g), static_cast<int>(c), pos,
                       r.U64().ValueOrDie()});
        fpq::internal::ReadScalar(&r, type).ValueOrDie();
        fpq::internal::ReadScalar(&r, type).ValueOrDie();
        r.U64().ValueOrDie();
      }
    }
  }
  return out;
}

TEST(FpqPageFuzzTest, SeededPageFlipsAndTruncationsEndOkOrIOError) {
  // A plain int64, a plain string, a bool and a dictionary string
  // column, all with nulls, in two row groups of six 50-row pages.
  const int64_t n = 600;
  std::mt19937 gen(40);
  auto full = MakeGatherBatch(n, 41);
  std::vector<ArrayPtr> columns;
  std::vector<Field> fields;
  for (const char* name : {"i64_n", "str_n", "bool_n", "tag_n"}) {
    const int idx = full->schema()->GetFieldIndex(name);
    columns.push_back(full->column(idx));
    fields.push_back(full->schema()->field(idx));
  }
  auto batch = std::make_shared<RecordBatch>(fusion::schema(fields), n, columns);
  fpq::WriteOptions options;
  options.row_group_rows = 300;
  options.page_rows = 50;
  const std::string path = "/tmp/fusion_test_page_fuzz.fpq";
  ASSERT_OK(fpq::WriteFile(path, batch->schema(), {batch}, options));
  const auto original = ReadBytes(path);
  ASSERT_OK_AND_ASSIGN(auto reader, fpq::Reader::Open(path));
  ASSERT_EQ(reader->row_group(0).columns[1].encoding, fpq::Encoding::kPlain);
  ASSERT_EQ(reader->row_group(0).columns[3].encoding, fpq::Encoding::kDictionary);
  const auto size_fields = PageSizeFields(original, *batch->schema());
  ASSERT_EQ(size_fields.size(), 2u * 4u * 6u);
  const std::vector<ColumnPredicate> point = {
      {"tag_n", ColumnPredicate::Op::kEq, {Scalar::String("tag5")}}};
  const std::vector<ColumnPredicate> range = {
      {"i64_n", ColumnPredicate::Op::kGtEq, {Scalar::Int64(0)}}};
  ASSERT_OK(OpenAndScan(path, point, range));

  // Where the first page of column `col` starts, and its values after
  // the flag byte and the validity bits.
  auto first_page = [&](int col, size_t* values_at) {
    const auto& chunk = reader->row_group(0).columns[static_cast<size_t>(col)];
    const size_t begin = chunk.offset + chunk.dict_size + chunk.pages[0].offset;
    const int64_t rows = chunk.pages[0].num_rows;
    *values_at = begin + 1 + (original[begin] != 0 ? bit_util::BytesForBits(rows) : 0);
    return begin;
  };
  {
    // A string page whose last offset points past its bytes.
    auto file = original;
    size_t offsets_at;
    first_page(1, &offsets_at);
    const size_t last_at = offsets_at + 4 * 50;
    uint64_t data_len;
    std::memcpy(&data_len, file.data() + last_at + 4, 8);
    const int32_t past = static_cast<int32_t>(data_len + 1);
    std::memcpy(file.data() + last_at, &past, 4);
    WriteBytes(path, file);
    EXPECT_TRUE(OpenAndScan(path, point, range).IsIOError());
  }
  {
    // A valid row whose dictionary code names no entry.
    auto file = original;
    size_t codes_at;
    const size_t begin = first_page(3, &codes_at);
    int64_t row = 0;
    while (original[begin] != 0 && !bit_util::GetBit(&original[begin + 1], row)) ++row;
    const uint32_t code = 1000000;
    std::memcpy(file.data() + codes_at + 4 * row, &code, 4);
    WriteBytes(path, file);
    EXPECT_TRUE(OpenAndScan(path, point, range).IsIOError());
  }

  std::mt19937_64 rng(20261020);
  int64_t accepted = 0;
  int64_t rejected = 0;
  for (int trial = 0; trial < 1200; ++trial) {
    auto file = original;
    const PageSizeField& field = size_fields[rng() % size_fields.size()];
    const auto& chunk = reader->row_group(field.row_group).columns[
        static_cast<size_t>(field.column)];
    if (trial % 2 == 0) {
      // Flip bytes inside one page, or inside a dictionary block.
      uint64_t begin;
      uint64_t size;
      if (chunk.dict_size > 0 && rng() % 4 == 0) {
        begin = chunk.offset;
        size = chunk.dict_size;
      } else {
        const auto& page = chunk.pages[rng() % chunk.pages.size()];
        begin = chunk.offset + chunk.dict_size + page.offset;
        size = page.size;
      }
      const int flips = 1 + static_cast<int>(rng() % 3);
      for (int i = 0; i < flips; ++i) {
        file[begin + rng() % size] ^= static_cast<uint8_t>(1 + rng() % 255);
      }
    } else {
      // Truncate one page: the footer says it ends early.
      PutU64(&file, field.pos, rng() % field.size);
    }
    WriteBytes(path, file);
    const Status st = OpenAndScan(path, point, range);
    EXPECT_TRUE(st.ok() || st.IsIOError()) << "trial " << trial << ": " << st.ToString();
    if (st.ok()) {
      ++accepted;
    } else {
      ++rejected;
    }
  }
  EXPECT_GT(accepted, 0);
  EXPECT_GT(rejected, 0);
}

}  // namespace
}  // namespace test
}  // namespace fusion
