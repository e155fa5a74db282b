// Tests for the FPQ columnar file format: round-trips, row-group and
// page structure, zone-map and Bloom pruning, dictionary encoding, the
// late-materialization property that pruning never changes results,
// page-range scans and the FpqTable partitions built from them, and
// footer validation against corrupt files.

#include "tests/test_util.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <numeric>

#include "catalog/file_tables.h"
#include "exec/buffer_cache.h"
#include "format/fpq.h"

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
                                            true, &metrics));
  EXPECT_EQ(out->num_rows(), 100);
  EXPECT_GT(metrics.pages_skipped, 0);
  EXPECT_EQ(metrics.rows_selected, 100);
}

/// Property: scanning with pushdown+late materialization returns exactly
/// the rows a full scan + post-filter returns, for random predicates.
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
    for (bool late : {true, false}) {
      std::vector<RecordBatchPtr> with_pushdown;
      std::vector<RecordBatchPtr> without;
      for (int g = 0; g < reader->num_row_groups(); ++g) {
        ASSERT_OK_AND_ASSIGN(bool may, reader->RowGroupMayMatch(g, preds));
        if (may) {
          ASSERT_OK_AND_ASSIGN(auto scanned,
                               reader->ScanRowGroup(g, AllRows(*reader, g), {0, 1, 2},
                                                    preds, late));
          with_pushdown.push_back(scanned);
        }
        ASSERT_OK_AND_ASSIGN(auto full,
                             reader->ScanRowGroup(g, AllRows(*reader, g), {0, 1, 2},
                                                  preds, /*late=*/false));
        without.push_back(full);
      }
      EXPECT_EQ(SortedStringRows(with_pushdown), SortedStringRows(without))
          << "trial " << trial << " late=" << late;
    }
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
  ASSERT_OK_AND_ASSIGN(auto part,
                       reader->ScanRowGroup(0, range, all, {}, true, &metrics));
  EXPECT_EQ(ToStringRows({part}),
            std::vector<StringRow>(full_rows.begin() + range.start,
                                   full_rows.begin() + range.end));
  EXPECT_EQ(metrics.pages_read, 3 * 4);
  EXPECT_EQ(metrics.pages_skipped, 0);
  EXPECT_EQ(metrics.rows_total, range.end - range.start);

  // Predicates on a plain, a dictionary and a decimal column, with and
  // without late materialization: the range's rows that pass.
  using Op = ColumnPredicate::Op;
  std::vector<ColumnPredicate> preds = {
      {"value", Op::kGt, {Scalar::Float64(300.0)}},
      {"tag", Op::kNeq, {Scalar::String("tag7")}},
      {"amount", Op::kGtEq, {Scalar::Decimal(Decimal128(0), decimal128(12, 2))}}};
  ASSERT_OK_AND_ASSIGN(auto filtered,
                       reader->ScanRowGroup(0, AllRows(*reader, 0), all, preds,
                                            /*late=*/false));
  std::vector<StringRow> expected;
  for (const auto& row : ToStringRows({filtered})) {
    const int64_t id = std::stoll(row[0]);
    if (id >= range.start && id < range.end) expected.push_back(row);
  }
  ASSERT_FALSE(expected.empty());
  for (bool late : {true, false}) {
    fpq::ScanMetrics m;
    ASSERT_OK_AND_ASSIGN(auto got, reader->ScanRowGroup(0, range, all, preds, late, &m));
    EXPECT_EQ(ToStringRows({got}), expected) << "late=" << late;
    // Every column read counts the range's three pages and no others:
    // late materialization reads three predicate columns, then four.
    EXPECT_EQ(m.pages_read + m.pages_skipped, (late ? 7 : 4) * 3) << "late=" << late;
  }
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

/// Open, prune and fully scan every row group, touching every value.
Status OpenAndScan(const std::string& path) {
  FUSION_ASSIGN_OR_RAISE(auto reader, fpq::Reader::Open(path));
  std::vector<int> all(static_cast<size_t>(reader->schema()->num_fields()));
  std::iota(all.begin(), all.end(), 0);
  const std::vector<ColumnPredicate> point = {
      {"tag", ColumnPredicate::Op::kEq, {Scalar::String("tag5")}}};
  const std::vector<ColumnPredicate> range = {
      {"id", ColumnPredicate::Op::kGtEq, {Scalar::Int64(500)}}};
  for (int g = 0; g < reader->num_row_groups(); ++g) {
    FUSION_ASSIGN_OR_RAISE(bool may_match, reader->RowGroupMayMatch(g, point));
    (void)may_match;
    const int64_t rows = reader->row_group(g).num_rows;
    for (const auto* preds : {&point, &range}) {
      for (bool late : {true, false}) {
        FUSION_ASSIGN_OR_RAISE(auto batch,
                               reader->ScanRowGroup(g, {0, rows}, all, *preds, late));
        (void)ToStringRows({batch});
      }
    }
    FUSION_ASSIGN_OR_RAISE(auto batch, reader->ScanRowGroup(g, {0, rows}, all, {}));
    (void)ToStringRows({batch});
  }
  return Status::OK();
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

}  // namespace
}  // namespace test
}  // namespace fusion
