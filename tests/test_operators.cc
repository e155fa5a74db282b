// Physical operator and runtime tests: spilling under memory pressure,
// Top-K vs full sort, exchange operators, memory pools, disk manager and
// cache manager. Window tests live in test_window.cc.

#include "tests/test_util.h"

#include <cstdlib>
#include <limits>
#include <optional>

#include "exec/cache_manager.h"
#include "exec/disk_manager.h"
#include "exec/memory_pool.h"

namespace fusion {
namespace test {
namespace {

TEST(MemoryPoolTest, GreedyEnforcesLimit) {
  exec::GreedyMemoryPool pool(1000);
  ASSERT_OK(pool.Grow("a", 600));
  EXPECT_RAISES(pool.Grow("b", 600));
  pool.Shrink("a", 600);
  ASSERT_OK(pool.Grow("b", 600));
  EXPECT_EQ(pool.bytes_allocated(), 600);
}

TEST(MemoryPoolTest, FairDividesBudget) {
  exec::FairMemoryPool pool(1000);
  pool.RegisterConsumer("a");
  pool.RegisterConsumer("b");
  // Each consumer gets 500.
  ASSERT_OK(pool.Grow("a", 400));
  EXPECT_RAISES(pool.Grow("a", 200));
  ASSERT_OK(pool.Grow("b", 500));
  pool.Shrink("a", 400);
  ASSERT_OK(pool.Grow("a", 500));
}

TEST(MemoryPoolTest, ReservationRaii) {
  auto pool = std::make_shared<exec::GreedyMemoryPool>(100);
  {
    exec::MemoryReservation res(pool, "x");
    ASSERT_OK(res.ResizeTo(80));
    EXPECT_EQ(pool->bytes_allocated(), 80);
    ASSERT_OK(res.ResizeTo(30));
    EXPECT_EQ(pool->bytes_allocated(), 30);
  }
  EXPECT_EQ(pool->bytes_allocated(), 0);
}

TEST(DiskManagerTest, SpillFileRemovedOnRelease) {
  exec::DiskManager dm("/tmp");
  std::string path;
  {
    auto file = dm.CreateTempFile("test").ValueOrDie();
    path = file->path();
    std::FILE* f = std::fopen(path.c_str(), "wb");
    std::fputs("spill", f);
    std::fclose(f);
    EXPECT_EQ(::access(path.c_str(), F_OK), 0);
  }
  EXPECT_NE(::access(path.c_str(), F_OK), 0);
  EXPECT_EQ(dm.files_created(), 1);
}

TEST(CacheManagerTest, LruEvictionAndHitTracking) {
  exec::CacheManager cache(2);
  cache.PutListing("d1", {"a"});
  cache.PutListing("d2", {"b"});
  EXPECT_TRUE(cache.GetListing("d1").has_value());  // d1 now most recent
  cache.PutListing("d3", {"c"});                    // evicts d2
  EXPECT_FALSE(cache.GetListing("d2").has_value());
  EXPECT_TRUE(cache.GetListing("d1").has_value());
  EXPECT_TRUE(cache.GetListing("d3").has_value());
  EXPECT_GT(cache.hits(), 0);
  EXPECT_GT(cache.misses(), 0);
  catalog::TableStatistics stats;
  stats.num_rows = 42;
  cache.PutFileStats("f", stats);
  EXPECT_EQ(cache.GetFileStats("f")->num_rows, 42);
}

TEST(SortSpillTest, ExternalSortMatchesInMemory) {
  // A tight memory budget forces spilled runs + k-way merge; results
  // must be identical to the unconstrained sort.
  exec::SessionConfig config;
  auto env_small = std::make_shared<exec::RuntimeEnv>();
  env_small->memory_pool = std::make_shared<exec::GreedyMemoryPool>(512 * 1024);
  auto small_ctx = core::SessionContext::Make(config, env_small);
  auto big_ctx = core::SessionContext::Make(config);

  // 50k rows of shuffled data (several MB as strings).
  std::mt19937 rng(11);
  Int64Builder key;
  StringBuilder payload;
  for (int64_t i = 0; i < 50000; ++i) {
    key.Append(static_cast<int64_t>(rng()));
    payload.Append("payload-" + std::to_string(rng() % 100000));
  }
  auto schema = fusion::schema({Field("k", int64(), false),
                                Field("p", utf8(), false)});
  std::vector<ArrayPtr> cols = {key.Finish().ValueOrDie(),
                                payload.Finish().ValueOrDie()};
  auto batch = std::make_shared<RecordBatch>(schema, 50000, std::move(cols));
  auto table =
      catalog::MemoryTable::Make(schema, SliceBatch(batch, 4096)).ValueOrDie();
  small_ctx->RegisterTable("data", table).Abort();
  big_ctx->RegisterTable("data", table).Abort();

  const char* q = "SELECT k, p FROM data ORDER BY k";
  ASSERT_OK_AND_ASSIGN(auto spilled, small_ctx->ExecuteSql(q));
  ASSERT_OK_AND_ASSIGN(auto in_memory, big_ctx->ExecuteSql(q));
  EXPECT_EQ(ToStringRows(spilled), ToStringRows(in_memory));
}

/// Spills recorded anywhere in a metrics tree.
int64_t TotalSpills(const physical::PlanMetricsNode& node) {
  int64_t total = node.spill_count;
  for (const auto& child : node.children) total += TotalSpills(child);
  return total;
}

TEST(AggSpillTest, SpilledAggregationMatchesInMemory) {
  std::mt19937 rng(13);
  Int64Builder key, value;
  for (int64_t i = 0; i < 80000; ++i) {
    key.Append(static_cast<int64_t>(rng() % 40000));  // many groups
    value.Append(static_cast<int64_t>(rng() % 100));
  }
  auto schema = fusion::schema({Field("k", int64(), false),
                                Field("v", int64(), false)});
  std::vector<ArrayPtr> cols = {key.Finish().ValueOrDie(),
                                value.Finish().ValueOrDie()};
  auto batch = std::make_shared<RecordBatch>(schema, 80000, std::move(cols));
  // Small batches: builds check memory every 16 batches.
  auto table =
      catalog::MemoryTable::Make(schema, SliceBatch(batch, 1024)).ValueOrDie();
  // count(DISTINCT v) plans as two ordinary group-bys, so its (k, v)
  // table spills too instead of failing with OutOfMemory. Two DISTINCT
  // arguments and a median keep every value as partial state, and spill
  // that.
  for (const char* q : {"SELECT k, count(*), sum(v), min(v), max(v), avg(v) "
                        "FROM data GROUP BY k",
                        "SELECT k, count(DISTINCT v), count(*) FROM data GROUP BY k",
                        "SELECT k, count(DISTINCT v), count(DISTINCT v % 7), median(v) "
                        "FROM data GROUP BY k"}) {
    // Two partitions merge spilled builds; one partition spills the
    // single build and falls back from finishing it directly to the merge.
    for (int partitions : {2, 1}) {
      exec::SessionConfig config;
      config.target_partitions = partitions;
      auto pool = std::make_shared<exec::GreedyMemoryPool>(256 * 1024);
      auto env_small = std::make_shared<exec::RuntimeEnv>();
      env_small->memory_pool = pool;
      auto small_ctx = core::SessionContext::Make(config, env_small);
      auto big_ctx = core::SessionContext::Make(config);
      small_ctx->RegisterTable("data", table).Abort();
      big_ctx->RegisterTable("data", table).Abort();

      ASSERT_OK_AND_ASSIGN(auto in_memory, big_ctx->ExecuteSql(q));
      {
        // The result holds the plan; the builds' partial state is freed
        // once the merges have read it.
        ASSERT_OK_AND_ASSIGN(auto spilled, small_ctx->ExecuteSqlWithMetrics(q));
        EXPECT_GT(TotalSpills(spilled.metrics), 0) << q << " partitions=" << partitions;
        EXPECT_EQ(SortedStringRows(spilled.batches), SortedStringRows(in_memory))
            << q << " partitions=" << partitions;
        EXPECT_EQ(pool->bytes_allocated(), 0) << q << " partitions=" << partitions;
      }
      EXPECT_EQ(pool->bytes_allocated(), 0) << q << " partitions=" << partitions;
    }
  }
}

TEST(AggSpillTest, SpilledMedianFreedAfterMerge) {
  // One partition, and a build that spills, charges its last rows after
  // the spill and then merges: its state must go once the merge read it.
  std::mt19937 rng(13);
  Int64Builder key, value;
  for (int64_t i = 0; i < 90000; ++i) {
    key.Append(static_cast<int64_t>(rng() % 45000));
    value.Append(static_cast<int64_t>(rng() % 100));
  }
  auto schema = fusion::schema({Field("k", int64(), false),
                                Field("v", int64(), false)});
  auto batch = std::make_shared<RecordBatch>(
      schema, 90000,
      std::vector<ArrayPtr>{key.Finish().ValueOrDie(), value.Finish().ValueOrDie()});
  exec::SessionConfig config;
  config.target_partitions = 1;
  auto pool = std::make_shared<exec::GreedyMemoryPool>(1024 * 1024);
  auto env = std::make_shared<exec::RuntimeEnv>();
  env->memory_pool = pool;
  auto ctx = core::SessionContext::Make(config, env);
  ASSERT_OK(ctx->RegisterTable(
      "data", catalog::MemoryTable::Make(schema, SliceBatch(batch, 1024)).ValueOrDie()));
  ASSERT_OK_AND_ASSIGN(auto result, ctx->ExecuteSqlWithMetrics(
                                        "SELECT k, median(v) FROM data GROUP BY k"));
  EXPECT_GT(TotalSpills(result.metrics), 0);
  EXPECT_GT(TotalRows(result.batches), 35000);
  EXPECT_EQ(pool->bytes_allocated(), 0);
}

TEST(AggSpillTest, BypassedBuildsFreedAfterMerge) {
  // Forced bypass: every build forwards its rows as per-row partial
  // state batches, charged to the build until the merges have read them.
  // The guard restores the variable, which a whole-suite run may set.
  struct ForceBypass {
    std::optional<std::string> saved;
    ForceBypass() {
      if (const char* v = std::getenv("FUSION_AGG_BYPASS")) saved = v;
      ::setenv("FUSION_AGG_BYPASS", "force", 1);
    }
    ~ForceBypass() {
      if (saved) {
        ::setenv("FUSION_AGG_BYPASS", saved->c_str(), 1);
      } else {
        ::unsetenv("FUSION_AGG_BYPASS");
      }
    }
  } force_bypass;
  exec::SessionConfig config;
  config.target_partitions = 4;
  auto pool = std::make_shared<exec::GreedyMemoryPool>(64 * 1024 * 1024);
  auto env = std::make_shared<exec::RuntimeEnv>();
  env->memory_pool = pool;
  auto ctx = MakeTestSession(2000, config, env);
  ASSERT_OK_AND_ASSIGN(auto result,
                       ctx->ExecuteSqlWithMetrics(
                           "SELECT grp, count(*), sum(v), avg(f) FROM t GROUP BY grp"));
  EXPECT_EQ(TotalRows(result.batches), 3);
  EXPECT_EQ(pool->bytes_allocated(), 0);
}

TEST(HashJoinMemoryTest, BuildChargesChainTableAndLinks) {
  // 100,000 build keys: 800,000 B of keys, a chain table of 262,144
  // slots (4 MiB) and 800,000 B of next[] links.
  Int64Builder ids;
  for (int64_t i = 0; i < 100000; ++i) ids.Append(i);
  auto schema = fusion::schema({Field("id", int64(), false)});
  auto batch = std::make_shared<RecordBatch>(
      schema, 100000, std::vector<ArrayPtr>{ids.Finish().ValueOrDie()});
  auto table = catalog::MemoryTable::Make(schema, SliceBatch(batch, 8192)).ValueOrDie();
  const std::string q = "SELECT count(*) FROM a JOIN b ON a.id = b.id";
  // 3 MiB holds the keys but not the table; 16 MiB holds the whole build.
  for (const auto& [limit, fits] :
       {std::pair{int64_t{3} << 20, false}, std::pair{int64_t{16} << 20, true}}) {
    exec::SessionConfig config;
    config.target_partitions = 1;
    auto pool = std::make_shared<exec::GreedyMemoryPool>(limit);
    auto env = std::make_shared<exec::RuntimeEnv>();
    env->memory_pool = pool;
    auto ctx = core::SessionContext::Make(config, env);
    ASSERT_OK(ctx->RegisterTable("a", table));
    ASSERT_OK(ctx->RegisterTable("b", table));
    {
      auto result = ctx->ExecuteSql(q);
      if (fits) {
        ASSERT_TRUE(result.ok()) << result.status().ToString();
        EXPECT_EQ(ToStringRows(*result)[0][0], "100000");
      } else {
        ASSERT_FALSE(result.ok());
        EXPECT_TRUE(result.status().IsOutOfMemory()) << result.status().ToString();
      }
    }
    EXPECT_EQ(pool->bytes_allocated(), 0) << "limit " << limit;
  }
}

TEST(TopKTest, MatchesFullSortProperty) {
  std::mt19937 rng(17);
  for (int trial = 0; trial < 5; ++trial) {
    auto ctx_topk = MakeTestSession(2000);
    exec::SessionConfig no_topk;
    no_topk.enable_topk = false;
    auto ctx_full = MakeTestSession(2000, no_topk);
    int64_t limit = 1 + static_cast<int64_t>(rng() % 50);
    std::string q = "SELECT id, v FROM t ORDER BY v DESC NULLS LAST, id LIMIT " +
                    std::to_string(limit);
    ASSERT_OK_AND_ASSIGN(auto topk, ctx_topk->ExecuteSql(q));
    ASSERT_OK_AND_ASSIGN(auto full, ctx_full->ExecuteSql(q));
    EXPECT_EQ(ToStringRows(topk), ToStringRows(full)) << q;
  }
}

/// A session over table "k" of `n` rows: `id` (the row number), `k1`
/// int64 with many duplicates and nulls, `k2` float64 with duplicates,
/// and `tag` a dictionary string, in batches of `batch_rows`.
core::SessionContextPtr MakeTopKSession(int partitions, bool enable_topk, int64_t n,
                                        int64_t batch_rows) {
  std::mt19937 rng(23);
  Int64Builder id;
  Int64Builder k1;
  Float64Builder k2;
  DictionaryBuilder tag;
  for (int64_t i = 0; i < n; ++i) {
    id.Append(i);
    if (rng() % 9 == 0) {
      k1.AppendNull();
    } else {
      k1.Append(static_cast<int64_t>(rng() % 40));
    }
    k2.Append(static_cast<double>(rng() % 7) / 2.0);
    tag.Append("t" + std::to_string(rng() % 12));
  }
  auto schema = fusion::schema({Field("id", int64(), false), Field("k1", int64(), true),
                                Field("k2", float64(), false),
                                Field("tag", dictionary(), false)});
  auto batch = std::make_shared<RecordBatch>(
      schema, n,
      std::vector<ArrayPtr>{id.Finish().ValueOrDie(), k1.Finish().ValueOrDie(),
                            k2.Finish().ValueOrDie(), tag.Finish().ValueOrDie()});
  exec::SessionConfig config;
  config.target_partitions = partitions;
  config.enable_topk = enable_topk;
  auto ctx = core::SessionContext::Make(config);
  auto table =
      catalog::MemoryTable::Make(schema, SliceBatch(batch, batch_rows)).ValueOrDie();
  ctx->RegisterTable("k", table).Abort();
  return ctx;
}

/// Property: the Top-K heap returns exactly the rows, in exactly the
/// order, of a full sort and limit, ties in input order included.
TEST(TopKTest, HeapMatchesFullSortAndLimit) {
  auto check = [](int64_t n, int64_t batch_rows, const std::vector<std::string>& orders,
                  const std::vector<std::string>& limits) {
    for (int partitions : {1, 4}) {
      auto topk = MakeTopKSession(partitions, true, n, batch_rows);
      auto full = MakeTopKSession(partitions, false, n, batch_rows);
      for (const auto& order : orders) {
        for (const auto& limit : limits) {
          const std::string q =
              "SELECT id, k1, k2, tag FROM k ORDER BY " + order + " " + limit;
          ASSERT_OK_AND_ASSIGN(auto got, topk->ExecuteSql(q));
          ASSERT_OK_AND_ASSIGN(auto want, full->ExecuteSql(q));
          EXPECT_EQ(ToStringRows(got), ToStringRows(want))
              << n << " rows, " << partitions << " partitions: " << q;
        }
      }
    }
  };
  check(4000, 25,
        {"k1", "k1 DESC", "k1 NULLS FIRST", "k1 DESC NULLS LAST", "k1, k2 DESC",
         "k2 DESC, k1 NULLS FIRST", "tag", "tag DESC, k1", "k2"},
        {"LIMIT 0", "LIMIT 1", "LIMIT 7", "LIMIT 10 OFFSET 5", "LIMIT 100",
         "LIMIT 2000", "LIMIT 5000", "LIMIT 3 OFFSET 3990"});
  // Enough batches enter the heap that it is gathered while batches
  // still arrive (after 2 * fetch + 8192 of their rows), at 4
  // partitions too; under `id DESC` every batch enters and evicts the
  // batches before it.
  check(60000, 100, {"id DESC", "k1, k2 DESC", "tag DESC, k1"},
        {"LIMIT 1", "LIMIT 10 OFFSET 5", "LIMIT 2000"});
}

TEST(ExchangeTest, RepartitionPreservesAllRows) {
  exec::SessionConfig config;
  config.target_partitions = 4;
  auto ctx = MakeTestSession(1000, config);
  // The radix merge must hand every group to exactly one partition.
  ASSERT_OK_AND_ASSIGN(
      auto batches,
      ctx->ExecuteSql("SELECT grp, count(*) AS c FROM t GROUP BY grp"));
  int64_t total = 0;
  for (const auto& row : ToStringRows(batches)) {
    total += std::stoll(row[1]);
  }
  EXPECT_EQ(total, 1000);
}

TEST(ExchangeTest, LimitAbandonsExchangeWithoutHanging) {
  // Regression: LIMIT above a partitioned aggregation must terminate
  // even though the exchange producers still hold batches.
  exec::SessionConfig config;
  config.target_partitions = 4;
  auto ctx = MakeTestSession(5000, config);
  ASSERT_OK_AND_ASSIGN(
      auto batches,
      ctx->ExecuteSql("SELECT id, count(*) FROM t GROUP BY id LIMIT 3"));
  EXPECT_EQ(TotalRows(batches), 3);
}


TEST(ExchangeTest, SeriallyConsumedRepartitionDoesNotDeadlock) {
  // Regression: the sort-preserving merge opens the per-partition sorts
  // above a partitioned aggregation one at a time, so each aggregate
  // partition must finish while its siblings are still unconsumed.
  exec::SessionConfig config;
  config.target_partitions = 3;
  auto ctx = MakeTestSession(60000, config);
  ASSERT_OK_AND_ASSIGN(
      auto batches,
      ctx->ExecuteSql("SELECT id, count(*) AS c FROM t GROUP BY id "
                      "ORDER BY c DESC, id LIMIT 5"));
  auto rows = ToStringRows(batches);
  ASSERT_EQ(rows.size(), 5u);
  EXPECT_EQ(rows[0][1], "1");  // ids are unique
}


TEST(AggregateTest, StddevVarCorrMedian) {
  auto ctx = core::SessionContext::Make();
  Float64Builder x, y;
  for (int i = 1; i <= 5; ++i) {
    x.Append(i);
    y.Append(2.0 * i + 1);
  }
  auto schema = fusion::schema({Field("x", float64(), false),
                                Field("y", float64(), false)});
  std::vector<ArrayPtr> cols = {x.Finish().ValueOrDie(), y.Finish().ValueOrDie()};
  auto batch = std::make_shared<RecordBatch>(schema, 5, std::move(cols));
  ctx->RegisterTable("pts", catalog::MemoryTable::Make(schema, {batch})
                                .ValueOrDie())
      .Abort();
  ASSERT_OK_AND_ASSIGN(
      auto batches,
      ctx->ExecuteSql("SELECT stddev(x), var(x), corr(x, y), median(x) FROM pts"));
  auto rows = ToStringRows(batches);
  // x = 1..5: var = 2.5, stddev ~ 1.5811; y = 2x+1 -> corr = 1; median = 3.
  EXPECT_NEAR(std::stod(rows[0][0]), 1.58114, 1e-4);
  EXPECT_NEAR(std::stod(rows[0][1]), 2.5, 1e-9);
  EXPECT_NEAR(std::stod(rows[0][2]), 1.0, 1e-9);
  EXPECT_NEAR(std::stod(rows[0][3]), 3.0, 1e-9);
}

TEST(AggregateTest, NanSortsAboveInfinityInAnyRowOrder) {
  // min, max and median order doubles as ORDER BY does, NaN above +inf:
  // max of a group holding a NaN is NaN, min skips NaN unless every
  // value is NaN, and median sorts NaN last. One multiset in any row
  // order, at 1, 3 and 4 partitions, gives one result.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  std::vector<std::pair<int64_t, double>> rows = {
      {0, 3}, {0, 1}, {0, nan}, {0, 2}, {0, 4},  // with `<`, median read 2
      {1, nan}, {1, nan}, {2, -inf}, {2, nan}, {2, inf}, {2, 0.5}};
  const char* q = "SELECT g, min(x), max(x), median(x) FROM r GROUP BY g";
  std::vector<StringRow> expected = {{"0", "1", "nan", "3"},
                                     {"1", "nan", "nan", "nan"},
                                     {"2", "-inf", "nan", "inf"}};
  std::mt19937 rng(41);
  for (int order = 0; order < 12; ++order) {
    if (order > 0) std::shuffle(rows.begin(), rows.end(), rng);
    Int64Builder g;
    Float64Builder x;
    for (const auto& [group, value] : rows) {
      g.Append(group);
      x.Append(value);
    }
    auto schema =
        fusion::schema({Field("g", int64(), false), Field("x", float64(), false)});
    auto batch = std::make_shared<RecordBatch>(
        schema, static_cast<int64_t>(rows.size()),
        std::vector<ArrayPtr>{g.Finish().ValueOrDie(), x.Finish().ValueOrDie()});
    auto table = catalog::MemoryTable::Make(schema, SliceBatch(batch, 2)).ValueOrDie();
    for (int partitions : {1, 3, 4}) {
      exec::SessionConfig config;
      config.target_partitions = partitions;
      auto ctx = core::SessionContext::Make(config);
      ctx->RegisterTable("r", table).Abort();
      ASSERT_OK_AND_ASSIGN(auto batches, ctx->ExecuteSql(q));
      EXPECT_EQ(SortedStringRows(batches), expected)
          << "order " << order << " partitions=" << partitions;
    }
  }
  // The same through a UNION, with the NaN first and second.
  auto ctx = core::SessionContext::Make();
  for (const char* sql :
       {"SELECT min(x), max(x) FROM (SELECT CAST('NaN' AS DOUBLE) AS x UNION ALL "
        "SELECT 1.0 UNION ALL SELECT 2.0) u",
        "SELECT min(x), max(x) FROM (SELECT 1.0 AS x UNION ALL "
        "SELECT CAST('NaN' AS DOUBLE) UNION ALL SELECT 2.0) u"}) {
    ASSERT_OK_AND_ASSIGN(auto batches, ctx->ExecuteSql(sql));
    EXPECT_EQ(ToStringRows(batches), (std::vector<StringRow>{{"1", "nan"}})) << sql;
  }
}

TEST(AggregateTest, ValueListStatesRoundTripAndRejectShortRows) {
  // count_distinct and median serialize every value of a group into one
  // utf8 row. Merged back, the rows give the same result; a row cut
  // short, as a damaged spill file would give, is an error.
  auto registry = logical::FunctionRegistry::Default();
  for (const char* name : {"count_distinct", "median"}) {
    auto fn = registry->GetAggregate(name).ValueOrDie();
    auto build = fn->create({float64()}).ValueOrDie();
    build->Resize(2);
    ASSERT_OK(build->Update({MakeFloat64Array({1.5, 2.5, 1.5, -0.0})}, {0, 0, 0, 1},
                            nullptr));
    ASSERT_OK_AND_ASSIGN(auto state, build->PartialState());
    ASSERT_OK_AND_ASSIGN(auto expected, build->Finish());
    auto merge = fn->create({float64()}).ValueOrDie();
    merge->Resize(2);
    ASSERT_OK(merge->UpdateFromPartial(state, {0, 1}));
    ASSERT_OK_AND_ASSIGN(auto merged, merge->Finish());
    EXPECT_TRUE(ArraysEqual(*merged, *expected)) << name;

    const std::string row(checked_cast<StringArray>(*state[0]).Value(0));
    auto cut = fn->create({float64()}).ValueOrDie();
    cut->Resize(1);
    EXPECT_FALSE(
        cut->UpdateFromPartial({MakeStringArray({row.substr(0, row.size() - 1)})}, {0})
            .ok())
        << name;
  }
}

TEST(AggregateTest, TwoPhaseMatchesSinglePhaseProperty) {
  // Three partitions build and radix-merge; one partition finishes its
  // single build directly.
  std::mt19937 rng(23);
  for (int trial = 0; trial < 3; ++trial) {
    exec::SessionConfig two_phase;
    two_phase.target_partitions = 3;
    exec::SessionConfig single;
    single.target_partitions = 1;
    int64_t n = 500 + static_cast<int64_t>(rng() % 1000);
    auto ctx2 = MakeTestSession(n, two_phase);
    auto ctx1 = MakeTestSession(n, single);
    const char* q =
        "SELECT grp, count(*), count(v), sum(v), min(f), max(f), avg(v), "
        "stddev(f) FROM t GROUP BY grp";
    ASSERT_OK_AND_ASSIGN(auto a, ctx2->ExecuteSql(q));
    ASSERT_OK_AND_ASSIGN(auto b, ctx1->ExecuteSql(q));
    EXPECT_EQ(SortedStringRows(a), SortedStringRows(b)) << "n=" << n;
  }
}

TEST(HashJoinTest, NullKeysNeverMatch) {
  auto ctx = core::SessionContext::Make();
  auto schema = fusion::schema({Field("k", int64(), true)});
  auto left = std::make_shared<RecordBatch>(
      schema, 3,
      std::vector<ArrayPtr>{MakeInt64Array({1, 2, 3}, {true, false, true})});
  auto right = std::make_shared<RecordBatch>(
      schema, 3,
      std::vector<ArrayPtr>{MakeInt64Array({1, 2, 3}, {true, false, true})});
  ctx->RegisterTable("l", catalog::MemoryTable::Make(schema, {left}).ValueOrDie())
      .Abort();
  ctx->RegisterTable("r", catalog::MemoryTable::Make(schema, {right}).ValueOrDie())
      .Abort();
  ASSERT_OK_AND_ASSIGN(auto inner,
                       ctx->ExecuteSql("SELECT count(*) FROM l JOIN r ON l.k = r.k"));
  EXPECT_EQ(ToStringRows(inner)[0][0], "2");  // nulls don't join
  ASSERT_OK_AND_ASSIGN(
      auto outer, ctx->ExecuteSql("SELECT count(*) FROM l LEFT JOIN r ON l.k = r.k"));
  EXPECT_EQ(ToStringRows(outer)[0][0], "3");  // null row survives as unmatched
}

TEST(HashJoinTest, FullOuterJoin) {
  auto ctx = core::SessionContext::Make();
  auto schema = fusion::schema({Field("k", int64(), false)});
  auto l = std::make_shared<RecordBatch>(
      schema, 3, std::vector<ArrayPtr>{MakeInt64Array({1, 2, 3})});
  auto r = std::make_shared<RecordBatch>(
      schema, 3, std::vector<ArrayPtr>{MakeInt64Array({2, 3, 4})});
  ctx->RegisterTable("l", catalog::MemoryTable::Make(schema, {l}).ValueOrDie())
      .Abort();
  ctx->RegisterTable("r", catalog::MemoryTable::Make(schema, {r}).ValueOrDie())
      .Abort();
  ASSERT_OK_AND_ASSIGN(
      auto batches,
      ctx->ExecuteSql("SELECT l.k, r.k FROM l FULL JOIN r ON l.k = r.k"));
  auto rows = SortedStringRows(batches);
  ASSERT_EQ(rows.size(), 4u);
  EXPECT_EQ(rows[0], (StringRow{"1", "null"}));
  EXPECT_EQ(rows[3], (StringRow{"null", "4"}));
}

TEST(ScalarSubqueryTest, MultiRowSubqueryErrors) {
  auto ctx = MakeTestSession(10);
  auto result =
      ctx->ExecuteSql("SELECT count(*) FROM t WHERE id > (SELECT id FROM t)");
  EXPECT_FALSE(result.ok());
}

TEST(FairPoolTest, QueryFailsCleanlyWhenShareExceeded) {
  exec::SessionConfig config;
  auto env = std::make_shared<exec::RuntimeEnv>();
  // A pool so small the sort cannot even hold one batch and has no
  // room to spill incrementally (single batch > share).
  auto pool = std::make_shared<exec::GreedyMemoryPool>(16);
  env->memory_pool = pool;
  auto ctx = core::SessionContext::Make(config, env);
  StringBuilder s;
  for (int i = 0; i < 10000; ++i) s.Append("some-payload-" + std::to_string(i));
  auto schema = fusion::schema({Field("s", utf8(), false)});
  std::vector<ArrayPtr> cols = {s.Finish().ValueOrDie()};
  auto batch = std::make_shared<RecordBatch>(schema, 10000, std::move(cols));
  ctx->RegisterTable("data", catalog::MemoryTable::Make(schema, {batch})
                                 .ValueOrDie())
      .Abort();
  auto result = ctx->ExecuteSql("SELECT s FROM data ORDER BY s");
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsOutOfMemory()) << result.status().ToString();
}


TEST(AggregatePlanTest, KeyOrderedInputPlansTheHashAggregate) {
  // Key-ordered one-partition input plans the one hash aggregate like
  // any other input. Its output declares no order, so ORDER BY on the
  // group key sorts.
  exec::SessionConfig config;
  config.target_partitions = 1;
  auto ctx = MakeTestSession(100, config);  // t is sorted by id
  auto plan_text = [&](const char* sql) {
    auto plan = ctx->CreateLogicalPlan(sql).ValueOrDie();
    plan = ctx->OptimizePlan(plan).ValueOrDie();
    return ctx->CreatePhysicalPlan(plan).ValueOrDie()->ToString();
  };
  const std::string grouped = plan_text("SELECT id, count(*) FROM t GROUP BY id");
  EXPECT_NE(grouped.find("PartitionedAggregateExec"), std::string::npos) << grouped;
  const std::string ordered =
      plan_text("SELECT id, count(*) FROM t GROUP BY id ORDER BY id");
  EXPECT_NE(ordered.find("SortExec"), std::string::npos) << ordered;
}

TEST(StreamingAggTest, MatchesHashAggregation) {
  // Grouping on the declared sort key and on the same rows through a
  // derived (order-destroying) table agree.
  auto ctx = MakeTestSession(500);
  ASSERT_OK_AND_ASSIGN(
      auto by_id,
      ctx->ExecuteSql("SELECT id, count(*) AS c, sum(v) AS s, min(f) AS m "
                      "FROM t GROUP BY id"));
  ASSERT_OK_AND_ASSIGN(
      auto by_id_hash,
      ctx->ExecuteSql("SELECT id, count(*) AS c, sum(v) AS s, min(f) AS m "
                      "FROM (SELECT * FROM t WHERE id >= 0 OR v > 0) u "
                      "GROUP BY id"));
  EXPECT_EQ(SortedStringRows(by_id), SortedStringRows(by_id_hash));
}

TEST(StreamingAggTest, GroupRunsAcrossBatchBoundaries) {
  // 100 key-ordered rows in batches of 32; ids repeat in runs of 7 so
  // runs straddle batch boundaries.
  exec::SessionConfig config;
  config.target_partitions = 1;
  auto ctx = core::SessionContext::Make(config);
  Int64Builder k;
  Int64Builder v;
  for (int i = 0; i < 100; ++i) {
    k.Append(i / 7);
    v.Append(i);
  }
  auto schema = fusion::schema({Field("k", int64(), false),
                                Field("v", int64(), false)});
  std::vector<ArrayPtr> cols = {k.Finish().ValueOrDie(), v.Finish().ValueOrDie()};
  auto batch = std::make_shared<RecordBatch>(schema, 100, std::move(cols));
  auto table =
      catalog::MemoryTable::Make(schema, SliceBatch(batch, 32)).ValueOrDie();
  table->SetSortOrder({{"k", {}}});
  ctx->RegisterTable("runs", table).Abort();
  ASSERT_OK_AND_ASSIGN(auto batches,
                       ctx->ExecuteSql("SELECT k, count(*), sum(v) FROM runs GROUP BY k"));
  auto rows = SortedStringRows(batches);
  ASSERT_EQ(rows.size(), 15u);  // ceil(100/7)
  // Group 0 = rows 0..6: count 7, sum 21.
  EXPECT_EQ(rows[0], (StringRow{"0", "7", "21"}));
  // Last group 14 = rows 98,99: count 2, sum 197.
  EXPECT_EQ(rows[6], (StringRow{"14", "2", "197"}));
}


TEST(HashJoinTest, KeyOrderedJoinAtOnePartitionChargesPool) {
  // Key-ordered inputs at one partition plan the same hash join as any
  // other join, so its build side is charged to the memory pool: a pool
  // too small for it fails the query cleanly and is left empty.
  exec::SessionConfig config;
  config.target_partitions = 1;
  const char* q = "SELECT count(*) FROM t a JOIN t b ON a.id = b.id";
  auto env = std::make_shared<exec::RuntimeEnv>();
  auto pool = std::make_shared<exec::GreedyMemoryPool>(64 * 1024);
  env->memory_pool = pool;
  auto ctx = MakeTestSession(20000, config, env);  // t is ordered by id
  ASSERT_OK_AND_ASSIGN(auto plan, ctx->CreateLogicalPlan(q));
  ASSERT_OK_AND_ASSIGN(auto optimized, ctx->OptimizePlan(plan));
  ASSERT_OK_AND_ASSIGN(auto exec_plan, ctx->CreatePhysicalPlan(optimized));
  EXPECT_NE(exec_plan->ToString().find("HashJoinExec: Inner"), std::string::npos)
      << exec_plan->ToString();
  auto result = ctx->ExecuteSql(q);
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsOutOfMemory()) << result.status().ToString();
  EXPECT_EQ(pool->bytes_allocated(), 0);

  ASSERT_OK_AND_ASSIGN(auto batches, MakeTestSession(20000, config)->ExecuteSql(q));
  EXPECT_EQ(ToStringRows(batches)[0][0], "20000");
}

TEST(HashJoinTest, ProducesOutputIncrementally) {
  // The probe side streams: a LIMIT stops the join after its first
  // output rows without draining the probe input.
  auto ctx = MakeTestSession(5000);
  ASSERT_OK_AND_ASSIGN(
      auto batches,
      ctx->ExecuteSql("SELECT a.id FROM t a JOIN t b ON a.id = b.id LIMIT 5"));
  EXPECT_EQ(TotalRows(batches), 5);
}

TEST(HashJoinTest, KeyOrderedInputsMatchUnorderedInputs) {
  // The same join over key-ordered scans and over derived tables that
  // carry no order must agree, including outer-join null extension.
  auto ctx = MakeTestSession(40);
  const char* ordered =
      "SELECT a.id, b.v FROM t a LEFT JOIN t b ON a.id = b.id";
  const char* unordered =
      "SELECT a.id, b.v FROM (SELECT * FROM t WHERE id >= 0) a "
      "LEFT JOIN (SELECT * FROM t WHERE id >= 0) b ON a.id = b.id";
  ASSERT_OK_AND_ASSIGN(auto ordered_rows, ctx->ExecuteSql(ordered));
  ASSERT_OK_AND_ASSIGN(auto unordered_rows, ctx->ExecuteSql(unordered));
  EXPECT_EQ(SortedStringRows(ordered_rows), SortedStringRows(unordered_rows));
}

TEST(HashJoinTest, DuplicateKeysPairEveryMatch) {
  // g has runs of duplicates; a self-join on g pairs every row of a run
  // with every row of the same run.
  auto ctx = core::SessionContext::Make();
  StringBuilder g;
  Int64Builder v;
  for (int i = 0; i < 9; ++i) {
    g.Append(std::string(1, static_cast<char>('a' + i / 3)));
    v.Append(i);
  }
  auto schema = fusion::schema({Field("g", utf8(), false),
                                Field("v", int64(), false)});
  std::vector<ArrayPtr> cols = {g.Finish().ValueOrDie(), v.Finish().ValueOrDie()};
  auto batch = std::make_shared<RecordBatch>(schema, 9, std::move(cols));
  auto table = catalog::MemoryTable::Make(schema, {batch}).ValueOrDie();
  table->SetSortOrder({{"g", {}}});
  ctx->RegisterTable("s", table).Abort();
  ASSERT_OK_AND_ASSIGN(
      auto batches,
      ctx->ExecuteSql("SELECT count(*) FROM s a JOIN s b ON a.g = b.g"));
  // 3 groups x 3x3 pairs = 27.
  EXPECT_EQ(ToStringRows(batches)[0][0], "27");
}

TEST(NestedLoopJoinTest, NonEquiJoin) {
  auto ctx = MakeTestSession(10);
  ASSERT_OK_AND_ASSIGN(
      auto plan,
      ctx->CreateLogicalPlan("SELECT count(*) FROM t a JOIN t b ON a.id < b.id"));
  ASSERT_OK_AND_ASSIGN(auto optimized, ctx->OptimizePlan(plan));
  ASSERT_OK_AND_ASSIGN(auto exec_plan, ctx->CreatePhysicalPlan(optimized));
  // No equality in the condition: a keyless hash join.
  EXPECT_NE(exec_plan->ToString().find("HashJoinExec: Inner on=[]"), std::string::npos)
      << exec_plan->ToString();
  ASSERT_OK_AND_ASSIGN(auto batches, ctx->ExecutePhysical(exec_plan));
  // pairs with a.id < b.id among 10 ids: C(10,2) = 45.
  EXPECT_EQ(ToStringRows(batches)[0][0], "45");
}

TEST(SortEliminationTest, RedundantSortRemoved) {
  // Sort elimination relies on the declared table order surviving to
  // the sort node, which partitioning would break.
  exec::SessionConfig config;
  config.target_partitions = 1;
  auto ctx = MakeTestSession(10, config);
  ASSERT_OK_AND_ASSIGN(auto plan,
                       ctx->CreateLogicalPlan("SELECT id FROM t ORDER BY id"));
  ASSERT_OK_AND_ASSIGN(auto optimized, ctx->OptimizePlan(plan));
  ASSERT_OK_AND_ASSIGN(auto exec_plan, ctx->CreatePhysicalPlan(optimized));
  // Input is already sorted by id (declared table order): no SortExec.
  EXPECT_EQ(exec_plan->ToString().find("SortExec"), std::string::npos)
      << exec_plan->ToString();
  ASSERT_OK_AND_ASSIGN(auto batches, ctx->ExecutePhysical(exec_plan));
  auto rows = ToStringRows(batches);
  EXPECT_EQ(rows.front()[0], "0");
  EXPECT_EQ(rows.back()[0], "9");
}

TEST(SortEliminationTest, DescendingStillSorts) {
  auto ctx = MakeTestSession(10);
  ASSERT_OK_AND_ASSIGN(auto plan,
                       ctx->CreateLogicalPlan("SELECT id FROM t ORDER BY id DESC"));
  ASSERT_OK_AND_ASSIGN(auto optimized, ctx->OptimizePlan(plan));
  ASSERT_OK_AND_ASSIGN(auto exec_plan, ctx->CreatePhysicalPlan(optimized));
  EXPECT_NE(exec_plan->ToString().find("SortExec"), std::string::npos);
}

}  // namespace
}  // namespace test
}  // namespace fusion
