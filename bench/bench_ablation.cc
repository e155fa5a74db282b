// Ablation microbenchmarks for the design choices DESIGN.md calls out:
// normalized-key sorting (§6.6), scan predicate pushdown and late
// materialization (§6.8), Top-K sorts (§6.2), LIKE specialization, and
// the vectorized CSV reader. Built on google-benchmark.

#include <benchmark/benchmark.h>

#include "arrow/builder.h"
#include "baseline/tie_engine.h"
#include "bench/workloads/workload_util.h"
#include "catalog/file_tables.h"
#include "compute/string_kernels.h"
#include "core/session_context.h"
#include "format/csv.h"
#include "format/fpq.h"
#include "row/row_format.h"

namespace fusion {
namespace bench {
namespace {

// ---------------------------------------------------------------- data

std::vector<ArrayPtr> MakeSortColumns(int64_t n) {
  Rng rng(7);
  Int64Builder a;
  StringBuilder b;
  Float64Builder c;
  for (int64_t i = 0; i < n; ++i) {
    a.Append(rng.Uniform(0, 1000));
    b.Append("key" + std::to_string(rng.Uniform(0, 5000)));
    c.Append(rng.UniformDouble(-1000, 1000));
  }
  return {a.Finish().ValueOrDie(), b.Finish().ValueOrDie(),
          c.Finish().ValueOrDie()};
}

std::string AblationFpqPath() {
  static std::string path = [] {
    std::string p = BenchDataDir() + "/ablation.fpq";
    if (!FileExists(p)) {
      Rng rng(3);
      Int64Builder id, value;
      StringBuilder tag;
      const int64_t n = 512 * 1024;
      for (int64_t i = 0; i < n; ++i) {
        id.Append(i);
        value.Append(rng.Uniform(0, 1000000));
        tag.Append("tag" + std::to_string(rng.Uniform(0, 100)));
      }
      auto schema = fusion::schema({Field("id", int64(), false),
                                    Field("value", int64(), false),
                                    Field("tag", utf8(), false)});
      std::vector<ArrayPtr> cols = {id.Finish().ValueOrDie(),
                                    value.Finish().ValueOrDie(),
                                    tag.Finish().ValueOrDie()};
      auto batch = std::make_shared<RecordBatch>(schema, n, std::move(cols));
      format::fpq::WriteFile(p, schema, SliceBatch(batch, 64 * 1024), {}).Abort();
    }
    return p;
  }();
  return path;
}

// -------------------------------------------------- §6.6 normalized keys

void BM_SortNormalizedKeys(benchmark::State& state) {
  auto columns = MakeSortColumns(state.range(0));
  std::vector<row::SortOptions> options(3);
  for (auto _ : state) {
    auto indices = row::SortIndices(columns, options);
    benchmark::DoNotOptimize(indices);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_SortNormalizedKeys)->Arg(100000);

void BM_SortDirectComparator(benchmark::State& state) {
  auto columns = MakeSortColumns(state.range(0));
  std::vector<row::SortOptions> options(3);
  for (auto _ : state) {
    std::vector<int64_t> indices(static_cast<size_t>(state.range(0)));
    for (size_t i = 0; i < indices.size(); ++i) indices[i] = static_cast<int64_t>(i);
    std::stable_sort(indices.begin(), indices.end(), [&](int64_t a, int64_t b) {
      return row::CompareRows(columns, a, columns, b, options) < 0;
    });
    benchmark::DoNotOptimize(indices);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_SortDirectComparator)->Arg(100000);

// ------------------------------------------ §6.8 pushdown & late matzn.

void RunSelectiveScan(bool pushdown, bool late_materialization,
                      benchmark::State& state) {
  auto table = catalog::FpqTable::Open({AblationFpqPath()}).ValueOrDie();
  table->SetPushdownEnabled(pushdown);
  table->SetLateMaterialization(late_materialization);
  auto ctx = core::SessionContext::Make();
  ctx->RegisterTable("abl", table).Abort();
  for (auto _ : state) {
    auto result =
        ctx->ExecuteSql("SELECT id, tag FROM abl WHERE value < 1000");
    if (!result.ok()) state.SkipWithError(result.status().ToString().c_str());
    benchmark::DoNotOptimize(result);
  }
}

void BM_ScanWithPushdown(benchmark::State& state) {
  RunSelectiveScan(true, true, state);
}
BENCHMARK(BM_ScanWithPushdown);

void BM_ScanNoLateMaterialization(benchmark::State& state) {
  RunSelectiveScan(true, false, state);
}
BENCHMARK(BM_ScanNoLateMaterialization);

void BM_ScanNoPushdown(benchmark::State& state) {
  RunSelectiveScan(false, true, state);
}
BENCHMARK(BM_ScanNoPushdown);

// --------------------------------------------------------- §6.2 Top-K

void RunTopK(bool enable_topk, benchmark::State& state) {
  exec::SessionConfig config;
  config.enable_topk = enable_topk;
  auto ctx = core::SessionContext::Make(config);
  auto table = catalog::FpqTable::Open({AblationFpqPath()}).ValueOrDie();
  ctx->RegisterTable("abl", table).Abort();
  for (auto _ : state) {
    auto result =
        ctx->ExecuteSql("SELECT id, value FROM abl ORDER BY value LIMIT 10");
    if (!result.ok()) state.SkipWithError(result.status().ToString().c_str());
    benchmark::DoNotOptimize(result);
  }
}

void BM_TopKSort(benchmark::State& state) { RunTopK(true, state); }
BENCHMARK(BM_TopKSort);

void BM_FullSortWithLimit(benchmark::State& state) { RunTopK(false, state); }
BENCHMARK(BM_FullSortWithLimit);

// -------------------------------------------------- LIKE specialization

void BM_LikeSpecializedContains(benchmark::State& state) {
  StringBuilder b;
  Rng rng(5);
  for (int64_t i = 0; i < 100000; ++i) {
    b.Append("the quick brown fox " + std::to_string(rng.Next() % 1000));
  }
  auto arr = b.Finish().ValueOrDie();
  compute::LikeMatcher matcher("%brown%");
  for (auto _ : state) {
    auto out = compute::Like(*arr, matcher);
    benchmark::DoNotOptimize(out);
  }
  state.SetItemsProcessed(state.iterations() * 100000);
}
BENCHMARK(BM_LikeSpecializedContains);

void BM_LikeGenericPattern(benchmark::State& state) {
  StringBuilder b;
  Rng rng(5);
  for (int64_t i = 0; i < 100000; ++i) {
    b.Append("the quick brown fox " + std::to_string(rng.Next() % 1000));
  }
  auto arr = b.Finish().ValueOrDie();
  compute::LikeMatcher matcher("%q_ick%f_x%");  // forces the backtracker
  for (auto _ : state) {
    auto out = compute::Like(*arr, matcher);
    benchmark::DoNotOptimize(out);
  }
  state.SetItemsProcessed(state.iterations() * 100000);
}
BENCHMARK(BM_LikeGenericPattern);

// ----------------------------------------------------- CSV reader paths

std::string AblationCsvPath() {
  static std::string path = [] {
    std::string p = BenchDataDir() + "/ablation.csv";
    if (!FileExists(p)) {
      std::FILE* f = std::fopen(p.c_str(), "wb");
      std::fputs("a,b,c\n", f);
      Rng rng(9);
      for (int64_t i = 0; i < 200000; ++i) {
        std::fprintf(f, "%lld,%f,word%lld\n",
                     static_cast<long long>(rng.Uniform(0, 100000)),
                     rng.UniformDouble(0, 1),
                     static_cast<long long>(rng.Uniform(0, 50)));
      }
      std::fclose(f);
    }
    return p;
  }();
  return path;
}

void BM_CsvVectorizedReader(benchmark::State& state) {
  std::string path = AblationCsvPath();
  for (auto _ : state) {
    auto batches = format::csv::ReadFile(path);
    if (!batches.ok()) state.SkipWithError("csv read failed");
    benchmark::DoNotOptimize(batches);
  }
}
BENCHMARK(BM_CsvVectorizedReader);

void BM_CsvLineByLineReader(benchmark::State& state) {
  std::string path = AblationCsvPath();
  auto schema = format::csv::InferSchema(path, {}).ValueOrDie();
  baseline::TieEngine engine;
  for (auto _ : state) {
    auto batches = engine.ScanCsvFile(path, schema);
    if (!batches.ok()) state.SkipWithError("csv read failed");
    benchmark::DoNotOptimize(batches);
  }
}
BENCHMARK(BM_CsvLineByLineReader);

}  // namespace
}  // namespace bench
}  // namespace fusion

BENCHMARK_MAIN();
