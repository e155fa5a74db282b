// The analytic workloads: `clickbench` (the Table 1 hits data and its 42
// runnable queries) and `tpch` (all 22 queries over DECIMAL(15,2) money).
// One closed-loop client runs rounds; each round runs every query once
// in a fixed order, so no query repeats back to back and a repeat never
// reads the previous run's batches straight out of the buffer cache.
// Metrics come from each query's median across rounds. In untraced runs
// the host probe runs just before every query and each latency is
// scaled by it (perfbench.h, HostProbe).

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <memory>
#include <sstream>
#include <unordered_map>

#include "arrow/ipc.h"
#include "bench/workloads/clickbench.h"
#include "bench/workloads/tpch.h"
#include "catalog/file_tables.h"
#include "perfbench/perfbench.h"

namespace fusion {
namespace perfbench {

namespace {

// Set-up is repeated and its median reported, so one slow first pass
// (page cache, allocator warm-up) does not decide setup_s.
constexpr int kSetupReps = 3;
constexpr int kMinRounds = 3;
// A quarter of the 1M-row hits data whose decoded working set (~600 MB)
// exceeds the default 256 MiB buffer cache, with a quarter of that
// budget: the same cache regime (working set ~2.3x the budget, so LRU
// mostly misses and decode runs every round) at a scale where a run
// holds several rounds (README.md records the measured sizes).
constexpr int64_t kHitsRows = 250'000;
constexpr int kHitsFiles = 20;
constexpr int64_t kHitsCacheBytes = 64LL << 20;
constexpr double kTpchScale = 0.05;

struct Query {
  std::string id;
  std::string sql;
};

/// Rows a query whose LIMIT cuts through ties may return, as row hashes
/// with their multiplicity: it must return every `required` row and take
/// the rest of its rows from `optional`.
struct Candidates {
  std::unordered_map<uint64_t, int64_t> required, optional;
  int64_t required_rows = 0;

  bool Admits(const std::vector<RecordBatchPtr>& batches) const {
    std::unordered_map<uint64_t, int64_t> got;
    for (uint64_t h : RowHashes(batches)) ++got[h];
    int64_t required_seen = 0;
    for (const auto& [h, n] : got) {
      auto r = required.find(h);
      const int64_t from_required = r == required.end() ? 0 : std::min(n, r->second);
      auto o = optional.find(h);
      if (n - from_required > (o == optional.end() ? 0 : o->second)) return false;
      required_seen += from_required;
    }
    return required_seen == required_rows;
  }
};

struct Expected {
  bool present = false;
  Digest digest;
  /// Columns hashed: empty = all, or only the sort keys where a LIMIT
  /// cuts through ties on them. "candidates" in the file: the rows are
  /// checked against `candidates` (see TieCheck).
  std::vector<int> columns;
  std::string columns_text = "*";
  std::shared_ptr<const Candidates> candidates;
};

/// ClickBench queries whose LIMIT cuts through ties on a key they do not
/// return (Q25, Q38 and Q39 order by EventTime) or through groups taken
/// in no order (Q18), so which rows they return legitimately varies.
/// Each is checked against the candidates a tie-free query returns: the
/// same filter ordered by the key, with the key last and a LIMIT past
/// the last tie at the cut-off; or the whole GROUP BY. A result is right
/// when it has the expected row count, holds every candidate whose key
/// is below the cut-off key, and takes its other rows from the
/// candidates at the cut-off key (from all candidates, for Q18). The
/// candidates' own digest is committed under "<id>/candidates".
struct TieCheck {
  const char* id;
  const char* candidates_sql;
  bool keyed;  // the last column is the sort key
};
constexpr int64_t kCandidateLimit = 1000;
const TieCheck kTieChecks[] = {
    {"Q18", "SELECT UserID, SearchPhrase, count(*) FROM hits GROUP BY UserID, SearchPhrase",
     false},
    {"Q25",
     "SELECT SearchPhrase, EventTime FROM hits WHERE SearchPhrase <> '' "
     "ORDER BY EventTime LIMIT 1000",
     true},
    {"Q38",
     "SELECT URL, EventTime FROM hits WHERE IsRefresh = 0 AND URL LIKE '%google%' "
     "ORDER BY EventTime LIMIT 1000",
     true},
    {"Q39",
     "SELECT SearchPhrase, EventTime FROM hits WHERE SearchPhrase LIKE '%news%' AND "
     "IsRefresh = 0 ORDER BY EventTime LIMIT 1000",
     true},
};

/// The candidates of a query that returns `limit` rows, from the result
/// of its tie-free query; also returns their digest (all columns).
Result<std::shared_ptr<const Candidates>> MakeCandidates(
    const std::vector<RecordBatchPtr>& batches, bool keyed, int64_t limit, Digest* digest) {
  auto c = std::make_shared<Candidates>();
  std::vector<int> value_columns;
  std::vector<std::string> keys;
  for (const auto& batch : batches) {
    if (batch == nullptr || batch->num_rows() == 0) continue;
    if (value_columns.empty()) {
      for (int col = 0; col < batch->num_columns() - (keyed ? 1 : 0); ++col) {
        value_columns.push_back(col);
      }
    }
    if (keyed) {
      const auto& key = batch->column(batch->num_columns() - 1);
      for (int64_t i = 0; i < batch->num_rows(); ++i) keys.push_back(key->ValueToString(i));
    }
  }
  const std::vector<uint64_t> values = RowHashes(batches, value_columns);
  const std::vector<uint64_t> whole = RowHashes(batches);
  auto rows = static_cast<int64_t>(values.size());
  if (keyed) {
    if (rows < limit) return Status::Invalid("fewer candidates than the query's rows");
    const std::string& cutoff = keys[limit - 1];
    if (rows == kCandidateLimit && keys.back() == cutoff) {
      return Status::Invalid("candidate LIMIT ends inside the ties at the cut-off");
    }
    while (rows > 0 && keys[rows - 1] != cutoff) --rows;  // keys past the cut-off
  }
  *digest = Digest{};
  for (int64_t i = 0; i < rows; ++i) {
    const bool required = keyed && keys[i] != keys[rows - 1];
    ++(required ? c->required : c->optional)[values[i]];
    if (required) ++c->required_rows;
    digest->nearest += whole[i];
  }
  digest->rows = rows;
  digest->truncated = digest->nearest;  // no float columns
  return std::shared_ptr<const Candidates>(c);
}

std::vector<Query> Queries(const std::string& workload) {
  std::vector<Query> out;
  if (workload == "clickbench") {
    for (const auto& q : bench::ClickBenchQueries()) {
      if (q.skipped == nullptr) out.push_back({"Q" + std::to_string(q.number), q.sql});
    }
  } else {
    for (const auto& q : bench::TpchQueries()) {
      out.push_back({"Q" + std::to_string(q.number), q.sql});
    }
  }
  return out;
}

/// expected/<workload>.txt: one line per query or candidate set,
/// "<id> <rows> <digest nearest> <digest truncated> <columns>".
std::vector<Expected> LoadExpected(const std::string& path,
                                   const std::vector<std::string>& ids) {
  std::vector<Expected> out(ids.size());
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    std::istringstream fields(line);
    std::string id, nearest, truncated, columns;
    long long rows = 0;
    if (!(fields >> id >> rows >> nearest >> truncated >> columns)) continue;
    for (size_t q = 0; q < ids.size(); ++q) {
      if (ids[q] != id) continue;
      Expected& e = out[q];
      e.present = true;
      e.digest.rows = rows;
      e.digest.nearest = std::stoull(nearest, nullptr, 16);
      e.digest.truncated = std::stoull(truncated, nullptr, 16);
      e.columns_text = columns;
      if (columns != "*" && columns != "candidates") {
        std::istringstream list(columns);
        std::string c;
        while (std::getline(list, c, ',')) e.columns.push_back(std::stoi(c));
      }
    }
  }
  return out;
}

struct Dataset {
  core::SessionContextPtr ctx;
  std::vector<std::string> files;
  std::string description;
};

Result<Dataset> Generate(const Options& options, const std::string& dir) {
  FUSION_RETURN_NOT_OK(FreshDir(dir));
  // The default RuntimeEnv shares the process-wide buffer cache; empty it
  // so every set-up starts from the same state.
  if (const auto& cache = exec::BufferCache::Default()) cache->Clear();
  auto env = std::make_shared<exec::RuntimeEnv>();
  if (options.workload == "clickbench") {
    env->buffer_cache = std::make_shared<exec::BufferCache>(kHitsCacheBytes);
  }
  exec::SessionConfig config;
  config.target_partitions = options.partitions;
  Dataset d;
  d.ctx = core::SessionContext::Make(config, env);
  if (options.workload == "clickbench") {
    bench::ClickBenchSpec spec;
    spec.rows = kHitsRows;
    spec.num_files = kHitsFiles;
    spec.dir = dir;
    FUSION_ASSIGN_OR_RAISE(d.files, bench::GenerateClickBench(spec));
    FUSION_ASSIGN_OR_RAISE(auto table, catalog::FpqTable::Open(d.files));
    FUSION_RETURN_NOT_OK(d.ctx->RegisterTable("hits", table));
    d.description = "hits: " + std::to_string(kHitsRows) + " rows in " +
                    std::to_string(kHitsFiles) + " FPQ files";
  } else {
    bench::TpchSpec spec;
    spec.scale_factor = kTpchScale;
    spec.dir = dir;
    spec.decimal_money = true;
    FUSION_ASSIGN_OR_RAISE(auto tables, bench::GenerateTpch(spec));
    for (const auto& [name, path] : tables) {
      FUSION_RETURN_NOT_OK(d.ctx->RegisterFpq(name, path));
      d.files.push_back(path);
    }
    char buf[96];
    std::snprintf(buf, sizeof(buf), "TPC-H SF %g, DECIMAL(15,2) money, %zu FPQ files",
                  kTpchScale, d.files.size());
    d.description = buf;
  }
  return d;
}

struct Checker {
  std::vector<Expected>* expected;
  bool recording;
  RunResult* out;

  void Check(size_t q, const Result<std::vector<RecordBatchPtr>>& result,
             const std::string& id) {
    if (!result.ok()) {
      out->Check(false);
      out->correct = false;
      std::fprintf(stderr, "%s failed: %s\n", id.c_str(),
                   result.status().ToString().c_str());
      return;
    }
    Expected& e = (*expected)[q];
    if (e.candidates != nullptr) {
      const int64_t rows = DigestBatches(*result, {-1}).rows;
      if (recording && !e.present) {
        e.present = true;
        e.digest = Digest{rows, 0, 0};
      }
      const bool ok = e.present && rows == e.digest.rows && e.candidates->Admits(*result);
      out->Check(ok);
      if (!ok) {
        out->correct = false;
        std::fprintf(stderr, "%s wrong result: %lld rows not admitted by its candidates\n",
                     id.c_str(), static_cast<long long>(rows));
      }
      return;
    }
    Digest got = DigestBatches(*result, e.columns);
    if (recording && !e.present) {
      e.present = true;
      e.digest = got;
    }
    const bool ok = e.present && Matches(got, e.digest);
    out->Check(ok);
    if (!ok) {
      out->correct = false;
      std::fprintf(stderr, "%s wrong result: got %s, expected %s\n", id.c_str(),
                   DigestToString(got).c_str(),
                   e.present ? DigestToString(e.digest).c_str() : "(none)");
    }
  }
};

struct CounterSnapshot {
  exec::BufferCache::Stats buffer;
  int64_t plan_hits = 0, plan_misses = 0, plan_invalidations = 0;
  int64_t admission_queued = 0;

  static CounterSnapshot Take(core::SessionContext* ctx) {
    CounterSnapshot s;
    if (const auto& cache = ctx->env()->buffer_cache) s.buffer = cache->stats();
    const auto& plan = ctx->env()->plan_cache_stats;
    s.plan_hits = plan->hits.load();
    s.plan_misses = plan->misses.load();
    s.plan_invalidations = plan->invalidations.load();
    s.admission_queued = ctx->env()->scheduler()->admission_queued_total();
    return s;
  }
};

}  // namespace

RunResult RunAnalytic(const Options& options, Tracer* tracer) {
  RunResult out;
  const std::vector<Query> queries = Queries(options.workload);
  // Tie checks (clickbench only) and the query each one serves.
  std::vector<std::pair<TieCheck, size_t>> ties;
  if (options.workload == "clickbench") {
    for (const TieCheck& tie : kTieChecks) {
      for (size_t q = 0; q < queries.size(); ++q) {
        if (queries[q].id == tie.id) ties.emplace_back(tie, q);
      }
    }
  }
  // Expected results: the queries', then each tie check's candidates.
  std::vector<std::string> ids;
  for (const Query& q : queries) ids.push_back(q.id);
  for (const auto& [tie, q] : ties) ids.push_back(std::string(tie.id) + "/candidates");
  const std::string expected_path =
      options.expected_dir + "/" + options.workload + ".txt";
  std::vector<Expected> expected = LoadExpected(expected_path, ids);
  if (options.record_path.empty()) {
    for (size_t i = 0; i < ids.size(); ++i) {
      if (!expected[i].present) {
        std::fprintf(stderr, "no expected result for %s in %s\n", ids[i].c_str(),
                     expected_path.c_str());
        out.correct = false;
        return out;
      }
    }
  } else {
    for (auto& e : expected) e.present = false;  // re-record under the same masks
  }
  Checker checker{&expected, !options.record_path.empty(), &out};
  // Untraced runs scale every timing by the host probe (perfbench.h).
  std::unique_ptr<HostProbe> probe;
  if (!options.trace) probe = std::make_unique<HostProbe>();

  // The seed rotates the fixed round order. Set-up runs the same order,
  // so the buffer cache enters the timed phase in the state a round
  // leaves it in.
  std::vector<size_t> order(queries.size());
  for (size_t i = 0; i < order.size(); ++i) {
    order[i] = (i + options.seed) % queries.size();
  }

  // ---- set-up: generate into a fresh directory, open, build the tie
  // checks' candidates, one checked pass. Traced runs report no
  // end-to-end metrics, so they set up once. Untraced runs probe the
  // host before generating and before each checked query, leave the
  // probes' time out, and scale the set-up by their median.
  std::vector<double> setup_s;
  std::string setup_note = "set-up s, unscaled (generate + verify):";
  Dataset data;
  for (int rep = 0; rep < (options.trace ? 1 : kSetupReps); ++rep) {
    data = Dataset{};
    std::vector<double> probes;
    int64_t probing_ns = 0;
    auto run_probe = [&] {
      if (probe == nullptr) return;
      const int64_t t0 = NowNs();
      probes.push_back(probe->RunMs());
      probing_ns += NowNs() - t0;
    };
    const int64_t start = NowNs();
    run_probe();
    auto made = Generate(options, options.work_dir + "/data");
    if (!made.ok()) {
      std::fprintf(stderr, "set-up failed: %s\n", made.status().ToString().c_str());
      out.correct = false;
      return out;
    }
    data = std::move(*made);
    const int64_t generated = NowNs();
    for (size_t t = 0; t < ties.size(); ++t) {
      const auto& [tie, q] = ties[t];
      Expected& e = expected[queries.size() + t];
      Digest got;
      auto result = data.ctx->ExecuteSql(tie.candidates_sql);
      auto made_candidates =
          result.ok() ? MakeCandidates(*result, tie.keyed, expected[q].digest.rows, &got)
                      : Result<std::shared_ptr<const Candidates>>(result.status());
      if (!made_candidates.ok()) {
        std::fprintf(stderr, "%s candidates failed: %s\n", tie.id,
                     made_candidates.status().ToString().c_str());
        out.correct = false;
        return out;
      }
      if (checker.recording && !e.present) {
        e.present = true;
        e.digest = got;
      }
      const bool ok = Matches(got, e.digest);
      out.Check(ok);
      if (!ok) {
        out.correct = false;
        std::fprintf(stderr, "%s candidates wrong: got %s, expected %s\n", tie.id,
                     DigestToString(got).c_str(), DigestToString(e.digest).c_str());
      }
      expected[q].candidates = *made_candidates;
    }
    for (size_t q : order) {
      run_probe();
      checker.Check(q, data.ctx->ExecuteSql(queries[q].sql), queries[q].id);
    }
    const double raw_s = static_cast<double>(NowNs() - start - probing_ns) / 1e9;
    setup_s.push_back(probe != nullptr ? Scaled(raw_s, Median(probes)) : raw_s);
    const double generate_s = static_cast<double>(generated - start) / 1e9;
    char part[64];
    std::snprintf(part, sizeof(part), " %.3f (%.3f + %.3f)", raw_s, generate_s,
                  raw_s - generate_s);
    setup_note += part;
  }
  out.Note(setup_note);
  out.Note(data.description + ", " + std::to_string(FileBytes(data.files)) +
           " FPQ bytes; buffer-cache budget " +
           std::to_string(data.ctx->env()->buffer_cache
                              ? data.ctx->env()->buffer_cache->capacity_bytes()
                              : 0) +
           " bytes");

  if (!options.record_path.empty()) {
    std::ofstream rec(options.record_path);
    for (size_t i = 0; i < ids.size(); ++i) {
      rec << ids[i] << ' ' << DigestToString(expected[i].digest) << ' '
          << expected[i].columns_text << '\n';
    }
  }

  // ---- timed phase.
  ResetPeakRss();
  const CounterSnapshot before = CounterSnapshot::Take(data.ctx.get());
  KindSamples plain(queries.size());   // untraced executions
  KindSamples traced(queries.size());  // ExecuteTraced executions
  double run_wall_s = 0, run_cpu_s = 0, executed_s = 0;
  int64_t executions = 0;
  const int64_t phase_start = NowNs();
  int rounds = 0;
  int traced_rounds = 0;
  for (;;) {
    const double elapsed = static_cast<double>(NowNs() - phase_start) / 1e9;
    if (rounds >= kMinRounds * (options.trace ? 2 : 1) && elapsed >= options.seconds) {
      break;
    }
    // Traced runs alternate traced and untraced rounds; the untraced ones
    // give the tracing overhead.
    const bool traced_round = options.trace && rounds % 2 == 0;
    const int64_t round_start = NowNs();
    for (size_t q : order) {
      if (traced_round) {
        TracedExecution t = ExecuteTraced(data.ctx.get(), queries[q].sql, tracer);
        if (t.status.ok()) {
          traced.Add("sql.bind_ms", q, t.bind_ms);
          traced.Add("optimizer.optimize_ms", q, t.optimize_ms);
          traced.Add("physical.plan_ms", q, t.plan_ms);
          traced.Add("exec.run_ms", q, t.run_ms);
          traced.Add("query_ms", q, t.query_ms);
          t.ops.Record(&traced, q);
          run_wall_s += t.run_ms / 1e3;
          run_cpu_s += t.run_cpu_s;
          // What shipping this result over the wire would cost in IPC.
          int64_t start = NowNs();
          std::vector<std::vector<uint8_t>> blobs;
          for (const auto& b : t.batches) blobs.push_back(ipc::SerializeBatch(*b));
          traced.Add("arrow.ipc_encode_ms", q,
                     static_cast<double>(NowNs() - start) / 1e6);
          start = NowNs();
          for (const auto& blob : blobs) {
            auto decoded = ipc::DeserializeBatch(blob.data(), blob.size());
            if (!decoded.ok()) out.correct = false;
          }
          traced.Add("arrow.ipc_decode_ms", q,
                     static_cast<double>(NowNs() - start) / 1e6);
          checker.Check(q, std::move(t.batches), queries[q].id);
        } else {
          checker.Check(q, t.status, queries[q].id);
        }
      } else {
        const double probe_ms = probe != nullptr ? probe->RunMs() : 0;
        const int64_t start = NowNs();
        auto result = data.ctx->ExecuteSql(queries[q].sql);
        const double ms = static_cast<double>(NowNs() - start) / 1e6;
        plain.Add("latency_ms", q, ms);
        if (probe != nullptr) {
          plain.Add("scaled_ms", q, Scaled(ms, probe_ms));
          plain.Add("probe_ms", q, probe_ms);
        }
        executed_s += ms / 1e3;
        ++executions;
        checker.Check(q, result, queries[q].id);
      }
    }
    ++rounds;
    if (traced_round) ++traced_rounds;
    char line[64];
    std::snprintf(line, sizeof(line), "round %d%s: %.3f s", rounds,
                  traced_round ? " (traced)" : "",
                  static_cast<double>(NowNs() - round_start) / 1e9);
    out.Note(line);
  }
  const CounterSnapshot after = CounterSnapshot::Take(data.ctx.get());
  const double peak_rss = PeakRssMb();

  const std::vector<double> medians = plain.Medians("latency_ms");
  const std::vector<double> scaled = plain.Medians("scaled_ms");
  for (size_t q = 0; q < queries.size() && q < medians.size(); ++q) {
    char line[96];
    std::snprintf(line, sizeof(line), "%-4s median %10.3f ms, scaled %10.3f ms (n=%d)",
                  queries[q].id.c_str(), medians[q], q < scaled.size() ? scaled[q] : 0.0,
                  rounds - traced_rounds);
    out.Note(line);
  }
  {
    const int64_t hits = after.buffer.hits - before.buffer.hits;
    const int64_t misses = after.buffer.misses - before.buffer.misses;
    out.Note("buffer cache over the timed phase: " + std::to_string(hits) + " hits, " +
             std::to_string(misses) + " misses, " +
             std::to_string(after.buffer.cached_bytes) + " bytes cached at the end");
  }
  if (!options.trace) {
    // End-to-end figures: each query's median scaled latency across
    // rounds; p50 and tail are Harrell-Davis quantiles over those
    // medians, which do not jump when one query crosses them (README.md).
    const double total_s = plain.SumOfMedians("scaled_ms") / 1e3;
    const double tail_q = SupportedQuantile(scaled.size(), 0.99);
    const auto n_queries = static_cast<int64_t>(scaled.size());
    out.Add("setup_s", Median(setup_s), "s", static_cast<int64_t>(setup_s.size()));
    out.Add("total_s", total_s, "s", executions);
    out.Add("geomean_ms", GeoMean(scaled), "ms", executions);
    out.Add("p50_ms", HarrellDavis(scaled, 0.5), "ms", n_queries);
    out.Add("tail_ms", HarrellDavis(scaled, tail_q), "ms", n_queries);
    out.Add("qps", static_cast<double>(n_queries) / total_s, "1/s", n_queries);
    out.Add("peak_rss_mb", peak_rss - probe->ResidentMb(), "MiB", 1);
    char buf[320];
    std::snprintf(buf, sizeof(buf),
                  "%d rounds of %zu queries, 1 closed-loop client (%.1f queries/s "
                  "over the timed phase); tail_ms is the Harrell-Davis p%.0f of the "
                  "%zu per-query medians; unscaled: sum of per-query medians %.4f s; "
                  "host probe median %.3f ms (n=%lld, reference %.1f ms)",
                  rounds, queries.size(),
                  executed_s > 0 ? static_cast<double>(executions) / executed_s : 0,
                  tail_q * 100, scaled.size(), plain.SumOfMedians("latency_ms") / 1e3,
                  Median(plain.Medians("probe_ms")),
                  static_cast<long long>(plain.Count("probe_ms")), kProbeRefMs);
    out.Note(buf);
  } else {
    AddTracedLayerMetrics(traced, run_wall_s, run_cpu_s, &out);
    const int64_t n = traced.Count("exec.run_ms");
    out.Add("arrow.ipc_encode_ms", traced.SumOfMedians("arrow.ipc_encode_ms"), "ms", n);
    out.Add("arrow.ipc_decode_ms", traced.SumOfMedians("arrow.ipc_decode_ms"), "ms", n);
    const double untraced = plain.SumOfMedians("latency_ms");
    out.Add("trace.overhead_pct",
            untraced > 0 ? (traced.SumOfMedians("query_ms") / untraced - 1) * 100 : 0,
            "%", n);
    out.Note(std::to_string(traced_rounds) + " traced and " +
             std::to_string(rounds - traced_rounds) + " untraced rounds");
    // Counter deltas over the timed phase.
    AddCounterMetrics(before.buffer, after.buffer, after.plan_hits - before.plan_hits,
                      after.plan_misses - before.plan_misses,
                      after.plan_invalidations - before.plan_invalidations, &out);
    auto* sched = data.ctx->env()->scheduler();
    out.Add("exec.peak_threads", static_cast<double>(sched->peak_threads()), "count", 1);
    out.Add("exec.peak_ready_tasks", static_cast<double>(sched->peak_ready_tasks()),
            "count", 1);
    out.Add("exec.admission_queued",
            static_cast<double>(after.admission_queued - before.admission_queued),
            "count", executions);
    out.Add("format.file_mb", static_cast<double>(FileBytes(data.files)) / (1 << 20),
            "MiB", static_cast<int64_t>(data.files.size()));
  }
  data = Dataset{};
  return out;
}

}  // namespace perfbench
}  // namespace fusion
