// The `serving` workload: bench_serving_net's server set-up (FPQ table t,
// a 4-worker scheduler, admission on, a dedicated buffer cache the
// working set fits in) with nproc client connections over TCP. Two timed
// phases:
//  - an open loop at a fixed offered rate, about half the capacity at
//    the default seed: ad hoc and prepared reads on t, a prepared join
//    against the side table `dim`, and a small share of do-puts that
//    re-upload `dim` with identical content (each one bumps the catalog
//    epoch and flushes the plan cache, while every read's expected
//    result stays fixed). Latency is timed from each request's due time.
//  - a closed loop with the same mix that measures capacity (qps).
// The open loop's latencies are scaled by the host probe (perfbench.h),
// which a probe thread runs four times a second during the loop; each
// latency by the probes within a second of its due time. tail_ms
// and qps stay unscaled, because the client's delayed-ACK timer sets
// them, and so does setup_s, which repeats within 2% unscaled
// (README.md). Operations that timer held are left out of the per-kind
// medians (kHeldMs), and idle spinners keep the vCPUs awake through
// both timed phases (IdleSpinners in perfbench.h).

#include <atomic>
#include <cmath>
#include <cstdio>
#include <thread>

#include "arrow/builder.h"
#include "arrow/ipc.h"
#include "bench/workloads/workload_util.h"
#include "exec/buffer_cache.h"
#include "exec/scheduler.h"
#include "flight/client.h"
#include "flight/server.h"
#include "format/fpq.h"
#include "perfbench/perfbench.h"

namespace fusion {
namespace perfbench {

namespace {

constexpr int kSetupReps = 3;
constexpr int64_t kRows = 100'000;
constexpr int kDimRows = 100;
constexpr int kSchedulerWorkers = 4;
// Offered operations per second in the open loop: about half of the
// closed-loop capacity measured at seed 1 on the 4-vCPU reference host
// (README.md). Measure it again whenever server capacity changes.
constexpr double kOfferedRate = 40;
constexpr double kProbeIntervalS = 0.25;
constexpr double kProbeWindowS = 1.0;
// peak_rss_mb is the median over windows of this length of each
// window's peak: the peak of the whole phase is set by whichever moment
// the most requests' transient batches overlapped, and moved by 13%
// between seeds.
constexpr double kRssWindowS = 1.0;
constexpr double kTailQuantile = 0.95;
// An operation whose send-to-done time reaches this waited out the
// client's delayed-ACK timer (at least 40 ms on Linux; README.md). The
// share it holds differs between seeds (9-23% over twenty), and each held
// operation drags its kind's median up the rest, so the per-kind medians
// behind total_s, geomean_ms and p50_ms leave held operations out;
// tail_ms and qps carry the stall.
constexpr double kHeldMs = 40;
constexpr double kOpenShare = 0.7;  // of --seconds; the rest is closed loop
constexpr double kPutShare = 0.03;
constexpr double kJoinShare = 0.1;
// The open loop is invalid when its last request went out later than
// this after its due time: completions fell behind the offered rate.
constexpr double kMaxBacklogS = 0.25;

// Read templates on t. Each runs ad hoc or as a prepared statement.
const char* const kReads[] = {
    "SELECT grp, count(*), sum(v) FROM t GROUP BY grp ORDER BY grp",
    "SELECT count(*) FROM t WHERE v > 500",
    "SELECT grp, avg(f) FROM t WHERE v > 250 GROUP BY grp",
    "SELECT min(id), max(id) FROM t WHERE grp = 'grp7'",
};
constexpr int kNumReads = 4;
// Prepared only: a prepared plan holds its bound tables, so it never
// looks `dim` up while a put swaps it out of the catalog.
const char* const kJoin =
    "SELECT d.region, count(*), sum(t.v) FROM t JOIN dim d ON t.grp = d.grp "
    "GROUP BY d.region ORDER BY d.region";

// Operation kinds: 2*r + prepared for read r, then the join, then put.
constexpr int kJoinKind = 2 * kNumReads;
constexpr int kPutKind = kJoinKind + 1;
constexpr int kKinds = kPutKind + 1;

std::string KindSql(int kind) { return kind == kJoinKind ? kJoin : kReads[kind / 2]; }

template <typename T>
void SeededShuffle(std::vector<T>* v, uint64_t seed) {
  bench::Rng rng(seed);
  for (size_t i = v->size(); i > 1; --i) {
    std::swap((*v)[i - 1], (*v)[static_cast<size_t>(rng.Uniform(0, i - 1))]);
  }
}

/// `n` operation kinds: a seeded shuffle of a deck holding each kind in
/// its exact share, so every run offers the same mix.
std::vector<int> MixDeck(size_t n, uint64_t seed) {
  std::vector<int> deck;
  deck.insert(deck.end(), static_cast<size_t>(std::lround(n * kPutShare)), kPutKind);
  deck.insert(deck.end(), static_cast<size_t>(std::lround(n * kJoinShare)), kJoinKind);
  for (int read = 0; deck.size() < n; read = (read + 1) % (2 * kNumReads)) {
    deck.push_back(read);
  }
  SeededShuffle(&deck, seed);
  return deck;
}

/// Due times, in seconds from the start, of `n` operations at
/// kOfferedRate. The gaps between them are exponential, as between
/// Poisson arrivals, but every run has the same gaps, the exponential's
/// quantiles at (i + 0.5) / n, in a seeded order. How many gaps are short
/// sets how many operations overlap, and with it how many wait out the
/// delayed-ACK timer: with independent draws the share of gaps under
/// 10 ms ranged from 30% to 37% between seeds and the held share from 6%
/// to 21%, which moved every latency metric.
std::vector<double> DueTimes(size_t n, uint64_t seed) {
  std::vector<double> gaps(n);
  for (size_t i = 0; i < n; ++i) {
    gaps[i] = -std::log(1 - (static_cast<double>(i) + 0.5) / static_cast<double>(n)) /
              kOfferedRate;
  }
  SeededShuffle(&gaps, seed);
  double t = 0;
  for (double& gap : gaps) gap = t += gap;
  return gaps;
}

Status WriteTable(const std::string& path, uint64_t seed) {
  bench::Rng rng(seed);
  Int64Builder id, v;
  StringBuilder grp;
  Float64Builder f;
  for (int64_t i = 0; i < kRows; ++i) {
    id.Append(i);
    grp.Append("grp" + std::to_string(rng.Next() % 100));
    v.Append(static_cast<int64_t>(rng.Next() % 1000));
    f.Append(static_cast<double>(rng.Next() % 100000) / 100.0);
  }
  auto schema = fusion::schema({Field("id", int64(), false), Field("grp", utf8(), false),
                                Field("v", int64(), false), Field("f", float64(), false)});
  FUSION_ASSIGN_OR_RAISE(auto id_array, id.Finish());
  FUSION_ASSIGN_OR_RAISE(auto grp_array, grp.Finish());
  FUSION_ASSIGN_OR_RAISE(auto v_array, v.Finish());
  FUSION_ASSIGN_OR_RAISE(auto f_array, f.Finish());
  auto batch = std::make_shared<RecordBatch>(
      schema, kRows, std::vector<ArrayPtr>{id_array, grp_array, v_array, f_array});
  return format::fpq::WriteFile(path, schema, SliceBatch(batch, 64 * 1024));
}

Result<RecordBatchPtr> DimBatch() {
  StringBuilder grp, region;
  Int64Builder weight;
  for (int i = 0; i < kDimRows; ++i) {
    grp.Append("grp" + std::to_string(i));
    region.Append("region" + std::to_string(i % 5));
    weight.Append(i);
  }
  auto schema = fusion::schema({Field("grp", utf8(), false),
                                Field("region", utf8(), false),
                                Field("weight", int64(), false)});
  FUSION_ASSIGN_OR_RAISE(auto grp_array, grp.Finish());
  FUSION_ASSIGN_OR_RAISE(auto region_array, region.Finish());
  FUSION_ASSIGN_OR_RAISE(auto weight_array, weight.Finish());
  return std::make_shared<RecordBatch>(
      schema, kDimRows, std::vector<ArrayPtr>{grp_array, region_array, weight_array});
}

/// One client connection with every template prepared on it.
struct Connection {
  std::unique_ptr<flight::FlightClient> client;
  std::vector<flight::PreparedStatement> prepared;  // kReads..., then kJoin
};

Result<Connection> Connect(int port) {
  Connection c;
  FUSION_ASSIGN_OR_RAISE(c.client, flight::FlightClient::Connect("127.0.0.1", port));
  for (int r = 0; r <= kNumReads; ++r) {
    FUSION_ASSIGN_OR_RAISE(auto handle,
                           c.client->Prepare(r < kNumReads ? kReads[r] : kJoin));
    c.prepared.push_back(handle);
  }
  return c;
}

struct Server {
  std::string file;
  std::shared_ptr<exec::RuntimeEnv> env;
  core::SessionContextPtr session;
  std::unique_ptr<flight::FlightServer> server;
  std::vector<Connection> connections;
  RecordBatchPtr dim;
  /// In-process result of each kind (the put's entry is unused).
  std::vector<std::vector<RecordBatchPtr>> expected =
      std::vector<std::vector<RecordBatchPtr>>(kKinds);

  ~Server() {
    connections.clear();
    if (server != nullptr) server->Shutdown();
  }
};

/// Outcome of one operation on a connection.
struct OpResult {
  bool ok = false;
  double first_batch_ms = 0;
  /// NowNs() when the last frame arrived, before the result is checked.
  int64_t done_ns = 0;
};

OpResult RunOp(Connection* c, int kind, const Server& s) {
  OpResult r;
  const int64_t start = NowNs();
  if (kind == kPutKind) {
    auto rows = c->client->Put("dim", {s.dim}, /*replace=*/true);
    r.done_ns = NowNs();
    r.ok = rows.ok() && *rows == kDimRows;
    return r;
  }
  auto reader = kind == kJoinKind ? c->client->DoGetPrepared(c->prepared[kNumReads])
                : kind % 2 == 1   ? c->client->DoGetPrepared(c->prepared[kind / 2])
                                  : c->client->DoGet(kReads[kind / 2]);
  std::vector<RecordBatchPtr> batches;
  while (reader.ok()) {
    auto batch = (*reader)->Next();
    if (!batch.ok()) break;
    if (batches.empty()) r.first_batch_ms = static_cast<double>(NowNs() - start) / 1e6;
    if (*batch == nullptr) {
      r.ok = true;
      break;
    }
    batches.push_back(std::move(*batch));
  }
  r.done_ns = NowNs();
  r.ok = r.ok && SameRows(batches, s.expected[kind]);
  return r;
}

/// Generate t into a fresh directory, start the server, upload dim,
/// open the connections and check every template's wire result against
/// the in-process one; then one warm-up pass per connection.
Result<std::unique_ptr<Server>> StartServer(const Options& options, RunResult* out) {
  auto s = std::make_unique<Server>();
  const std::string dir = options.work_dir + "/data";
  FUSION_RETURN_NOT_OK(FreshDir(dir));
  s->file = dir + "/t.fpq";
  FUSION_RETURN_NOT_OK(WriteTable(s->file, options.seed));
  FUSION_ASSIGN_OR_RAISE(s->dim, DimBatch());

  s->env = std::make_shared<exec::RuntimeEnv>();
  s->env->query_scheduler = std::make_shared<exec::QueryScheduler>(kSchedulerWorkers);
  s->env->buffer_cache = std::make_shared<exec::BufferCache>(512LL << 20);
  exec::SessionConfig config;
  config.target_partitions = options.partitions;
  config.plan_cache_entries = 64;
  config.admission_max_concurrent = kSchedulerWorkers;
  config.admission_max_queued = 1024;
  s->session = core::SessionContext::Make(config, s->env);
  FUSION_RETURN_NOT_OK(s->session->RegisterFpq("t", s->file));
  flight::FlightServerOptions server_options;
  server_options.max_connections = 64;
  FUSION_ASSIGN_OR_RAISE(s->server, flight::FlightServer::Start(s->session, server_options));

  {
    FUSION_ASSIGN_OR_RAISE(auto loader,
                           flight::FlightClient::Connect("127.0.0.1", s->server->port()));
    FUSION_ASSIGN_OR_RAISE(auto put_rows, loader->Put("dim", {s->dim}, false));
    out->Check(put_rows == kDimRows);
  }
  for (int i = 0; i < options.partitions; ++i) {
    FUSION_ASSIGN_OR_RAISE(auto c, Connect(s->server->port()));
    s->connections.push_back(std::move(c));
  }

  // Wire results must equal in-process results for every template, ad
  // hoc and prepared, before anything is timed.
  for (int kind = 0; kind < kPutKind; ++kind) {
    FUSION_ASSIGN_OR_RAISE(auto local, s->session->ExecuteSql(KindSql(kind)));
    s->expected[kind] = std::move(local);
    const bool ok = RunOp(&s->connections[0], kind, *s).ok;
    out->Check(ok);
    if (!ok) {
      out->correct = false;
      std::fprintf(stderr, "wire result differs from in-process for: %s\n",
                   KindSql(kind).c_str());
    }
  }
  // Warm-up: every connection runs every kind once, all at once.
  std::vector<int> warm_ok(s->connections.size(), 0);
  {
    std::vector<std::thread> warmers;
    for (size_t i = 0; i < s->connections.size(); ++i) {
      warmers.emplace_back([&, i] {
        for (int kind = 0; kind < kKinds; ++kind) {
          warm_ok[i] += RunOp(&s->connections[i], kind, *s).ok ? 1 : 0;
        }
      });
    }
    for (auto& w : warmers) w.join();
  }
  for (int ok : warm_ok) {
    for (int kind = 0; kind < kKinds; ++kind) out->Check(kind < ok);
  }
  return s;
}

struct Sample {
  int kind = 0;
  double due_s = 0;
  double late_ms = 0;
  double latency_ms = 0;
  double first_batch_ms = 0;
  bool ok = false;
};

}  // namespace

RunResult RunServing(const Options& options, Tracer* tracer) {
  RunResult out;
  std::unique_ptr<HostProbe> probe;
  if (!options.trace) probe = std::make_unique<HostProbe>();
  std::vector<double> setup_s;
  std::unique_ptr<Server> s;
  const int reps = options.trace ? 1 : kSetupReps;
  for (int rep = 0; rep < reps; ++rep) {
    s.reset();
    const int64_t start = NowNs();
    auto started = StartServer(options, &out);
    if (!started.ok()) {
      std::fprintf(stderr, "set-up failed: %s\n", started.status().ToString().c_str());
      out.correct = false;
      return out;
    }
    s = std::move(*started);
    setup_s.push_back(static_cast<double>(NowNs() - start) / 1e9);
  }
  const int conns = static_cast<int>(s->connections.size());

  // ---- the seeded open-loop schedule: exponential gaps, fixed mix.
  const double open_s = options.seconds * kOpenShare;
  const auto n_ops = static_cast<size_t>(std::lround(open_s * kOfferedRate));
  const std::vector<int> open_mix = MixDeck(n_ops, options.seed);
  const std::vector<double> due = DueTimes(n_ops, options.seed * 0x9E3779B97F4A7C15ULL + 7);
  std::vector<Sample> ops(n_ops);
  for (size_t i = 0; i < n_ops; ++i) {
    ops[i].kind = open_mix[i];
    ops[i].due_s = due[i];
  }

  ResetPeakRss();
  PeakRssWindows rss_windows(kRssWindowS);
  const auto buffer0 = s->env->buffer_cache->stats();
  const auto& plan_stats = s->env->plan_cache_stats;
  const int64_t plan_hits0 = plan_stats->hits, plan_misses0 = plan_stats->misses,
                plan_inval0 = plan_stats->invalidations;
  auto* sched = s->env->scheduler();
  const int64_t queued0 = sched->admission_queued_total();
  const flight::FlightServerStats server0 = s->server->stats();
  // A request hands off between client, server and scheduler threads
  // several times; keep the vCPUs awake so no hand-off waits for the
  // hypervisor (perfbench.h).
  auto spinners = std::make_unique<IdleSpinners>(options.partitions);

  std::atomic<size_t> next{0};
  std::atomic<bool> open_done{false};
  std::vector<double> open_probes;
  const auto open_start = std::chrono::steady_clock::now();
  std::thread prober;
  if (probe != nullptr) {
    prober = std::thread([&] {
      for (int i = 0; !open_done.load(); ++i) {
        open_probes.push_back(probe->RunMs());
        std::this_thread::sleep_until(
            open_start + std::chrono::duration_cast<std::chrono::nanoseconds>(
                             std::chrono::duration<double>((i + 1) * kProbeIntervalS)));
      }
    });
  }
  auto open_worker = [&](int c) {
    for (size_t i; (i = next.fetch_add(1)) < ops.size();) {
      Sample& op = ops[i];
      const auto due = open_start + std::chrono::duration_cast<std::chrono::nanoseconds>(
                                        std::chrono::duration<double>(op.due_s));
      std::this_thread::sleep_until(due);
      const auto sent = std::chrono::steady_clock::now();
      const int64_t span = tracer->Begin("flight.request");
      OpResult r = RunOp(&s->connections[c], op.kind, *s);
      tracer->End(span);
      const std::chrono::steady_clock::time_point done{std::chrono::nanoseconds(r.done_ns)};
      op.ok = r.ok;
      op.first_batch_ms = r.first_batch_ms;
      op.late_ms = std::chrono::duration<double, std::milli>(sent - due).count();
      op.latency_ms = std::chrono::duration<double, std::milli>(done - due).count();
    }
  };
  {
    std::vector<std::thread> workers;
    for (int c = 0; c < conns; ++c) workers.emplace_back(open_worker, c);
    for (auto& w : workers) w.join();
  }
  open_done.store(true);
  if (prober.joinable()) prober.join();

  // ---- closed loop: every connection sends its next operation as soon
  // as the previous one completes.
  const double closed_s = options.seconds - open_s;
  std::atomic<int64_t> closed_reads{0};
  std::atomic<int64_t> closed_failed{0}, closed_attempted{0};
  const auto closed_start = std::chrono::steady_clock::now();
  const auto closed_end = closed_start + std::chrono::duration_cast<std::chrono::nanoseconds>(
                                             std::chrono::duration<double>(closed_s));
  auto closed_worker = [&](int c) {
    const std::vector<int> mix = MixDeck(1000, options.seed * 31 + c + 1);
    for (size_t i = 0; std::chrono::steady_clock::now() < closed_end; ++i) {
      const int kind = mix[i % mix.size()];
      const bool ok = RunOp(&s->connections[c], kind, *s).ok;
      closed_attempted.fetch_add(1);
      if (!ok) closed_failed.fetch_add(1);
      if (ok && kind != kPutKind) closed_reads.fetch_add(1);
    }
  };
  {
    std::vector<std::thread> workers;
    for (int c = 0; c < conns; ++c) workers.emplace_back(closed_worker, c);
    for (auto& w : workers) w.join();
  }
  const double closed_elapsed = std::chrono::duration<double>(
                                    std::chrono::steady_clock::now() - closed_start)
                                    .count();
  const int spinning = spinners->spinning();
  spinners.reset();
  const std::vector<double> rss_peaks = rss_windows.Stop();

  // ---- summarise. Untraced runs scale each open-loop latency by the
  // median probe within kProbeWindowS of its due time.
  auto probe_near = [&](double t) {
    std::vector<double> near;
    for (size_t i = 0; i < open_probes.size(); ++i) {
      if (std::fabs(static_cast<double>(i) * kProbeIntervalS - t) <= kProbeWindowS) {
        near.push_back(open_probes[i]);
      }
    }
    return Median(near.empty() ? open_probes : near);
  };
  KindSamples per_kind(kKinds);
  // p50_ms and tail_ms are over the read templates on t; the join and
  // the puts enter total_s and geomean_ms.
  std::vector<double> reads, template_reads, lateness, first_batch, puts;
  size_t held = 0;
  int64_t template_reads_kept = 0;
  for (const Sample& op : ops) {
    out.Check(op.ok);
    if (op.latency_ms - op.late_ms >= kHeldMs) {
      ++held;
    } else {
      if (op.kind < kJoinKind) ++template_reads_kept;
      per_kind.Add("latency_ms", static_cast<size_t>(op.kind), op.latency_ms);
      if (probe != nullptr) {
        per_kind.Add("scaled_ms", static_cast<size_t>(op.kind),
                     Scaled(op.latency_ms, probe_near(op.due_s)));
      }
    }
    lateness.push_back(op.late_ms);
    if (op.kind == kPutKind) {
      puts.push_back(op.latency_ms);
    } else {
      reads.push_back(op.latency_ms);
      if (op.kind < kJoinKind) template_reads.push_back(op.latency_ms);
      first_batch.push_back(op.first_batch_ms);
    }
  }
  out.attempted += closed_attempted.load();
  out.failed += closed_failed.load();
  if (out.failed > 0) out.correct = false;
  const double backlog_s = ops.empty() ? 0 : ops.back().late_ms / 1e3;
  if (backlog_s > kMaxBacklogS) {
    out.correct = false;
    out.Note("INVALID: the open loop fell behind the offered rate (last request sent " +
             std::to_string(backlog_s) + " s late)");
  }
  {
    const std::vector<double> medians = per_kind.Medians("latency_ms");
    char head[128];
    std::snprintf(head, sizeof(head),
                  "held by the delayed-ACK timer: %zu of %zu operations (%.1f%%); median "
                  "latency per kind of the rest (ms):",
                  held, ops.size(), 100.0 * static_cast<double>(held) / ops.size());
    std::string line = head;
    for (int kind = 0; kind < kKinds && kind < static_cast<int>(medians.size()); ++kind) {
      char part[48];
      std::snprintf(part, sizeof(part), " %s=%.3f",
                    kind == kPutKind    ? "put"
                    : kind == kJoinKind ? "join"
                                        : (std::string(kind % 2 ? "prep" : "adhoc") +
                                           std::to_string(kind / 2))
                                              .c_str(),
                    medians[kind]);
      line += part;
    }
    out.Note(line);
  }
  {
    char line[160];
    std::snprintf(line, sizeof(line),
                  "read-template latency at the offered rate: p50 %.3f, p90 %.3f, "
                  "p95 %.3f, p99 %.3f ms (n=%zu)",
                  Quantile(template_reads, 0.5), Quantile(template_reads, 0.9),
                  Quantile(template_reads, 0.95), Quantile(template_reads, 0.99),
                  template_reads.size());
    out.Note(line);
  }
  // The upper 8-30% of reads wait out the client's delayed-ACK timer
  // (README.md): quantiles above p95 read the noise at that plateau's top.
  // A stalled join lands above the plateau of stalled reads, which is
  // one more reason the tail leaves the join out.
  const double read_tail_q = SupportedQuantile(template_reads.size(), kTailQuantile);
  const double qps = static_cast<double>(closed_reads.load()) / closed_elapsed;
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "t: %lld rows, %lld FPQ bytes; dim: %d rows; %d connections; offered "
                "%.0f ops/s for %.1f s (%zu ops: %zu reads, %zu puts); closed loop "
                "%.1f s; %d SCHED_IDLE spinners",
                static_cast<long long>(kRows), static_cast<long long>(FileBytes({s->file})),
                kDimRows, conns, kOfferedRate, open_s, ops.size(), reads.size(),
                puts.size(), closed_elapsed, spinning);
  out.Note(buf);
  std::snprintf(buf, sizeof(buf),
                "put latency p50 %.3f ms, p90 %.3f ms (n=%zu); generator lateness "
                "p99 %.3f ms",
                Median(puts), Quantile(puts, SupportedQuantile(puts.size(), 0.9)),
                puts.size(), Quantile(lateness, SupportedQuantile(lateness.size(), 0.99)));
  out.Note(buf);

  if (!options.trace) {
    // p50_ms is per read kind, then averaged: one median over the mix of
    // unlike kinds would sit in a gap between them and jump.
    auto read_p50 = [](const std::vector<double>& kind_medians) {
      double mean = 0;
      for (int kind = 0; kind < kJoinKind; ++kind) mean += kind_medians[kind] / kJoinKind;
      return mean;
    };
    const std::vector<double> kind_medians = per_kind.Medians("latency_ms");
    const std::vector<double> scaled_medians = per_kind.Medians("scaled_ms");
    out.Add("setup_s", Median(setup_s), "s", static_cast<int64_t>(setup_s.size()));
    out.Add("total_s", per_kind.SumOfMedians("scaled_ms") / 1e3, "s",
            per_kind.Count("scaled_ms"));
    out.Add("geomean_ms", GeoMean(scaled_medians), "ms", per_kind.Count("scaled_ms"));
    out.Add("p50_ms", read_p50(scaled_medians), "ms", template_reads_kept);
    out.Add("tail_ms", Quantile(template_reads, read_tail_q), "ms",
            static_cast<int64_t>(template_reads.size()));
    out.Add("qps", qps, "1/s", closed_reads.load());
    out.Add("peak_rss_mb", Median(rss_peaks) - probe->ResidentMb(), "MiB",
            static_cast<int64_t>(rss_peaks.size()));
    std::snprintf(buf, sizeof(buf), "peak RSS per %.0f s window: median %.2f, max %.2f MiB (n=%zu)",
                  kRssWindowS, Median(rss_peaks), Quantile(rss_peaks, 1.0), rss_peaks.size());
    out.Note(buf);
    std::snprintf(buf, sizeof(buf),
                  "unscaled: sum of per-kind medians %.4f s, geomean %.4f ms, p50 %.4f "
                  "ms; host probe median %.3f ms (n=%zu, reference %.1f ms)",
                  per_kind.SumOfMedians("latency_ms") / 1e3, GeoMean(kind_medians),
                  read_p50(kind_medians), Median(open_probes), open_probes.size(),
                  kProbeRefMs);
    out.Note(buf);
    return out;
  }

  // ---- traced run: counter deltas over the timed phases ...
  const int64_t n_reads = static_cast<int64_t>(reads.size()) + closed_reads.load();
  AddCounterMetrics(buffer0, s->env->buffer_cache->stats(), plan_stats->hits - plan_hits0,
                    plan_stats->misses - plan_misses0,
                    plan_stats->invalidations - plan_inval0, &out);
  out.Add("exec.peak_threads", static_cast<double>(sched->peak_threads()), "count", 1);
  out.Add("exec.peak_ready_tasks", static_cast<double>(sched->peak_ready_tasks()),
          "count", 1);
  out.Add("exec.admission_queued",
          static_cast<double>(sched->admission_queued_total() - queued0), "count",
          n_reads);
  const flight::FlightServerStats server1 = s->server->stats();
  out.Add("flight.bytes_per_query",
          static_cast<double>(server1.bytes_sent - server0.bytes_sent) / n_reads, "bytes",
          n_reads);
  out.Add("flight.batches_per_query",
          static_cast<double>(server1.batches_sent - server0.batches_sent) / n_reads,
          "count", n_reads);
  out.Add("flight.first_batch_ms", Median(first_batch), "ms",
          static_cast<int64_t>(first_batch.size()));
  out.Add("flight.put_p50_ms", Median(puts), "ms", static_cast<int64_t>(puts.size()));
  out.Add("flight.put_p90_ms", Quantile(puts, SupportedQuantile(puts.size(), 0.9)), "ms",
          static_cast<int64_t>(puts.size()));
  out.Add("serving.gen_late_ms",
          Quantile(lateness, SupportedQuantile(lateness.size(), 0.99)), "ms",
          static_cast<int64_t>(lateness.size()));
  out.Add("format.file_mb", static_cast<double>(FileBytes({s->file})) / (1 << 20), "MiB",
          1);

  // ... then, on the idle server, the in-process layers of each template
  // and the wire's share of a read.
  constexpr int kIdleReps = 15;
  KindSamples traced(kKinds);
  KindSamples idle(kKinds);
  double run_wall_s = 0, run_cpu_s = 0;
  for (int rep = 0; rep < kIdleReps; ++rep) {
    // Even kinds: each read template once (ad hoc), then the join.
    for (int kind = 0; kind < kPutKind; kind += 2) {
      const std::string sql = KindSql(kind);
      TracedExecution t = ExecuteTraced(s->session.get(), sql, tracer);
      out.Check(t.status.ok() && SameRows(t.batches, s->expected[kind]));
      traced.Add("sql.bind_ms", kind, t.bind_ms);
      traced.Add("optimizer.optimize_ms", kind, t.optimize_ms);
      traced.Add("physical.plan_ms", kind, t.plan_ms);
      traced.Add("exec.run_ms", kind, t.run_ms);
      traced.Add("query_ms", kind, t.query_ms);
      t.ops.Record(&traced, kind);
      run_wall_s += t.run_ms / 1e3;
      run_cpu_s += t.run_cpu_s;
      if (kind == kJoinKind) continue;  // the join is never sent ad hoc
      idle.Add("traced_ms", kind, t.query_ms);
      int64_t start = NowNs();
      auto local = s->session->ExecuteSql(sql);
      idle.Add("local_ms", kind, static_cast<double>(NowNs() - start) / 1e6);
      out.Check(local.ok());
      start = NowNs();
      const OpResult wire = RunOp(&s->connections[0], kind, *s);
      idle.Add("wire_ms", kind, static_cast<double>(wire.done_ns - start) / 1e6);
      out.Check(wire.ok);
    }
  }
  AddTracedLayerMetrics(traced, run_wall_s, run_cpu_s, &out);
  const double local = idle.SumOfMedians("local_ms");
  out.Add("flight.wire_ms", (idle.SumOfMedians("wire_ms") - local) / kNumReads, "ms",
          idle.Count("wire_ms"));
  out.Add("trace.overhead_pct",
          local > 0 ? (idle.SumOfMedians("traced_ms") / local - 1) * 100 : 0, "%",
          idle.Count("local_ms"));

  // IPC encode/decode of the put payload.
  std::vector<double> encode_ms, decode_ms;
  for (int rep = 0; rep < 101; ++rep) {
    int64_t start = NowNs();
    std::vector<uint8_t> blob = ipc::SerializeBatch(*s->dim);
    encode_ms.push_back(static_cast<double>(NowNs() - start) / 1e6);
    start = NowNs();
    out.Check(ipc::DeserializeBatch(blob.data(), blob.size()).ok());
    decode_ms.push_back(static_cast<double>(NowNs() - start) / 1e6);
  }
  out.Add("arrow.ipc_encode_ms", Median(encode_ms), "ms",
          static_cast<int64_t>(encode_ms.size()));
  out.Add("arrow.ipc_decode_ms", Median(decode_ms), "ms",
          static_cast<int64_t>(decode_ms.size()));
  return out;
}

}  // namespace perfbench
}  // namespace fusion
