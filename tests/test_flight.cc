// Flight server/client tests: end-to-end result fidelity vs in-process
// execution, prepared statements, do-put uploads, deadlines, admission
// rejection over the wire, malformed-frame rejection, connection drops
// mid-stream (zero leaked pool bytes/consumers), scripted flight.*
// faults, and graceful drain.

#include "tests/test_util.h"

#include <sys/socket.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstring>
#include <thread>

#include "arrow/ipc.h"
#include "common/fault_injector.h"
#include "exec/memory_pool.h"
#include "exec/scheduler.h"
#include "flight/client.h"
#include "flight/server.h"

namespace fusion {
namespace test {
namespace {

/// The shared test table (matches MakeTestSession): id int64, grp
/// string (a/b/c), v nullable int64, f float64, s string.
core::SessionContextPtr MakeServerSession(int64_t rows,
                                          exec::SessionConfig config = {},
                                          exec::RuntimeEnvPtr env = nullptr) {
  auto ctx = env == nullptr ? core::SessionContext::Make(config)
                            : core::SessionContext::Make(config, env);
  Int64Builder id;
  StringBuilder grp;
  Int64Builder v;
  Float64Builder f;
  StringBuilder s;
  const char* groups[] = {"a", "b", "c"};
  for (int64_t i = 0; i < rows; ++i) {
    id.Append(i);
    grp.Append(groups[i % 3]);
    if (i % 7 == 6) {
      v.AppendNull();
    } else {
      v.Append(i * 2);
    }
    f.Append(static_cast<double>(i) * 0.5);
    s.Append("row" + std::to_string(i));
  }
  auto schema = fusion::schema({Field("id", int64(), false),
                                Field("grp", utf8(), false),
                                Field("v", int64(), true),
                                Field("f", float64(), false),
                                Field("s", utf8(), false)});
  std::vector<ArrayPtr> cols = {id.Finish().ValueOrDie(), grp.Finish().ValueOrDie(),
                                v.Finish().ValueOrDie(), f.Finish().ValueOrDie(),
                                s.Finish().ValueOrDie()};
  auto batch = std::make_shared<RecordBatch>(schema, rows, std::move(cols));
  auto table =
      catalog::MemoryTable::Make(schema, SliceBatch(batch, 64)).ValueOrDie();
  ctx->RegisterTable("t", table).Abort();
  return ctx;
}

TEST(FlightTest, RoundTripMatchesInProcessExecution) {
  auto ctx = MakeServerSession(1000);
  ASSERT_OK_AND_ASSIGN(auto server, flight::FlightServer::Start(ctx));
  ASSERT_OK_AND_ASSIGN(auto client,
                       flight::FlightClient::Connect("127.0.0.1", server->port()));

  const char* queries[] = {
      "SELECT grp, count(*), sum(v) FROM t GROUP BY grp",
      "SELECT id, s FROM t WHERE id >= 990 ORDER BY id",
      "SELECT count(*) FROM t WHERE v > 500",
      "SELECT grp, avg(f) FROM t GROUP BY grp ORDER BY grp",
      "SELECT min(id), max(id), sum(f) FROM t",
      "SELECT s, v FROM t WHERE grp = 'b' AND id < 40 ORDER BY id",
  };
  for (const char* sql : queries) {
    ASSERT_OK_AND_ASSIGN(auto expected, ctx->ExecuteSql(sql));
    ASSERT_OK_AND_ASSIGN(auto got, client->Get(sql));
    EXPECT_EQ(SortedStringRows(got), SortedStringRows(expected)) << sql;
  }
  // Errors are per-request: a bad query fails, the connection survives.
  auto bad = client->Get("SELECT nope FROM t");
  ASSERT_FALSE(bad.ok());
  EXPECT_NE(bad.status().message().find("flight server:"), std::string::npos)
      << bad.status().ToString();
  ASSERT_OK(client->Ping());
  ASSERT_OK_AND_ASSIGN(auto again, client->Get("SELECT count(*) FROM t"));
  EXPECT_EQ(ToStringRows(again)[0][0], "1000");

  auto stats = server->stats();
  EXPECT_EQ(stats.accepted, 1);
  EXPECT_GT(stats.queries_ok, 0);
  EXPECT_GT(stats.queries_err, 0);
  EXPECT_GT(stats.bytes_sent, 0);
  client.reset();
  auto drained = server->Shutdown();
  EXPECT_EQ(drained.cancelled, 0);
  EXPECT_EQ(server->stats().active_sessions, 0);
}

TEST(FlightTest, DictionaryColumnsStreamEncodedAndDensifyIdentically) {
  auto ctx = MakeServerSession(600);
  // A table whose grp column is physically dictionary-encoded (as FPQ
  // scans produce): projections pass the encoding through to the wire.
  {
    const int64_t rows = 90;
    StringBuilder dict_builder;
    dict_builder.Append("alpha");
    dict_builder.Append("beta");
    dict_builder.Append("gamma");
    auto dict = std::static_pointer_cast<StringArray>(
        dict_builder.Finish().ValueOrDie());
    auto codes = std::make_shared<Buffer>(rows * 4);
    auto* raw = reinterpret_cast<int32_t*>(codes->mutable_data());
    for (int64_t i = 0; i < rows; ++i) raw[i] = static_cast<int32_t>(i % 3);
    auto grp = std::make_shared<DictionaryArray>(rows, std::move(codes), dict,
                                                 nullptr, 0);
    Int64Builder id;
    for (int64_t i = 0; i < rows; ++i) id.Append(i);
    auto schema = fusion::schema(
        {Field("grp", utf8(), false), Field("id", int64(), false)});
    auto batch = std::make_shared<RecordBatch>(
        schema, rows, std::vector<ArrayPtr>{grp, id.Finish().ValueOrDie()});
    auto table = catalog::MemoryTable::Make(schema, {batch}).ValueOrDie();
    ASSERT_OK(ctx->RegisterTable("d", table));
  }
  ASSERT_OK_AND_ASSIGN(auto server, flight::FlightServer::Start(ctx));
  ASSERT_OK_AND_ASSIGN(auto client,
                       flight::FlightClient::Connect("127.0.0.1", server->port()));
  // Default Get densifies so rows match ExecuteSql byte-for-byte,
  // while densify=false keeps the wire's dictionary codes.
  const std::string sql = "SELECT grp, id FROM d";
  ASSERT_OK_AND_ASSIGN(auto expected, ctx->ExecuteSql(sql));
  ASSERT_OK_AND_ASSIGN(auto dense, client->Get(sql));
  EXPECT_EQ(SortedStringRows(dense), SortedStringRows(expected));
  for (const auto& b : dense) {
    EXPECT_FALSE(b->column(0)->type().is_dictionary());
  }
  flight::FlightCallOptions raw;
  raw.densify = false;
  ASSERT_OK_AND_ASSIGN(auto encoded, client->Get(sql, raw));
  EXPECT_EQ(SortedStringRows(encoded), SortedStringRows(expected));
  bool saw_dictionary = false;
  for (const auto& b : encoded) {
    saw_dictionary |= b->column(0)->type().is_dictionary();
  }
  EXPECT_TRUE(saw_dictionary)
      << "wire batches should keep the scan's dictionary encoding";
}

TEST(FlightTest, PreparedStatementsExecuteAndHitPlanCache) {
  auto env = std::make_shared<exec::RuntimeEnv>();
  exec::SessionConfig config;
  config.plan_cache_entries = 16;
  auto ctx = MakeServerSession(500, config, env);
  ASSERT_OK_AND_ASSIGN(auto server, flight::FlightServer::Start(ctx));
  ASSERT_OK_AND_ASSIGN(auto client,
                       flight::FlightClient::Connect("127.0.0.1", server->port()));

  const std::string sql = "SELECT grp, sum(v) FROM t GROUP BY grp";
  ASSERT_OK_AND_ASSIGN(auto expected, ctx->ExecuteSql(sql));
  ASSERT_OK_AND_ASSIGN(auto stmt, client->Prepare(sql));
  int64_t hits0 = env->plan_cache_stats->hits.load();
  for (int i = 0; i < 3; ++i) {
    ASSERT_OK_AND_ASSIGN(auto got, client->GetPrepared(stmt));
    EXPECT_EQ(SortedStringRows(got), SortedStringRows(expected));
  }
  EXPECT_GE(env->plan_cache_stats->hits.load(), hits0 + 2)
      << "repeated prepared executions must hit the plan cache";
  ASSERT_OK(client->ClosePrepared(stmt));
  auto gone = client->GetPrepared(stmt);
  ASSERT_FALSE(gone.ok());
  // Unknown handle likewise fails cleanly and keeps the session alive.
  auto bogus = client->GetPrepared(flight::PreparedStatement{9999});
  ASSERT_FALSE(bogus.ok());
  ASSERT_OK(client->Ping());
  EXPECT_EQ(server->stats().prepared_statements, 1);
}

TEST(FlightTest, DoPutRegistersTableAndReplaceSwapsIt) {
  auto ctx = MakeServerSession(10);
  ASSERT_OK_AND_ASSIGN(auto server, flight::FlightServer::Start(ctx));
  ASSERT_OK_AND_ASSIGN(auto client,
                       flight::FlightClient::Connect("127.0.0.1", server->port()));

  Int64Builder k;
  StringBuilder name;
  for (int64_t i = 0; i < 40; ++i) {
    k.Append(i);
    name.Append("u" + std::to_string(i % 4));
  }
  auto schema = fusion::schema(
      {Field("k", int64(), false), Field("name", utf8(), false)});
  auto batch = std::make_shared<RecordBatch>(
      schema, 40,
      std::vector<ArrayPtr>{k.Finish().ValueOrDie(), name.Finish().ValueOrDie()});

  ASSERT_OK_AND_ASSIGN(int64_t rows, client->Put("uploaded", {batch}));
  EXPECT_EQ(rows, 40);
  ASSERT_OK_AND_ASSIGN(
      auto joined,
      client->Get("SELECT name, count(*) FROM uploaded GROUP BY name ORDER BY name"));
  auto got = ToStringRows(joined);
  ASSERT_EQ(got.size(), 4u);
  EXPECT_EQ(got[0][1], "10");

  // Replace with a smaller table; without the flag the name collides.
  auto collide = client->Put("uploaded", {batch});
  ASSERT_FALSE(collide.ok());
  Int64Builder k2;
  StringBuilder n2;
  k2.Append(1);
  n2.Append("solo");
  auto small = std::make_shared<RecordBatch>(
      schema, 1,
      std::vector<ArrayPtr>{k2.Finish().ValueOrDie(), n2.Finish().ValueOrDie()});
  ASSERT_OK_AND_ASSIGN(rows, client->Put("uploaded", {small}, /*replace=*/true));
  EXPECT_EQ(rows, 1);
  ASSERT_OK_AND_ASSIGN(auto after,
                       client->Get("SELECT count(*) FROM uploaded"));
  EXPECT_EQ(ToStringRows(after)[0][0], "1");
  EXPECT_EQ(server->stats().puts, 2);
}

TEST(FlightTest, DoPutOverLimitRejectedWithoutUntrackedBuffering) {
  // Server-side do-put buffering is charged to the pool and capped by
  // max_put_bytes: an upload past the cap fails with ResourcesExhausted,
  // nothing is registered, no pool bytes stick, the connection survives.
  auto pool = std::make_shared<exec::FairMemoryPool>(256 << 20);
  auto env = std::make_shared<exec::RuntimeEnv>();
  env->memory_pool = pool;
  env->buffer_cache = nullptr;
  auto ctx = MakeServerSession(10, {}, env);
  flight::FlightServerOptions options;
  // One 256-row batch serializes to ~6 KB: a single batch fits the cap,
  // the three-batch upload below blows through it.
  options.max_put_bytes = 8192;
  ASSERT_OK_AND_ASSIGN(auto server, flight::FlightServer::Start(ctx, options));
  ASSERT_OK_AND_ASSIGN(auto client,
                       flight::FlightClient::Connect("127.0.0.1", server->port()));

  Int64Builder k;
  StringBuilder name;
  for (int64_t i = 0; i < 256; ++i) {
    k.Append(i);
    name.Append("payload-" + std::to_string(i));
  }
  auto schema = fusion::schema(
      {Field("k", int64(), false), Field("name", utf8(), false)});
  auto batch = std::make_shared<RecordBatch>(
      schema, 256,
      std::vector<ArrayPtr>{k.Finish().ValueOrDie(), name.Finish().ValueOrDie()});

  auto res = client->Put("big", {batch, batch, batch});
  ASSERT_FALSE(res.ok());
  EXPECT_TRUE(res.status().IsResourcesExhausted()) << res.status().ToString();
  EXPECT_FALSE(client->Get("SELECT count(*) FROM big").ok())
      << "rejected put must not register the table";
  ASSERT_OK(client->Ping());
  EXPECT_EQ(pool->bytes_allocated(), 0) << "put bytes must not stick";

  // Under the cap still works on the same connection.
  ASSERT_OK_AND_ASSIGN(int64_t rows, client->Put("big", {batch}));
  EXPECT_EQ(rows, 256);
  ASSERT_OK_AND_ASSIGN(auto count, client->Get("SELECT count(*) FROM big"));
  EXPECT_EQ(ToStringRows(count)[0][0], "256");
}

TEST(FlightTest, DeadlineKillsSlowQueryWithCleanConnection) {
  // A cross join big enough to run for seconds; a 50 ms deadline must
  // cancel it server-side and leave the connection usable.
  auto ctx = MakeServerSession(3000);
  ASSERT_OK_AND_ASSIGN(auto server, flight::FlightServer::Start(ctx));
  ASSERT_OK_AND_ASSIGN(auto client,
                       flight::FlightClient::Connect("127.0.0.1", server->port()));

  flight::FlightCallOptions options;
  options.timeout_ms = 50;
  auto res = client->Get(
      "SELECT count(*) FROM t a, t b WHERE a.v + b.v > 1 AND a.f * b.f < 1e18",
      options);
  ASSERT_FALSE(res.ok());
  EXPECT_TRUE(res.status().IsCancelled()) << res.status().ToString();
  // Same socket keeps serving after the kill.
  ASSERT_OK(client->Ping());
  ASSERT_OK_AND_ASSIGN(auto ok, client->Get("SELECT count(*) FROM t"));
  EXPECT_EQ(ToStringRows(ok)[0][0], "3000");
  EXPECT_GE(server->stats().queries_cancelled, 1);
}

TEST(FlightTest, AdmissionRejectionTravelsTheWire) {
  exec::SessionConfig config;
  config.admission_max_concurrent = 1;
  config.admission_max_queued = 0;
  auto env = std::make_shared<exec::RuntimeEnv>();
  env->query_scheduler = std::make_shared<exec::QueryScheduler>(2);
  auto ctx = MakeServerSession(200, config, env);
  ASSERT_OK_AND_ASSIGN(auto server, flight::FlightServer::Start(ctx));

  // Hold the only admission slot, then issue a query over the wire: it
  // must come back ResourcesExhausted, not hang or kill the session.
  exec::AdmissionLimits limits;
  limits.max_concurrent = 1;
  limits.max_queued = 0;
  ASSERT_OK_AND_ASSIGN(auto gate,
                       env->scheduler()->Admit(limits, nullptr, nullptr));
  ASSERT_OK_AND_ASSIGN(auto client,
                       flight::FlightClient::Connect("127.0.0.1", server->port()));
  auto rejected = client->Get("SELECT count(*) FROM t");
  ASSERT_FALSE(rejected.ok());
  EXPECT_TRUE(rejected.status().IsResourcesExhausted())
      << rejected.status().ToString();
  gate.Release();
  ASSERT_OK_AND_ASSIGN(auto ok, client->Get("SELECT count(*) FROM t"));
  EXPECT_EQ(ToStringRows(ok)[0][0], "200");
  EXPECT_GE(server->stats().queries_rejected, 1);
}

TEST(FlightTest, ConnectionDropMidStreamLeaksNothing) {
  // FairMemoryPool tracks per-consumer charges; after clients vanish
  // mid-stream, every byte and every consumer must be released.
  auto pool = std::make_shared<exec::FairMemoryPool>(256 << 20);
  auto env = std::make_shared<exec::RuntimeEnv>();
  env->memory_pool = pool;
  env->buffer_cache = nullptr;  // its cached bytes would stay by design
  auto ctx = MakeServerSession(20000, {}, env);
  flight::FlightServerOptions options;
  options.send_queue_frames = 2;  // tiny queue: the pump parks quickly
  ASSERT_OK_AND_ASSIGN(auto server, flight::FlightServer::Start(ctx, options));

  for (int round = 0; round < 8; ++round) {
    ASSERT_OK_AND_ASSIGN(
        auto client, flight::FlightClient::Connect("127.0.0.1", server->port()));
    ASSERT_OK_AND_ASSIGN(auto reader,
                         client->DoGet("SELECT id, grp, v, f, s FROM t"));
    // Pull one batch so the stream is demonstrably live, then vanish.
    ASSERT_OK_AND_ASSIGN(auto first, reader->Next());
    ASSERT_NE(first, nullptr);
    reader.reset();  // severs the connection mid-stream
    client.reset();
  }
  // The server notices the drops asynchronously; wait for teardown.
  for (int i = 0; i < 5000 && server->stats().active_sessions > 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(server->stats().active_sessions, 0);
  EXPECT_EQ(pool->bytes_allocated(), 0) << "leaked pool bytes after drops";
  EXPECT_EQ(pool->num_consumers(), 0) << "leaked pool consumers after drops";
  auto drained = server->Shutdown();
  EXPECT_EQ(drained.cancelled, 0);
  EXPECT_EQ(pool->bytes_allocated(), 0);
}

TEST(FlightTest, ScriptedWriteFaultsTearDownCleanly) {
  // flight.write fires server-side only: sends fail, sessions unwind,
  // the pool ends empty, and a fresh connection still works after the
  // injector is removed.
  auto pool = std::make_shared<exec::FairMemoryPool>(256 << 20);
  auto env = std::make_shared<exec::RuntimeEnv>();
  env->memory_pool = pool;
  env->buffer_cache = nullptr;
  auto ctx = MakeServerSession(5000, {}, env);
  ASSERT_OK_AND_ASSIGN(auto server, flight::FlightServer::Start(ctx));

  ASSERT_OK_AND_ASSIGN(auto injector,
                       FaultInjector::Make("flight.write:0.3", 11));
  FaultInjector::Install(injector);
  int failures = 0;
  for (int i = 0; i < 10; ++i) {
    auto client = flight::FlightClient::Connect("127.0.0.1", server->port());
    if (!client.ok()) continue;
    auto res = (*client)->Get("SELECT id, s FROM t WHERE id < 2000");
    if (!res.ok()) ++failures;
  }
  FaultInjector::Install(nullptr);
  EXPECT_GT(injector->injected("flight.write"), 0);
  EXPECT_GT(failures, 0) << "faults at p=0.3 over 10 queries must bite";

  for (int i = 0; i < 5000 && server->stats().active_sessions > 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(pool->bytes_allocated(), 0);
  EXPECT_EQ(pool->num_consumers(), 0);
  ASSERT_OK_AND_ASSIGN(auto client,
                       flight::FlightClient::Connect("127.0.0.1", server->port()));
  ASSERT_OK_AND_ASSIGN(auto ok, client->Get("SELECT count(*) FROM t"));
  EXPECT_EQ(ToStringRows(ok)[0][0], "5000");
}

TEST(FlightTest, MalformedFramesRejectedServerStaysUp) {
  auto ctx = MakeServerSession(50);
  ASSERT_OK_AND_ASSIGN(auto server, flight::FlightServer::Start(ctx));

  // Garbage magic: the session is torn down, the server survives.
  {
    ASSERT_OK_AND_ASSIGN(auto raw,
                         flight::ConnectTcp("127.0.0.1", server->port()));
    std::vector<uint8_t> garbage(64, 0xAB);
    ::send(raw.fd(), garbage.data(), garbage.size(), 0);
  }
  // Valid header but hostile body_len: craft manually.
  {
    ASSERT_OK_AND_ASSIGN(auto raw,
                         flight::ConnectTcp("127.0.0.1", server->port()));
    flight::BodyWriter w;
    for (int i = 0; i < 8; ++i) w.PutU64(0xFFFFFFFFFFFFFFFFull);
    auto evil = w.Finish();
    // Hand-build a header claiming a 2^60-byte body.
    uint8_t header[flight::kFrameHeaderBytes];
    uint32_t magic = flight::kFrameMagic;
    uint16_t version = flight::kProtocolVersion;
    uint64_t body_len = 1ULL << 60;
    memcpy(header, &magic, 4);
    memcpy(header + 4, &version, 2);
    header[6] = 1;
    header[7] = 0;
    memcpy(header + 8, &body_len, 8);
    ::send(raw.fd(), header, sizeof(header), 0);
    ::send(raw.fd(), evil.data(), evil.size(), 0);
  }
  // An unexpected-but-well-formed frame type gets a per-request error.
  {
    ASSERT_OK_AND_ASSIGN(auto raw,
                         flight::ConnectTcp("127.0.0.1", server->port()));
    ASSERT_OK(raw.SendFrame(flight::FrameType::kPutDone, 0, nullptr, 0));
    auto reply = raw.ReadFrame(ipc::MaxFrameBytes());
    ASSERT_OK(reply.status());
    EXPECT_EQ(reply->type, flight::FrameType::kError);
  }
  for (int i = 0; i < 5000 && server->stats().active_sessions > 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_GE(server->stats().frame_errors, 2);
  // The server still serves real clients.
  ASSERT_OK_AND_ASSIGN(auto client,
                       flight::FlightClient::Connect("127.0.0.1", server->port()));
  ASSERT_OK_AND_ASSIGN(auto ok, client->Get("SELECT count(*) FROM t"));
  EXPECT_EQ(ToStringRows(ok)[0][0], "50");
}

TEST(FlightTest, SingleFrameReplyIsNotHeldByDelayedAck) {
  // Request-reply turns on one connection; each reply (kOk) is one frame
  // with an 8-byte body. Sent as two writes, the body would wait under
  // Nagle's algorithm for the client's delayed ACK of the header (40 ms
  // or more on Linux). The server writes header and body at once, so no
  // turn waits for that timer.
  auto ctx = MakeServerSession(100);
  ASSERT_OK_AND_ASSIGN(auto server, flight::FlightServer::Start(ctx));
  ASSERT_OK_AND_ASSIGN(auto raw, flight::ConnectTcp("127.0.0.1", server->port()));
  std::vector<double> turn_ms;
  for (int i = 0; i < 48; ++i) {
    const auto start = std::chrono::steady_clock::now();
    ASSERT_OK(raw.SendFrame(flight::FrameType::kPing, 0, nullptr, 0));
    ASSERT_OK_AND_ASSIGN(auto reply, raw.ReadFrame(ipc::MaxFrameBytes()));
    ASSERT_EQ(reply.type, flight::FrameType::kOk);
    ASSERT_EQ(reply.body.size(), 8u);
    turn_ms.push_back(std::chrono::duration<double, std::milli>(
                          std::chrono::steady_clock::now() - start)
                          .count());
  }
  // The first turns run in the client's quick-ACK start; the last 16 run
  // in the delayed-ACK mode of a long session. Their median is far below
  // one timer wait.
  std::vector<double> last(turn_ms.end() - 16, turn_ms.end());
  std::nth_element(last.begin(), last.begin() + 8, last.end());
  EXPECT_LT(last[8], 10.0);
}

TEST(FlightTest, GracefulDrainFinishesInFlightWork) {
  auto ctx = MakeServerSession(4000);
  ASSERT_OK_AND_ASSIGN(auto server, flight::FlightServer::Start(ctx));

  // A client mid-query while Shutdown runs: the query must complete
  // with full, correct results.
  std::atomic<bool> started{false};
  Status client_status = Status::OK();
  std::vector<RecordBatchPtr> got;
  std::thread worker([&] {
    auto client = flight::FlightClient::Connect("127.0.0.1", server->port());
    if (!client.ok()) {
      client_status = client.status();
      started.store(true);
      return;
    }
    // Connect only opens the TCP connection; the ping's reply shows the
    // server has accepted it before the query is sent.
    Status ping = (*client)->Ping();
    if (!ping.ok()) {
      client_status = ping;
      started.store(true);
      return;
    }
    auto reader = (*client)->DoGet(
        "SELECT grp, count(*), sum(v), sum(f) FROM t GROUP BY grp");
    if (!reader.ok()) {
      client_status = reader.status();
      started.store(true);
      return;
    }
    started.store(true);
    for (;;) {
      auto batch = (*reader)->Next();
      if (!batch.ok()) {
        client_status = batch.status();
        return;
      }
      if (*batch == nullptr) return;
      got.push_back(std::move(*batch));
    }
  });
  while (!started.load()) std::this_thread::sleep_for(std::chrono::milliseconds(1));
  auto drained = server->Shutdown(/*drain_timeout_ms=*/10000);
  worker.join();
  ASSERT_OK(client_status);
  ASSERT_OK_AND_ASSIGN(auto expected,
                       ctx->ExecuteSql(
                           "SELECT grp, count(*), sum(v), sum(f) FROM t GROUP BY grp"));
  EXPECT_EQ(SortedStringRows(got), SortedStringRows(expected));
  EXPECT_EQ(drained.cancelled, 0);
  EXPECT_EQ(server->stats().active_sessions, 0);
  // Drained servers refuse new connections.
  auto refused = flight::FlightClient::Connect("127.0.0.1", server->port());
  if (refused.ok()) {
    EXPECT_FALSE((*refused)->Ping().ok());
  }
}

TEST(FlightTest, ConnectionLimitRefusesCleanly) {
  auto ctx = MakeServerSession(20);
  flight::FlightServerOptions options;
  options.max_connections = 2;
  ASSERT_OK_AND_ASSIGN(auto server, flight::FlightServer::Start(ctx, options));
  ASSERT_OK_AND_ASSIGN(auto c1,
                       flight::FlightClient::Connect("127.0.0.1", server->port()));
  ASSERT_OK_AND_ASSIGN(auto c2,
                       flight::FlightClient::Connect("127.0.0.1", server->port()));
  ASSERT_OK(c1->Ping());
  ASSERT_OK(c2->Ping());
  ASSERT_OK_AND_ASSIGN(auto c3,
                       flight::FlightClient::Connect("127.0.0.1", server->port()));
  auto refused = c3->Ping();
  ASSERT_FALSE(refused.ok());
  EXPECT_TRUE(refused.IsResourcesExhausted() || refused.IsIOError())
      << refused.ToString();
  EXPECT_GE(server->stats().refused, 1);
  // Freeing a slot lets new clients in.
  c1.reset();
  for (int i = 0; i < 5000 && server->stats().active_sessions > 1; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_OK_AND_ASSIGN(auto c4,
                       flight::FlightClient::Connect("127.0.0.1", server->port()));
  ASSERT_OK(c4->Ping());
}

}  // namespace
}  // namespace test
}  // namespace fusion
