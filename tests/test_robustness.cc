// Robustness tests: query cancellation and deadlines, exchange-queue
// edge cases, fault injection, fair-pool consumer lifecycle, disk
// manager validation and spill quotas, and spilled top-k correctness.

#include "tests/test_util.h"

#include <chrono>
#include <thread>

#include "common/fault_injector.h"
#include "exec/cancellation.h"
#include "exec/disk_manager.h"
#include "exec/memory_pool.h"
#include "physical/exchange_exec.h"
#include "physical/sort_exec.h"

namespace fusion {
namespace test {
namespace {

using Clock = std::chrono::steady_clock;

int64_t ElapsedMs(Clock::time_point start) {
  return std::chrono::duration_cast<std::chrono::milliseconds>(Clock::now() -
                                                               start)
      .count();
}

/// Uninstalls any process-global fault injector on scope exit so a
/// failing test cannot poison the rest of the binary.
struct FaultInjectorGuard {
  explicit FaultInjectorGuard(FaultInjectorPtr injector) {
    FaultInjector::Install(std::move(injector));
  }
  ~FaultInjectorGuard() { FaultInjector::Install(nullptr); }
};

// ------------------------------------------------------ CancellationToken

TEST(CancellationTokenTest, CancelLatches) {
  auto token = exec::CancellationToken::Make();
  EXPECT_FALSE(token->IsCancelled());
  ASSERT_OK(token->CheckStatus());
  token->Cancel();
  EXPECT_TRUE(token->IsCancelled());
  Status st = token->CheckStatus();
  EXPECT_TRUE(st.IsCancelled()) << st.ToString();
  EXPECT_NE(st.message().find("cancelled"), std::string::npos);
  // Latching: a later deadline expiry cannot change the reason.
  token->SetTimeout(0);
  EXPECT_NE(token->CheckStatus().message().find("cancelled"),
            std::string::npos);
}

TEST(CancellationTokenTest, DeadlineExpires) {
  auto token = exec::CancellationToken::WithTimeout(20);
  EXPECT_TRUE(token->has_deadline());
  EXPECT_FALSE(token->IsCancelled());
  std::this_thread::sleep_for(std::chrono::milliseconds(40));
  Status st = token->CheckStatus();
  EXPECT_TRUE(st.IsCancelled()) << st.ToString();
  EXPECT_NE(st.message().find("deadline"), std::string::npos);
}

// ---------------------------------------------------------- FaultInjector

TEST(FaultInjectorTest, ParseSpecAndCodes) {
  ASSERT_OK_AND_ASSIGN(auto inj,
                       FaultInjector::Make("pool.grow:1.0,ipc.write:1"));
  // pool.* sites inject OutOfMemory, everything else IOError.
  Status pool_st = inj->MaybeInject("pool.grow");
  EXPECT_TRUE(pool_st.IsOutOfMemory()) << pool_st.ToString();
  Status io_st = inj->MaybeInject("ipc.write");
  EXPECT_TRUE(io_st.IsIOError()) << io_st.ToString();
  EXPECT_NE(io_st.message().find("fault-injected"), std::string::npos);
  EXPECT_NE(io_st.message().find("ipc.write"), std::string::npos);
  // Unscripted sites never fire.
  ASSERT_OK(inj->MaybeInject("disk.create"));
  EXPECT_EQ(inj->injected("pool.grow"), 1);
  EXPECT_EQ(inj->total_injected(), 2);

  EXPECT_RAISES(FaultInjector::Make("pool.grow:2.0").status());
  EXPECT_RAISES(FaultInjector::Make("nonsense").status());
  EXPECT_RAISES(FaultInjector::Make("a:0.5,:0.5").status());
}

TEST(FaultInjectorTest, DeterministicAndInstallable) {
  ASSERT_OK_AND_ASSIGN(auto inj, FaultInjector::Make("ipc.read:0.5", 42));
  std::vector<bool> first;
  for (int i = 0; i < 64; ++i) first.push_back(!inj->MaybeInject("ipc.read").ok());
  inj->Reseed(42);
  for (int i = 0; i < 64; ++i) {
    EXPECT_EQ(!inj->MaybeInject("ipc.read").ok(), first[i]) << "draw " << i;
  }
  EXPECT_GT(inj->total_injected(), 0);
  EXPECT_LT(inj->injected("ipc.read"), 128);

  {
    FaultInjectorGuard guard(inj);
    EXPECT_EQ(FaultInjector::Current(), inj);
  }
  // Uninstalled: the static hook is a no-op again.
  for (int i = 0; i < 32; ++i) ASSERT_OK(FaultInjector::Maybe("ipc.read"));
}

// ------------------------------------------------------------- BatchQueue

RecordBatchPtr MakeIntBatch(int64_t start, int64_t rows) {
  Int64Builder b;
  for (int64_t i = 0; i < rows; ++i) b.Append(start + i);
  auto schema = fusion::schema({Field("x", int64(), false)});
  return std::make_shared<RecordBatch>(
      schema, rows, std::vector<ArrayPtr>{b.Finish().ValueOrDie()});
}

TEST(BatchQueueTest, ErrorBeforeData) {
  physical::BatchQueue queue(4);
  queue.AddProducer();
  queue.PushError(Status::IOError("boom"));
  queue.ProducerDone();
  auto res = queue.Pop();
  ASSERT_FALSE(res.ok());
  EXPECT_TRUE(res.status().IsIOError());
  // The error sticks for every later Pop.
  EXPECT_FALSE(queue.Pop().ok());
}

TEST(BatchQueueTest, ErrorAfterData) {
  physical::BatchQueue queue(4);
  queue.AddProducer();
  queue.Push(MakeIntBatch(0, 8));
  queue.PushError(Status::ExecutionError("mid-stream"));
  queue.ProducerDone();
  // The error preempts buffered data: a consumer never sees a
  // truncated-but-OK stream.
  auto res = queue.Pop();
  ASSERT_FALSE(res.ok());
  EXPECT_TRUE(res.status().IsExecutionError());
}

TEST(BatchQueueTest, CloseUnblocksBlockedProducers) {
  auto queue = std::make_shared<physical::BatchQueue>(1);
  queue->AddProducer();
  std::atomic<int> pushed{0};
  std::thread producer([queue, &pushed] {
    for (int i = 0; i < 100; ++i) {
      queue->Push(MakeIntBatch(i, 4));  // blocks at capacity 1
      pushed.fetch_add(1);
    }
    queue->ProducerDone();
  });
  // Let the producer fill the queue and block.
  while (pushed.load() == 0) std::this_thread::sleep_for(std::chrono::milliseconds(1));
  queue->Close();
  producer.join();  // must not hang: pushes become drops after Close
  EXPECT_TRUE(queue->closed());
  ASSERT_OK_AND_ASSIGN(auto batch, queue->Pop());
  EXPECT_EQ(batch, nullptr);  // closed queue reads as end-of-stream
}

TEST(BatchQueueTest, CancelUnblocksConsumerAndProducer) {
  auto token = exec::CancellationToken::Make();
  auto queue = std::make_shared<physical::BatchQueue>(1, token);
  queue->AddProducer();

  // Blocked consumer (empty queue) is woken by the cancellation
  // listener the moment Cancel latches — no polling tick to wait out.
  std::thread canceller([token] {
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
    token->Cancel();
  });
  auto start = Clock::now();
  auto res = queue->Pop();
  canceller.join();
  ASSERT_FALSE(res.ok());
  EXPECT_TRUE(res.status().IsCancelled());
  EXPECT_LT(ElapsedMs(start), 1000);

  // Blocked producer (full queue) also unblocks; its push is dropped.
  queue->Push(MakeIntBatch(0, 1));
  queue->Push(MakeIntBatch(1, 1));  // would block forever if not cancelled
  queue->ProducerDone();
}

// -------------------------------------------- exchange operator teardown

/// Test source: `partitions` streams, each emitting `batches` small
/// batches, optionally failing partition 0 at batch index `fail_at`.
class ScriptedSourceExec : public physical::ExecutionPlan {
 public:
  ScriptedSourceExec(int partitions, int64_t batches, int64_t fail_at = -1)
      : partitions_(partitions), batches_(batches), fail_at_(fail_at),
        schema_(fusion::schema({Field("x", int64(), false)})) {}

  std::string name() const override { return "ScriptedSourceExec"; }
  SchemaPtr schema() const override { return schema_; }
  int output_partitions() const override { return partitions_; }

  Result<exec::StreamPtr> ExecuteImpl(
      int partition, const physical::ExecContextPtr&) override {
    auto emitted = std::make_shared<int64_t>(0);
    int64_t batches = batches_;
    int64_t fail_at = partition == 0 ? fail_at_ : -1;
    SchemaPtr schema = schema_;
    return exec::StreamPtr(std::make_unique<exec::GeneratorStream>(
        schema, [emitted, batches, fail_at]() -> Result<RecordBatchPtr> {
          if (fail_at >= 0 && *emitted == fail_at) {
            return Status::ExecutionError("scripted source failure");
          }
          if (*emitted >= batches) return RecordBatchPtr(nullptr);
          return MakeIntBatch((*emitted)++, 16);
        }));
  }

 private:
  int partitions_;
  int64_t batches_;
  int64_t fail_at_;
  SchemaPtr schema_;
};

/// Single-partition source replaying a fixed batch list.
class VectorSourceExec : public physical::ExecutionPlan {
 public:
  VectorSourceExec(SchemaPtr schema, std::vector<RecordBatchPtr> batches)
      : schema_(std::move(schema)), batches_(std::move(batches)) {}

  std::string name() const override { return "VectorSourceExec"; }
  SchemaPtr schema() const override { return schema_; }
  int output_partitions() const override { return 1; }

  Result<exec::StreamPtr> ExecuteImpl(int, const physical::ExecContextPtr&) override {
    return exec::StreamPtr(
        std::make_unique<exec::VectorStream>(schema_, batches_));
  }

 private:
  SchemaPtr schema_;
  std::vector<RecordBatchPtr> batches_;
};

physical::ExecContextPtr MakeBareExecContext() {
  auto ctx = std::make_shared<physical::ExecContext>();
  ctx->env = std::make_shared<exec::RuntimeEnv>();
  return ctx;
}

TEST(CoalesceTest, ProducerErrorPropagates) {
  auto source = std::make_shared<ScriptedSourceExec>(4, 1000, /*fail_at=*/3);
  auto plan = std::make_shared<physical::CoalescePartitionsExec>(source);
  auto ctx = MakeBareExecContext();
  ASSERT_OK_AND_ASSIGN(auto stream, plan->Execute(0, ctx));
  Status st = Status::OK();
  for (;;) {
    auto batch = stream->Next();
    if (!batch.ok()) {
      st = batch.status();
      break;
    }
    if (*batch == nullptr) break;
  }
  EXPECT_TRUE(st.IsExecutionError()) << st.ToString();
  EXPECT_NE(st.message().find("scripted source failure"), std::string::npos);
  // Dropping the stream must join all producer threads (ASan/tsan-clean).
  stream.reset();
}

TEST(CoalesceTest, ConsumerAbandonsMidStream) {
  auto source = std::make_shared<ScriptedSourceExec>(4, 1 << 20);
  auto plan = std::make_shared<physical::CoalescePartitionsExec>(source);
  auto ctx = MakeBareExecContext();
  auto start = Clock::now();
  {
    ASSERT_OK_AND_ASSIGN(auto stream, plan->Execute(0, ctx));
    ASSERT_OK_AND_ASSIGN(auto batch, stream->Next());
    EXPECT_NE(batch, nullptr);
    // Stream dropped here with ~4M batches unproduced; the producer
    // tasks must see the closed queue and finish promptly, not drain.
  }
  EXPECT_LT(ElapsedMs(start), 5000);
}

std::vector<physical::PhysicalSortExpr> SortByX() {
  return {{std::make_shared<physical::ColumnExpr>("x", 0, int64()), {}}};
}

TEST(SortPreservingMergeTest, ProducerErrorPropagates) {
  auto source = std::make_shared<ScriptedSourceExec>(4, 1000, /*fail_at=*/3);
  auto plan = std::make_shared<physical::SortPreservingMergeExec>(source, SortByX());
  auto ctx = MakeBareExecContext();
  ASSERT_OK_AND_ASSIGN(auto stream, plan->Execute(0, ctx));
  Status st = Status::OK();
  for (;;) {
    auto batch = stream->Next();
    if (!batch.ok()) {
      st = batch.status();
      break;
    }
    if (*batch == nullptr) break;
  }
  EXPECT_TRUE(st.IsExecutionError()) << st.ToString();
  EXPECT_NE(st.message().find("scripted source failure"), std::string::npos);
  stream.reset();
  ASSERT_OK(ctx->EnsureTaskGroup()->Finish());
}

TEST(SortPreservingMergeTest, ConsumerAbandonsMidStream) {
  auto source = std::make_shared<ScriptedSourceExec>(4, 1 << 20);
  auto plan = std::make_shared<physical::SortPreservingMergeExec>(source, SortByX());
  auto ctx = MakeBareExecContext();
  auto start = Clock::now();
  {
    ASSERT_OK_AND_ASSIGN(auto stream, plan->Execute(0, ctx));
    ASSERT_OK_AND_ASSIGN(auto batch, stream->Next());
    EXPECT_NE(batch, nullptr);
    // Dropping the merge closes every input queue; the producers, each
    // with ~1M batches left, drop their batches and finish.
  }
  ASSERT_OK(ctx->EnsureTaskGroup()->Finish());
  EXPECT_LT(ElapsedMs(start), 5000);
}

// --------------------------------------------------- SQL-level cancellation

// Large enough that the engine cannot finish before the cancel lands,
// small enough that a broken cancellation path still fails (slowly)
// rather than running forever: count(*) keeps the result tiny.
const char* kBigCrossJoin =
    "SELECT count(*) FROM t a CROSS JOIN t b CROSS JOIN t c";

TEST(CancelSqlTest, TokenCancelsCrossJoin) {
  auto session = MakeTestSession(600);
  auto token = exec::CancellationToken::Make();
  Status st = Status::OK();
  std::thread runner([&] {
    auto res = session->ExecuteSql(kBigCrossJoin, token);
    st = res.ok() ? Status::OK() : res.status();
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  token->Cancel();
  auto start = Clock::now();
  runner.join();
  // All partition drivers and producer tasks wound down promptly after
  // the cancel (join returned), and the query surfaced Status::Cancelled.
  // Cancellation is event-driven (no polling slack), so the unwind is
  // bounded by one batch of compute per task, not a poll interval.
  EXPECT_LT(ElapsedMs(start), 5000);
  EXPECT_TRUE(st.IsCancelled()) << st.ToString();
}

TEST(CancelSqlTest, DeadlineCancelsCrossJoin) {
  auto session = MakeTestSession(600);
  auto start = Clock::now();
  auto res = session->ExecuteSqlWithTimeout(kBigCrossJoin, 100);
  ASSERT_FALSE(res.ok());
  EXPECT_TRUE(res.status().IsCancelled()) << res.status().ToString();
  EXPECT_NE(res.status().message().find("deadline"), std::string::npos);
  // 100 ms deadline + event-driven wakeup: blocked waits use
  // wait_until(deadline), so the whole query (deadline included) fits
  // well inside a few seconds even under sanitizers.
  EXPECT_LT(ElapsedMs(start), 5000);
}

TEST(CancelSqlTest, CancelAndDeadlineDuringMergeReleasePool) {
  // ORDER BY at 4 partitions: the cancel lands while the merge's
  // producers run the cross join into their sorts. Few rows pass the
  // filter, so the sorts stay small while the join runs for seconds.
  exec::SessionConfig config;
  config.target_partitions = 4;
  auto session = MakeTestSession(600, config);
  const char* q =
      "SELECT a.id, b.id AS b_id, c.id AS c_id FROM t a CROSS JOIN t b "
      "CROSS JOIN t c WHERE a.id + b.id + c.id = 900 ORDER BY a.id, b_id";
  ASSERT_OK_AND_ASSIGN(auto plan, session->CreateLogicalPlan(q));
  ASSERT_OK_AND_ASSIGN(auto optimized, session->OptimizePlan(plan));
  ASSERT_OK_AND_ASSIGN(auto exec_plan, session->CreatePhysicalPlan(optimized));
  ASSERT_NE(exec_plan->ToString().find("SortPreservingMergeExec"), std::string::npos)
      << exec_plan->ToString();
  const auto& pool = session->env()->memory_pool;
  // Under a FUSION_FAULTS script an injected pool or disk fault in a
  // sort may end the query before the cancel does.
  auto cancelled_or_injected = [](const Status& st) {
    return st.IsCancelled() || st.message().find("fault-injected") != std::string::npos;
  };

  auto token = exec::CancellationToken::Make();
  Status st = Status::OK();
  std::thread runner([&] {
    auto res = session->ExecuteSql(q, token);
    st = res.ok() ? Status::OK() : res.status();
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  token->Cancel();
  auto start = Clock::now();
  runner.join();
  EXPECT_LT(ElapsedMs(start), 5000);
  EXPECT_TRUE(cancelled_or_injected(st)) << st.ToString();
  EXPECT_EQ(pool->bytes_allocated(), 0);

  start = Clock::now();
  auto res = session->ExecuteSqlWithTimeout(q, 100);
  ASSERT_FALSE(res.ok());
  EXPECT_TRUE(cancelled_or_injected(res.status())) << res.status().ToString();
  if (res.status().IsCancelled()) {
    EXPECT_NE(res.status().message().find("deadline"), std::string::npos);
  }
  EXPECT_LT(ElapsedMs(start), 5000);
  EXPECT_EQ(pool->bytes_allocated(), 0);
}

TEST(CancelSqlTest, SessionTimeoutConfig) {
  exec::SessionConfig config;
  config.timeout_ms = 100;
  auto session = MakeTestSession(600, config);
  auto res = session->ExecuteSql(kBigCrossJoin);
  ASSERT_FALSE(res.ok());
  EXPECT_TRUE(res.status().IsCancelled()) << res.status().ToString();
  // Fast queries still complete under the same session deadline.
  ASSERT_OK_AND_ASSIGN(auto rows, session->ExecuteSql("SELECT count(*) FROM t"));
  EXPECT_EQ(TotalRows(rows), 1);
}

// ------------------------------------------------------------- Fair pool

TEST(FairPoolTest, NestedRegistrationCounts) {
  exec::FairMemoryPool pool(1000);
  pool.RegisterConsumer("a");
  pool.RegisterConsumer("a");  // same name registered twice (two streams)
  pool.RegisterConsumer("b");
  EXPECT_EQ(pool.num_consumers(), 2);
  pool.DeregisterConsumer("a");
  EXPECT_EQ(pool.num_consumers(), 2);  // still one "a" registration live
  pool.DeregisterConsumer("a");
  EXPECT_EQ(pool.num_consumers(), 1);
  // With only "b" left its share is the whole budget again.
  ASSERT_OK(pool.Grow("b", 1000));
  pool.Shrink("b", 1000);
}

TEST(FairPoolTest, SharesDoNotDecayAcrossQueries) {
  // Regression: per-query consumers ("sort-<query>-<partition>") used to
  // register on first Grow and never deregister, so every query shrank
  // all later queries' shares until spilling queries could not hold even
  // one batch. The same spilling query must keep succeeding.
  exec::SessionConfig config;
  config.target_partitions = 2;
  auto pool = std::make_shared<exec::FairMemoryPool>(512 * 1024);
  auto env = std::make_shared<exec::RuntimeEnv>();
  env->memory_pool = pool;
  auto session = core::SessionContext::Make(config, env);

  std::mt19937 rng(7);
  Int64Builder key;
  StringBuilder payload;
  for (int64_t i = 0; i < 20000; ++i) {
    key.Append(static_cast<int64_t>(rng()));
    payload.Append("payload-" + std::to_string(rng() % 100000));
  }
  auto schema = fusion::schema({Field("k", int64(), false),
                                Field("p", utf8(), false)});
  std::vector<ArrayPtr> cols = {key.Finish().ValueOrDie(),
                                payload.Finish().ValueOrDie()};
  auto batch = std::make_shared<RecordBatch>(schema, 20000, std::move(cols));
  auto table =
      catalog::MemoryTable::Make(schema, SliceBatch(batch, 2048)).ValueOrDie();
  ASSERT_OK(session->RegisterTable("data", table));

  std::vector<StringRow> expected;
  for (int run = 0; run < 5; ++run) {
    ASSERT_OK_AND_ASSIGN(auto rows,
                         session->ExecuteSql("SELECT k, p FROM data ORDER BY k"));
    if (run == 0) {
      expected = ToStringRows(rows);
    } else {
      EXPECT_EQ(ToStringRows(rows), expected) << "run " << run;
    }
    // Every query's consumers deregistered and freed their bytes.
    EXPECT_EQ(pool->num_consumers(), 0) << "run " << run;
    EXPECT_EQ(pool->bytes_allocated(), 0) << "run " << run;
  }
}

// ----------------------------------------------------------- DiskManager

TEST(DiskManagerTest, BadSpillDirFailsFastWithPath) {
  auto dm = std::make_shared<exec::DiskManager>("/proc/no/such/spill-dir");
  auto res = dm->CreateTempFile("x");
  ASSERT_FALSE(res.ok());
  EXPECT_NE(res.status().message().find("/proc/no/such/spill-dir"),
            std::string::npos)
      << res.status().ToString();
  // The validation result is cached: same clean failure, no retry limbo.
  EXPECT_FALSE(dm->CreateTempFile("y").ok());
}

TEST(DiskManagerTest, SpillQuotaEnforcedAndReleased) {
  auto dm = std::make_shared<exec::DiskManager>("", /*max_spill_bytes=*/1000);
  ASSERT_OK_AND_ASSIGN(auto f1, dm->CreateTempFile("a"));
  ASSERT_OK(f1->Reserve(800));
  EXPECT_EQ(dm->spill_bytes_in_use(), 800);

  ASSERT_OK_AND_ASSIGN(auto f2, dm->CreateTempFile("b"));
  Status st = f2->Reserve(300);
  ASSERT_FALSE(st.ok());
  EXPECT_TRUE(st.IsResourcesExhausted()) << st.ToString();
  EXPECT_NE(st.message().find("spill limit"), std::string::npos);
  EXPECT_EQ(dm->spill_bytes_in_use(), 800);  // failed reserve rolled back

  ASSERT_OK(f2->Reserve(200));  // fits exactly
  EXPECT_EQ(dm->spill_bytes_in_use(), 1000);
  f1.reset();  // dropping the file returns its bytes
  EXPECT_EQ(dm->spill_bytes_in_use(), 200);
  ASSERT_OK(f2->Reserve(700));
}

TEST(DiskManagerTest, QuotaSurfacesInSpillingQuery) {
  exec::SessionConfig config;
  config.target_partitions = 1;
  auto env = std::make_shared<exec::RuntimeEnv>();
  env->memory_pool = std::make_shared<exec::GreedyMemoryPool>(256 * 1024);
  env->disk_manager =
      std::make_shared<exec::DiskManager>("", /*max_spill_bytes=*/64 * 1024);
  auto session = core::SessionContext::Make(config, env);

  std::mt19937 rng(3);
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
  ASSERT_OK(session->RegisterTable("data", table));

  // The sort must spill far more than 64KB: clean ResourcesExhausted.
  auto res = session->ExecuteSql("SELECT k, p FROM data ORDER BY k");
  ASSERT_FALSE(res.ok());
  EXPECT_TRUE(res.status().IsResourcesExhausted()) << res.status().ToString();
  // The engine stays usable afterwards (no leaked pool bytes).
  EXPECT_EQ(env->memory_pool->bytes_allocated(), 0);
  EXPECT_EQ(env->disk_manager->spill_bytes_in_use(), 0);
}

// -------------------------------------------------- spilled top-k fetch

TEST(SortSpillTest, SpilledSortHonorsFetch) {
  // Regression: the spill-merge path ignored the sort's fetch, returning
  // every row. Disable the Top-K shortcut so the external path runs with
  // fetch set, and force spills with a tight budget.
  exec::SessionConfig config;
  config.enable_topk = false;
  config.target_partitions = 1;
  auto env = std::make_shared<exec::RuntimeEnv>();
  env->memory_pool = std::make_shared<exec::GreedyMemoryPool>(256 * 1024);
  auto session = core::SessionContext::Make(config, env);
  auto big_session = core::SessionContext::Make(config);

  std::mt19937 rng(5);
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
  ASSERT_OK(session->RegisterTable("data", table));
  ASSERT_OK(big_session->RegisterTable("data", table));

  const char* q = "SELECT k, p FROM data ORDER BY k LIMIT 100";
  ASSERT_OK_AND_ASSIGN(auto spilled, session->ExecuteSql(q));
  ASSERT_OK_AND_ASSIGN(auto in_memory, big_session->ExecuteSql(q));
  EXPECT_EQ(TotalRows(spilled), 100);
  EXPECT_EQ(ToStringRows(spilled), ToStringRows(in_memory));
}

TEST(SortSpillTest, SpillMergeCapsAtFetchOperatorLevel) {
  // Regression at the operator level (SQL plans add a LimitExec above
  // the sort, which would mask this): a SortExec with fetch set that
  // spills must itself cap its merged output at fetch rows.
  std::mt19937 rng(17);
  Int64Builder key;
  StringBuilder payload;
  const int64_t kRows = 50000;
  for (int64_t i = 0; i < kRows; ++i) {
    key.Append(static_cast<int64_t>(rng()));
    payload.Append("payload-" + std::to_string(rng() % 100000));
  }
  auto schema = fusion::schema({Field("k", int64(), false),
                                Field("p", utf8(), false)});
  std::vector<ArrayPtr> cols = {key.Finish().ValueOrDie(),
                                payload.Finish().ValueOrDie()};
  auto batch = std::make_shared<RecordBatch>(schema, kRows, std::move(cols));

  auto source = std::make_shared<VectorSourceExec>(schema, SliceBatch(batch, 4096));
  std::vector<physical::PhysicalSortExpr> sort_exprs;
  sort_exprs.push_back(
      {std::make_shared<physical::ColumnExpr>("k", 0, int64()), {}});
  auto sort = std::make_shared<physical::SortExec>(source, sort_exprs,
                                                   /*fetch=*/100);

  auto ctx = MakeBareExecContext();
  ctx->config.enable_topk = false;  // force the external-sort path
  ctx->env->memory_pool = std::make_shared<exec::GreedyMemoryPool>(256 * 1024);
  ASSERT_OK_AND_ASSIGN(auto stream, sort->Execute(0, ctx));
  ASSERT_OK_AND_ASSIGN(auto batches, exec::CollectStream(stream.get()));
  EXPECT_GT(sort->spill_count(), 0) << "budget did not force a spill";
  EXPECT_EQ(TotalRows(batches), 100);

  // The 100 rows are the true minimum keys in order.
  auto full_ctx = MakeBareExecContext();
  full_ctx->config.enable_topk = false;
  auto full_sort = std::make_shared<physical::SortExec>(source, sort_exprs);
  ASSERT_OK_AND_ASSIGN(auto full_stream, full_sort->Execute(0, full_ctx));
  ASSERT_OK_AND_ASSIGN(auto full, exec::CollectStream(full_stream.get()));
  auto expected = ToStringRows(full);
  expected.resize(100);
  EXPECT_EQ(ToStringRows(batches), expected);
}

// -------------------------------------------------- fault-injected queries

TEST(FaultEndToEndTest, IpcWriteFaultIsCleanError) {
  ASSERT_OK_AND_ASSIGN(auto inj, FaultInjector::Make("ipc.write:1.0", 1));
  exec::SessionConfig config;
  config.target_partitions = 1;
  auto env = std::make_shared<exec::RuntimeEnv>();
  env->memory_pool = std::make_shared<exec::GreedyMemoryPool>(128 * 1024);
  auto session = MakeTestSession(20000, config);
  session->env()->memory_pool = env->memory_pool;

  FaultInjectorGuard guard(inj);
  // The sort spills, every spill write fails: clean IOError, no crash,
  // no leaked reservations.
  auto res = session->ExecuteSql("SELECT id, s FROM t ORDER BY s");
  if (!res.ok()) {
    EXPECT_TRUE(res.status().IsIOError()) << res.status().ToString();
    EXPECT_NE(res.status().message().find("fault-injected"), std::string::npos);
  }
  EXPECT_GT(inj->injected("ipc.write"), 0);
  EXPECT_EQ(env->memory_pool->bytes_allocated(), 0);
}

TEST(FaultEndToEndTest, PoolGrowFaultIsCleanError) {
  ASSERT_OK_AND_ASSIGN(auto inj, FaultInjector::Make("pool.grow:1.0", 1));
  auto session = MakeTestSession(20000);
  FaultInjectorGuard guard(inj);
  auto res = session->ExecuteSql("SELECT grp, count(*) FROM t GROUP BY grp");
  if (!res.ok()) {
    EXPECT_TRUE(res.status().IsOutOfMemory()) << res.status().ToString();
  }
  EXPECT_GT(inj->total_injected(), 0);
}

}  // namespace
}  // namespace test
}  // namespace fusion
