// Tests for the runtime primitives: Status/Result and the exchange
// BatchQueue.

#include "tests/test_util.h"

#include <atomic>
#include <thread>

#include "physical/exchange_exec.h"

namespace fusion {
namespace test {
namespace {

TEST(StatusTest, CodesAndMessages) {
  EXPECT_TRUE(Status::OK().ok());
  Status s = Status::Invalid("bad input");
  EXPECT_FALSE(s.ok());
  EXPECT_TRUE(s.IsInvalid());
  EXPECT_EQ(s.message(), "bad input");
  EXPECT_EQ(s.ToString(), "Invalid: bad input");
  EXPECT_TRUE(Status::OutOfMemory("x").IsOutOfMemory());
  EXPECT_TRUE(Status::NotImplemented("x").IsNotImplemented());
  EXPECT_TRUE(Status::ParseError("x").IsParseError());
  // Copies share the error state.
  Status copy = s;
  EXPECT_EQ(copy.message(), "bad input");
}

TEST(ResultTest, ValueAndError) {
  Result<int> ok(42);
  EXPECT_TRUE(ok.ok());
  EXPECT_EQ(*ok, 42);
  Result<int> err(Status::KeyError("nope"));
  EXPECT_FALSE(err.ok());
  EXPECT_TRUE(err.status().IsKeyError());
  // Moving the value out.
  Result<std::string> str(std::string("hello"));
  std::string moved = std::move(str).ValueOrDie();
  EXPECT_EQ(moved, "hello");
}

TEST(ResultTest, MacroPropagation) {
  auto inner = [](bool fail) -> Result<int> {
    if (fail) return Status::Invalid("inner failed");
    return 7;
  };
  auto outer = [&](bool fail) -> Result<int> {
    FUSION_ASSIGN_OR_RAISE(int v, inner(fail));
    return v * 2;
  };
  ASSERT_OK_AND_ASSIGN(int v, outer(false));
  EXPECT_EQ(v, 14);
  EXPECT_TRUE(outer(true).status().IsInvalid());
}

TEST(BatchQueueTest, ProducerConsumerEndToEnd) {
  physical::BatchQueue queue(4);
  queue.AddProducer();
  auto schema = fusion::schema({Field("x", int64(), false)});
  std::thread producer([&] {
    for (int i = 0; i < 10; ++i) {
      auto batch = std::make_shared<RecordBatch>(
          schema, 1, std::vector<ArrayPtr>{MakeInt64Array({i})});
      queue.Push(std::move(batch));
    }
    queue.ProducerDone();
  });
  int64_t seen = 0;
  for (;;) {
    auto batch = queue.Pop();
    ASSERT_OK(batch.status());
    if (*batch == nullptr) break;
    ++seen;
  }
  EXPECT_EQ(seen, 10);
  producer.join();
}

TEST(BatchQueueTest, ErrorPropagatesToConsumer) {
  physical::BatchQueue queue(4);
  queue.AddProducer();
  queue.PushError(Status::IOError("disk gone"));
  auto result = queue.Pop();
  EXPECT_TRUE(result.status().IsIOError());
}

TEST(BatchQueueTest, CloseUnblocksFullProducer) {
  physical::BatchQueue queue(1);
  queue.AddProducer();
  auto schema = fusion::schema({Field("x", int64(), false)});
  auto make = [&] {
    return std::make_shared<RecordBatch>(
        schema, 1, std::vector<ArrayPtr>{MakeInt64Array({0})});
  };
  queue.Push(make());  // fills capacity
  std::atomic<bool> second_push_returned{false};
  std::thread producer([&] {
    queue.Push(make());  // blocks until Close
    second_push_returned.store(true);
    queue.ProducerDone();
  });
  // Give the producer a moment to block, then close.
  for (int i = 0; i < 100 && !second_push_returned.load(); ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    if (i == 10) queue.Close();
  }
  producer.join();
  EXPECT_TRUE(second_push_returned.load());
  // A closed queue pops end-of-stream.
  auto result = queue.Pop();
  ASSERT_OK(result.status());
  EXPECT_EQ(*result, nullptr);
}

TEST(CoalesceBatchesTest, SmallBatchesMergedToTarget) {
  // Feed 100 one-row batches through a filter that keeps everything;
  // CoalesceBatches should re-chunk to the session batch size.
  exec::SessionConfig config;
  config.batch_size = 32;
  // One partition: coalescing happens per partition, and splitting 100
  // rows across several would leave each below the 32-row target.
  config.target_partitions = 1;
  auto ctx = core::SessionContext::Make(config);
  auto schema = fusion::schema({Field("x", int64(), false)});
  std::vector<RecordBatchPtr> tiny;
  for (int64_t i = 0; i < 100; ++i) {
    tiny.push_back(std::make_shared<RecordBatch>(
        schema, 1, std::vector<ArrayPtr>{MakeInt64Array({i})}));
  }
  ctx->RegisterTable("d", catalog::MemoryTable::Make(schema, tiny).ValueOrDie())
      .Abort();
  ASSERT_OK_AND_ASSIGN(auto batches,
                       ctx->ExecuteSql("SELECT x FROM d WHERE x >= 0"));
  EXPECT_EQ(TotalRows(batches), 100);
  // Re-chunked: far fewer batches than 100, each near the 32-row target.
  EXPECT_LE(batches.size(), 5u);
  EXPECT_GE(batches[0]->num_rows(), 32);
}

}  // namespace
}  // namespace test
}  // namespace fusion
