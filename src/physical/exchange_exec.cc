#include "physical/exchange_exec.h"

#include <chrono>
#include <utility>

namespace fusion {
namespace physical {

BatchQueue::BatchQueue(size_t capacity, exec::CancellationTokenPtr token,
                       exec::TaskGroupPtr group,
                       exec::MetricValuePtr queue_wait_ns)
    : capacity_(capacity), token_(std::move(token)), group_(std::move(group)),
      queue_wait_ns_(std::move(queue_wait_ns)) {
  if (token_ != nullptr) {
    // Event-driven cancellation: Cancel()/deadline latch notifies every
    // blocked wait and parked producer immediately (no poll ticks).
    listener_id_ = token_->AddListener([this] {
      std::vector<exec::Waker> wakers;
      {
        std::lock_guard<std::mutex> lock(mu_);
        WakeAllLocked(&wakers);
      }
      for (auto& w : wakers) w.Wake();
      if (group_ != nullptr) group_->NotifyProgress();
    });
  }
}

BatchQueue::~BatchQueue() {
  // Returns only after any in-flight listener call completed, so the
  // callback's `this` capture cannot dangle.
  if (token_ != nullptr) token_->RemoveListener(listener_id_);
}

void BatchQueue::WakeAllLocked(std::vector<exec::Waker>* wakers) {
  not_full_.notify_all();
  not_empty_.notify_all();
  wakers->swap(push_waiters_);
}

void BatchQueue::Push(RecordBatchPtr batch) {
  {
    std::unique_lock<std::mutex> lock(mu_);
    while (queue_.size() >= capacity_ && !finished_ && !closed_.load() &&
           !Cancelled()) {
      if (token_ != nullptr && token_->has_deadline()) {
        not_full_.wait_until(lock, token_->deadline_time());
      } else {
        not_full_.wait(lock);
      }
    }
    // Consumer gone or query cancelled: drop so the producer winds down.
    if (finished_ || closed_.load() || Cancelled()) return;
    queue_.push_back(std::move(batch));
  }
  not_empty_.notify_one();
  if (group_ != nullptr) group_->NotifyProgress();
}

bool BatchQueue::PushOrPark(RecordBatchPtr* batch, const exec::Waker& waker) {
  {
    std::unique_lock<std::mutex> lock(mu_);
    if (finished_ || closed_.load() || Cancelled()) {
      batch->reset();  // consumer gone; drop and wind down
      return true;
    }
    if (queue_.size() >= capacity_) {
      // Full: park instead of holding a scheduler worker. The waker is
      // registered under the queue lock, so the consumer edge that
      // frees a slot cannot miss it.
      push_waiters_.push_back(waker);
      return false;
    }
    queue_.push_back(std::move(*batch));
    batch->reset();
  }
  not_empty_.notify_one();
  if (group_ != nullptr) group_->NotifyProgress();
  return true;
}

void BatchQueue::PushError(Status status) {
  std::vector<exec::Waker> wakers;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (error_.ok()) error_ = std::move(status);
    finished_ = true;
    WakeAllLocked(&wakers);
  }
  for (auto& w : wakers) w.Wake();
  if (group_ != nullptr) group_->NotifyProgress();
}

void BatchQueue::ProducerDone() {
  if (producers_.fetch_sub(1) == 1) {
    std::vector<exec::Waker> wakers;
    {
      std::lock_guard<std::mutex> lock(mu_);
      finished_ = true;
      WakeAllLocked(&wakers);
    }
    for (auto& w : wakers) w.Wake();
    if (group_ != nullptr) group_->NotifyProgress();
  }
}

void BatchQueue::Close() {
  std::vector<exec::Waker> wakers;
  {
    std::lock_guard<std::mutex> lock(mu_);
    closed_.store(true);
    queue_.clear();
    WakeAllLocked(&wakers);
  }
  for (auto& w : wakers) w.Wake();
  if (group_ != nullptr) group_->NotifyProgress();
}

Result<RecordBatchPtr> BatchQueue::Pop() {
  int64_t waited_ns = 0;
  auto record_wait = [&] {
    if (queue_wait_ns_ != nullptr && waited_ns > 0) {
      queue_wait_ns_->Add(waited_ns);
    }
  };
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    // Epoch first, predicate second: an edge firing after the predicate
    // check bumps the epoch past `epoch`, so HelpOrWait below returns
    // immediately instead of sleeping through the wakeup.
    uint64_t epoch = group_ != nullptr ? group_->progress_epoch() : 0;
    if (!error_.ok()) {
      record_wait();
      return error_;
    }
    // A producer error (the root cause) wins over cancellation;
    // otherwise surface Cancelled promptly instead of draining batches.
    if (Cancelled()) {
      record_wait();
      // CheckStatus latches the token and fires its listeners — one of
      // which is this queue's own and locks mu_ — so release mu_ first.
      lock.unlock();
      return token_->CheckStatus();
    }
    if (!queue_.empty()) {
      RecordBatchPtr batch = std::move(queue_.front());
      queue_.pop_front();
      exec::Waker waker;
      if (!push_waiters_.empty()) {
        // not_full edge: hand the freed slot to the oldest parked
        // producer.
        waker = push_waiters_.front();
        push_waiters_.erase(push_waiters_.begin());
      }
      lock.unlock();
      not_full_.notify_one();
      if (waker.valid()) waker.Wake();
      record_wait();
      return batch;
    }
    if (finished_ || closed_.load()) {
      record_wait();
      return RecordBatchPtr(nullptr);
    }
    // Empty and still producing: lend this thread to the query's other
    // tasks (usually the producers we are waiting on) or sleep until an
    // edge fires; with an armed deadline the sleep is bounded by it.
    auto start = std::chrono::steady_clock::now();
    bool blocked = true;
    if (group_ != nullptr) {
      lock.unlock();
      // Time spent *running* a borrowed task is productive work, not
      // queue pressure; only genuine sleeps count toward queue_wait_ns.
      blocked = !group_->HelpOrWait(epoch, token_.get());
      lock.lock();
    } else if (token_ != nullptr && token_->has_deadline()) {
      not_empty_.wait_until(lock, token_->deadline_time());
    } else {
      not_empty_.wait(lock);
    }
    if (blocked) {
      waited_ns += std::chrono::duration_cast<std::chrono::nanoseconds>(
                       std::chrono::steady_clock::now() - start)
                       .count();
    }
  }
}

namespace {

/// Closes the queue when the consumer stream is destroyed, so producer
/// tasks abandoned mid-stream (e.g. by LIMIT) drop their batches and
/// wind down instead of filling a queue nobody reads.
struct QueueCloser {
  std::shared_ptr<BatchQueue> queue;
  ~QueueCloser() {
    if (queue != nullptr) queue->Close();
  }
};

/// State of one producer task: pulls its input partition and pushes
/// into its bounded queue, parking on backpressure.
struct Producer {
  ExecPlanPtr input;
  ExecContextPtr ctx;
  int partition = 0;
  std::shared_ptr<BatchQueue> queue;
  exec::StreamPtr stream;
  bool opened = false;
  RecordBatchPtr pending;  // batch awaiting a queue slot while parked

  exec::TaskStatus Poll(const exec::Waker& waker) {
    if (!opened) {
      auto stream_res = input->Execute(partition, ctx);
      if (!stream_res.ok()) {
        queue->PushError(stream_res.status());
        queue->ProducerDone();
        return exec::TaskStatus::kDone;
      }
      stream = std::move(*stream_res);
      opened = true;
    }
    for (;;) {
      if (pending != nullptr) {
        if (!queue->PushOrPark(&pending, waker)) {
          return exec::TaskStatus::kParked;
        }
      }
      if (queue->closed()) break;
      auto batch = stream->Next();
      if (!batch.ok()) {
        queue->PushError(batch.status());
        break;
      }
      if (*batch == nullptr) break;
      pending = std::move(*batch);
    }
    stream.reset();
    queue->ProducerDone();
    return exec::TaskStatus::kDone;
  }
};

}  // namespace

std::vector<exec::StreamPtr> ExecuteInProducers(const ExecPlanPtr& input,
                                                const ExecContextPtr& ctx,
                                                int num_queues,
                                                exec::MetricsSet& metrics) {
  const int n = input->output_partitions();
  const auto& group = ctx->EnsureTaskGroup();
  auto queue_wait = metrics.Time(exec::metric::kQueueWaitNs, 0);
  std::vector<std::shared_ptr<BatchQueue>> queues;
  for (int q = 0; q < num_queues; ++q) {
    // Two batches in flight per producer.
    auto queue = std::make_shared<BatchQueue>(
        static_cast<size_t>(2 * n / num_queues), ctx->cancel, group, queue_wait);
    // Unwind hook: TaskGroup::Finish() closes the queue so parked
    // producers wake (and drop) even if the consumer never drained it.
    std::weak_ptr<BatchQueue> weak_queue = queue;
    group->AddUnwindHook([weak_queue] {
      if (auto q = weak_queue.lock()) q->Close();
    });
    queues.push_back(std::move(queue));
  }
  metrics.Counter(exec::metric::kTasksSpawned, 0)->Add(n);
  for (int i = 0; i < n; ++i) queues[i % num_queues]->AddProducer();
  const uint64_t help_gen = group->NextHelpGen();
  for (int i = 0; i < n; ++i) {
    auto state = std::make_shared<Producer>();
    state->input = input;
    state->ctx = ctx;
    state->partition = i;
    state->queue = queues[i % num_queues];
    group->SpawnResumable(
        [state](const exec::Waker& waker) { return state->Poll(waker); },
        help_gen);
  }
  std::vector<exec::StreamPtr> streams;
  for (auto& queue : queues) {
    auto closer = std::make_shared<QueueCloser>();
    closer->queue = queue;
    streams.push_back(std::make_unique<exec::GeneratorStream>(
        input->schema(),
        [queue, closer]() -> Result<RecordBatchPtr> { return queue->Pop(); }));
  }
  return streams;
}

Result<exec::StreamPtr> CoalescePartitionsExec::ExecuteImpl(int partition,
                                                        const ExecContextPtr& ctx) {
  if (partition != 0) {
    return Status::ExecutionError("CoalescePartitionsExec has a single partition");
  }
  if (input_->output_partitions() == 1) return input_->Execute(0, ctx);
  return std::move(ExecuteInProducers(input_, ctx, 1, *metrics_)[0]);
}

}  // namespace physical
}  // namespace fusion
