#ifndef FUSION_PHYSICAL_EXCHANGE_EXEC_H_
#define FUSION_PHYSICAL_EXCHANGE_EXEC_H_

#include <condition_variable>
#include <deque>
#include <mutex>
#include <vector>

#include "exec/scheduler.h"
#include "physical/execution_plan.h"

namespace fusion {
namespace physical {

/// Bounded MPSC queue of batches used by the exchange operators.
///
/// Scheduler-aware: producers are tasks on the shared QueryScheduler,
/// so a producer facing a full queue must not block a worker thread —
/// it calls PushOrPark, which registers its Waker on the queue's
/// not_full edge and lets the task park (cooperative yield). A consumer
/// facing an empty queue lends its thread to the query's other tasks
/// (TaskGroup::HelpOrWait) instead of sleeping, which is what lets a
/// whole query run on a single worker — or on none, driven entirely by
/// the collecting thread.
///
/// All blocking waits are event-driven: a cancellation listener on the
/// query's token notifies them the moment Cancel() fires, and armed
/// deadlines bound the sleeps directly (no polling).
class BatchQueue {
 public:
  explicit BatchQueue(size_t capacity,
                      exec::CancellationTokenPtr token = nullptr,
                      exec::TaskGroupPtr group = nullptr,
                      exec::MetricValuePtr queue_wait_ns = nullptr);
  ~BatchQueue();

  /// Blocking push (backpressure) for producers that are not scheduler
  /// tasks (tests).
  void Push(RecordBatchPtr batch);

  /// Task-producer push: either consumes `*batch` (true — pushed, or
  /// dropped because the queue closed/finished/cancelled) or leaves it
  /// in place, registers `waker` on the not_full edge and returns false
  /// — the caller must return TaskStatus::kParked and retry when woken.
  bool PushOrPark(RecordBatchPtr* batch, const exec::Waker& waker);

  /// Report a producer error; consumers see it on the next Pop.
  void PushError(Status status);
  /// Called once per producer; the last call unblocks consumers at end.
  void ProducerDone();
  void AddProducer() { producers_.fetch_add(1); }

  /// Cancel: unblocks producers (their pushes become no-ops) and
  /// consumers. Called when a consumer abandons the stream early (e.g.
  /// LIMIT satisfied) and by the task group's unwind hook.
  void Close();
  bool closed() const { return closed_.load(); }

  /// Next batch; nullptr at end; error if any producer failed. With a
  /// task group attached, an empty-queue wait helps run the group's
  /// ready tasks (typically the very producers this consumer waits on).
  Result<RecordBatchPtr> Pop();

 private:
  /// True once the query's token has fired (never true without a token).
  /// Non-latching on purpose: this runs while holding mu_, and latching
  /// fires the token's listeners synchronously — including this queue's
  /// own listener, which locks mu_ (self-deadlock on deadline expiry).
  bool Cancelled() const {
    return token_ != nullptr && token_->CancelRequested();
  }
  /// Wake every parked producer and any cv sleeper (queue edge fired).
  void WakeAllLocked(std::vector<exec::Waker>* wakers);

  size_t capacity_;
  exec::CancellationTokenPtr token_;
  exec::TaskGroupPtr group_;
  exec::MetricValuePtr queue_wait_ns_;
  exec::CancellationToken::ListenerId listener_id_ = 0;
  std::mutex mu_;
  std::condition_variable not_full_;
  std::condition_variable not_empty_;
  std::deque<RecordBatchPtr> queue_;
  /// Producer tasks parked on the not_full edge.
  std::vector<exec::Waker> push_waiters_;
  Status error_;
  std::atomic<int> producers_{0};
  std::atomic<bool> closed_{false};
  bool finished_ = false;
};

/// Runs every partition of `input` in a producer task of the query's
/// group, all spawned in one help generation (producers of one exchange
/// can reach the same shared-build claims upstream; scheduler invariant
/// 4), and returns `num_queues` streams over bounded queues the
/// producers feed: with 1, all partitions feed one stream; with
/// `input->output_partitions()`, stream i carries partition i in order.
/// A producer blocked by backpressure parks instead of holding a
/// worker; a producer error reaches its stream's next Pop. Destroying a
/// stream (or unwinding the group) closes its queue so its producers
/// drop their batches and finish. Records `tasks_spawned` and
/// `queue_wait` in `metrics`.
std::vector<exec::StreamPtr> ExecuteInProducers(const ExecPlanPtr& input,
                                                const ExecContextPtr& ctx,
                                                int num_queues,
                                                exec::MetricsSet& metrics);

/// \brief N -> 1 exchange: funnels all input partitions into a single
/// output stream fed by producer tasks on the shared scheduler (the
/// pull-based analogue of a merge without ordering).
class CoalescePartitionsExec : public ExecutionPlan {
 public:
  explicit CoalescePartitionsExec(ExecPlanPtr input) : input_(std::move(input)) {}

  std::string name() const override { return "CoalescePartitionsExec"; }
  SchemaPtr schema() const override { return input_->schema(); }
  int output_partitions() const override { return 1; }
  std::vector<ExecPlanPtr> children() const override { return {input_}; }
  Result<exec::StreamPtr> ExecuteImpl(int partition, const ExecContextPtr& ctx) override;

 private:
  ExecPlanPtr input_;
};

}  // namespace physical
}  // namespace fusion

#endif  // FUSION_PHYSICAL_EXCHANGE_EXEC_H_
