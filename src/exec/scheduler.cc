#include "exec/scheduler.h"

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <string>
#include <utility>

#include "exec/memory_pool.h"

namespace fusion {
namespace exec {

namespace internal {

/// Per-task control block. The state machine is what makes Waker safe
/// from any thread at any time:
///
///   kQueued   in a group's ready deque, waiting for a thread
///   kRunning  being polled
///   kParked   returned kParked; waiting for a Wake()
///   kNotified Wake() arrived while kRunning; re-enqueue instead of park
///   kDone     finished; all further wakes are no-ops
struct TaskCtl {
  enum State { kQueued, kRunning, kParked, kNotified, kDone };

  std::atomic<int> state{kQueued};
  std::function<TaskStatus(const Waker&)> poll;
  std::shared_ptr<TaskGroup> group;
  /// Help generation of the spawn batch this task belongs to
  /// (invariant 4); always non-zero once spawned.
  uint64_t help_gen = 0;
};

/// Innermost help generation active on this thread's stack: non-zero
/// while the thread is inside a task's poll. RunOneReadyTask only runs
/// tasks with a strictly larger generation, so batch siblings — which
/// may wait on each other's shared-build claims — can never end up
/// suspended beneath one another on one stack.
thread_local uint64_t tl_active_help_gen = 0;

}  // namespace internal

using internal::TaskCtl;
using internal::TaskCtlPtr;

// ---------------------------------------------------------------------------
// Waker

void Waker::Wake() const {
  if (ctl_ == nullptr) return;
  int state = ctl_->state.load(std::memory_order_acquire);
  for (;;) {
    switch (state) {
      case TaskCtl::kParked:
        // Parked -> ready. The acquire CAS pairs with the parker's
        // release CAS so the next runner sees the task's state.
        if (ctl_->state.compare_exchange_weak(state, TaskCtl::kQueued,
                                              std::memory_order_acq_rel)) {
          ctl_->group->scheduler()->EnqueueReady(ctl_);
          return;
        }
        break;  // re-examine `state`
      case TaskCtl::kRunning:
        // The task is mid-poll; flag the wake so the runner re-enqueues
        // instead of parking (the edge may have fired between the
        // task's registration and its kParked return).
        if (ctl_->state.compare_exchange_weak(state, TaskCtl::kNotified,
                                              std::memory_order_acq_rel)) {
          return;
        }
        break;
      default:
        // kQueued / kNotified: a wake is already pending. kDone: no-op.
        return;
    }
  }
}

// ---------------------------------------------------------------------------
// TaskGroup

TaskGroup::~TaskGroup() {
  Status st = Finish();
  (void)st;  // errors were already delivered through the query's streams
}

void TaskGroup::Spawn(std::function<Status()> fn, uint64_t help_gen) {
  auto self = shared_from_this();
  SpawnResumable(
      [self, fn = std::move(fn)](const Waker&) {
        self->RecordStatus(fn());
        return TaskStatus::kDone;
      },
      help_gen);
}

void TaskGroup::SpawnResumable(std::function<TaskStatus(const Waker&)> fn,
                               uint64_t help_gen) {
  auto ctl = std::make_shared<TaskCtl>();
  ctl->poll = std::move(fn);
  ctl->group = shared_from_this();
  ctl->help_gen = help_gen != 0 ? help_gen : NextHelpGen();
  tasks_spawned_.fetch_add(1, std::memory_order_relaxed);
  scheduler_->total_tasks_.fetch_add(1, std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lock(scheduler_->mu_);
    ++outstanding_;
  }
  scheduler_->EnqueueReady(ctl);
}

namespace {
/// Shared completion state for one RunAll call.
struct RunAllState {
  std::atomic<int64_t> remaining;
  std::mutex mu;
  Status first_error;

  explicit RunAllState(int64_t n) : remaining(n) {}

  void Record(const Status& st) {
    if (!st.ok()) {
      std::lock_guard<std::mutex> lock(mu);
      if (first_error.ok()) first_error = st;
    }
  }
};
}  // namespace

Status TaskGroup::RunAll(std::vector<std::function<Status()>> tasks) {
  if (tasks.empty()) return Status::OK();
  auto state = std::make_shared<RunAllState>(static_cast<int64_t>(tasks.size()));
  auto self = shared_from_this();
  // One shared generation: partition drivers claim shared build work
  // (partitioned aggregation inputs, join build mutexes) and wait on
  // each other's claims, so they must never nest on one stack.
  const uint64_t help_gen = NextHelpGen();
  for (auto& task : tasks) {
    SpawnResumable(
        [self, state, fn = std::move(task)](const Waker&) {
          Status st = fn();
          self->RecordStatus(st);
          state->Record(st);
          // release: the caller's acquire load of `remaining` below must
          // see everything the task wrote (e.g. its slot of a results
          // vector).
          state->remaining.fetch_sub(1, std::memory_order_release);
          return TaskStatus::kDone;
        },
        help_gen);
  }
  // Lend this thread to the group until all tasks settle. Even on error
  // we wait for every task: callers pass closures that reference stack
  // storage.
  for (;;) {
    uint64_t epoch = progress_epoch();
    if (state->remaining.load(std::memory_order_acquire) == 0) break;
    {
      std::lock_guard<std::mutex> lock(scheduler_->mu_);
      // Scheduler teardown discards queued tasks without running them,
      // so their `remaining` decrements never come. Once none of this
      // group's tasks is left running either, stop waiting. Dropped
      // tasks never ran, so the stack storage callers' closures
      // reference was never handed out.
      if (scheduler_->shutdown_ && outstanding_ == 0) {
        return Status::Cancelled("scheduler shut down");
      }
    }
    HelpOrWait(epoch, nullptr);
  }
  std::lock_guard<std::mutex> lock(state->mu);
  return state->first_error;
}

void TaskGroup::AddUnwindHook(std::function<void()> hook) {
  bool run_now = false;
  {
    std::lock_guard<std::mutex> lock(scheduler_->mu_);
    if (unwound_) {
      run_now = true;  // group already unwinding; fire immediately
    } else {
      unwind_hooks_.push_back(std::move(hook));
    }
  }
  if (run_now) hook();
}

Status TaskGroup::Finish() {
  std::vector<std::function<void()>> hooks;
  {
    std::lock_guard<std::mutex> lock(scheduler_->mu_);
    unwound_ = true;
    hooks.swap(unwind_hooks_);
  }
  for (auto& hook : hooks) hook();
  for (;;) {
    uint64_t epoch = progress_epoch();
    {
      std::lock_guard<std::mutex> lock(scheduler_->mu_);
      if (outstanding_ == 0) return first_error_;
    }
    HelpOrWait(epoch, nullptr);
  }
}

bool TaskGroup::RunOneReadyTask() {
  TaskCtlPtr ctl;
  {
    std::lock_guard<std::mutex> lock(scheduler_->mu_);
    // Invariant 4: only run tasks from batches spawned after the
    // innermost batch active on this stack. Skipped siblings stay
    // queued for worker threads and untagged (client) helpers.
    const uint64_t active = internal::tl_active_help_gen;
    for (auto it = ready_.begin(); it != ready_.end(); ++it) {
      if (active != 0 && (*it)->help_gen <= active) continue;
      ctl = std::move(*it);
      ready_.erase(it);
      --scheduler_->ready_count_;
      break;
    }
  }
  if (ctl == nullptr) return false;
  scheduler_->RunTask(std::move(ctl));
  return true;
}

uint64_t TaskGroup::progress_epoch() const {
  return scheduler_->epoch_.load(std::memory_order_acquire);
}

bool TaskGroup::HelpOrWait(uint64_t epoch, const CancellationToken* token) {
  if (RunOneReadyTask()) return true;
  scheduler_->WaitEpoch(epoch, token);
  return false;
}

void TaskGroup::NotifyProgress() { scheduler_->BumpEpoch(); }

void TaskGroup::RecordStatus(const Status& st) {
  if (st.ok()) return;
  std::lock_guard<std::mutex> lock(scheduler_->mu_);
  if (first_error_.ok()) first_error_ = st;
}

void TaskGroup::TaskFinished() {
  {
    std::lock_guard<std::mutex> lock(scheduler_->mu_);
    --outstanding_;
  }
  scheduler_->BumpEpoch();
}

// ---------------------------------------------------------------------------
// QueryScheduler

QueryScheduler::QueryScheduler(int num_workers) {
  num_workers = std::max(1, num_workers);
  peak_threads_.store(num_workers, std::memory_order_relaxed);
  workers_.reserve(static_cast<size_t>(num_workers));
  for (int i = 0; i < num_workers; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

QueryScheduler::~QueryScheduler() {
  // Released only after mu_ is unlocked: dropping a group's last
  // reference runs ~TaskGroup, whose Finish() locks mu_.
  std::vector<TaskGroupPtr> groups;
  std::vector<TaskCtlPtr> discarded;
  {
    std::lock_guard<std::mutex> lock(mu_);
    shutdown_ = true;
    // Drop queued-but-never-run closures so task->queue->waker->task
    // reference cycles cannot outlive the scheduler. Each discarded
    // task must also settle its group's accounting: a collector blocked
    // in Finish()/RunAll waits for outstanding_ to reach zero and would
    // otherwise hang forever.
    for (auto& weak : run_queue_) {
      auto group = weak.lock();
      if (group == nullptr) continue;
      if (!group->ready_.empty() && group->first_error_.ok()) {
        group->first_error_ = Status::Cancelled("scheduler shut down");
      }
      for (auto& ctl : group->ready_) {
        ctl->state.store(TaskCtl::kDone, std::memory_order_release);
        --group->outstanding_;
        discarded.push_back(std::move(ctl));
      }
      group->ready_.clear();
      group->in_run_queue_ = false;
      groups.push_back(std::move(group));
    }
    run_queue_.clear();
    ready_count_ = 0;
  }
  for (auto& ctl : discarded) ctl->poll = nullptr;
  discarded.clear();
  groups.clear();
  cv_work_.notify_all();
  BumpEpoch();  // wake Finish()/RunAll helpers sleeping in WaitEpoch
  for (auto& worker : workers_) worker.join();
}

TaskGroupPtr QueryScheduler::MakeGroup() {
  // make_shared needs a public ctor; use new with the private one.
  return TaskGroupPtr(new TaskGroup(this));
}

uint64_t TaskGroup::NextHelpGen() {
  return scheduler_->help_gen_.fetch_add(1, std::memory_order_relaxed) + 1;
}

void QueryScheduler::WorkerLoop() {
  for (;;) {
    TaskCtlPtr ctl;
    // Groups locked from stale run-queue entries are released after mu_
    // is unlocked: one may be the last reference (see ~QueryScheduler).
    std::vector<TaskGroupPtr> stale;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_work_.wait(lock, [this] { return shutdown_ || ready_count_ > 0; });
      if (shutdown_) return;
      // Round-robin across groups: take the front group's next ready
      // task, then rotate the group to the back if it has more. One
      // group with a deep backlog interleaves with everyone else.
      while (!run_queue_.empty()) {
        auto group = run_queue_.front().lock();
        run_queue_.pop_front();
        if (group == nullptr) continue;  // query finished; stale entry
        if (group->ready_.empty()) {
          group->in_run_queue_ = false;
          stale.push_back(std::move(group));
          continue;
        }
        ctl = std::move(group->ready_.front());
        group->ready_.pop_front();
        --ready_count_;
        if (!group->ready_.empty()) {
          run_queue_.push_back(group);
        } else {
          group->in_run_queue_ = false;
        }
        break;
      }
    }
    if (ctl != nullptr) RunTask(std::move(ctl));
  }
}

void QueryScheduler::RunTask(TaskCtlPtr ctl) {
  ctl->state.store(TaskCtl::kRunning, std::memory_order_release);
  // Track the innermost active help generation across the poll so
  // nested helping (RunOneReadyTask from inside this task) can refuse
  // batch siblings (invariant 4).
  const uint64_t prev_gen = internal::tl_active_help_gen;
  internal::tl_active_help_gen = ctl->help_gen;
  TaskStatus result = ctl->poll(Waker(ctl));
  internal::tl_active_help_gen = prev_gen;
  if (result == TaskStatus::kDone) {
    ctl->state.store(TaskCtl::kDone, std::memory_order_release);
    auto group = ctl->group;
    ctl->poll = nullptr;  // drop captures (queues, streams) promptly
    ctl->group = nullptr;
    ctl.reset();
    group->TaskFinished();
    return;
  }
  // kParked: the task registered its waker before returning. If a wake
  // already arrived (kNotified), it must not be lost — re-enqueue now.
  int expected = TaskCtl::kRunning;
  if (!ctl->state.compare_exchange_strong(expected, TaskCtl::kParked,
                                          std::memory_order_acq_rel)) {
    // expected == kNotified
    ctl->state.store(TaskCtl::kQueued, std::memory_order_release);
    EnqueueReady(ctl);
  }
}

void QueryScheduler::EnqueueReady(const TaskCtlPtr& ctl) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    TaskGroup* group = ctl->group.get();
    if (shutdown_) {
      // Late wake during teardown; mark done so the cycle breaks, and
      // settle the group's accounting so a blocked Finish()/RunAll
      // caller observes completion (the epoch bump below wakes it).
      ctl->state.store(TaskCtl::kDone, std::memory_order_release);
      --group->outstanding_;
      if (group->first_error_.ok()) {
        group->first_error_ = Status::Cancelled("scheduler shut down");
      }
    } else {
      group->ready_.push_back(ctl);
      ++ready_count_;
      int64_t peak = peak_ready_tasks_.load(std::memory_order_relaxed);
      while (ready_count_ > peak &&
             !peak_ready_tasks_.compare_exchange_weak(
                 peak, ready_count_, std::memory_order_relaxed)) {
      }
      if (!group->in_run_queue_) {
        group->in_run_queue_ = true;
        run_queue_.push_back(group->weak_from_this());
      }
    }
  }
  cv_work_.notify_one();
  BumpEpoch();  // helpers waiting in WaitEpoch may claim this task
}

void QueryScheduler::BumpEpoch() {
  // Dekker pair with WaitEpoch: bump-then-read-waiters here versus
  // register-waiter-then-read-epoch there. All four accesses must be
  // seq_cst — with weaker orders the model allows the bumper to read
  // waiters==0 while the waiter reads the stale epoch (lost wakeup).
  epoch_.fetch_add(1, std::memory_order_seq_cst);
  if (epoch_waiters_.load(std::memory_order_seq_cst) > 0) {
    // Taking the mutex pairs with waiters: anyone who registered before
    // the bump is either about to re-check the epoch or inside wait().
    std::lock_guard<std::mutex> lock(epoch_mu_);
    cv_epoch_.notify_all();
  }
}

void QueryScheduler::WaitEpoch(uint64_t epoch, const CancellationToken* token) {
  std::unique_lock<std::mutex> lock(epoch_mu_);
  epoch_waiters_.fetch_add(1, std::memory_order_seq_cst);
  while (epoch_.load(std::memory_order_seq_cst) == epoch) {
    if (token != nullptr && token->has_deadline()) {
      // Non-latching probe: latching fires listeners, which call
      // NotifyProgress -> BumpEpoch -> lock(epoch_mu_) — held here.
      if (token->CancelRequested()) break;
      if (cv_epoch_.wait_until(lock, token->deadline_time()) ==
          std::cv_status::timeout) {
        break;  // caller re-checks the token
      }
    } else {
      cv_epoch_.wait(lock);
    }
  }
  epoch_waiters_.fetch_sub(1, std::memory_order_seq_cst);
}

// ---------------------------------------------------------------------------
// Admission control

void AdmissionTicket::Release() {
  if (scheduler_ != nullptr) scheduler_->ReleaseAdmission();
  scheduler_ = nullptr;
}

Result<AdmissionTicket> QueryScheduler::Admit(const AdmissionLimits& limits,
                                              const MemoryPool* pool,
                                              const CancellationToken* token) {
  if (limits.max_concurrent <= 0) return AdmissionTicket();  // admission off

  std::unique_lock<std::mutex> lock(admission_mu_);
  auto can_run = [&] {
    if (admission_running_ >= limits.max_concurrent) return false;
    // Memory watermark: hold new queries while the pool is hot — but
    // never while nothing runs, or bytes held by long-lived consumers
    // (the buffer cache) could wedge admission with no one left to
    // free them.
    if (limits.memory_watermark > 0 && pool != nullptr &&
        admission_running_ > 0) {
      double limit = static_cast<double>(pool->limit());
      if (limit > 0 &&
          static_cast<double>(pool->bytes_allocated()) >=
              limits.memory_watermark * limit) {
        return false;
      }
    }
    return true;
  };

  bool queued = false;
  while (!can_run()) {
    if (!queued) {
      if (admission_queued_ >= std::max(0, limits.max_queued)) {
        admission_rejected_total_.fetch_add(1, std::memory_order_relaxed);
        return Status::ResourcesExhausted(
            "admission control: concurrency limit reached (running=" +
            std::to_string(admission_running_) +
            ", queued=" + std::to_string(admission_queued_) +
            ", max_concurrent=" + std::to_string(limits.max_concurrent) +
            ", max_queued=" + std::to_string(limits.max_queued) + ")");
      }
      queued = true;
      ++admission_queued_;
      admission_queued_total_.fetch_add(1, std::memory_order_relaxed);
    }
    // Non-latching probe under the lock; latch (and fire listeners)
    // only after releasing it.
    if (token != nullptr && token->CancelRequested()) {
      --admission_queued_;
      lock.unlock();
      return token->CheckStatus();
    }
    // Bounded slices: ticket releases notify, but deadlines and memory
    // watermark changes have no edge to signal, so re-check on a tick.
    admission_cv_.wait_for(lock, std::chrono::milliseconds(10));
  }
  if (queued) --admission_queued_;
  ++admission_running_;
  admission_admitted_total_.fetch_add(1, std::memory_order_relaxed);
  return AdmissionTicket(this);
}

void QueryScheduler::ReleaseAdmission() {
  {
    std::lock_guard<std::mutex> lock(admission_mu_);
    --admission_running_;
  }
  admission_cv_.notify_all();
}

int64_t QueryScheduler::admission_running() const {
  std::lock_guard<std::mutex> lock(admission_mu_);
  return admission_running_;
}

int64_t QueryScheduler::admission_queued() const {
  std::lock_guard<std::mutex> lock(admission_mu_);
  return admission_queued_;
}

QueryScheduler* QueryScheduler::Default() {
  static QueryScheduler* scheduler = [] {
    int n = static_cast<int>(std::thread::hardware_concurrency());
    if (const char* env = std::getenv("FUSION_SCHEDULER_THREADS")) {
      int parsed = std::atoi(env);
      if (parsed > 0) n = parsed;
    }
    return new QueryScheduler(std::max(1, n));
  }();
  return scheduler;
}

}  // namespace exec
}  // namespace fusion
