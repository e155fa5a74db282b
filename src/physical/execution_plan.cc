#include "physical/execution_plan.h"

#include <algorithm>
#include <cstdio>
#include <functional>
#include <mutex>
#include <sstream>

#include "compute/cast.h"

namespace fusion {
namespace physical {

Status CooperativeBuild::Run(const ExecContextPtr& ctx,
                             const std::function<Status(int)>& build, bool wait) {
  const exec::TaskGroupPtr& group = ctx->EnsureTaskGroup();
  for (;;) {
    const int p = next_input_.fetch_add(1, std::memory_order_relaxed);
    if (p >= num_inputs_) break;
    if (!failed_.load(std::memory_order_acquire)) {
      Status st = build(p);
      if (!st.ok()) {
        std::lock_guard<std::mutex> lock(error_mu_);
        if (error_.ok()) error_ = st;
        failed_.store(true, std::memory_order_release);
      }
    }
    inputs_done_.fetch_add(1, std::memory_order_acq_rel);
    group->NotifyProgress();
  }
  if (!wait) return Status::OK();
  // Epoch protocol: snapshot the epoch, re-check the condition, then
  // help-or-park. NotifyProgress() after the last inputs_done bump
  // invalidates any stale epoch, so no wakeup is lost.
  while (inputs_done_.load(std::memory_order_acquire) < num_inputs_) {
    FUSION_RETURN_NOT_OK(ctx->CheckCancelled());
    const uint64_t epoch = group->progress_epoch();
    if (inputs_done_.load(std::memory_order_acquire) >= num_inputs_) break;
    group->HelpOrWait(epoch, ctx->cancel.get());
  }
  std::lock_guard<std::mutex> lock(error_mu_);
  return error_;
}

const exec::TaskGroupPtr& ExecContext::EnsureTaskGroup() {
  static std::mutex mu;
  std::lock_guard<std::mutex> lock(mu);
  if (task_group == nullptr) task_group = env->scheduler()->MakeGroup();
  return task_group;
}

const exec::RuntimeFilterRegistryPtr& ExecContext::EnsureRuntimeFilters() {
  static std::mutex mu;
  std::lock_guard<std::mutex> lock(mu);
  if (runtime_filters == nullptr) {
    runtime_filters = std::make_shared<exec::RuntimeFilterRegistry>();
  }
  return runtime_filters;
}

Result<exec::StreamPtr> ExecutionPlan::Execute(int partition,
                                               const ExecContextPtr& ctx) {
  // Don't start opening (which may collect an entire build side) for a
  // query that is already cancelled or past its deadline.
  FUSION_RETURN_NOT_OK(ctx->CheckCancelled());
  auto rows = metrics_->Counter(exec::metric::kOutputRows, partition);
  auto batches = metrics_->Counter(exec::metric::kOutputBatches, partition);
  auto elapsed = metrics_->Time(exec::metric::kElapsedNs, partition);
  auto dict_rows = metrics_->Counter(exec::metric::kDictRows, partition);
  // Opening the stream can itself be heavy (hash join builds, sorts);
  // charge it to the same elapsed metric as Next().
  exec::ScopedTimer open_timer(elapsed);
  FUSION_ASSIGN_OR_RAISE(auto stream, ExecuteImpl(partition, ctx));
  open_timer.Stop();
  exec::StreamPtr out = std::make_unique<exec::InstrumentedStream>(
      std::move(stream), std::move(rows), std::move(batches), std::move(elapsed),
      std::move(dict_rows));
  // Every operator boundary of a cancellable query checks the token, so
  // a Cancel() lands within one batch wherever execution currently is.
  if (ctx->cancel != nullptr) {
    out = std::make_unique<exec::CancelCheckStream>(std::move(out), ctx->cancel);
  }
  return out;
}

std::string ExecutionPlan::ToString() const {
  std::ostringstream out;
  std::function<void(const ExecutionPlan&, int)> render = [&](const ExecutionPlan& p,
                                                              int indent) {
    for (int i = 0; i < indent; ++i) out << "  ";
    out << p.ToStringLine() << " [" << p.output_partitions() << " partitions]\n";
    for (const auto& c : p.children()) render(*c, indent + 1);
  };
  render(*this, 0);
  return out.str();
}

Result<std::vector<RecordBatchPtr>> ExecuteCollect(const ExecPlanPtr& plan,
                                                   const ExecContextPtr& ctx) {
  const int partitions = plan->output_partitions();
  std::vector<std::vector<RecordBatchPtr>> results(partitions);

  auto drive = [&](int p) -> Status {
    FUSION_ASSIGN_OR_RAISE(auto stream, plan->Execute(p, ctx));
    FUSION_ASSIGN_OR_RAISE(results[p], exec::CollectStream(stream.get()));
    return Status::OK();
  };
  if (partitions == 1) {
    // Single partition: drive it inline; no scheduler round-trip.
    FUSION_RETURN_NOT_OK(drive(0));
  } else {
    // Partition drivers are tasks in the query's group on the shared
    // scheduler. RunAll lends this thread to the group while it waits
    // (the fairness floor), so collect works — and stays deadlock-free —
    // from any thread, including nested inside another group task
    // (subquery resolution, EXPLAIN ANALYZE).
    std::vector<std::function<Status()>> tasks;
    tasks.reserve(partitions);
    for (int p = 0; p < partitions; ++p) {
      tasks.push_back([&drive, p] { return drive(p); });
    }
    FUSION_RETURN_NOT_OK(ctx->EnsureTaskGroup()->RunAll(std::move(tasks)));
  }

  std::vector<RecordBatchPtr> out;
  for (auto& part : results) {
    // Query results leave the engine here; consumers (result comparison,
    // CSV/IPC export, clients) expect plain arrays, so any columns still
    // carrying dictionary codes are densified at this final boundary.
    for (auto& b : part) out.push_back(compute::EnsureDenseBatch(std::move(b)));
  }
  return out;
}

PlanMetricsNode CollectMetrics(const ExecutionPlan& plan) {
  PlanMetricsNode node;
  node.name = plan.name();
  node.description = plan.ToStringLine();
  const auto& m = *plan.metrics();
  node.output_rows = m.AggregatedValue(exec::metric::kOutputRows);
  node.output_batches = m.AggregatedValue(exec::metric::kOutputBatches);
  node.elapsed_ns = m.AggregatedValue(exec::metric::kElapsedNs);
  node.spill_count = m.AggregatedValue(exec::metric::kSpillCount);
  node.spill_bytes = m.AggregatedValue(exec::metric::kSpillBytes);
  node.mem_reserved_bytes = m.AggregatedValue(exec::metric::kMemReservedBytes);
  node.dict_rows = m.AggregatedValue(exec::metric::kDictRows);
  node.queue_wait_ns = m.AggregatedValue(exec::metric::kQueueWaitNs);
  node.tasks_spawned = m.AggregatedValue(exec::metric::kTasksSpawned);
  node.partial_groups = m.AggregatedValue(exec::metric::kPartialGroups);
  node.bypass_rows = m.AggregatedValue(exec::metric::kBypassRows);
  node.morsels_stolen = m.AggregatedValue(exec::metric::kMorselsStolen);
  node.rf_build_ns = m.AggregatedValue(exec::metric::kRfBuildNs);
  node.rf_checked_rows = m.AggregatedValue(exec::metric::kRfCheckedRows);
  node.rf_pruned_rows = m.AggregatedValue(exec::metric::kRfPrunedRows);
  int64_t children_elapsed = 0;
  for (const auto& c : plan.children()) {
    node.children.push_back(CollectMetrics(*c));
    children_elapsed += node.children.back().elapsed_ns;
  }
  // Pull-based streams nest their children's time; the difference is
  // this operator's own compute. Operators that overlap children on
  // producer threads (exchanges) can measure less than their children —
  // clamp to zero rather than report negative time.
  node.elapsed_compute_ns = std::max<int64_t>(0, node.elapsed_ns - children_elapsed);
  return node;
}

std::string RenderAnnotatedPlan(const ExecutionPlan& plan) {
  std::ostringstream out;
  std::function<void(const ExecutionPlan&, int)> render =
      [&](const ExecutionPlan& p, int indent) {
        PlanMetricsNode m = CollectMetrics(p);
        for (int i = 0; i < indent; ++i) out << "  ";
        out << p.ToStringLine() << ", metrics=[output_rows=" << m.output_rows
            << ", output_batches=" << m.output_batches << ", elapsed_compute="
            << exec::FormatDuration(m.elapsed_compute_ns);
        if (m.spill_count > 0) {
          out << ", spill_count=" << m.spill_count
              << ", spill_bytes=" << m.spill_bytes;
        }
        if (m.mem_reserved_bytes > 0) {
          out << ", mem_reserved_bytes=" << m.mem_reserved_bytes;
        }
        if (m.dict_rows > 0) {
          out << ", dict_rows=" << m.dict_rows
              << ", dense_rows=" << (m.output_rows - m.dict_rows);
        }
        if (m.tasks_spawned > 0) {
          out << ", tasks_spawned=" << m.tasks_spawned
              << ", queue_wait=" << exec::FormatDuration(m.queue_wait_ns);
        }
        if (m.partial_groups > 0 || m.bypass_rows > 0) {
          out << ", partial_groups=" << m.partial_groups
              << ", bypass_rows=" << m.bypass_rows;
        }
        if (m.rf_build_ns > 0) {
          out << ", rf_build=" << exec::FormatDuration(m.rf_build_ns);
        }
        if (m.rf_checked_rows > 0) {
          char sel[32];
          std::snprintf(sel, sizeof(sel), "%.3f",
                        static_cast<double>(m.rf_pruned_rows) /
                            static_cast<double>(m.rf_checked_rows));
          out << ", rf_pruned_rows=" << m.rf_pruned_rows
              << ", rf_selectivity=" << sel;
        }
        out << "]\n";
        for (const auto& c : p.children()) render(*c, indent + 1);
      };
  render(plan, 0);
  return out.str();
}

namespace {

void AppendJsonEscaped(std::string* out, const std::string& s) {
  for (char c : s) {
    switch (c) {
      case '"': *out += "\\\""; break;
      case '\\': *out += "\\\\"; break;
      case '\n': *out += "\\n"; break;
      case '\t': *out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          *out += buf;
        } else {
          *out += c;
        }
    }
  }
}

void MetricsNodeToJson(const PlanMetricsNode& node, std::string* out) {
  *out += "{\"operator\":\"";
  AppendJsonEscaped(out, node.name);
  *out += "\",\"description\":\"";
  AppendJsonEscaped(out, node.description);
  *out += "\",\"output_rows\":" + std::to_string(node.output_rows);
  *out += ",\"output_batches\":" + std::to_string(node.output_batches);
  *out += ",\"elapsed_ns\":" + std::to_string(node.elapsed_ns);
  *out += ",\"elapsed_compute_ns\":" + std::to_string(node.elapsed_compute_ns);
  if (node.spill_count > 0) {
    *out += ",\"spill_count\":" + std::to_string(node.spill_count);
    *out += ",\"spill_bytes\":" + std::to_string(node.spill_bytes);
  }
  if (node.mem_reserved_bytes > 0) {
    *out += ",\"mem_reserved_bytes\":" + std::to_string(node.mem_reserved_bytes);
  }
  if (node.dict_rows > 0) {
    *out += ",\"dict_rows\":" + std::to_string(node.dict_rows);
    *out += ",\"dense_rows\":" + std::to_string(node.output_rows - node.dict_rows);
  }
  if (node.tasks_spawned > 0) {
    *out += ",\"tasks_spawned\":" + std::to_string(node.tasks_spawned);
    *out += ",\"queue_wait_ns\":" + std::to_string(node.queue_wait_ns);
  }
  if (node.partial_groups > 0 || node.bypass_rows > 0) {
    *out += ",\"partial_groups\":" + std::to_string(node.partial_groups);
    *out += ",\"bypass_rows\":" + std::to_string(node.bypass_rows);
  }
  if (node.rf_build_ns > 0) {
    *out += ",\"rf_build_ns\":" + std::to_string(node.rf_build_ns);
  }
  if (node.rf_checked_rows > 0) {
    char sel[32];
    std::snprintf(sel, sizeof(sel), "%.3f",
                  static_cast<double>(node.rf_pruned_rows) /
                      static_cast<double>(node.rf_checked_rows));
    *out += ",\"rf_checked_rows\":" + std::to_string(node.rf_checked_rows);
    *out += ",\"rf_pruned_rows\":" + std::to_string(node.rf_pruned_rows);
    *out += ",\"rf_selectivity\":";
    *out += sel;
  }
  *out += ",\"children\":[";
  for (size_t i = 0; i < node.children.size(); ++i) {
    if (i > 0) *out += ",";
    MetricsNodeToJson(node.children[i], out);
  }
  *out += "]}";
}

}  // namespace

std::string PlanMetricsToJson(const PlanMetricsNode& node) {
  std::string out;
  MetricsNodeToJson(node, &out);
  return out;
}

Result<int64_t> ExecuteCountRows(const ExecPlanPtr& plan, const ExecContextPtr& ctx) {
  FUSION_ASSIGN_OR_RAISE(auto batches, ExecuteCollect(plan, ctx));
  int64_t rows = 0;
  for (const auto& b : batches) rows += b->num_rows();
  return rows;
}

}  // namespace physical
}  // namespace fusion
