#include "physical/window_exec.h"

#include <algorithm>
#include <deque>

#include "compute/cast.h"
#include "exec/memory_pool.h"
#include "row/row_format.h"

namespace fusion {
namespace physical {

namespace {

using logical::WindowFrame;
using logical::WindowPartition;

/// Frame bounds per row, as absolute rows within the row's partition;
/// a RANGE frame's CURRENT ROW extends to the row's peers. Offsets come
/// from the SQL text, up to INT64_MAX, so FOLLOWING bounds are capped
/// before they are added.
void ComputeFrames(const WindowFrame& frame, const std::vector<int64_t>& peer_end,
                   WindowPartition* p) {
  p->frame_start.resize(p->num_rows);
  p->frame_end.resize(p->num_rows);
  for (int64_t i = 0; i < p->num_rows; ++i) {
    const int64_t first = p->partition_start[i];
    const int64_t last = p->partition_end[i];
    int64_t start = first;
    int64_t end = last;
    switch (frame.start) {
      case WindowFrame::BoundKind::kUnboundedPreceding:
        start = first;
        break;
      case WindowFrame::BoundKind::kPreceding:
        start = frame.is_rows ? std::max(first, i - frame.start_offset) : first;
        break;
      case WindowFrame::BoundKind::kCurrentRow:
        start = frame.is_rows ? i : p->peer_start[i];
        break;
      case WindowFrame::BoundKind::kFollowing:
        start = frame.is_rows ? i + std::min(frame.start_offset, last - i) : i;
        break;
      case WindowFrame::BoundKind::kUnboundedFollowing:
        start = last;
        break;
    }
    switch (frame.end) {
      case WindowFrame::BoundKind::kUnboundedPreceding:
        end = first;
        break;
      case WindowFrame::BoundKind::kPreceding:
        end = frame.is_rows ? std::max(first, i - frame.end_offset + 1) : i + 1;
        break;
      case WindowFrame::BoundKind::kCurrentRow:
        end = frame.is_rows ? i + 1 : peer_end[i];
        break;
      case WindowFrame::BoundKind::kFollowing:
        end = frame.is_rows ? i + 1 + std::min(frame.end_offset, last - i - 1)
                            : peer_end[i];
        break;
      case WindowFrame::BoundKind::kUnboundedFollowing:
        end = last;
        break;
    }
    p->frame_start[i] = std::min(start, last);
    p->frame_end[i] = std::max(p->frame_start[i], std::min(end, last));
  }
}

/// True when row `row` of `keys` differs from the row before it.
bool DiffersFromPrevious(const std::vector<ArrayPtr>& keys, int64_t row) {
  return !keys.empty() && row::CompareRows(keys, row - 1, keys, row, {}) != 0;
}

/// Streams a WindowExec's sorted input through EvaluateWindows one batch
/// of complete window partitions at a time. The partition still open at
/// the end of a batch waits, charged to the reservation, for the batch
/// that ends it.
class WindowStream : public exec::RecordBatchStream {
 public:
  WindowStream(exec::StreamPtr input, SchemaPtr input_schema,
               std::vector<WindowExprInfo> exprs, SchemaPtr schema,
               const ExecContextPtr& ctx, exec::MetricsSetPtr metrics)
      : input_(std::move(input)), input_schema_(std::move(input_schema)),
        exprs_(std::move(exprs)), schema_(std::move(schema)),
        batch_size_(ctx->config.batch_size),
        reservation_(ctx->env->memory_pool,
                     "window-" + std::to_string(ctx->query_id)),
        mem_reserved_(metrics->Gauge(exec::metric::kMemReservedBytes, 0)) {}

  const SchemaPtr& schema() const override { return schema_; }

  Result<RecordBatchPtr> Next() override {
    while (ready_.empty() && !done_) {
      FUSION_ASSIGN_OR_RAISE(auto batch, input_->Next());
      if (batch == nullptr) {
        done_ = true;
        FUSION_RETURN_NOT_OK(EvaluatePending());
        reservation_.Free();
      } else if (batch->num_rows() > 0) {
        FUSION_RETURN_NOT_OK(Push(std::move(batch)));
      }
    }
    if (ready_.empty()) return RecordBatchPtr(nullptr);
    RecordBatchPtr out = std::move(ready_.front());
    ready_.pop_front();
    return out;
  }

 private:
  Status Charge(int64_t bytes) {
    FUSION_RETURN_NOT_OK(reservation_.ResizeTo(bytes));
    mem_reserved_->SetMax(bytes);
    return Status::OK();
  }

  Status Push(RecordBatchPtr batch) {
    FUSION_RETURN_NOT_OK(Charge(reservation_.held() + batch->TotalBufferSize()));
    FUSION_ASSIGN_OR_RAISE(auto keys,
                           EvaluateToArrays(exprs_.front().partition_by, *batch));
    // The batch's last partition starts at row `open`. Every row before
    // it, pending ones too, is complete unless that partition started in
    // an earlier batch.
    int64_t open = batch->num_rows() - 1;
    while (open > 0 && !DiffersFromPrevious(keys, open)) --open;
    const bool continues =
        open == 0 && !pending_.empty() &&
        (keys.empty() || row::CompareRows(last_keys_, pending_.back()->num_rows() - 1,
                                          keys, 0, {}) == 0);
    if (!continues) {
      if (open > 0) pending_.push_back(batch->Slice(0, open));
      FUSION_RETURN_NOT_OK(EvaluatePending());
      batch = batch->Slice(open, batch->num_rows() - open);
      for (auto& k : keys) k = k->Slice(open, k->length() - open);
      FUSION_RETURN_NOT_OK(Charge(batch->TotalBufferSize()));
    }
    pending_.push_back(std::move(batch));
    last_keys_ = std::move(keys);
    return Status::OK();
  }

  Status EvaluatePending() {
    if (pending_.empty()) return Status::OK();
    FUSION_ASSIGN_OR_RAISE(auto rows, ConcatenateBatches(input_schema_, pending_));
    pending_.clear();
    // The window functions' working state is charged on top of the rows.
    const int64_t rows_bytes = reservation_.held();
    FUSION_ASSIGN_OR_RAISE(
        auto windows, EvaluateWindows(exprs_, *rows, [this, rows_bytes](int64_t bytes) {
          return Charge(rows_bytes + bytes);
        }));
    FUSION_RETURN_NOT_OK(Charge(rows_bytes));
    std::vector<ArrayPtr> columns = rows->columns();
    for (auto& w : windows) columns.push_back(std::move(w));
    auto out = std::make_shared<RecordBatch>(schema_, rows->num_rows(), std::move(columns));
    for (auto& chunk : SliceBatch(out, batch_size_)) ready_.push_back(std::move(chunk));
    return Status::OK();
  }

  exec::StreamPtr input_;
  SchemaPtr input_schema_;
  std::vector<WindowExprInfo> exprs_;
  SchemaPtr schema_;
  int64_t batch_size_;
  exec::MemoryReservation reservation_;
  exec::MetricValuePtr mem_reserved_;
  std::vector<RecordBatchPtr> pending_;
  std::vector<ArrayPtr> last_keys_;  ///< partition keys of pending_.back()
  std::deque<RecordBatchPtr> ready_;
  bool done_ = false;
};

}  // namespace

std::vector<PhysicalSortExpr> WindowExprInfo::SortKeys() const {
  std::vector<PhysicalSortExpr> keys;
  for (const auto& p : partition_by) keys.push_back({p, {}});
  keys.insert(keys.end(), order_by.begin(), order_by.end());
  return keys;
}

Result<WindowExprInfo> MakeWindowExprInfo(const logical::ExprPtr& expr,
                                          const logical::PlanSchema& input) {
  const logical::ExprPtr& w = logical::Unalias(expr);
  if (w->kind != logical::Expr::Kind::kWindow) {
    return Status::PlanError("Window node contains non-window expression");
  }
  WindowExprInfo info;
  info.function = w->window_function;
  info.output_name = expr->DisplayName();
  FUSION_ASSIGN_OR_RAISE(info.output_type, w->GetType(input));
  for (const auto& arg : w->children) {
    FUSION_ASSIGN_OR_RAISE(auto pe, CreatePhysicalExpr(arg, input));
    info.args.push_back(std::move(pe));
  }
  if (w->window_spec != nullptr) {
    for (const auto& p : w->window_spec->partition_by) {
      FUSION_ASSIGN_OR_RAISE(auto pe, CreatePhysicalExpr(p, input));
      info.partition_by.push_back(std::move(pe));
    }
    for (const auto& o : w->window_spec->order_by) {
      PhysicalSortExpr pse;
      FUSION_ASSIGN_OR_RAISE(pse.expr, CreatePhysicalExpr(o.expr, input));
      pse.options = o.options;
      info.order_by.push_back(std::move(pse));
    }
    info.frame = w->window_spec->frame;
  }
  return info;
}

Result<std::vector<ArrayPtr>> EvaluateWindows(const std::vector<WindowExprInfo>& exprs,
                                              const RecordBatch& rows,
                                              std::function<Status(int64_t bytes)> reserve) {
  const int64_t n = rows.num_rows();
  FUSION_ASSIGN_OR_RAISE(auto partition_keys,
                         EvaluateToArrays(exprs.front().partition_by, rows));
  std::vector<PhysicalExprPtr> order_exprs;
  for (const auto& o : exprs.front().order_by) order_exprs.push_back(o.expr);
  FUSION_ASSIGN_OR_RAISE(auto order_keys, EvaluateToArrays(order_exprs, rows));

  WindowPartition p;
  p.num_rows = n;
  p.reserve = std::move(reserve);
  p.partition_start.resize(n);
  p.partition_end.resize(n);
  p.peer_start.resize(n);
  std::vector<int64_t> peer_end(static_cast<size_t>(n));
  for (int64_t i = 0; i < n; ++i) {
    const bool new_partition = i == 0 || DiffersFromPrevious(partition_keys, i);
    p.partition_start[i] = new_partition ? i : p.partition_start[i - 1];
    p.peer_start[i] =
        new_partition || DiffersFromPrevious(order_keys, i) ? i : p.peer_start[i - 1];
  }
  for (int64_t i = n - 1; i >= 0; --i) {
    const bool last = i + 1 == n;
    p.partition_end[i] = last || p.partition_start[i + 1] != p.partition_start[i]
                             ? i + 1
                             : p.partition_end[i + 1];
    peer_end[i] = last || p.peer_start[i + 1] != p.peer_start[i] ? i + 1 : peer_end[i + 1];
  }

  std::vector<ArrayPtr> out;
  for (const WindowExprInfo& we : exprs) {
    FUSION_ASSIGN_OR_RAISE(p.args, EvaluateToArrays(we.args, rows));
    // Frames index values row-at-a-time in any order: densify here
    // instead of teaching every window function about codes.
    for (auto& a : p.args) a = compute::EnsureDense(a);
    if (we.function->uses_frame) ComputeFrames(we.frame, peer_end, &p);
    FUSION_ASSIGN_OR_RAISE(auto column, we.function->eval(p));
    if (column->length() != n) {
      return Status::ExecutionError("window function " + we.function->name + " returned " +
                                    std::to_string(column->length()) + " rows for " +
                                    std::to_string(n));
    }
    out.push_back(std::move(column));
  }
  return out;
}

std::string WindowExec::ToStringLine() const {
  std::string out = "WindowExec: ";
  for (size_t i = 0; i < window_exprs_.size(); ++i) {
    if (i > 0) out += ", ";
    out += window_exprs_[i].output_name;
  }
  return out;
}

Result<exec::StreamPtr> WindowExec::ExecuteImpl(int partition,
                                            const ExecContextPtr& ctx) {
  if (partition != 0) {
    return Status::ExecutionError("WindowExec has a single partition");
  }
  FUSION_ASSIGN_OR_RAISE(auto input, input_->Execute(0, ctx));
  return exec::StreamPtr(std::make_unique<WindowStream>(
      std::move(input), input_->schema(), window_exprs_, schema_, ctx, metrics_));
}

}  // namespace physical
}  // namespace fusion
