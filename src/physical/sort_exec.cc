#include "physical/sort_exec.h"

#include <algorithm>
#include <queue>

#include "arrow/builder.h"
#include "arrow/ipc.h"
#include "compute/selection.h"
#include "exec/memory_pool.h"
#include "physical/exchange_exec.h"
#include "row/row_format.h"

namespace fusion {
namespace physical {

namespace {

/// Evaluate sort keys of a batch and encode per-row normalized keys.
Result<std::vector<std::string>> EncodeSortKeys(
    const RecordBatch& batch, const std::vector<PhysicalSortExpr>& sort_exprs) {
  std::vector<ArrayPtr> keys;
  std::vector<DataType> types;
  std::vector<row::SortOptions> options;
  keys.reserve(sort_exprs.size());
  for (const auto& se : sort_exprs) {
    FUSION_ASSIGN_OR_RAISE(ColumnarValue v, se.expr->Evaluate(batch));
    FUSION_ASSIGN_OR_RAISE(auto arr, v.ToArray(batch.num_rows()));
    types.push_back(arr->type());
    keys.push_back(std::move(arr));
    options.push_back(se.options);
  }
  row::RowEncoder encoder(std::move(types), std::move(options));
  std::vector<std::string> encoded;
  encoded.reserve(static_cast<size_t>(batch.num_rows()));
  FUSION_RETURN_NOT_OK(encoder.EncodeColumns(keys, &encoded));
  return encoded;
}

/// Sort a fully materialized batch, returning it re-ordered.
Result<RecordBatchPtr> SortBatch(const RecordBatchPtr& batch,
                                 const std::vector<PhysicalSortExpr>& sort_exprs) {
  FUSION_ASSIGN_OR_RAISE(auto keys, EncodeSortKeys(*batch, sort_exprs));
  std::vector<int64_t> indices(static_cast<size_t>(batch->num_rows()));
  for (size_t i = 0; i < indices.size(); ++i) indices[i] = static_cast<int64_t>(i);
  std::stable_sort(indices.begin(), indices.end(),
                   [&](int64_t a, int64_t b) { return keys[a] < keys[b]; });
  return compute::TakeBatch(*batch, indices);
}

/// Cursor over one sorted stream for the k-way merge.
struct MergeCursor {
  std::shared_ptr<exec::RecordBatchStream> stream;
  RecordBatchPtr batch;
  std::vector<std::string> keys;
  int64_t row = 0;

  Status Advance(const std::vector<PhysicalSortExpr>& sort_exprs) {
    ++row;
    if (batch != nullptr && row < batch->num_rows()) return Status::OK();
    return LoadNext(sort_exprs);
  }

  Status LoadNext(const std::vector<PhysicalSortExpr>& sort_exprs) {
    for (;;) {
      FUSION_ASSIGN_OR_RAISE(batch, stream->Next());
      row = 0;
      if (batch == nullptr) return Status::OK();
      if (batch->num_rows() == 0) continue;
      FUSION_ASSIGN_OR_RAISE(keys, EncodeSortKeys(*batch, sort_exprs));
      return Status::OK();
    }
  }

  bool exhausted() const { return batch == nullptr; }
  const std::string& key() const { return keys[row]; }
};

/// Top-K (paper §6.2 "specialized implementations for LIMIT"): a
/// max-heap of the best `fetch` rows seen so far, ordered by encoded key
/// and then by arrival, so ties keep input order as a stable sort does.
/// A row enters only if it sorts before the heap's worst entry, and a
/// batch that no entry references is dropped. The rows are gathered
/// once at the end, and also whenever the batches kept since the last
/// gather held more than 2 * fetch + 8192 rows, which bounds both the
/// memory and the slot vectors.
class TopK {
 public:
  TopK(SchemaPtr schema, std::vector<PhysicalSortExpr> sort_exprs, int64_t fetch)
      : schema_(std::move(schema)), sort_exprs_(std::move(sort_exprs)),
        fetch_(static_cast<size_t>(fetch)), max_held_rows_(2 * fetch + 8192) {}

  Status Push(RecordBatchPtr batch) {
    if (fetch_ == 0) return Status::OK();
    FUSION_ASSIGN_OR_RAISE(auto keys, EncodeSortKeys(*batch, sort_exprs_));
    const size_t slot = batches_.size();
    const int64_t rows = batch->num_rows();
    batches_.push_back(std::move(batch));
    refs_.push_back(0);
    for (size_t r = 0; r < keys.size(); ++r, ++arrivals_) {
      if (heap_.size() == fetch_) {
        // An equal key arrived later, so it sorts after the worst entry.
        if (!(keys[r] < heap_.front().key)) continue;
        std::pop_heap(heap_.begin(), heap_.end(), Before);
        Release(heap_.back().batch, slot);
        heap_.pop_back();
      }
      heap_.push_back({std::move(keys[r]), arrivals_, slot, static_cast<int64_t>(r)});
      std::push_heap(heap_.begin(), heap_.end(), Before);
      ++refs_[slot];
    }
    if (refs_[slot] == 0) {
      batches_.pop_back();
      refs_.pop_back();
    } else if ((held_rows_ += rows) > max_held_rows_) {
      FUSION_RETURN_NOT_OK(MergeRetained());
    }
    return Status::OK();
  }

  /// The kept rows, sorted, or null when there are none.
  Result<RecordBatchPtr> Finish() {
    if (heap_.empty()) return RecordBatchPtr(nullptr);
    std::sort_heap(heap_.begin(), heap_.end(), Before);
    return Gather();
  }

 private:
  struct Entry {
    std::string key;
    int64_t arrival;
    size_t batch;
    int64_t row;
  };

  static bool Before(const Entry& a, const Entry& b) {
    const int c = a.key.compare(b.key);
    return c != 0 ? c < 0 : a.arrival < b.arrival;
  }

  /// One entry of `slot` left the heap; drop the batch once no entry
  /// references it (the batch being pushed stays until its rows are done).
  void Release(size_t slot, size_t current) {
    if (--refs_[slot] == 0 && slot != current) batches_[slot] = nullptr;
  }

  /// The heap's rows as one batch, entry i at row i: one Take per
  /// retained batch, then one Take into entry order.
  Result<RecordBatchPtr> Gather() const {
    std::vector<std::vector<int64_t>> rows(batches_.size());
    std::vector<int64_t> order(heap_.size());
    for (size_t i = 0; i < heap_.size(); ++i) {
      order[i] = static_cast<int64_t>(rows[heap_[i].batch].size());
      rows[heap_[i].batch].push_back(heap_[i].row);
    }
    std::vector<RecordBatchPtr> parts;
    std::vector<int64_t> part_start(batches_.size(), 0);
    int64_t total = 0;
    for (size_t b = 0; b < batches_.size(); ++b) {
      if (rows[b].empty()) continue;
      FUSION_ASSIGN_OR_RAISE(auto part, compute::TakeBatch(*batches_[b], rows[b]));
      part_start[b] = total;
      total += part->num_rows();
      parts.push_back(std::move(part));
    }
    for (size_t i = 0; i < heap_.size(); ++i) order[i] += part_start[heap_[i].batch];
    FUSION_ASSIGN_OR_RAISE(auto merged, ConcatenateBatches(schema_, parts));
    return compute::TakeBatch(*merged, order);
  }

  /// Replace the retained batches by one batch of the heap's rows.
  Status MergeRetained() {
    FUSION_ASSIGN_OR_RAISE(auto gathered, Gather());
    for (size_t i = 0; i < heap_.size(); ++i) {
      heap_[i].batch = 0;
      heap_[i].row = static_cast<int64_t>(i);
    }
    batches_.assign(1, std::move(gathered));
    refs_.assign(1, static_cast<int64_t>(heap_.size()));
    held_rows_ = static_cast<int64_t>(heap_.size());
    return Status::OK();
  }

  SchemaPtr schema_;
  std::vector<PhysicalSortExpr> sort_exprs_;
  size_t fetch_;
  int64_t max_held_rows_;
  std::vector<Entry> heap_;  // max-heap under Before: the worst entry first
  std::vector<RecordBatchPtr> batches_;  // null once no entry references it
  std::vector<int64_t> refs_;            // entries per batch
  int64_t held_rows_ = 0;  // rows of the batches kept since the last gather
  int64_t arrivals_ = 0;
};

/// A stream over spilled IPC batches.
class SpillStream : public exec::RecordBatchStream {
 public:
  SpillStream(SchemaPtr schema, exec::SpillFilePtr file)
      : schema_(std::move(schema)), file_(std::move(file)),
        reader_(file_->path()) {}

  const SchemaPtr& schema() const override { return schema_; }

  Result<RecordBatchPtr> Next() override {
    if (!opened_) {
      FUSION_RETURN_NOT_OK(reader_.Open());
      opened_ = true;
    }
    return reader_.Next();
  }

 private:
  SchemaPtr schema_;
  exec::SpillFilePtr file_;
  ipc::FileReader reader_;
  bool opened_ = false;
};

}  // namespace

std::vector<OrderingInfo> OrderingFromSortExprs(
    const std::vector<PhysicalSortExpr>& sort_exprs) {
  std::vector<OrderingInfo> out;
  for (const auto& se : sort_exprs) {
    auto* col = dynamic_cast<const ColumnExpr*>(se.expr.get());
    if (col == nullptr) break;
    out.push_back({col->index(), se.options});
  }
  return out;
}

Result<exec::StreamPtr> MergeSortedStreams(
    SchemaPtr schema, std::vector<std::shared_ptr<exec::RecordBatchStream>> inputs,
    std::vector<PhysicalSortExpr> sort_exprs, int64_t batch_size) {
  auto cursors = std::make_shared<std::vector<MergeCursor>>();
  cursors->reserve(inputs.size());
  for (auto& in : inputs) {
    MergeCursor c;
    c.stream = std::move(in);
    cursors->push_back(std::move(c));
  }
  auto exprs = std::make_shared<std::vector<PhysicalSortExpr>>(std::move(sort_exprs));
  auto initialized = std::make_shared<bool>(false);
  // Min-heap of cursor indices ordered by current normalized key; this
  // plays the role of the tree of losers in [Graefe 2006].
  auto cmp = [cursors](size_t a, size_t b) {
    return (*cursors)[a].key() > (*cursors)[b].key();
  };
  using Heap = std::priority_queue<size_t, std::vector<size_t>, decltype(cmp)>;
  auto heap = std::make_shared<Heap>(cmp);

  return exec::StreamPtr(std::make_unique<exec::GeneratorStream>(
      schema,
      [schema, cursors, exprs, initialized, heap,
       batch_size]() -> Result<RecordBatchPtr> {
        if (!*initialized) {
          *initialized = true;
          for (size_t i = 0; i < cursors->size(); ++i) {
            FUSION_RETURN_NOT_OK((*cursors)[i].LoadNext(*exprs));
            if (!(*cursors)[i].exhausted()) heap->push(i);
          }
        }
        if (heap->empty()) return RecordBatchPtr(nullptr);
        std::vector<std::unique_ptr<ArrayBuilder>> builders;
        for (const Field& f : schema->fields()) {
          FUSION_ASSIGN_OR_RAISE(auto b, MakeBuilder(f.type()));
          b->Reserve(batch_size);
          builders.push_back(std::move(b));
        }
        int64_t rows = 0;
        while (rows < batch_size && !heap->empty()) {
          size_t i = heap->top();
          heap->pop();
          MergeCursor& cur = (*cursors)[i];
          for (int c = 0; c < schema->num_fields(); ++c) {
            builders[c]->AppendFrom(*cur.batch->column(c), cur.row);
          }
          ++rows;
          FUSION_RETURN_NOT_OK(cur.Advance(*exprs));
          if (!cur.exhausted()) heap->push(i);
        }
        if (rows == 0) return RecordBatchPtr(nullptr);
        std::vector<ArrayPtr> columns;
        for (auto& b : builders) {
          FUSION_ASSIGN_OR_RAISE(auto arr, b->Finish());
          columns.push_back(std::move(arr));
        }
        return std::make_shared<RecordBatch>(schema, rows, std::move(columns));
      }));
}

std::vector<OrderingInfo> SortExec::output_ordering() const {
  return OrderingFromSortExprs(sort_exprs_);
}

std::string SortExec::ToStringLine() const {
  std::string out = "SortExec: ";
  for (size_t i = 0; i < sort_exprs_.size(); ++i) {
    if (i > 0) out += ", ";
    out += sort_exprs_[i].expr->ToString();
    if (sort_exprs_[i].options.descending) out += " DESC";
  }
  if (fetch_ >= 0) out += " fetch=" + std::to_string(fetch_) + " (TopK)";
  return out;
}

Result<exec::StreamPtr> SortExec::ExecuteImpl(int partition, const ExecContextPtr& ctx) {
  FUSION_ASSIGN_OR_RAISE(auto input, input_->Execute(partition, ctx));
  SchemaPtr schema = input_->schema();

  const bool use_topk = fetch_ >= 0 && ctx->config.enable_topk &&
                        fetch_ <= 100000;

  if (use_topk) {
    TopK topk(schema, sort_exprs_, fetch_);
    for (;;) {
      FUSION_ASSIGN_OR_RAISE(auto batch, input->Next());
      if (batch == nullptr) break;
      if (batch->num_rows() == 0) continue;
      FUSION_RETURN_NOT_OK(topk.Push(std::move(batch)));
    }
    FUSION_ASSIGN_OR_RAISE(auto sorted, topk.Finish());
    std::vector<RecordBatchPtr> out;
    if (sorted != nullptr) out.push_back(std::move(sorted));
    return exec::StreamPtr(
        std::make_unique<exec::VectorStream>(schema, std::move(out)));
  }

  // Full (external) sort.
  std::string consumer =
      "sort-" + std::to_string(ctx->query_id) + "-" + std::to_string(partition);
  exec::MemoryReservation reservation(ctx->env->memory_pool, consumer);
  std::vector<RecordBatchPtr> buffer;
  std::vector<exec::SpillFilePtr> spills;
  int64_t buffered_bytes = 0;
  auto spill_count = metrics_->Counter(exec::metric::kSpillCount, partition);
  auto spill_bytes = metrics_->Counter(exec::metric::kSpillBytes, partition);
  auto mem_reserved = metrics_->Gauge(exec::metric::kMemReservedBytes, partition);

  auto spill_run = [&]() -> Status {
    FUSION_ASSIGN_OR_RAISE(auto merged, ConcatenateBatches(schema, buffer));
    FUSION_ASSIGN_OR_RAISE(auto sorted, SortBatch(merged, sort_exprs_));
    FUSION_ASSIGN_OR_RAISE(auto file,
                           ctx->env->disk_manager->CreateTempFile("sort"));
    // Charge the run against the disk manager's spill quota before
    // writing; ResourcesExhausted here is the clean "disk full" path.
    FUSION_RETURN_NOT_OK(file->Reserve(sorted->TotalBufferSize()));
    ipc::FileWriter writer(file->path());
    FUSION_RETURN_NOT_OK(writer.Open());
    for (const auto& chunk : SliceBatch(sorted, ctx->config.batch_size)) {
      FUSION_RETURN_NOT_OK(writer.WriteBatch(*chunk));
    }
    FUSION_RETURN_NOT_OK(writer.Close());
    spills.push_back(std::move(file));
    spills_.fetch_add(1);
    spill_count->Add(1);
    spill_bytes->Add(sorted->TotalBufferSize());
    buffer.clear();
    buffered_bytes = 0;
    FUSION_RETURN_NOT_OK(reservation.ResizeTo(0));
    return Status::OK();
  };

  for (;;) {
    FUSION_ASSIGN_OR_RAISE(auto batch, input->Next());
    if (batch == nullptr) break;
    if (batch->num_rows() == 0) continue;
    int64_t bytes = batch->TotalBufferSize();
    Status grow = reservation.ResizeTo(buffered_bytes + bytes);
    if (grow.IsOutOfMemory() && !buffer.empty()) {
      FUSION_RETURN_NOT_OK(spill_run());
      grow = reservation.ResizeTo(bytes);
    }
    if (!grow.ok()) {
      // Other consumers (e.g. sibling partitions' sorts) hold the pool.
      // A batch that would fit the pool alone becomes a run of its own;
      // one larger than the whole pool can never be held.
      if (!grow.IsOutOfMemory() || bytes > ctx->env->memory_pool->limit()) {
        return grow;
      }
      buffer.push_back(std::move(batch));
      FUSION_RETURN_NOT_OK(spill_run());
      continue;
    }
    mem_reserved->SetMax(reservation.held());
    buffered_bytes += bytes;
    buffer.push_back(std::move(batch));
  }

  if (spills.empty()) {
    if (buffer.empty()) {
      return exec::StreamPtr(std::make_unique<exec::VectorStream>(
          schema, std::vector<RecordBatchPtr>{}));
    }
    FUSION_ASSIGN_OR_RAISE(auto merged, ConcatenateBatches(schema, buffer));
    FUSION_ASSIGN_OR_RAISE(auto sorted, SortBatch(merged, sort_exprs_));
    std::vector<RecordBatchPtr> chunks = SliceBatch(sorted, ctx->config.batch_size);
    if (fetch_ >= 0) {
      std::vector<RecordBatchPtr> limited;
      int64_t remaining = fetch_;
      for (auto& c : chunks) {
        if (remaining <= 0) break;
        if (c->num_rows() > remaining) c = c->Slice(0, remaining);
        remaining -= c->num_rows();
        limited.push_back(std::move(c));
      }
      chunks = std::move(limited);
    }
    return exec::StreamPtr(
        std::make_unique<exec::VectorStream>(schema, std::move(chunks)));
  }

  // Merge spilled runs (+ the final in-memory run).
  if (!buffer.empty()) {
    FUSION_RETURN_NOT_OK(spill_run());
  }
  std::vector<std::shared_ptr<exec::RecordBatchStream>> runs;
  runs.reserve(spills.size());
  for (auto& file : spills) {
    runs.push_back(std::make_shared<SpillStream>(schema, std::move(file)));
  }
  FUSION_ASSIGN_OR_RAISE(auto merged_stream,
                         MergeSortedStreams(schema, std::move(runs), sort_exprs_,
                                            ctx->config.batch_size));
  if (fetch_ < 0) return merged_stream;
  // A top-k sort that spilled must still honour its fetch: cap the
  // merged output just like the in-memory path above.
  std::shared_ptr<exec::RecordBatchStream> inner = std::move(merged_stream);
  auto remaining = std::make_shared<int64_t>(fetch_);
  return exec::StreamPtr(std::make_unique<exec::GeneratorStream>(
      schema, [inner, remaining]() -> Result<RecordBatchPtr> {
        if (*remaining <= 0) return RecordBatchPtr(nullptr);
        FUSION_ASSIGN_OR_RAISE(auto batch, inner->Next());
        if (batch == nullptr) return batch;
        if (batch->num_rows() > *remaining) batch = batch->Slice(0, *remaining);
        *remaining -= batch->num_rows();
        return batch;
      }));
}

std::vector<OrderingInfo> SortPreservingMergeExec::output_ordering() const {
  return OrderingFromSortExprs(sort_exprs_);
}

Result<exec::StreamPtr> SortPreservingMergeExec::ExecuteImpl(
    int partition, const ExecContextPtr& ctx) {
  if (partition != 0) {
    return Status::ExecutionError("SortPreservingMergeExec has a single partition");
  }
  const int n = input_->output_partitions();
  if (n == 1) return input_->Execute(0, ctx);
  // Producer tasks open and drain the inputs at the same time (each
  // input's SortExec sorts while opening); the merge pops their queues.
  std::vector<std::shared_ptr<exec::RecordBatchStream>> inputs;
  for (auto& stream : ExecuteInProducers(input_, ctx, n, *metrics_)) {
    inputs.push_back(std::move(stream));
  }
  return MergeSortedStreams(input_->schema(), std::move(inputs), sort_exprs_,
                            ctx->config.batch_size);
}

}  // namespace physical
}  // namespace fusion
