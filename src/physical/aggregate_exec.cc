#include "physical/aggregate_exec.h"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <functional>
#include <numeric>

#include "arrow/ipc.h"
#include "compute/group_table.h"
#include "compute/hash_kernels.h"
#include "compute/selection.h"
#include "exec/memory_pool.h"

namespace fusion {
namespace physical {

namespace {

using logical::GroupedAccumulator;

Result<std::vector<uint8_t>> EvaluateFilterMask(const PhysicalExprPtr& filter,
                                                const RecordBatch& batch) {
  std::vector<uint8_t> mask;
  if (filter == nullptr) return mask;
  FUSION_ASSIGN_OR_RAISE(auto arr, EvaluatePredicateMask(*filter, batch));
  const auto& bm = checked_cast<BooleanArray>(*arr);
  mask.resize(static_cast<size_t>(batch.num_rows()), 0);
  for (int64_t i = 0; i < batch.num_rows(); ++i) {
    mask[i] = bm.IsValid(i) && bm.Value(i) ? 1 : 0;
  }
  return mask;
}

/// How the adaptive bypass is decided: from observed cardinality (auto),
/// never (off), or from the first row (force; tests).
enum class BypassMode { kAuto, kOff, kForce };

BypassMode BypassModeFromEnv() {
  const char* env = std::getenv("FUSION_AGG_BYPASS");
  if (env == nullptr) return BypassMode::kAuto;
  if (std::string_view(env) == "off") return BypassMode::kOff;
  if (std::string_view(env) == "force") return BypassMode::kForce;
  return BypassMode::kAuto;
}

/// Feed every batch of a spill file to `fn`.
Status ReadSpill(const exec::SpillFilePtr& file,
                 const std::function<Status(RecordBatchPtr)>& fn) {
  ipc::FileReader reader(file->path());
  FUSION_RETURN_NOT_OK(reader.Open());
  for (;;) {
    FUSION_ASSIGN_OR_RAISE(auto batch, reader.Next());
    if (batch == nullptr) return Status::OK();
    FUSION_RETURN_NOT_OK(fn(batch));
  }
}

}  // namespace

/// Build results shared by all merge partitions, plus the layout of
/// partial-state batches.
struct PartitionedAggregateExec::BuildState {
  /// One build's output.
  struct Partial {
    /// The build's table (keys + stored hashes), accumulators and spills.
    std::unique_ptr<GroupState> groups;
    /// Per-aggregate serialized partial state, row g = group g.
    std::vector<std::vector<ArrayPtr>> state_arrays;
    /// Group ids routed to each radix bucket (bucket_groups[p] feeds
    /// merge partition p).
    std::vector<std::vector<uint32_t>> bucket_groups;
    /// Bypassed rows as per-row partial-state batches, pre-split by
    /// radix bucket.
    std::vector<std::vector<RecordBatchPtr>> bypass_batches;
  };

  std::vector<Partial> partials;

  std::vector<DataType> key_types;
  /// Partial-state batches (bypass, spill) hold the keys first, then each
  /// aggregate's state columns at state_columns[a].
  std::vector<std::vector<int>> state_columns;
  SchemaPtr partial_schema;
  /// Set when a lone build feeding one output did not spill:
  /// partials[0].groups is finished directly instead of merged.
  bool direct = false;

  /// Every merge driver claims input partitions to build.
  CooperativeBuild build;

  /// Merges still to read `partials`; the last one to finish frees them.
  std::atomic<int> remaining_merges;

  BuildState(int num_inputs, int num_merges)
      : partials(static_cast<size_t>(num_inputs)),
        build(num_inputs),
        remaining_merges(num_merges) {}
};

/// The grouping state one build or merge owns: a group table mapping
/// keys to dense ids (none without group keys: one implicit group),
/// one accumulator per aggregate, the memory reservation both are
/// charged to, and the partial-state runs spilled when it was refused.
class PartitionedAggregateExec::GroupState {
 public:
  GroupState(PartitionedAggregateExec* op, const ExecContextPtr& ctx,
             const std::string& role, int partition)
      : op_(op),
        reservation_(ctx->env->memory_pool, "aggpart-" + std::to_string(ctx->query_id) +
                                                "-" + role + "-" +
                                                std::to_string(partition)),
        spill_count_(op->metrics_->Counter(exec::metric::kSpillCount, partition)),
        spill_bytes_(op->metrics_->Counter(exec::metric::kSpillBytes, partition)),
        mem_reserved_(op->metrics_->Gauge(exec::metric::kMemReservedBytes, partition)) {}

  /// Start over with an empty table and fresh accumulators.
  Status Reset() {
    const BuildState& bs = *op_->build_state_;
    table_ = bs.key_types.empty()
                 ? nullptr
                 : std::make_unique<compute::GroupTable>(bs.key_types);
    accumulators_.clear();
    for (const auto& agg : op_->aggregates_) {
      FUSION_ASSIGN_OR_RAISE(auto acc, agg.function->create(agg.arg_types));
      accumulators_.push_back(std::move(acc));
    }
    return Status::OK();
  }

  int64_t num_groups() const { return table_ != nullptr ? table_->num_groups() : 1; }
  uint64_t group_hash(uint32_t g) const {
    return table_ != nullptr ? table_->group_hash(g) : 0;
  }

  /// Map rows with these key columns to group ids.
  Status Map(const std::vector<ArrayPtr>& keys, int64_t rows,
             std::vector<uint32_t>* ids) {
    if (table_ == nullptr) {
      ids->assign(static_cast<size_t>(rows), 0);
      return Status::OK();
    }
    FUSION_RETURN_NOT_OK(compute::HashColumns(keys, &hashes_));
    return table_->MapBatch(keys, hashes_, ids);
  }

  /// Accumulate the aggregates' arguments over `batch` into groups `ids`.
  Status Update(const RecordBatch& batch, const std::vector<uint32_t>& ids) {
    for (size_t a = 0; a < accumulators_.size(); ++a) {
      const AggregateInfo& agg = op_->aggregates_[a];
      accumulators_[a]->Resize(num_groups());
      FUSION_ASSIGN_OR_RAISE(auto args, EvaluateToArrays(agg.args, batch));
      FUSION_ASSIGN_OR_RAISE(auto mask, EvaluateFilterMask(agg.filter, batch));
      FUSION_RETURN_NOT_OK(
          accumulators_[a]->Update(args, ids, mask.empty() ? nullptr : mask.data()));
    }
    return Status::OK();
  }

  /// Fold one partial-layout batch (bypass or spilled rows) in.
  Status MergeBatch(const RecordBatch& batch) {
    const auto& columns = batch.columns();
    std::vector<ArrayPtr> keys(columns.begin(),
                               columns.begin() + op_->group_exprs_.size());
    FUSION_RETURN_NOT_OK(Map(keys, batch.num_rows(), &ids_));
    const auto& layout = op_->build_state_->state_columns;
    for (size_t a = 0; a < accumulators_.size(); ++a) {
      std::vector<ArrayPtr> state;
      for (int idx : layout[a]) state.push_back(batch.column(idx));
      FUSION_RETURN_NOT_OK(UpdateFromPartial(a, state, ids_));
    }
    return Status::OK();
  }

  /// Fold groups `gids` of a build in: probe their stored hashes and
  /// arena bytes directly, then gather their serialized state rows.
  Status MergeGroups(const BuildState::Partial& part,
                     const std::vector<uint32_t>& gids) {
    if (table_ != nullptr) {
      FUSION_RETURN_NOT_OK(table_->MergeFrom(*part.groups->table_, gids, &ids_));
    } else {
      ids_.assign(gids.size(), 0);
    }
    take_.assign(gids.begin(), gids.end());
    for (size_t a = 0; a < accumulators_.size(); ++a) {
      std::vector<ArrayPtr> state;
      for (const auto& col : part.state_arrays[a]) {
        FUSION_ASSIGN_OR_RAISE(auto t, compute::Take(*col, take_));
        state.push_back(std::move(t));
      }
      FUSION_RETURN_NOT_OK(UpdateFromPartial(a, state, ids_));
    }
    return Status::OK();
  }

  /// Every aggregate's serialized partial state, row g = group g.
  Result<std::vector<std::vector<ArrayPtr>>> PartialState() {
    std::vector<std::vector<ArrayPtr>> out;
    for (auto& acc : accumulators_) {
      acc->Resize(num_groups());
      FUSION_ASSIGN_OR_RAISE(auto cols, acc->PartialState());
      out.push_back(std::move(cols));
    }
    return out;
  }

  /// Serialize every aggregate's state, then free the accumulators: the
  /// merge reads only that state and the table's keys. The reservation
  /// shrinks to what is left, and never grows here.
  Result<std::vector<std::vector<ArrayPtr>>> Seal() {
    FUSION_ASSIGN_OR_RAISE(auto state, PartialState());
    accumulators_.clear();
    std::vector<ArrayPtr> columns;
    for (const auto& cols : state) columns.insert(columns.end(), cols.begin(), cols.end());
    int64_t held = RecordBatch(nullptr, num_groups(), columns).TotalBufferSize();
    if (table_ != nullptr) held += table_->SizeBytes();
    FUSION_RETURN_NOT_OK(reservation_.ResizeTo(std::min(held, reservation_.held())));
    return state;
  }

  /// The groups as batches of `schema`: keys, then per aggregate either
  /// its partial state or its final value.
  Result<std::vector<RecordBatchPtr>> Emit(bool partial, const SchemaPtr& schema,
                                           int64_t batch_size) {
    std::vector<ArrayPtr> columns;
    if (table_ != nullptr) {
      FUSION_ASSIGN_OR_RAISE(columns, table_->DecodeGroupKeys());
    }
    if (partial) {
      FUSION_ASSIGN_OR_RAISE(auto state, PartialState());
      for (auto& cols : state) {
        for (auto& c : cols) columns.push_back(std::move(c));
      }
    } else {
      for (auto& acc : accumulators_) {
        acc->Resize(num_groups());
        FUSION_ASSIGN_OR_RAISE(auto col, acc->Finish());
        columns.push_back(std::move(col));
      }
    }
    auto big = std::make_shared<RecordBatch>(schema, num_groups(), std::move(columns));
    return SliceBatch(big, batch_size);
  }

  /// Charge the table, accumulators and `extra_bytes` to the memory
  /// pool; false when the pool refuses.
  Result<bool> Charge(int64_t extra_bytes) {
    int64_t held = extra_bytes + (table_ != nullptr ? table_->SizeBytes() : 0);
    for (const auto& acc : accumulators_) held += acc->SizeBytes();
    Status grow = reservation_.ResizeTo(held);
    if (!grow.ok()) {
      if (!grow.IsOutOfMemory()) return grow;
      return false;
    }
    mem_reserved_->SetMax(reservation_.held());
    return true;
  }

  /// Write the groups to a spill file as partial state and start over.
  Status Spill(const ExecContextPtr& ctx) {
    FUSION_ASSIGN_OR_RAISE(auto batches, Emit(/*partial=*/true,
                                              op_->build_state_->partial_schema,
                                              ctx->config.batch_size));
    FUSION_RETURN_NOT_OK(WriteSpill(batches, ctx));
    FUSION_RETURN_NOT_OK(Reset());
    return reservation_.ResizeTo(0);
  }

  /// Write partial-layout batches to a new spill file.
  Status WriteSpill(const std::vector<RecordBatchPtr>& batches,
                    const ExecContextPtr& ctx) {
    FUSION_ASSIGN_OR_RAISE(auto file, ctx->env->disk_manager->CreateTempFile("agg"));
    // Charge the run against the spill quota before writing so a full
    // disk surfaces as ResourcesExhausted rather than a short write.
    int64_t run_bytes = 0;
    for (const auto& b : batches) run_bytes += b->TotalBufferSize();
    FUSION_RETURN_NOT_OK(file->Reserve(run_bytes));
    ipc::FileWriter writer(file->path());
    FUSION_RETURN_NOT_OK(writer.Open());
    for (const auto& b : batches) {
      FUSION_RETURN_NOT_OK(writer.WriteBatch(*b));
    }
    FUSION_RETURN_NOT_OK(writer.Close());
    spill_files.push_back(std::move(file));
    spill_count_->Add(1);
    spill_bytes_->Add(run_bytes);
    return Status::OK();
  }

  std::vector<exec::SpillFilePtr> spill_files;

 private:
  Status UpdateFromPartial(size_t a, const std::vector<ArrayPtr>& state,
                           const std::vector<uint32_t>& ids) {
    accumulators_[a]->Resize(num_groups());
    return accumulators_[a]->UpdateFromPartial(state, ids);
  }

  PartitionedAggregateExec* op_;
  std::unique_ptr<compute::GroupTable> table_;
  std::vector<std::unique_ptr<GroupedAccumulator>> accumulators_;
  exec::MemoryReservation reservation_;
  exec::MetricValuePtr spill_count_;
  exec::MetricValuePtr spill_bytes_;
  exec::MetricValuePtr mem_reserved_;
  // Scratch reused across batches.
  std::vector<uint64_t> hashes_;
  std::vector<uint32_t> ids_;
  std::vector<int64_t> take_;
};

std::string PartitionedAggregateExec::ToStringLine() const {
  std::string out = "PartitionedAggregateExec: groups=[";
  for (size_t i = 0; i < group_names_.size(); ++i) {
    if (i > 0) out += ", ";
    out += group_names_[i];
  }
  out += "] aggs=[";
  for (size_t i = 0; i < aggregates_.size(); ++i) {
    if (i > 0) out += ", ";
    out += aggregates_[i].output_name;
  }
  out += "]";
  return out;
}

Status PartitionedAggregateExec::BuildPartition(BuildState* bs, int p,
                                                const ExecContextPtr& ctx) {
  const uint32_t buckets = static_cast<uint32_t>(num_partitions_);
  BuildState::Partial& out = bs->partials[p];
  auto partial_groups = metrics_->Counter(exec::metric::kPartialGroups, p);
  auto bypass_rows = metrics_->Counter(exec::metric::kBypassRows, p);
  out.groups = std::make_unique<GroupState>(this, ctx, "build", p);
  GroupState& groups = *out.groups;
  FUSION_RETURN_NOT_OK(groups.Reset());
  out.bypass_batches.assign(buckets, {});

  // One input, one output: this build's state is the result unless it
  // spills. Bypass saves merge work, so it needs group keys and a merge.
  const bool single = bs->build.num_inputs() == 1 && num_partitions_ == 1;
  const BypassMode mode = BypassModeFromEnv();
  const bool may_bypass = !group_exprs_.empty() && !single;
  bool bypass = may_bypass && mode == BypassMode::kForce;
  bool decided = !may_bypass || mode != BypassMode::kAuto;
  FUSION_ASSIGN_OR_RAISE(auto input, input_->Execute(p, ctx));
  std::vector<uint64_t> hashes;
  std::vector<uint32_t> group_ids;
  int64_t rows_seen = 0;
  int64_t buffered_bytes = 0;
  int64_t batches_since_check = 0;
  for (;;) {
    FUSION_ASSIGN_OR_RAISE(auto batch, input->Next());
    if (batch == nullptr) break;
    const int64_t n = batch->num_rows();
    if (n == 0) continue;
    FUSION_ASSIGN_OR_RAISE(auto keys, EvaluateToArrays(group_exprs_, *batch));
    if (!bypass) {
      FUSION_RETURN_NOT_OK(groups.Map(keys, n, &group_ids));
      FUSION_RETURN_NOT_OK(groups.Update(*batch, group_ids));
      rows_seen += n;
      if (!decided && rows_seen >= ctx->config.agg_bypass_probe_rows) {
        decided = true;
        // Pre-aggregation is only worth its probes if it collapses
        // rows; at >= kBypassRatio groups per row it degrades to
        // passthrough.
        constexpr double kBypassRatio = 0.8;
        bypass = static_cast<double>(groups.num_groups()) >=
                 kBypassRatio * static_cast<double>(rows_seen);
      }
    } else {
      // Bypass: every row becomes its own group of one; serialize the
      // per-row partial state and radix-split by key hash so the merge
      // can route rows without a repartition exchange.
      bypass_rows->Add(n);
      FUSION_RETURN_NOT_OK(compute::HashColumns(keys, &hashes));
      std::vector<ArrayPtr> columns = keys;
      std::vector<uint32_t> iota(static_cast<size_t>(n));
      std::iota(iota.begin(), iota.end(), 0);
      for (const AggregateInfo& agg : aggregates_) {
        FUSION_ASSIGN_OR_RAISE(auto acc, agg.function->create(agg.arg_types));
        acc->Resize(n);
        FUSION_ASSIGN_OR_RAISE(auto args, EvaluateToArrays(agg.args, *batch));
        FUSION_ASSIGN_OR_RAISE(auto mask, EvaluateFilterMask(agg.filter, *batch));
        FUSION_RETURN_NOT_OK(
            acc->Update(args, iota, mask.empty() ? nullptr : mask.data()));
        FUSION_ASSIGN_OR_RAISE(auto cols, acc->PartialState());
        for (auto& c : cols) columns.push_back(std::move(c));
      }
      std::vector<std::vector<int64_t>> bucket_rows(buckets);
      for (int64_t r = 0; r < n; ++r) {
        bucket_rows[compute::GroupTable::RadixBucket(hashes[r], buckets)]
            .push_back(r);
      }
      for (uint32_t b = 0; b < buckets; ++b) {
        if (bucket_rows[b].empty()) continue;
        std::vector<ArrayPtr> taken;
        taken.reserve(columns.size());
        for (const auto& c : columns) {
          FUSION_ASSIGN_OR_RAISE(auto t, compute::Take(*c, bucket_rows[b]));
          taken.push_back(std::move(t));
        }
        auto out_batch = std::make_shared<RecordBatch>(
            bs->partial_schema, static_cast<int64_t>(bucket_rows[b].size()),
            std::move(taken));
        buffered_bytes += out_batch->TotalBufferSize();
        out.bypass_batches[b].push_back(std::move(out_batch));
      }
    }
    // SizeBytes walks per-group state; amortize by checking periodically
    // (this is what the paper means by tracking "the largest memory
    // consumers ... but not small ephemeral allocations", §5.5.4).
    if (++batches_since_check < 16) continue;
    batches_since_check = 0;
    FUSION_ASSIGN_OR_RAISE(bool fits, groups.Charge(buffered_bytes));
    if (!fits && buffered_bytes > 0) {
      // Flush the buffered passthrough batches; the merge re-routes
      // spilled rows by recomputing their hashes.
      std::vector<RecordBatchPtr> flush;
      for (auto& bucket : out.bypass_batches) {
        for (auto& fb : bucket) flush.push_back(std::move(fb));
        bucket.clear();
      }
      FUSION_RETURN_NOT_OK(groups.WriteSpill(flush, ctx));
      buffered_bytes = 0;
      FUSION_ASSIGN_OR_RAISE(fits, groups.Charge(0));
    }
    if (!fits) FUSION_RETURN_NOT_OK(groups.Spill(ctx));
  }

  if (single && groups.spill_files.empty()) {
    bs->direct = true;
    return Status::OK();
  }
  // Seal the table: serialize accumulator state once and route each
  // group to its radix bucket by the stored hash.
  const int64_t num_groups = groups.num_groups();
  partial_groups->Add(num_groups);
  FUSION_ASSIGN_OR_RAISE(out.state_arrays, groups.Seal());
  out.bucket_groups.assign(buckets, {});
  for (uint32_t g = 0; g < static_cast<uint32_t>(num_groups); ++g) {
    out.bucket_groups[compute::GroupTable::RadixBucket(groups.group_hash(g), buckets)]
        .push_back(g);
  }
  return Status::OK();
}

Status PartitionedAggregateExec::EnsureBuilt(const ExecContextPtr& ctx, bool wait) {
  std::shared_ptr<BuildState> bs;
  {
    // The mutex guards only the (cheap) one-time state setup and the
    // final publication — never held across input execution, so a driver
    // re-entering here on a lent scheduler thread cannot self-deadlock.
    std::lock_guard<std::mutex> lock(build_mu_);
    if (built_) return build_status_;
    if (build_state_ == nullptr) {
      auto init = [&]() -> Status {
        // A global aggregate merges in partition 0 only.
        auto state = std::make_shared<BuildState>(
            input_->output_partitions(), group_exprs_.empty() ? 1 : num_partitions_);
        std::vector<Field> partial_fields;
        for (size_t g = 0; g < group_exprs_.size(); ++g) {
          state->key_types.push_back(group_exprs_[g]->type());
          partial_fields.emplace_back(group_names_[g], group_exprs_[g]->type(), true);
        }
        int state_col = static_cast<int>(group_exprs_.size());
        for (const auto& agg : aggregates_) {
          FUSION_ASSIGN_OR_RAISE(auto acc, agg.function->create(agg.arg_types));
          state->state_columns.emplace_back();
          for (DataType t : acc->PartialTypes()) {
            partial_fields.emplace_back("__state_" + std::to_string(state_col), t,
                                        true);
            state->state_columns.back().push_back(state_col++);
          }
        }
        state->partial_schema = std::make_shared<Schema>(std::move(partial_fields));
        build_state_ = std::move(state);
        return Status::OK();
      };
      Status init_status = init();
      if (!init_status.ok()) {
        built_ = true;
        build_status_ = init_status;
        return build_status_;
      }
    }
    bs = build_state_;
  }

  Status st = bs->build.Run(
      ctx, [&](int p) { return BuildPartition(bs.get(), p, ctx); }, wait);
  if (!wait) return st;
  std::lock_guard<std::mutex> lock(build_mu_);
  if (!built_) {
    built_ = true;
    build_status_ = std::move(st);
  }
  return build_status_;
}

Result<std::unique_ptr<PartitionedAggregateExec::GroupState>>
PartitionedAggregateExec::Merge(int partition, const ExecContextPtr& ctx) {
  BuildState& bs = *build_state_;
  const uint32_t buckets = static_cast<uint32_t>(num_partitions_);
  auto state = std::make_unique<GroupState>(this, ctx, "merge", partition);
  FUSION_RETURN_NOT_OK(state->Reset());
  int64_t merges_since_check = 0;
  auto check_memory = [&]() -> Status {
    if (++merges_since_check < 16) return Status::OK();
    merges_since_check = 0;
    FUSION_ASSIGN_OR_RAISE(bool fits, state->Charge(0));
    return fits ? Status::OK() : state->Spill(ctx);
  };

  std::vector<uint64_t> hashes;
  std::vector<int64_t> mine;
  for (const BuildState::Partial& part : bs.partials) {
    const std::vector<uint32_t>& gids = part.bucket_groups[partition];
    if (!gids.empty()) {
      FUSION_RETURN_NOT_OK(state->MergeGroups(part, gids));
      FUSION_RETURN_NOT_OK(check_memory());
    }
    for (const auto& batch : part.bypass_batches[partition]) {
      FUSION_RETURN_NOT_OK(state->MergeBatch(*batch));
      FUSION_RETURN_NOT_OK(check_memory());
    }
    // Spilled runs hold rows of every bucket; keep only ours (all of
    // them with one bucket, or without keys: only bucket 0 merges).
    for (const auto& file : part.groups->spill_files) {
      FUSION_RETURN_NOT_OK(ReadSpill(file, [&](RecordBatchPtr batch) -> Status {
        if (buckets > 1 && !group_exprs_.empty()) {
          const auto& columns = batch->columns();
          std::vector<ArrayPtr> keys(columns.begin(),
                                     columns.begin() + group_exprs_.size());
          FUSION_RETURN_NOT_OK(compute::HashColumns(keys, &hashes));
          mine.clear();
          for (int64_t r = 0; r < batch->num_rows(); ++r) {
            if (compute::GroupTable::RadixBucket(hashes[r], buckets) ==
                static_cast<uint32_t>(partition)) {
              mine.push_back(r);
            }
          }
          if (mine.empty()) return Status::OK();
          FUSION_ASSIGN_OR_RAISE(batch, compute::TakeBatch(*batch, mine));
        }
        FUSION_RETURN_NOT_OK(state->MergeBatch(*batch));
        return check_memory();
      }));
    }
  }

  // Re-merge anything this partition spilled while merging (rows are
  // already all ours; no further spilling on this pass).
  if (!state->spill_files.empty()) {
    auto files = std::move(state->spill_files);
    FUSION_ASSIGN_OR_RAISE(auto in_memory,
                           state->Emit(/*partial=*/true, bs.partial_schema,
                                       ctx->config.batch_size));
    FUSION_RETURN_NOT_OK(state->Reset());
    for (const auto& b : in_memory) FUSION_RETURN_NOT_OK(state->MergeBatch(*b));
    for (const auto& file : files) {
      FUSION_RETURN_NOT_OK(ReadSpill(file, [&](RecordBatchPtr batch) {
        return state->MergeBatch(*batch);
      }));
    }
  }
  return state;
}

Result<exec::StreamPtr> PartitionedAggregateExec::ExecuteImpl(
    int partition, const ExecContextPtr& ctx) {
  // A global aggregate's one group lives in bucket 0; its other
  // partitions only help the build, and need not wait for it (holding
  // a scheduler worker) since they emit nothing.
  const bool emits = !group_exprs_.empty() || partition == 0;
  FUSION_RETURN_NOT_OK(EnsureBuilt(ctx, /*wait=*/emits));
  std::vector<RecordBatchPtr> out;
  if (emits) {
    std::unique_ptr<GroupState> groups;
    if (build_state_->direct) {
      groups = std::move(build_state_->partials[0].groups);
    } else {
      auto merged = Merge(partition, ctx);
      // The builds' tables, state and bypassed rows (and their memory
      // reservations) go once every merge has read them, not with the plan.
      if (build_state_->remaining_merges.fetch_sub(1) == 1) {
        build_state_->partials.clear();
      }
      FUSION_ASSIGN_OR_RAISE(groups, std::move(merged));
    }
    FUSION_ASSIGN_OR_RAISE(
        out, groups->Emit(/*partial=*/false, schema_, ctx->config.batch_size));
  }
  return exec::StreamPtr(std::make_unique<exec::VectorStream>(schema_, std::move(out)));
}

}  // namespace physical
}  // namespace fusion
