#include "physical/hash_join_exec.h"

#include <algorithm>
#include <cstdio>

#include "arrow/builder.h"
#include "compute/aggregate_kernels.h"
#include "compute/group_table.h"
#include "compute/hash_kernels.h"
#include "compute/selection.h"
#include "exec/memory_pool.h"
#include "exec/runtime_filter.h"
#include "format/bloom.h"

namespace fusion {
namespace physical {

using logical::JoinKind;

/// Collected build side shared by all probe partitions.
struct HashJoinExec::BuildState {
  RecordBatchPtr batch;               // concatenated build input
  std::vector<ArrayPtr> key_arrays;   // evaluated build keys
  // hash -> first row index; chain via next[] (-1 terminates)
  compute::HashChainTable table;
  std::vector<int64_t> next;

  std::mutex matched_mu;
  std::vector<uint8_t> matched;  // per build row, for outer/semi/anti

  std::atomic<int> remaining_probe_partitions{0};

  /// Memory-pool reservation for the build table; released when the
  /// last stream drops the state.
  std::unique_ptr<exec::MemoryReservation> reservation;

  // Drivers arriving at EnsureBuilt collect the build input partitions
  // cooperatively; the first past the final barrier runs the
  // single-threaded finalize (concatenate + table + filter publish).
  explicit BuildState(int num_inputs)
      : build(num_inputs), partial_batches(static_cast<size_t>(num_inputs)) {}
  CooperativeBuild build;
  /// Collected batches per build input partition; flattened in
  /// partition order by finalize, so the concatenated build batch is
  /// byte-identical to the old sequential collection.
  std::vector<std::vector<RecordBatchPtr>> partial_batches;
};

namespace {

/// Runtime filters are sized for at least this many keys: a sparse filter
/// rejects most probe misses at its first lane, while one sized for a few
/// dozen keys has dense lanes, so misses exit late and mispredict.
constexpr int64_t kRfMinBloomKeys = 1024;

bool NeedsBuildMatchTracking(JoinKind kind) {
  switch (kind) {
    case JoinKind::kLeft:
    case JoinKind::kFull:
    case JoinKind::kLeftSemi:
    case JoinKind::kLeftAnti:
      return true;
    default:
      return false;
  }
}

bool KeysMatch(const std::vector<ArrayPtr>& build_keys, int64_t build_row,
               const std::vector<ArrayPtr>& probe_keys, int64_t probe_row) {
  for (size_t k = 0; k < build_keys.size(); ++k) {
    // SQL equi-join: null never matches null.
    if (build_keys[k]->IsNull(build_row) || probe_keys[k]->IsNull(probe_row)) {
      return false;
    }
    if (!ArrayElementsEqual(*build_keys[k], build_row, *probe_keys[k], probe_row)) {
      return false;
    }
  }
  return true;
}

}  // namespace

std::string HashJoinExec::ToStringLine() const {
  std::string out = std::string("HashJoinExec: ") + logical::JoinKindName(kind_);
  out += " on=[";
  for (size_t i = 0; i < on_.size(); ++i) {
    if (i > 0) out += ", ";
    out += on_[i].first->ToString() + " = " + on_[i].second->ToString();
  }
  out += "]";
  if (filter_ != nullptr) out += " filter=" + filter_->ToString();
  if (est_output_rows_ >= 0) {
    char buf[96];
    std::snprintf(buf, sizeof(buf),
                  " est_rows=%.0f (build=%.0f, probe=%.0f)", est_output_rows_,
                  est_build_rows_, est_probe_rows_);
    out += buf;
  }
  if (!runtime_filters_.empty()) {
    out += " runtime_filter=[";
    for (size_t i = 0; i < runtime_filters_.size(); ++i) {
      if (i > 0) out += ", ";
      out += on_[runtime_filters_[i].first].first->ToString() + " -> " +
             runtime_filters_[i].second->column();
    }
    out += "]";
  }
  return out;
}

Status HashJoinExec::EnsureBuilt(const ExecContextPtr& ctx) {
  std::shared_ptr<BuildState> state;
  {
    std::lock_guard<std::mutex> lock(build_mu_);
    if (built_) return build_status_;
    if (build_state_ == nullptr) {
      build_state_ = std::make_shared<BuildState>(build_->output_partitions());
    }
    state = build_state_;
  }
  // The mutex guards only the one-time init above and the final
  // publication below — never input execution — so a driver re-entering
  // here on a lent scheduler thread cannot self-deadlock.

  auto build_one = [&](int p) -> Status {
    FUSION_ASSIGN_OR_RAISE(auto stream, build_->Execute(p, ctx));
    FUSION_ASSIGN_OR_RAISE(state->partial_batches[p],
                           exec::CollectStream(stream.get()));
    return Status::OK();
  };

  const Status collected = state->build.Run(ctx, build_one, /*wait=*/true);

  // Single-threaded tail: the first driver past the barrier builds the
  // shared table and publishes the runtime filters; the rest reuse it.
  auto finalize = [&]() -> Status {
    FUSION_RETURN_NOT_OK(collected);
    std::vector<RecordBatchPtr> batches;
    for (auto& part : state->partial_batches) {
      for (auto& b : part) batches.push_back(std::move(b));
    }
    state->partial_batches.clear();
    FUSION_ASSIGN_OR_RAISE(state->batch,
                           ConcatenateBatches(build_->schema(), batches));
    std::vector<PhysicalExprPtr> key_exprs;
    for (const auto& [l, r] : on_) key_exprs.push_back(l);
    FUSION_ASSIGN_OR_RAISE(state->key_arrays,
                           EvaluateToArrays(key_exprs, *state->batch));
    const int64_t rows = state->batch->num_rows();
    state->next.assign(static_cast<size_t>(rows), -1);
    state->table.Reserve(on_.empty() ? 1 : rows);
    if (NeedsBuildMatchTracking(kind_)) {
      state->matched.assign(static_cast<size_t>(rows), 0);
    }
    // Runtime filters are sized for the rows the build really holds, so
    // their false-positive rate stays near 1% whatever the planner
    // estimated; a build past kRfMaxBuildRows bypasses them instead.
    std::vector<format::BloomFilter> blooms;
    if (!runtime_filters_.empty() && rows <= exec::kRfMaxBuildRows) {
      blooms.assign(runtime_filters_.size(),
                    format::BloomFilter(std::max(rows, kRfMinBloomKeys)));
    }
    // Memory accounting for the build: the concatenated input, key
    // columns computed from it, the chain table and its next[] links,
    // the match flags and the Bloom filters. Released when the state is
    // destroyed.
    int64_t held = state->batch->TotalBufferSize() + state->table.SizeBytes() +
                   rows * static_cast<int64_t>(sizeof(int64_t)) +
                   static_cast<int64_t>(state->matched.size());
    const auto& build_columns = state->batch->columns();
    for (const auto& key : state->key_arrays) {
      if (std::find(build_columns.begin(), build_columns.end(), key) ==
          build_columns.end()) {
        held += TotalBufferSize(*key);
      }
    }
    for (const auto& b : blooms) held += b.size_bytes();
    state->reservation = std::make_unique<exec::MemoryReservation>(
        ctx->env->memory_pool, "hashjoin-" + std::to_string(ctx->query_id));
    FUSION_RETURN_NOT_OK(state->reservation->ResizeTo(held));
    metrics_->Gauge(exec::metric::kMemReservedBytes)
        ->SetMax(state->reservation->held());
    // Keyless: one chain under hash 0 holds every build row.
    std::vector<uint64_t> hashes;
    if (on_.empty()) {
      hashes.assign(static_cast<size_t>(rows), 0);
    } else if (rows > 0) {
      FUSION_RETURN_NOT_OK(compute::HashColumns(state->key_arrays, &hashes));
    }
    for (int64_t r = 0; r < rows; ++r) {
      bool has_null_key = false;
      for (const auto& k : state->key_arrays) {
        if (k->IsNull(r)) {
          has_null_key = true;
          break;
        }
      }
      if (has_null_key) continue;  // null keys never match
      state->next[r] = state->table.Insert(hashes[r], r);
    }
    state->remaining_probe_partitions.store(probe_->output_partitions());

    // Fill and publish the runtime filters. The probe scan hashes its
    // key column with HashArray and seed 0, which is also the table's
    // hash of a one-key build.
    if (!runtime_filters_.empty()) {
      exec::ScopedTimer rf_timer(metrics_->Time(exec::metric::kRfBuildNs));
      for (size_t f = 0; f < runtime_filters_.size(); ++f) {
        const auto& [key_index, rf] = runtime_filters_[f];
        if (blooms.empty()) {
          rf->Bypass();
          continue;
        }
        const auto& key = state->key_arrays[key_index];
        std::vector<uint64_t> key_hashes;
        if (on_.size() > 1) {
          FUSION_RETURN_NOT_OK(compute::HashArray(*key, /*seed=*/0, &key_hashes));
        }
        const std::vector<uint64_t>& h = on_.size() > 1 ? key_hashes : hashes;
        for (int64_t r = 0; r < rows; ++r) {
          if (key->IsValid(r)) blooms[f].Insert(h[r]);
        }
        Scalar min_key = Scalar::Null(key->type());
        Scalar max_key = Scalar::Null(key->type());
        if (rows > 0) {
          auto mn = compute::MinArray(*key);
          auto mx = compute::MaxArray(*key);
          if (mn.ok() && mx.ok()) {
            min_key = *mn;
            max_key = *mx;
          }
        }
        rf->Publish(std::move(blooms[f]), std::move(min_key), std::move(max_key),
                    rows);
      }
    }
    return Status::OK();
  };

  std::lock_guard<std::mutex> lock(build_mu_);
  if (!built_) {
    built_ = true;
    build_status_ = finalize();
    if (!build_status_.ok()) {
      // Failed builds must not leave probe scans consulting a filter
      // that will never arrive.
      for (const auto& [key_index, rf] : runtime_filters_) rf->Bypass();
    }
  }
  return build_status_;
}

Result<exec::StreamPtr> HashJoinExec::ExecuteImpl(int partition,
                                              const ExecContextPtr& ctx) {
  FUSION_RETURN_NOT_OK(EnsureBuilt(ctx));
  FUSION_ASSIGN_OR_RAISE(auto probe_stream, probe_->Execute(partition, ctx));

  auto state = build_state_;
  auto probe = std::shared_ptr<exec::RecordBatchStream>(std::move(probe_stream));
  SchemaPtr schema = schema_;
  SchemaPtr build_schema = build_->schema();
  SchemaPtr probe_schema = probe_->schema();
  auto kind = kind_;
  auto filter = filter_;
  std::vector<PhysicalExprPtr> probe_key_exprs;
  for (const auto& [l, r] : on_) probe_key_exprs.push_back(r);

  const int build_cols = build_schema->num_fields();
  const int probe_cols = probe_schema->num_fields();

  // Assemble an output batch from (build_idx, probe_idx) pairs; -1 on
  // either side emits nulls (outer joins).
  auto assemble = [schema, state, build_cols, probe_cols](
                      const RecordBatchPtr& probe_batch,
                      const std::vector<int64_t>& build_idx,
                      const std::vector<int64_t>& probe_idx)
      -> Result<RecordBatchPtr> {
    std::vector<ArrayPtr> columns;
    columns.reserve(static_cast<size_t>(build_cols + probe_cols));
    for (int c = 0; c < build_cols; ++c) {
      FUSION_ASSIGN_OR_RAISE(auto col,
                             compute::Take(*state->batch->column(c), build_idx));
      columns.push_back(std::move(col));
    }
    for (int c = 0; c < probe_cols; ++c) {
      FUSION_ASSIGN_OR_RAISE(auto col,
                             compute::Take(*probe_batch->column(c), probe_idx));
      columns.push_back(std::move(col));
    }
    return std::make_shared<RecordBatch>(
        schema, static_cast<int64_t>(build_idx.size()), std::move(columns));
  };

  auto done = std::make_shared<bool>(false);
  auto emitted_unmatched = std::make_shared<bool>(false);
  // A keyless join pairs each probe row with every build row: probe in
  // slices so candidate and output batches stay near batch_size.
  const bool keyless = on_.empty();
  const int64_t build_rows = state->batch->num_rows();
  const int64_t slice_rows =
      std::max<int64_t>(1, ctx->config.batch_size / std::max<int64_t>(build_rows, 1));
  auto unprobed = std::make_shared<RecordBatchPtr>();  // rest of a sliced batch

  return exec::StreamPtr(std::make_unique<exec::GeneratorStream>(
      schema,
      [=]() mutable -> Result<RecordBatchPtr> {
        for (;;) {
          if (*done) {
            // End-of-probe: the last finishing partition emits build-side
            // unmatched rows for left/full/semi/anti kinds.
            if (*emitted_unmatched) return RecordBatchPtr(nullptr);
            *emitted_unmatched = true;
            if (!NeedsBuildMatchTracking(kind)) return RecordBatchPtr(nullptr);
            if (state->remaining_probe_partitions.fetch_sub(1) != 1) {
              return RecordBatchPtr(nullptr);  // another partition will emit
            }
            std::vector<int64_t> build_idx;
            {
              std::lock_guard<std::mutex> lock(state->matched_mu);
              for (int64_t r = 0;
                   r < static_cast<int64_t>(state->matched.size()); ++r) {
                const bool want_matched = kind == JoinKind::kLeftSemi;
                const bool is_matched = state->matched[r] != 0;
                if (kind == JoinKind::kLeft || kind == JoinKind::kFull) {
                  if (!is_matched) build_idx.push_back(r);
                } else if (is_matched == want_matched &&
                           (kind == JoinKind::kLeftSemi ||
                            kind == JoinKind::kLeftAnti)) {
                  build_idx.push_back(r);
                }
              }
            }
            if (build_idx.empty()) return RecordBatchPtr(nullptr);
            if (kind == JoinKind::kLeftSemi || kind == JoinKind::kLeftAnti) {
              // Output schema is the build side only.
              std::vector<ArrayPtr> columns;
              for (int c = 0; c < build_cols; ++c) {
                FUSION_ASSIGN_OR_RAISE(
                    auto col, compute::Take(*state->batch->column(c), build_idx));
                columns.push_back(std::move(col));
              }
              return std::make_shared<RecordBatch>(
                  schema, static_cast<int64_t>(build_idx.size()),
                  std::move(columns));
            }
            std::vector<int64_t> probe_idx(build_idx.size(), -1);
            RecordBatchPtr empty_probe = RecordBatch::MakeEmpty(probe_schema, 0);
            // Take() with -1 indices never touches the (empty) probe
            // columns, but needs columns present:
            std::vector<ArrayPtr> null_cols;
            for (const auto& f : probe_schema->fields()) {
              FUSION_ASSIGN_OR_RAISE(auto arr, MakeArrayOfNulls(f.type(), 0));
              null_cols.push_back(std::move(arr));
            }
            empty_probe = std::make_shared<RecordBatch>(probe_schema, 0,
                                                        std::move(null_cols));
            return assemble(empty_probe, build_idx, probe_idx);
          }

          RecordBatchPtr probe_batch = std::move(*unprobed);
          if (probe_batch == nullptr) {
            FUSION_ASSIGN_OR_RAISE(probe_batch, probe->Next());
            if (probe_batch == nullptr) {
              *done = true;
              continue;
            }
          }
          const int64_t n = keyless ? std::min(probe_batch->num_rows(), slice_rows)
                                    : probe_batch->num_rows();
          if (n == 0) continue;
          if (n < probe_batch->num_rows()) {
            *unprobed = probe_batch->Slice(n, probe_batch->num_rows() - n);
            probe_batch = probe_batch->Slice(0, n);
          }

          // Vectorized probe: hash all keys, then walk chains per row.
          FUSION_ASSIGN_OR_RAISE(auto probe_keys,
                                 EvaluateToArrays(probe_key_exprs, *probe_batch));
          std::vector<uint64_t> hashes;
          std::vector<int64_t> build_idx;
          std::vector<int64_t> probe_idx;
          if (keyless) {
            hashes.assign(static_cast<size_t>(n), 0);
            // Every pair is a candidate.
            build_idx.reserve(static_cast<size_t>(n * build_rows));
            probe_idx.reserve(static_cast<size_t>(n * build_rows));
          } else {
            FUSION_RETURN_NOT_OK(compute::HashColumns(probe_keys, &hashes));
          }
          for (int64_t r = 0; r < n; ++r) {
            for (int64_t b = state->table.Find(hashes[r]); b >= 0;
                 b = state->next[b]) {
              if (KeysMatch(state->key_arrays, b, probe_keys, r)) {
                build_idx.push_back(b);
                probe_idx.push_back(r);
              }
            }
          }

          // Residual filter over candidate pairs.
          if (filter != nullptr && !build_idx.empty()) {
            FUSION_ASSIGN_OR_RAISE(auto candidates,
                                   assemble(probe_batch, build_idx, probe_idx));
            FUSION_ASSIGN_OR_RAISE(auto mask,
                                   EvaluatePredicateMask(*filter, *candidates));
            const auto& bm = checked_cast<BooleanArray>(*mask);
            std::vector<int64_t> kept_b, kept_p;
            for (int64_t i = 0; i < bm.length(); ++i) {
              if (bm.IsValid(i) && bm.Value(i)) {
                kept_b.push_back(build_idx[i]);
                kept_p.push_back(probe_idx[i]);
              }
            }
            build_idx = std::move(kept_b);
            probe_idx = std::move(kept_p);
          }

          // Mark build matches for end-emission kinds.
          if (NeedsBuildMatchTracking(kind) && !build_idx.empty()) {
            std::lock_guard<std::mutex> lock(state->matched_mu);
            for (int64_t b : build_idx) state->matched[b] = 1;
          }

          switch (kind) {
            case JoinKind::kInner:
            case JoinKind::kCross:
            case JoinKind::kLeft: {
              if (build_idx.empty()) continue;
              return assemble(probe_batch, build_idx, probe_idx);
            }
            case JoinKind::kRight:
            case JoinKind::kFull: {
              // Emit matches plus null-extended unmatched probe rows.
              std::vector<uint8_t> probe_matched(static_cast<size_t>(n), 0);
              for (int64_t p : probe_idx) probe_matched[p] = 1;
              for (int64_t r = 0; r < n; ++r) {
                if (!probe_matched[r]) {
                  build_idx.push_back(-1);
                  probe_idx.push_back(r);
                }
              }
              if (build_idx.empty()) continue;
              return assemble(probe_batch, build_idx, probe_idx);
            }
            case JoinKind::kLeftSemi:
            case JoinKind::kLeftAnti:
              continue;  // output produced at end from matched bits
            case JoinKind::kRightSemi:
            case JoinKind::kRightAnti: {
              std::vector<uint8_t> probe_matched(static_cast<size_t>(n), 0);
              for (int64_t p : probe_idx) probe_matched[p] = 1;
              std::vector<int64_t> keep;
              const bool want = kind == JoinKind::kRightSemi;
              for (int64_t r = 0; r < n; ++r) {
                if ((probe_matched[r] != 0) == want) keep.push_back(r);
              }
              if (keep.empty()) continue;
              FUSION_ASSIGN_OR_RAISE(auto out,
                                     compute::TakeBatch(*probe_batch, keep));
              return std::make_shared<RecordBatch>(schema, out->num_rows(),
                                                   out->columns());
            }
          }
        }
      }));
}

}  // namespace physical
}  // namespace fusion
