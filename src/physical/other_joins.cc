#include "physical/other_joins.h"

#include "arrow/builder.h"
#include "compute/selection.h"
#include "row/row_format.h"

namespace fusion {
namespace physical {

using logical::JoinKind;

namespace {

Result<RecordBatchPtr> CollectSide(const ExecPlanPtr& plan,
                                   const ExecContextPtr& ctx) {
  std::vector<RecordBatchPtr> batches;
  for (int p = 0; p < plan->output_partitions(); ++p) {
    FUSION_ASSIGN_OR_RAISE(auto stream, plan->Execute(p, ctx));
    FUSION_ASSIGN_OR_RAISE(auto part, exec::CollectStream(stream.get()));
    for (auto& b : part) batches.push_back(std::move(b));
  }
  return ConcatenateBatches(plan->schema(), batches);
}

/// Build (left ++ right) output from index pairs; -1 emits nulls.
Result<RecordBatchPtr> AssemblePairs(const SchemaPtr& schema,
                                     const RecordBatch& left,
                                     const RecordBatch& right,
                                     const std::vector<int64_t>& li,
                                     const std::vector<int64_t>& ri) {
  std::vector<ArrayPtr> columns;
  for (int c = 0; c < left.num_columns(); ++c) {
    FUSION_ASSIGN_OR_RAISE(auto col, compute::Take(*left.column(c), li));
    columns.push_back(std::move(col));
  }
  for (int c = 0; c < right.num_columns(); ++c) {
    FUSION_ASSIGN_OR_RAISE(auto col, compute::Take(*right.column(c), ri));
    columns.push_back(std::move(col));
  }
  return std::make_shared<RecordBatch>(schema, static_cast<int64_t>(li.size()),
                                       std::move(columns));
}

}  // namespace

// ------------------------------------------------------- SortMergeJoin

Result<exec::StreamPtr> SortMergeJoinExec::ExecuteImpl(int partition,
                                                   const ExecContextPtr& ctx) {
  if (partition != 0) {
    return Status::ExecutionError("SortMergeJoinExec has a single partition");
  }
  FUSION_ASSIGN_OR_RAISE(auto left, CollectSide(left_, ctx));
  FUSION_ASSIGN_OR_RAISE(auto right, CollectSide(right_, ctx));

  std::vector<PhysicalExprPtr> lkeys_e, rkeys_e;
  for (const auto& [l, r] : on_) {
    lkeys_e.push_back(l);
    rkeys_e.push_back(r);
  }
  FUSION_ASSIGN_OR_RAISE(auto lkeys, EvaluateToArrays(lkeys_e, *left));
  FUSION_ASSIGN_OR_RAISE(auto rkeys, EvaluateToArrays(rkeys_e, *right));
  std::vector<row::SortOptions> options(on_.size());  // ASC, nulls last

  const int64_t ln = left->num_rows();
  const int64_t rn = right->num_rows();
  std::vector<int64_t> li, ri;
  std::vector<uint8_t> left_matched(static_cast<size_t>(ln), 0);
  std::vector<uint8_t> right_matched(static_cast<size_t>(rn), 0);

  auto key_is_null = [](const std::vector<ArrayPtr>& keys, int64_t row) {
    for (const auto& k : keys) {
      if (k->IsNull(row)) return true;
    }
    return false;
  };

  int64_t l = 0, r = 0;
  while (l < ln && r < rn) {
    if (key_is_null(lkeys, l)) {
      ++l;
      continue;
    }
    if (key_is_null(rkeys, r)) {
      ++r;
      continue;
    }
    int cmp = row::CompareRows(lkeys, l, rkeys, r, options);
    if (cmp < 0) {
      ++l;
    } else if (cmp > 0) {
      ++r;
    } else {
      // Equal-key blocks: emit the cartesian product of the runs.
      int64_t l_end = l + 1;
      while (l_end < ln && !key_is_null(lkeys, l_end) &&
             row::CompareRows(lkeys, l, lkeys, l_end, options) == 0) {
        ++l_end;
      }
      int64_t r_end = r + 1;
      while (r_end < rn && !key_is_null(rkeys, r_end) &&
             row::CompareRows(rkeys, r, rkeys, r_end, options) == 0) {
        ++r_end;
      }
      for (int64_t i = l; i < l_end; ++i) {
        for (int64_t j = r; j < r_end; ++j) {
          li.push_back(i);
          ri.push_back(j);
        }
      }
      l = l_end;
      r = r_end;
    }
  }

  // Residual filter.
  if (filter_ != nullptr && !li.empty()) {
    SchemaPtr combined = schema_;
    // For semi/anti kinds schema_ is one side; build a scratch combined
    // schema for filter evaluation.
    std::vector<Field> fields = left->schema()->fields();
    for (const auto& f : right->schema()->fields()) fields.push_back(f);
    combined = std::make_shared<Schema>(std::move(fields));
    FUSION_ASSIGN_OR_RAISE(auto candidates,
                           AssemblePairs(combined, *left, *right, li, ri));
    FUSION_ASSIGN_OR_RAISE(auto mask, EvaluatePredicateMask(*filter_, *candidates));
    const auto& bm = checked_cast<BooleanArray>(*mask);
    std::vector<int64_t> kl, kr;
    for (int64_t i = 0; i < bm.length(); ++i) {
      if (bm.IsValid(i) && bm.Value(i)) {
        kl.push_back(li[i]);
        kr.push_back(ri[i]);
      }
    }
    li = std::move(kl);
    ri = std::move(kr);
  }
  for (size_t i = 0; i < li.size(); ++i) {
    left_matched[li[i]] = 1;
    right_matched[ri[i]] = 1;
  }

  // Assemble per kind.
  std::vector<RecordBatchPtr> out;
  auto push_chunks = [&](const RecordBatchPtr& batch) {
    for (const auto& c : SliceBatch(batch, ctx->config.batch_size)) {
      out.push_back(c);
    }
  };
  switch (kind_) {
    case JoinKind::kInner: {
      FUSION_ASSIGN_OR_RAISE(auto batch, AssemblePairs(schema_, *left, *right, li, ri));
      push_chunks(batch);
      break;
    }
    case JoinKind::kLeft:
    case JoinKind::kRight:
    case JoinKind::kFull: {
      if (kind_ != JoinKind::kRight) {
        for (int64_t i = 0; i < ln; ++i) {
          if (!left_matched[i]) {
            li.push_back(i);
            ri.push_back(-1);
          }
        }
      }
      if (kind_ != JoinKind::kLeft) {
        for (int64_t j = 0; j < rn; ++j) {
          if (!right_matched[j]) {
            li.push_back(-1);
            ri.push_back(j);
          }
        }
      }
      FUSION_ASSIGN_OR_RAISE(auto batch, AssemblePairs(schema_, *left, *right, li, ri));
      push_chunks(batch);
      break;
    }
    case JoinKind::kLeftSemi:
    case JoinKind::kLeftAnti: {
      const bool want = kind_ == JoinKind::kLeftSemi;
      std::vector<int64_t> keep;
      for (int64_t i = 0; i < ln; ++i) {
        if ((left_matched[i] != 0) == want) keep.push_back(i);
      }
      FUSION_ASSIGN_OR_RAISE(auto batch, compute::TakeBatch(*left, keep));
      push_chunks(std::make_shared<RecordBatch>(schema_, batch->num_rows(),
                                                batch->columns()));
      break;
    }
    default:
      return Status::NotImplemented(
          "SortMergeJoinExec does not support this join type; the planner "
          "should have selected a hash join");
  }
  return exec::StreamPtr(
      std::make_unique<exec::VectorStream>(schema_, std::move(out)));
}

}  // namespace physical
}  // namespace fusion
