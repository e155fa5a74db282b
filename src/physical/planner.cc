#include "physical/planner.h"

#include <algorithm>

#include "arrow/builder.h"
#include "compute/cast.h"
#include "logical/expr_eval.h"
#include "logical/interval_analysis.h"
#include "optimizer/cardinality.h"
#include "optimizer/optimizer.h"
#include "optimizer/predicate_lowering.h"
#include "physical/aggregate_exec.h"
#include "physical/exchange_exec.h"
#include "physical/hash_join_exec.h"
#include "physical/scan_exec.h"
#include "physical/simple_exec.h"
#include "physical/sort_exec.h"
#include "physical/window_exec.h"

namespace fusion {
namespace physical {

using logical::Expr;
using logical::ExprPtr;
using logical::JoinKind;
using logical::LogicalPlan;
using logical::PlanKind;
using logical::PlanPtr;
using logical::PlanSchema;

namespace {

/// Physical output schema from a logical plan schema.
SchemaPtr PhysicalSchema(const PlanSchema& schema) { return schema.schema(); }

ExecPlanPtr CoalesceToOne(ExecPlanPtr input) {
  if (input->output_partitions() == 1) return input;
  return std::make_shared<CoalescePartitionsExec>(std::move(input));
}

/// Does the input's known ordering satisfy the requested sort prefix?
bool OrderingSatisfies(const std::vector<OrderingInfo>& have,
                       const std::vector<PhysicalSortExpr>& want) {
  if (want.size() > have.size()) return false;
  for (size_t i = 0; i < want.size(); ++i) {
    auto* col = dynamic_cast<const ColumnExpr*>(want[i].expr.get());
    if (col == nullptr) return false;
    if (have[i].column != col->index()) return false;
    if (have[i].options.descending != want[i].options.descending) return false;
    if (have[i].options.nulls_first != want[i].options.nulls_first) return false;
  }
  return true;
}

/// `input` in one partition ordered by `sort_exprs`, keeping the first
/// `fetch` rows when fetch >= 0: a SortExec per partition, merged by a
/// SortPreservingMergeExec. Sort elimination (paper §6.7) skips the sort
/// when the input already delivers that order in a single partition.
ExecPlanPtr SortToOne(ExecPlanPtr input, std::vector<PhysicalSortExpr> sort_exprs,
                      int64_t fetch) {
  if (input->output_partitions() == 1 &&
      OrderingSatisfies(input->output_ordering(), sort_exprs)) {
    if (fetch >= 0) {
      return std::make_shared<LimitExec>(std::move(input), 0, fetch);
    }
    return input;
  }
  if (sort_exprs.empty()) return CoalesceToOne(std::move(input));
  ExecPlanPtr sorted = std::make_shared<SortExec>(std::move(input), sort_exprs, fetch);
  if (sorted->output_partitions() > 1) {
    sorted = std::make_shared<SortPreservingMergeExec>(std::move(sorted), sort_exprs);
    if (fetch >= 0) {
      // Per-partition TopK keeps fetch rows each; enforce globally.
      sorted = std::make_shared<LimitExec>(std::move(sorted), 0, fetch);
    }
  }
  return sorted;
}

/// Plan a grouping (aggregate or DISTINCT) over `input`, paper §6.3:
/// PartitionedAggregateExec builds one table per input partition and
/// merges them into `target_partitions` radix buckets, or into one over
/// one-partition input. A global aggregate's one group lands in bucket
/// 0, so its output partitions are coalesced.
ExecPlanPtr PlanGrouping(ExecPlanPtr input, std::vector<PhysicalExprPtr> group_exprs,
                         std::vector<std::string> group_names,
                         std::vector<AggregateInfo> aggregates, SchemaPtr schema,
                         int target_partitions) {
  if (input->output_partitions() == 1) target_partitions = 1;
  const bool global = group_exprs.empty();
  ExecPlanPtr aggregate = std::make_shared<PartitionedAggregateExec>(
      std::move(input), std::move(group_exprs), std::move(group_names),
      std::move(aggregates), std::move(schema), target_partitions);
  return global ? CoalesceToOne(std::move(aggregate)) : aggregate;
}

/// If output column `idx` of `node` is fed unchanged by a table scan,
/// return that scan node and the column's name in the scan's output
/// schema; nullptr otherwise. Used to pick the scan that receives a
/// join's runtime Bloom filter.
///
/// Limits (scan limit, sort fetch) block tracing: filtering below a
/// limit changes which rows the limit keeps, so results would diverge
/// from the unfiltered plan. Tracing through an intermediate join is
/// safe for any join kind: every output row it derives from (or
/// null-pads because of) a pruned scan row carries either the pruned
/// key value or NULL in the traced column, and the receiving join —
/// which only gets a filter for RF-safe kinds — drops both. A plain-column
/// group key of an aggregate or a DISTINCT passes the trace on: pruning
/// on it drops whole groups, each of which the join would drop (Calcite's
/// FilterAggregateTransposeRule). Aggregate outputs (all a global
/// aggregate has), expression keys, windows and unions stop the trace.
const LogicalPlan* TraceColumnToScan(const PlanPtr& node, int idx,
                                     std::string* column) {
  if (idx < 0 || idx >= node->schema().num_fields()) return nullptr;
  // Follows a plain-column output expression into the node's input.
  auto trace_expr = [&](const ExprPtr& e) -> const LogicalPlan* {
    const ExprPtr& u = logical::Unalias(e);
    if (u->kind != Expr::Kind::kColumn) return nullptr;
    auto child_idx = node->child(0)->schema().IndexOf(u->qualifier, u->name);
    if (!child_idx.ok()) return nullptr;
    return TraceColumnToScan(node->child(0), *child_idx, column);
  };
  switch (node->kind) {
    case PlanKind::kTableScan:
      if (node->scan_limit >= 0) return nullptr;
      *column = node->schema().schema()->field(idx).name();
      return node.get();
    case PlanKind::kFilter:
    case PlanKind::kSubqueryAlias:
    case PlanKind::kDistinct:
      return TraceColumnToScan(node->child(0), idx, column);
    case PlanKind::kSort:
      if (node->fetch >= 0) return nullptr;
      return TraceColumnToScan(node->child(0), idx, column);
    case PlanKind::kProjection:
      if (idx >= static_cast<int>(node->exprs.size())) return nullptr;
      return trace_expr(node->exprs[idx]);
    case PlanKind::kAggregate:
      // Group keys come first in the aggregate's output schema.
      if (idx >= static_cast<int>(node->group_exprs.size())) return nullptr;
      return trace_expr(node->group_exprs[idx]);
    case PlanKind::kJoin: {
      // Semi/anti joins expose only the preserved side's schema.
      if (node->join_kind == JoinKind::kLeftSemi ||
          node->join_kind == JoinKind::kLeftAnti) {
        return TraceColumnToScan(node->child(0), idx, column);
      }
      if (node->join_kind == JoinKind::kRightSemi ||
          node->join_kind == JoinKind::kRightAnti) {
        return TraceColumnToScan(node->child(1), idx, column);
      }
      const int left_fields = node->child(0)->schema().num_fields();
      if (idx < left_fields) {
        return TraceColumnToScan(node->child(0), idx, column);
      }
      return TraceColumnToScan(node->child(1), idx - left_fields, column);
    }
    default:
      return nullptr;
  }
}

}  // namespace

Result<ExprPtr> PhysicalPlanner::ResolveSubqueries(const ExprPtr& expr) {
  return logical::TransformExpr(expr, [this](const ExprPtr& e) -> Result<ExprPtr> {
    if (e->kind != Expr::Kind::kScalarSubquery) return e;
    auto subplan = std::static_pointer_cast<LogicalPlan>(e->subquery_plan);
    // Subquery plans are stored unoptimized; run the default rule set
    // (critically: filter pushdown turns comma joins into hash joins).
    FUSION_ASSIGN_OR_RAISE(subplan,
                           optimizer::Optimizer::Default().Optimize(subplan));
    PhysicalPlanner sub_planner(ctx_);
    FUSION_ASSIGN_OR_RAISE(auto exec_plan, sub_planner.CreatePlan(subplan));
    FUSION_ASSIGN_OR_RAISE(auto batches, ExecuteCollect(exec_plan, ctx_));
    int64_t rows = 0;
    Scalar value = Scalar::Null(e->cast_type);
    for (const auto& b : batches) {
      for (int64_t r = 0; r < b->num_rows(); ++r) {
        if (++rows > 1) {
          return Status::ExecutionError("scalar subquery produced more than one row");
        }
        value = Scalar::FromArray(*b->column(0), r);
      }
    }
    return logical::Lit(std::move(value));
  });
}

Result<ExecPlanPtr> PhysicalPlanner::CreatePlan(const PlanPtr& plan) {
  return Plan(plan);
}

Result<ExecPlanPtr> PhysicalPlanner::Plan(const PlanPtr& plan) {
  switch (plan->kind) {
    case PlanKind::kTableScan:
      return PlanScan(plan);
    case PlanKind::kProjection: {
      FUSION_ASSIGN_OR_RAISE(auto input, Plan(plan->child(0)));
      std::vector<PhysicalExprPtr> exprs;
      for (const auto& e : plan->exprs) {
        FUSION_ASSIGN_OR_RAISE(auto resolved, ResolveSubqueries(e));
        FUSION_ASSIGN_OR_RAISE(auto pe,
                               CreatePhysicalExpr(resolved,
                                                  plan->child(0)->schema()));
        exprs.push_back(std::move(pe));
      }
      return ExecPlanPtr(std::make_shared<ProjectionExec>(
          std::move(input), std::move(exprs), PhysicalSchema(plan->schema())));
    }
    case PlanKind::kFilter: {
      FUSION_ASSIGN_OR_RAISE(auto input, Plan(plan->child(0)));
      FUSION_ASSIGN_OR_RAISE(auto resolved, ResolveSubqueries(plan->predicate));
      FUSION_ASSIGN_OR_RAISE(
          auto predicate, CreatePhysicalExpr(resolved, plan->child(0)->schema()));
      ExecPlanPtr filter =
          std::make_shared<FilterExec>(std::move(input), std::move(predicate));
      // Selective filters shrink batches; re-chunk for downstream ops.
      return ExecPlanPtr(std::make_shared<CoalesceBatchesExec>(std::move(filter)));
    }
    case PlanKind::kLimit: {
      FUSION_ASSIGN_OR_RAISE(auto input, Plan(plan->child(0)));
      return ExecPlanPtr(std::make_shared<LimitExec>(CoalesceToOne(std::move(input)),
                                                     plan->skip, plan->fetch));
    }
    case PlanKind::kSort:
      return PlanSort(plan);
    case PlanKind::kAggregate:
      return PlanAggregate(plan);
    case PlanKind::kDistinct:
      return PlanDistinct(plan);
    case PlanKind::kJoin:
      return PlanJoin(plan);
    case PlanKind::kWindow:
      return PlanWindow(plan);
    case PlanKind::kUnion: {
      std::vector<ExecPlanPtr> inputs;
      for (const auto& c : plan->children) {
        FUSION_ASSIGN_OR_RAISE(auto input, Plan(c));
        inputs.push_back(std::move(input));
      }
      return ExecPlanPtr(std::make_shared<UnionExec>(std::move(inputs)));
    }
    case PlanKind::kSubqueryAlias:
      return Plan(plan->child(0));
    case PlanKind::kValues: {
      std::vector<std::unique_ptr<ArrayBuilder>> builders;
      SchemaPtr schema = PhysicalSchema(plan->schema());
      for (const Field& f : schema->fields()) {
        FUSION_ASSIGN_OR_RAISE(auto b, MakeBuilder(f.type()));
        builders.push_back(std::move(b));
      }
      for (const auto& row : plan->values_rows) {
        for (size_t c = 0; c < row.size(); ++c) {
          FUSION_ASSIGN_OR_RAISE(
              Scalar v, logical::EvaluateConstantExpr(logical::CastExpr(
                            row[c], schema->field(static_cast<int>(c)).type())));
          if (v.is_null()) {
            builders[c]->AppendNull();
          } else {
            FUSION_ASSIGN_OR_RAISE(auto arr, v.MakeArray(1));
            builders[c]->AppendFrom(*arr, 0);
          }
        }
      }
      std::vector<ArrayPtr> columns;
      for (auto& b : builders) {
        FUSION_ASSIGN_OR_RAISE(auto arr, b->Finish());
        columns.push_back(std::move(arr));
      }
      auto batch = std::make_shared<RecordBatch>(
          schema, static_cast<int64_t>(plan->values_rows.size()),
          std::move(columns));
      return ExecPlanPtr(std::make_shared<ValuesExec>(schema, std::move(batch)));
    }
    case PlanKind::kEmptyRelation:
      return ExecPlanPtr(std::make_shared<EmptyExec>(PhysicalSchema(plan->schema()),
                                                     plan->produce_one_row));
    case PlanKind::kExplain: {
      FUSION_ASSIGN_OR_RAISE(auto child_exec, Plan(plan->child(0)));
      if (plan->explain_analyze) {
        return ExecPlanPtr(std::make_shared<AnalyzeExec>(
            PhysicalSchema(plan->schema()), std::move(child_exec)));
      }
      return ExecPlanPtr(std::make_shared<ExplainExec>(
          PhysicalSchema(plan->schema()), plan->child(0)->ToString(),
          child_exec->ToString()));
    }
  }
  return Status::Internal("unhandled logical plan kind");
}

Result<ExecPlanPtr> PhysicalPlanner::PlanScan(const PlanPtr& plan) {
  catalog::ScanRequest request;
  request.projection = plan->scan_projection;
  request.limit = plan->scan_limit;
  request.target_partitions = ctx_->config.target_partitions;
  if (ctx_->config.enable_predicate_pushdown) {
    for (const auto& f : plan->scan_filters) {
      auto lowered = optimizer::TryLowerPredicate(f);
      if (lowered) request.predicates.push_back(std::move(*lowered));
    }
  }
  // Serving-layer context: the shared decoded-batch cache plus this
  // query's task group/token, so file scans can coalesce decodes and
  // park cooperatively while waiting on another query's decode.
  request.buffer_cache = ctx_->env != nullptr ? ctx_->env->buffer_cache : nullptr;
  request.task_group = ctx_->task_group;
  request.cancel = ctx_->cancel;
  auto pending = pending_runtime_filters_.find(plan.get());
  if (pending != pending_runtime_filters_.end()) {
    request.runtime_filters = std::move(pending->second);
    pending_runtime_filters_.erase(pending);
  }
  return ExecPlanPtr(std::make_shared<ScanExec>(plan->table_name, plan->provider,
                                                std::move(request),
                                                PhysicalSchema(plan->schema())));
}

Result<ExecPlanPtr> PhysicalPlanner::PlanSort(const PlanPtr& plan) {
  FUSION_ASSIGN_OR_RAISE(auto input, Plan(plan->child(0)));
  std::vector<PhysicalSortExpr> sort_exprs;
  for (const auto& se : plan->sort_exprs) {
    PhysicalSortExpr pse;
    FUSION_ASSIGN_OR_RAISE(pse.expr,
                           CreatePhysicalExpr(se.expr, plan->child(0)->schema()));
    pse.options = se.options;
    sort_exprs.push_back(std::move(pse));
  }
  return SortToOne(std::move(input), std::move(sort_exprs), plan->fetch);
}

Result<ExecPlanPtr> PhysicalPlanner::PlanAggregate(const PlanPtr& plan) {
  FUSION_ASSIGN_OR_RAISE(auto input, Plan(plan->child(0)));
  const PlanSchema& in_schema = plan->child(0)->schema();

  std::vector<PhysicalExprPtr> group_exprs;
  std::vector<std::string> group_names;
  for (const auto& g : plan->group_exprs) {
    FUSION_ASSIGN_OR_RAISE(auto pe, CreatePhysicalExpr(g, in_schema));
    group_exprs.push_back(std::move(pe));
    group_names.push_back(g->DisplayName());
  }

  std::vector<AggregateInfo> aggregates;
  for (const auto& a : plan->aggr_exprs) {
    const ExprPtr& agg = logical::Unalias(a);
    AggregateInfo info;
    info.function = agg->aggregate_function;
    info.output_name = a->DisplayName();
    for (const auto& arg : agg->children) {
      FUSION_ASSIGN_OR_RAISE(auto resolved, ResolveSubqueries(arg));
      FUSION_ASSIGN_OR_RAISE(auto pe, CreatePhysicalExpr(resolved, in_schema));
      info.arg_types.push_back(pe->type());
      info.args.push_back(std::move(pe));
    }
    if (agg->filter != nullptr) {
      FUSION_ASSIGN_OR_RAISE(info.filter, CreatePhysicalExpr(agg->filter, in_schema));
    }
    FUSION_ASSIGN_OR_RAISE(info.output_type, agg->GetType(in_schema));
    aggregates.push_back(std::move(info));
  }
  return PlanGrouping(std::move(input), std::move(group_exprs), std::move(group_names),
                      std::move(aggregates), PhysicalSchema(plan->schema()),
                      ctx_->config.target_partitions);
}

Result<ExecPlanPtr> PhysicalPlanner::PlanDistinct(const PlanPtr& plan) {
  FUSION_ASSIGN_OR_RAISE(auto input, Plan(plan->child(0)));
  SchemaPtr schema = PhysicalSchema(plan->schema());
  std::vector<PhysicalExprPtr> group_exprs;
  std::vector<std::string> group_names;
  for (int i = 0; i < schema->num_fields(); ++i) {
    group_exprs.push_back(std::make_shared<ColumnExpr>(
        schema->field(i).name(), i, schema->field(i).type()));
    group_names.push_back(schema->field(i).name());
  }
  return PlanGrouping(std::move(input), std::move(group_exprs), std::move(group_names),
                      {}, std::move(schema), ctx_->config.target_partitions);
}

Result<ExecPlanPtr> PhysicalPlanner::PlanJoin(const PlanPtr& plan) {
  const PlanPtr& left = plan->child(0);
  const PlanPtr& right = plan->child(1);
  SchemaPtr out_schema = PhysicalSchema(plan->schema());

  // Every join is a hash join, keyless when the condition has no
  // equality (a cross or theta join). Build on the smaller side (paper
  // §6.4), with NDV-aware cardinality estimates. Decided BEFORE planning
  // children so runtime-filter channels can be registered on probe-side
  // scans (a scan may open its provider while its parents plan).
  JoinKind kind = plan->join_kind;
  const double est_left = optimizer::EstimateRows(left);
  const double est_right = optimizer::EstimateRows(right);
  bool build_is_left = true;
  switch (kind) {
    case JoinKind::kLeftSemi:
    case JoinKind::kLeftAnti:
      // Preserved side is left; stream it, build on right.
      build_is_left = false;
      break;
    case JoinKind::kRightSemi:
    case JoinKind::kRightAnti:
      build_is_left = true;
      break;
    default:
      build_is_left = est_left <= est_right;
      break;
  }
  JoinKind exec_kind = kind;
  if (!build_is_left) {
    // Flip the join type to match the swapped orientation.
    switch (kind) {
      case JoinKind::kInner:
      case JoinKind::kCross:
      case JoinKind::kFull:
        break;
      case JoinKind::kLeft: exec_kind = JoinKind::kRight; break;
      case JoinKind::kRight: exec_kind = JoinKind::kLeft; break;
      case JoinKind::kLeftSemi: exec_kind = JoinKind::kRightSemi; break;
      case JoinKind::kLeftAnti: exec_kind = JoinKind::kRightAnti; break;
      case JoinKind::kRightSemi: exec_kind = JoinKind::kLeftSemi; break;
      case JoinKind::kRightAnti: exec_kind = JoinKind::kLeftAnti; break;
    }
  }
  const double est_build = build_is_left ? est_left : est_right;
  const double est_probe = build_is_left ? est_right : est_left;

  // Sideways information passing: mark selective builds with runtime
  // Bloom-filter channels to probe-side scans. Only join kinds where a
  // probe row without a build match contributes nothing to the output
  // may prune probe rows early; kRight/kFull/kRightAnti emit exactly
  // those rows and are excluded. Keys that would need a cast are
  // skipped (both sides must hash identical bytes).
  std::vector<std::pair<int, exec::RuntimeFilterPtr>> rf_created;
  {
    // auto mode skips a build estimated above exec::kRfMaxBuildRows (the
    // join would bypass its filter) or a probe side estimated below
    // kRfMinProbeRatio times the build side.
    constexpr double kRfMinProbeRatio = 2.0;
    const std::string& mode = ctx_->config.runtime_filter_mode;
    bool rf_on = mode != "off";
    if (mode == "auto" && !(est_build <= exec::kRfMaxBuildRows &&
                            est_probe >= kRfMinProbeRatio * est_build)) {
      rf_on = false;
    }
    const bool safe_kind = exec_kind == JoinKind::kInner ||
                           exec_kind == JoinKind::kLeft ||
                           exec_kind == JoinKind::kLeftSemi ||
                           exec_kind == JoinKind::kLeftAnti ||
                           exec_kind == JoinKind::kRightSemi;
    if (rf_on && safe_kind) {
      const PlanPtr& build_plan = build_is_left ? left : right;
      const PlanPtr& probe_plan = build_is_left ? right : left;
      for (size_t k = 0; k < plan->join_on.size(); ++k) {
        const ExprPtr& build_key =
            build_is_left ? plan->join_on[k].first : plan->join_on[k].second;
        const ExprPtr& probe_key =
            build_is_left ? plan->join_on[k].second : plan->join_on[k].first;
        auto bt = build_key->GetType(build_plan->schema());
        auto pt = probe_key->GetType(probe_plan->schema());
        if (!bt.ok() || !pt.ok() || *bt != *pt) continue;
        const ExprPtr& u = logical::Unalias(probe_key);
        if (u->kind != Expr::Kind::kColumn) continue;
        auto idx = probe_plan->schema().IndexOf(u->qualifier, u->name);
        if (!idx.ok()) continue;
        std::string column;
        const LogicalPlan* scan = TraceColumnToScan(probe_plan, *idx, &column);
        if (scan == nullptr) continue;
        auto rf = ctx_->EnsureRuntimeFilters()->Create(column);
        pending_runtime_filters_[scan].push_back({column, rf});
        rf_created.emplace_back(static_cast<int>(k), std::move(rf));
      }
    }
  }

  FUSION_ASSIGN_OR_RAISE(auto left_exec, Plan(left));
  FUSION_ASSIGN_OR_RAISE(auto right_exec, Plan(right));

  std::vector<std::pair<PhysicalExprPtr, PhysicalExprPtr>> on;
  PhysicalExprPtr filter;
  ExecPlanPtr build_exec, probe_exec;
  bool needs_restore_projection = false;
  PlanSchema exec_combined;

  auto compile_keys = [&](const PlanSchema& build_schema,
                          const PlanSchema& probe_schema,
                          bool keys_flipped) -> Status {
    for (const auto& [l, r] : plan->join_on) {
      const ExprPtr& build_key = keys_flipped ? r : l;
      const ExprPtr& probe_key = keys_flipped ? l : r;
      FUSION_ASSIGN_OR_RAISE(auto bk, CreatePhysicalExpr(build_key, build_schema));
      FUSION_ASSIGN_OR_RAISE(auto pk, CreatePhysicalExpr(probe_key, probe_schema));
      if (bk->type() != pk->type()) {
        FUSION_ASSIGN_OR_RAISE(DataType common,
                               compute::CommonType(bk->type(), pk->type()));
        if (bk->type() != common) {
          bk = MakeCastExpr(std::move(bk), common);
        }
        if (pk->type() != common) {
          pk = MakeCastExpr(std::move(pk), common);
        }
      }
      on.emplace_back(std::move(bk), std::move(pk));
    }
    return Status::OK();
  };

  if (build_is_left) {
    build_exec = left_exec;
    probe_exec = right_exec;
    FUSION_RETURN_NOT_OK(compile_keys(left->schema(), right->schema(), false));
    exec_combined = left->schema().Concat(right->schema());
  } else {
    build_exec = right_exec;
    probe_exec = left_exec;
    FUSION_RETURN_NOT_OK(compile_keys(right->schema(), left->schema(), true));
    exec_combined = right->schema().Concat(left->schema());
    needs_restore_projection = kind == JoinKind::kInner || kind == JoinKind::kLeft ||
                               kind == JoinKind::kRight || kind == JoinKind::kFull ||
                               kind == JoinKind::kCross;
  }

  if (plan->join_filter != nullptr) {
    FUSION_ASSIGN_OR_RAISE(filter,
                           CreatePhysicalExpr(plan->join_filter, exec_combined));
  }

  // Exec output schema is build ++ probe (or the preserved side for
  // semi/anti joins).
  SchemaPtr exec_schema;
  switch (exec_kind) {
    case JoinKind::kLeftSemi:
    case JoinKind::kLeftAnti:
      exec_schema = build_exec->schema();
      break;
    case JoinKind::kRightSemi:
    case JoinKind::kRightAnti:
      exec_schema = probe_exec->schema();
      break;
    default:
      exec_schema = exec_combined.schema();
  }

  auto hash_join = std::make_shared<HashJoinExec>(
      std::move(build_exec), std::move(probe_exec), exec_kind, std::move(on),
      std::move(filter), exec_schema);
  hash_join->SetEstimatedRows(
      est_build, est_probe,
      optimizer::EstimateJoinRows(left, right, plan->join_on, kind));
  for (auto& [key_index, rf] : rf_created) {
    hash_join->AddRuntimeFilter(key_index, std::move(rf));
  }
  ExecPlanPtr join = std::move(hash_join);

  if (needs_restore_projection) {
    // Reorder (right ++ left) back to (left ++ right).
    std::vector<PhysicalExprPtr> restore;
    const int right_cols = right->schema().num_fields();
    const int left_cols = left->schema().num_fields();
    for (int i = 0; i < left_cols; ++i) {
      restore.push_back(std::make_shared<ColumnExpr>(
          exec_schema->field(right_cols + i).name(), right_cols + i,
          exec_schema->field(right_cols + i).type()));
    }
    for (int i = 0; i < right_cols; ++i) {
      restore.push_back(std::make_shared<ColumnExpr>(
          exec_schema->field(i).name(), i, exec_schema->field(i).type()));
    }
    join = std::make_shared<ProjectionExec>(std::move(join), std::move(restore),
                                            out_schema);
  }
  return join;
}

Result<ExecPlanPtr> PhysicalPlanner::PlanWindow(const PlanPtr& plan) {
  FUSION_ASSIGN_OR_RAISE(auto input, Plan(plan->child(0)));
  const PlanSchema& in_schema = plan->child(0)->schema();
  // Expressions sharing (PARTITION BY, ORDER BY) share one sort and one
  // WindowExec; each WindowExec appends its group's columns. Keys compare
  // by their logical text, which prints every argument (a physical
  // expression's text abbreviates function calls, CASE and IN lists).
  using SpecKey = std::pair<std::vector<std::string>, std::vector<row::SortOptions>>;
  auto spec_key = [](const logical::ExprPtr& expr) {
    SpecKey key;
    const auto& spec = logical::Unalias(expr)->window_spec;
    if (spec == nullptr) return key;
    key.first.push_back(std::to_string(spec->partition_by.size()));
    for (const auto& p : spec->partition_by) key.first.push_back(p->ToString());
    for (const auto& o : spec->order_by) {
      key.first.push_back(o.expr->ToString());
      key.second.push_back(o.options);
    }
    return key;
  };
  std::vector<SpecKey> keys_of_group;
  std::vector<std::vector<WindowExprInfo>> groups;
  std::vector<std::vector<size_t>> members;
  for (size_t i = 0; i < plan->exprs.size(); ++i) {
    FUSION_ASSIGN_OR_RAISE(auto info, MakeWindowExprInfo(plan->exprs[i], in_schema));
    SpecKey key = spec_key(plan->exprs[i]);
    const size_t g = static_cast<size_t>(
        std::find(keys_of_group.begin(), keys_of_group.end(), key) - keys_of_group.begin());
    if (g == groups.size()) {
      keys_of_group.push_back(std::move(key));
      groups.emplace_back();
      members.emplace_back();
    }
    groups[g].push_back(std::move(info));
    members[g].push_back(i);
  }
  const int num_inputs = in_schema.num_fields();
  std::vector<Field> fields = input->schema()->fields();
  std::vector<int> column_of_expr(plan->exprs.size());
  for (size_t g = 0; g < groups.size(); ++g) {
    for (size_t i : members[g]) {
      column_of_expr[i] = static_cast<int>(fields.size());
      fields.push_back(plan->schema().schema()->field(num_inputs + static_cast<int>(i)));
    }
    ExecPlanPtr sorted = SortToOne(std::move(input), groups[g].front().SortKeys(), -1);
    input = std::make_shared<WindowExec>(std::move(sorted), std::move(groups[g]),
                                         std::make_shared<Schema>(fields));
  }
  if (std::is_sorted(column_of_expr.begin(), column_of_expr.end())) return input;
  // Restore the Window node's column order.
  std::vector<PhysicalExprPtr> columns;
  for (int c = 0; c < num_inputs; ++c) {
    columns.push_back(std::make_shared<ColumnExpr>(fields[c].name(), c, fields[c].type()));
  }
  for (int c : column_of_expr) {
    columns.push_back(std::make_shared<ColumnExpr>(fields[c].name(), c, fields[c].type()));
  }
  return ExecPlanPtr(std::make_shared<ProjectionExec>(std::move(input), std::move(columns),
                                                      PhysicalSchema(plan->schema())));
}

}  // namespace physical
}  // namespace fusion
