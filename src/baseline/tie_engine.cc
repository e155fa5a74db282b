#include "baseline/tie_engine.h"

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <unordered_map>
#include <numeric>

#include "arrow/builder.h"
#include "catalog/file_tables.h"
#include "common/bit_util.h"
#include "compute/cast.h"
#include "compute/hash_kernels.h"
#include "compute/selection.h"
#include "logical/expr_eval.h"
#include "optimizer/optimizer.h"
#include "physical/window_exec.h"
#include "row/row_format.h"

namespace fusion {
namespace baseline {

using logical::Expr;
using logical::ExprPtr;
using logical::JoinKind;
using logical::PlanKind;
using logical::PlanPtr;
using physical::CreatePhysicalExpr;
using physical::EvaluateToArrays;
using physical::PhysicalExprPtr;

namespace {

/// Open-addressing group table keyed on 64-bit hashes; collisions are
/// resolved by comparing key values at the group's first row — no group
/// key bytes are ever materialized (the high-cardinality design).
class GroupTable {
 public:
  explicit GroupTable(int64_t expected) {
    capacity_ = static_cast<int64_t>(
        bit_util::NextPowerOfTwo(static_cast<uint64_t>(std::max<int64_t>(
            16, expected * 2))));
    mask_ = capacity_ - 1;
    slots_.assign(static_cast<size_t>(capacity_), Slot{});
  }

  /// Find-or-insert the group of `row`; returns its dense id.
  uint32_t Lookup(uint64_t hash, int64_t row, const std::vector<ArrayPtr>& keys) {
    if (num_groups_ * 2 >= capacity_) Grow(keys);
    int64_t idx = static_cast<int64_t>(hash) & mask_;
    for (;;) {
      Slot& slot = slots_[static_cast<size_t>(idx)];
      if (slot.first_row < 0) {
        slot.hash = hash;
        slot.first_row = row;
        slot.group_id = num_groups_++;
        first_rows_.push_back(row);
        return slot.group_id;
      }
      if (slot.hash == hash && RowsEqual(keys, slot.first_row, row)) {
        return slot.group_id;
      }
      idx = (idx + 1) & mask_;
    }
  }

  int64_t num_groups() const { return num_groups_; }
  const std::vector<int64_t>& first_rows() const { return first_rows_; }

 private:
  struct Slot {
    uint64_t hash = 0;
    int64_t first_row = -1;
    uint32_t group_id = 0;
  };

  static bool RowsEqual(const std::vector<ArrayPtr>& keys, int64_t a, int64_t b) {
    for (const auto& k : keys) {
      // Grouping treats NULL as its own group value (null == null).
      if (!ArrayElementsEqual(*k, a, *k, b)) return false;
    }
    return true;
  }

  void Grow(const std::vector<ArrayPtr>& keys) {
    (void)keys;
    int64_t new_capacity = capacity_ * 2;
    std::vector<Slot> old = std::move(slots_);
    slots_.assign(static_cast<size_t>(new_capacity), Slot{});
    capacity_ = new_capacity;
    mask_ = new_capacity - 1;
    for (const Slot& s : old) {
      if (s.first_row < 0) continue;
      int64_t idx = static_cast<int64_t>(s.hash) & mask_;
      while (slots_[static_cast<size_t>(idx)].first_row >= 0) {
        idx = (idx + 1) & mask_;
      }
      slots_[static_cast<size_t>(idx)] = s;
    }
  }

  int64_t capacity_;
  int64_t mask_;
  int64_t num_groups_ = 0;
  std::vector<Slot> slots_;
  std::vector<int64_t> first_rows_;
};

/// TIE's sort profile: a stable comparator sort of `rows` by `keys`, with
/// no normalized keys, keeping the first `fetch` rows when fetch >= 0.
Result<RecordBatchPtr> ComparatorSort(const RecordBatchPtr& rows,
                                      const std::vector<physical::PhysicalSortExpr>& keys,
                                      int64_t fetch) {
  std::vector<ArrayPtr> key_cols;
  std::vector<row::SortOptions> opts;
  for (const auto& key : keys) {
    FUSION_ASSIGN_OR_RAISE(auto v, key.expr->Evaluate(*rows));
    FUSION_ASSIGN_OR_RAISE(auto arr, v.ToArray(rows->num_rows()));
    key_cols.push_back(std::move(arr));
    opts.push_back(key.options);
  }
  std::vector<int64_t> indices(static_cast<size_t>(rows->num_rows()));
  std::iota(indices.begin(), indices.end(), 0);
  std::stable_sort(indices.begin(), indices.end(), [&](int64_t a, int64_t b) {
    return row::CompareRows(key_cols, a, key_cols, b, opts) < 0;
  });
  if (fetch >= 0 && static_cast<int64_t>(indices.size()) > fetch) {
    indices.resize(static_cast<size_t>(fetch));
  }
  return compute::TakeBatch(*rows, indices);
}

}  // namespace

Result<std::vector<RecordBatchPtr>> TieEngine::Execute(const PlanPtr& plan) {
  FUSION_ASSIGN_OR_RAISE(Table result, Run(plan));
  return result.batches;
}

Result<ExprPtr> TieEngine::ResolveSubqueries(const ExprPtr& expr) {
  return logical::TransformExpr(expr, [this](const ExprPtr& e) -> Result<ExprPtr> {
    if (e->kind != Expr::Kind::kScalarSubquery) return e;
    auto subplan =
        std::static_pointer_cast<logical::LogicalPlan>(e->subquery_plan);
    // Subquery plans are stored unoptimized; run the shared logical
    // optimizer (scan pushdown stays off because TIE's providers refuse
    // it) so comma joins become equi joins.
    FUSION_ASSIGN_OR_RAISE(auto optimized,
                           optimizer::Optimizer::Default().Optimize(subplan));
    FUSION_ASSIGN_OR_RAISE(auto batches, Execute(optimized));
    int64_t rows = 0;
    Scalar value = Scalar::Null(e->cast_type);
    for (const auto& b : batches) {
      for (int64_t r = 0; r < b->num_rows(); ++r) {
        if (++rows > 1) {
          return Status::ExecutionError(
              "TIE: scalar subquery produced more than one row");
        }
        value = Scalar::FromArray(*b->column(0), r);
      }
    }
    return logical::Lit(std::move(value));
  });
}

Result<TieEngine::Table> TieEngine::Run(const PlanPtr& plan) {
  switch (plan->kind) {
    case PlanKind::kTableScan:
      return Scan(plan);
    case PlanKind::kFilter: {
      FUSION_ASSIGN_OR_RAISE(Table input, Run(plan->child(0)));
      return Filter(plan, std::move(input));
    }
    case PlanKind::kProjection: {
      FUSION_ASSIGN_OR_RAISE(Table input, Run(plan->child(0)));
      return Project(plan, std::move(input));
    }
    case PlanKind::kAggregate: {
      FUSION_ASSIGN_OR_RAISE(Table input, Run(plan->child(0)));
      return Aggregate(plan, std::move(input));
    }
    case PlanKind::kSort: {
      FUSION_ASSIGN_OR_RAISE(Table input, Run(plan->child(0)));
      return Sort(plan, std::move(input));
    }
    case PlanKind::kLimit: {
      FUSION_ASSIGN_OR_RAISE(Table input, Run(plan->child(0)));
      return Limit(plan, std::move(input));
    }
    case PlanKind::kJoin: {
      FUSION_ASSIGN_OR_RAISE(Table left, Run(plan->child(0)));
      FUSION_ASSIGN_OR_RAISE(Table right, Run(plan->child(1)));
      return Join(plan, std::move(left), std::move(right));
    }
    case PlanKind::kDistinct: {
      FUSION_ASSIGN_OR_RAISE(Table input, Run(plan->child(0)));
      return Distinct(std::move(input));
    }
    case PlanKind::kSubqueryAlias:
      return Run(plan->child(0));
    case PlanKind::kUnion: {
      Table out;
      out.schema = plan->schema().schema();
      for (const auto& c : plan->children) {
        FUSION_ASSIGN_OR_RAISE(Table part, Run(c));
        for (auto& b : part.batches) {
          out.num_rows += b->num_rows();
          out.batches.push_back(std::move(b));
        }
      }
      return out;
    }
    case PlanKind::kEmptyRelation: {
      Table out;
      out.schema = plan->schema().schema();
      if (plan->produce_one_row) {
        out.batches.push_back(RecordBatch::MakeEmpty(out.schema, 1));
        out.num_rows = 1;
      }
      return out;
    }
    case PlanKind::kWindow: {
      // Each window expression sorts the rows with TIE's comparator sort,
      // then appends its column from the evaluator WindowExec runs.
      FUSION_ASSIGN_OR_RAISE(Table input, Run(plan->child(0)));
      FUSION_ASSIGN_OR_RAISE(auto rows, ConcatenateBatches(input.schema, input.batches));
      std::vector<Field> fields = input.schema->fields();
      for (const auto& e : plan->exprs) {
        FUSION_ASSIGN_OR_RAISE(auto info,
                               physical::MakeWindowExprInfo(e, plan->child(0)->schema()));
        FUSION_ASSIGN_OR_RAISE(rows, ComparatorSort(rows, info.SortKeys(), -1));
        FUSION_ASSIGN_OR_RAISE(auto windows, physical::EvaluateWindows({info}, *rows));
        std::vector<ArrayPtr> columns = rows->columns();
        columns.push_back(std::move(windows[0]));
        fields.push_back(plan->schema().schema()->field(static_cast<int>(fields.size())));
        rows = std::make_shared<RecordBatch>(std::make_shared<Schema>(fields),
                                             rows->num_rows(), std::move(columns));
      }
      Table out;
      out.schema = plan->schema().schema();
      out.num_rows = rows->num_rows();
      out.batches.push_back(
          std::make_shared<RecordBatch>(out.schema, out.num_rows, rows->columns()));
      return out;
    }
    default:
      return Status::NotImplemented(std::string("TIE: unsupported plan node ") +
                                    logical::PlanKindName(plan->kind));
  }
}

Result<TieEngine::Table> TieEngine::Scan(const PlanPtr& plan) {
  Table out;
  out.schema = plan->schema().schema();
  // TIE's CSV path: its own parser (paper §8.1's H2O-G discussion).
  if (auto* csv = dynamic_cast<catalog::CsvTable*>(plan->provider.get())) {
    std::vector<int> projection =
        catalog::ResolveProjection(*csv->schema(), plan->scan_projection);
    for (const auto& path : csv->paths()) {
      FUSION_ASSIGN_OR_RAISE(auto batches, ScanCsvFile(path, csv->schema()));
      for (auto& b : batches) {
        FUSION_ASSIGN_OR_RAISE(b, b->Project(projection));
        out.num_rows += b->num_rows();
        out.batches.push_back(std::move(b));
      }
    }
    return out;
  }
  // Columnar scans: request WITHOUT predicates — whole row groups are
  // decoded and filters run afterwards (no pruning, no late
  // materialization).
  catalog::ScanRequest request;
  request.projection = plan->scan_projection;
  request.target_partitions = 1;
  FUSION_ASSIGN_OR_RAISE(auto iterators, plan->provider->Scan(request));
  for (auto& it : iterators) {
    for (;;) {
      FUSION_ASSIGN_OR_RAISE(auto batch, it->Next());
      if (batch == nullptr) break;
      if (batch->num_rows() == 0) continue;
      // TIE is the decode-eagerly baseline: densify at the handoff so the
      // tuple-at-a-time interpreter never sees encoded columns.
      batch = compute::EnsureDenseBatch(batch);
      out.num_rows += batch->num_rows();
      out.batches.push_back(std::move(batch));
    }
  }
  return out;
}

Result<std::vector<RecordBatchPtr>> TieEngine::ScanCsvFile(
    const std::string& path, const SchemaPtr& schema) {
  // Deliberately simple: read the whole file, split lines with find(),
  // copy fields into std::string, parse with stoll/stod. Correct but
  // slower than the vectorized reader — TIE's CSV profile.
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return Status::IOError("TIE csv: cannot open " + path);
  std::string content;
  char chunk[1 << 16];
  size_t n;
  while ((n = std::fread(chunk, 1, sizeof(chunk), f)) > 0) {
    content.append(chunk, n);
  }
  std::fclose(f);

  std::vector<RecordBatchPtr> out;
  std::vector<std::unique_ptr<ArrayBuilder>> builders;
  auto reset_builders = [&]() -> Status {
    builders.clear();
    for (const Field& field : schema->fields()) {
      FUSION_ASSIGN_OR_RAISE(auto b, MakeBuilder(field.type()));
      builders.push_back(std::move(b));
    }
    return Status::OK();
  };
  FUSION_RETURN_NOT_OK(reset_builders());
  int64_t rows = 0;

  size_t pos = 0;
  bool header = true;
  while (pos < content.size()) {
    size_t eol = content.find('\n', pos);
    if (eol == std::string::npos) eol = content.size();
    std::string line = content.substr(pos, eol - pos);
    pos = eol + 1;
    if (!line.empty() && line.back() == '\r') line.pop_back();
    if (header) {
      header = false;
      continue;
    }
    if (line.empty()) continue;
    // Field-by-field split with copies (the slow part, intentionally).
    std::vector<std::string> fields;
    size_t fpos = 0;
    for (;;) {
      size_t comma = line.find(',', fpos);
      if (comma == std::string::npos) {
        fields.push_back(line.substr(fpos));
        break;
      }
      fields.push_back(line.substr(fpos, comma - fpos));
      fpos = comma + 1;
    }
    for (int c = 0; c < schema->num_fields(); ++c) {
      const std::string& v =
          c < static_cast<int>(fields.size()) ? fields[c] : std::string();
      if (v.empty()) {
        builders[c]->AppendNull();
        continue;
      }
      switch (schema->field(c).type().id()) {
        case TypeId::kInt64:
          static_cast<NumericBuilder<int64_t>*>(builders[c].get())
              ->Append(std::stoll(v));
          break;
        case TypeId::kInt32:
          static_cast<NumericBuilder<int32_t>*>(builders[c].get())
              ->Append(static_cast<int32_t>(std::stol(v)));
          break;
        case TypeId::kFloat64:
          static_cast<Float64Builder*>(builders[c].get())->Append(std::stod(v));
          break;
        case TypeId::kBool:
          static_cast<BooleanBuilder*>(builders[c].get())
              ->Append(v == "true" || v == "TRUE" || v == "1");
          break;
        case TypeId::kDecimal128: {
          const DataType& dt = schema->field(c).type();
          Decimal128 dv;
          if (DecimalFromString(v, dt.precision(), dt.scale(), &dv)) {
            static_cast<Decimal128Builder*>(builders[c].get())->Append(dv);
          } else {
            // Same convention as the cast kernel: unparseable -> null.
            builders[c]->AppendNull();
          }
          break;
        }
        default:
          static_cast<StringBuilder*>(builders[c].get())->Append(v);
      }
    }
    if (++rows >= options_.batch_rows) {
      std::vector<ArrayPtr> columns;
      for (auto& b : builders) {
        FUSION_ASSIGN_OR_RAISE(auto arr, b->Finish());
        columns.push_back(std::move(arr));
      }
      out.push_back(std::make_shared<RecordBatch>(schema, rows, std::move(columns)));
      FUSION_RETURN_NOT_OK(reset_builders());
      rows = 0;
    }
  }
  if (rows > 0) {
    std::vector<ArrayPtr> columns;
    for (auto& b : builders) {
      FUSION_ASSIGN_OR_RAISE(auto arr, b->Finish());
      columns.push_back(std::move(arr));
    }
    out.push_back(std::make_shared<RecordBatch>(schema, rows, std::move(columns)));
  }
  return out;
}

Result<TieEngine::Table> TieEngine::Filter(const PlanPtr& plan, Table input) {
  FUSION_ASSIGN_OR_RAISE(auto resolved, ResolveSubqueries(plan->predicate));
  FUSION_ASSIGN_OR_RAISE(auto predicate,
                         CreatePhysicalExpr(resolved,
                                            plan->child(0)->schema()));
  Table out;
  out.schema = input.schema;
  for (const auto& batch : input.batches) {
    FUSION_ASSIGN_OR_RAISE(auto mask,
                           physical::EvaluatePredicateMask(*predicate, *batch));
    const auto& bm = checked_cast<BooleanArray>(*mask);
    if (bm.TrueCount() == 0) continue;
    FUSION_ASSIGN_OR_RAISE(auto filtered, compute::FilterBatch(*batch, bm));
    out.num_rows += filtered->num_rows();
    out.batches.push_back(std::move(filtered));
  }
  return out;
}

Result<TieEngine::Table> TieEngine::Project(const PlanPtr& plan, Table input) {
  std::vector<PhysicalExprPtr> exprs;
  for (const auto& e : plan->exprs) {
    FUSION_ASSIGN_OR_RAISE(auto resolved, ResolveSubqueries(e));
    FUSION_ASSIGN_OR_RAISE(auto pe,
                           CreatePhysicalExpr(resolved, plan->child(0)->schema()));
    exprs.push_back(std::move(pe));
  }
  Table out;
  out.schema = plan->schema().schema();
  for (const auto& batch : input.batches) {
    FUSION_ASSIGN_OR_RAISE(auto columns, EvaluateToArrays(exprs, *batch));
    out.num_rows += batch->num_rows();
    out.batches.push_back(std::make_shared<RecordBatch>(out.schema,
                                                        batch->num_rows(),
                                                        std::move(columns)));
  }
  return out;
}

Result<TieEngine::Table> TieEngine::Aggregate(const PlanPtr& plan, Table input) {
  const logical::PlanSchema& in_schema = plan->child(0)->schema();
  FUSION_ASSIGN_OR_RAISE(auto merged, ConcatenateBatches(input.schema, input.batches));
  const int64_t n = merged->num_rows();

  // Group keys.
  std::vector<PhysicalExprPtr> group_exprs;
  for (const auto& g : plan->group_exprs) {
    FUSION_ASSIGN_OR_RAISE(auto pe, CreatePhysicalExpr(g, in_schema));
    group_exprs.push_back(std::move(pe));
  }
  FUSION_ASSIGN_OR_RAISE(auto keys, EvaluateToArrays(group_exprs, *merged));

  std::vector<uint32_t> group_ids(static_cast<size_t>(n));
  GroupTable table(std::min<int64_t>(n, 1 << 20));
  if (keys.empty()) {
    std::fill(group_ids.begin(), group_ids.end(), 0);
  } else {
    std::vector<uint64_t> hashes;
    FUSION_RETURN_NOT_OK(compute::HashColumns(keys, &hashes));
    for (int64_t r = 0; r < n; ++r) {
      group_ids[r] = table.Lookup(hashes[r], r, keys);
    }
  }
  int64_t num_groups = keys.empty() ? 1 : table.num_groups();
  if (n == 0 && keys.empty()) num_groups = 1;

  // Accumulators (shared function library, TIE-owned grouping).
  std::vector<ArrayPtr> agg_columns;
  for (const auto& a : plan->aggr_exprs) {
    const ExprPtr& agg = logical::Unalias(a);
    std::vector<PhysicalExprPtr> arg_exprs;
    std::vector<DataType> arg_types;
    for (const auto& arg : agg->children) {
      FUSION_ASSIGN_OR_RAISE(auto pe, CreatePhysicalExpr(arg, in_schema));
      arg_types.push_back(pe->type());
      arg_exprs.push_back(std::move(pe));
    }
    FUSION_ASSIGN_OR_RAISE(auto acc, agg->aggregate_function->create(arg_types));
    acc->Resize(num_groups);
    FUSION_ASSIGN_OR_RAISE(auto args, EvaluateToArrays(arg_exprs, *merged));
    std::vector<uint8_t> filter_mask;
    if (agg->filter != nullptr) {
      FUSION_ASSIGN_OR_RAISE(auto fe, CreatePhysicalExpr(agg->filter, in_schema));
      FUSION_ASSIGN_OR_RAISE(auto mask, physical::EvaluatePredicateMask(*fe, *merged));
      const auto& bm = checked_cast<BooleanArray>(*mask);
      filter_mask.resize(static_cast<size_t>(n));
      for (int64_t i = 0; i < n; ++i) {
        filter_mask[i] = bm.IsValid(i) && bm.Value(i) ? 1 : 0;
      }
    }
    FUSION_RETURN_NOT_OK(acc->Update(args, group_ids,
                                     filter_mask.empty() ? nullptr
                                                         : filter_mask.data()));
    FUSION_ASSIGN_OR_RAISE(auto col, acc->Finish());
    agg_columns.push_back(std::move(col));
  }

  // Group key output columns: gather the first row of each group.
  std::vector<ArrayPtr> columns;
  if (!keys.empty()) {
    for (const auto& k : keys) {
      FUSION_ASSIGN_OR_RAISE(auto col, compute::Take(*k, table.first_rows()));
      columns.push_back(std::move(col));
    }
  }
  for (auto& c : agg_columns) columns.push_back(std::move(c));

  Table out;
  out.schema = plan->schema().schema();
  out.num_rows = num_groups;
  auto big = std::make_shared<RecordBatch>(out.schema, num_groups,
                                           std::move(columns));
  out.batches = SliceBatch(big, options_.batch_rows);
  return out;
}

Result<TieEngine::Table> TieEngine::Sort(const PlanPtr& plan, Table input) {
  FUSION_ASSIGN_OR_RAISE(auto merged, ConcatenateBatches(input.schema, input.batches));
  std::vector<physical::PhysicalSortExpr> keys;
  for (const auto& se : plan->sort_exprs) {
    FUSION_ASSIGN_OR_RAISE(auto pe, CreatePhysicalExpr(se.expr, plan->child(0)->schema()));
    keys.push_back({std::move(pe), se.options});
  }
  FUSION_ASSIGN_OR_RAISE(auto sorted, ComparatorSort(merged, keys, plan->fetch));
  Table out;
  out.schema = input.schema;
  out.num_rows = sorted->num_rows();
  out.batches = SliceBatch(sorted, options_.batch_rows);
  return out;
}

Result<TieEngine::Table> TieEngine::Limit(const PlanPtr& plan, Table input) {
  Table out;
  out.schema = input.schema;
  int64_t skip = plan->skip;
  int64_t fetch = plan->fetch < 0 ? INT64_MAX : plan->fetch;
  for (auto& batch : input.batches) {
    if (fetch <= 0) break;
    RecordBatchPtr b = batch;
    if (skip > 0) {
      if (b->num_rows() <= skip) {
        skip -= b->num_rows();
        continue;
      }
      b = b->Slice(skip, b->num_rows() - skip);
      skip = 0;
    }
    if (b->num_rows() > fetch) b = b->Slice(0, fetch);
    fetch -= b->num_rows();
    out.num_rows += b->num_rows();
    out.batches.push_back(std::move(b));
  }
  return out;
}

Result<TieEngine::Table> TieEngine::Join(const PlanPtr& plan, Table left,
                                         Table right) {
  FUSION_ASSIGN_OR_RAISE(auto lbatch, ConcatenateBatches(left.schema, left.batches));
  FUSION_ASSIGN_OR_RAISE(auto rbatch,
                         ConcatenateBatches(right.schema, right.batches));
  const logical::PlanSchema& lschema = plan->child(0)->schema();
  const logical::PlanSchema& rschema = plan->child(1)->schema();

  if (plan->join_on.empty()) {
    if (plan->join_kind != JoinKind::kCross || plan->join_filter != nullptr) {
      return Status::NotImplemented("TIE: non-equi joins are not supported");
    }
    // Cross product.
    std::vector<int64_t> li, ri;
    for (int64_t i = 0; i < lbatch->num_rows(); ++i) {
      for (int64_t j = 0; j < rbatch->num_rows(); ++j) {
        li.push_back(i);
        ri.push_back(j);
      }
    }
    std::vector<ArrayPtr> columns;
    for (int c = 0; c < lbatch->num_columns(); ++c) {
      FUSION_ASSIGN_OR_RAISE(auto col, compute::Take(*lbatch->column(c), li));
      columns.push_back(std::move(col));
    }
    for (int c = 0; c < rbatch->num_columns(); ++c) {
      FUSION_ASSIGN_OR_RAISE(auto col, compute::Take(*rbatch->column(c), ri));
      columns.push_back(std::move(col));
    }
    Table out;
    out.schema = plan->schema().schema();
    out.num_rows = static_cast<int64_t>(li.size());
    out.batches.push_back(std::make_shared<RecordBatch>(out.schema, out.num_rows,
                                                        std::move(columns)));
    return out;
  }

  // Hash join; build on the smaller side (known exactly).
  const bool build_left = lbatch->num_rows() <= rbatch->num_rows();
  const RecordBatchPtr& build = build_left ? lbatch : rbatch;
  const RecordBatchPtr& probe = build_left ? rbatch : lbatch;

  std::vector<PhysicalExprPtr> build_keys_e, probe_keys_e;
  for (const auto& [l, r] : plan->join_on) {
    FUSION_ASSIGN_OR_RAISE(auto lk, CreatePhysicalExpr(l, lschema));
    FUSION_ASSIGN_OR_RAISE(auto rk, CreatePhysicalExpr(r, rschema));
    if (build_left) {
      build_keys_e.push_back(std::move(lk));
      probe_keys_e.push_back(std::move(rk));
    } else {
      build_keys_e.push_back(std::move(rk));
      probe_keys_e.push_back(std::move(lk));
    }
  }
  FUSION_ASSIGN_OR_RAISE(auto build_keys, EvaluateToArrays(build_keys_e, *build));
  FUSION_ASSIGN_OR_RAISE(auto probe_keys, EvaluateToArrays(probe_keys_e, *probe));

  std::vector<uint64_t> bh, ph;
  FUSION_RETURN_NOT_OK(compute::HashColumns(build_keys, &bh));
  FUSION_RETURN_NOT_OK(compute::HashColumns(probe_keys, &ph));
  std::unordered_multimap<uint64_t, int64_t> ht;
  ht.reserve(static_cast<size_t>(build->num_rows()));
  for (int64_t r = 0; r < build->num_rows(); ++r) {
    bool null_key = false;
    for (const auto& k : build_keys) {
      if (k->IsNull(r)) {
        null_key = true;
        break;
      }
    }
    if (!null_key) ht.emplace(bh[r], r);
  }
  std::vector<int64_t> bi, pi;
  std::vector<uint8_t> build_matched(static_cast<size_t>(build->num_rows()), 0);
  std::vector<uint8_t> probe_matched(static_cast<size_t>(probe->num_rows()), 0);
  for (int64_t r = 0; r < probe->num_rows(); ++r) {
    bool null_key = false;
    for (const auto& k : probe_keys) {
      if (k->IsNull(r)) {
        null_key = true;
        break;
      }
    }
    if (null_key) continue;
    auto range = ht.equal_range(ph[r]);
    for (auto it = range.first; it != range.second; ++it) {
      bool equal = true;
      for (size_t k = 0; k < build_keys.size(); ++k) {
        if (!ArrayElementsEqual(*build_keys[k], it->second, *probe_keys[k], r)) {
          equal = false;
          break;
        }
      }
      if (equal) {
        bi.push_back(it->second);
        pi.push_back(r);
        build_matched[it->second] = 1;
        probe_matched[r] = 1;
      }
    }
  }

  // Residual filter.
  JoinKind kind = plan->join_kind;
  auto assemble = [&](const std::vector<int64_t>& left_idx,
                      const std::vector<int64_t>& right_idx,
                      const SchemaPtr& schema) -> Result<RecordBatchPtr> {
    std::vector<ArrayPtr> columns;
    for (int c = 0; c < lbatch->num_columns(); ++c) {
      FUSION_ASSIGN_OR_RAISE(auto col, compute::Take(*lbatch->column(c), left_idx));
      columns.push_back(std::move(col));
    }
    for (int c = 0; c < rbatch->num_columns(); ++c) {
      FUSION_ASSIGN_OR_RAISE(auto col, compute::Take(*rbatch->column(c), right_idx));
      columns.push_back(std::move(col));
    }
    return std::make_shared<RecordBatch>(schema,
                                         static_cast<int64_t>(left_idx.size()),
                                         std::move(columns));
  };
  // Orient pairs back to (left, right).
  std::vector<int64_t> li, ri;
  if (build_left) {
    li = std::move(bi);
    ri = std::move(pi);
  } else {
    li = std::move(pi);
    ri = std::move(bi);
  }
  std::vector<uint8_t>& left_matched = build_left ? build_matched : probe_matched;
  std::vector<uint8_t>& right_matched = build_left ? probe_matched : build_matched;

  if (plan->join_filter != nullptr) {
    logical::PlanSchema combined = lschema.Concat(rschema);
    FUSION_ASSIGN_OR_RAISE(auto fe, CreatePhysicalExpr(plan->join_filter, combined));
    std::vector<Field> fields = lbatch->schema()->fields();
    for (const auto& f : rbatch->schema()->fields()) fields.push_back(f);
    auto scratch_schema = std::make_shared<Schema>(std::move(fields));
    FUSION_ASSIGN_OR_RAISE(auto candidates, assemble(li, ri, scratch_schema));
    FUSION_ASSIGN_OR_RAISE(auto mask,
                           physical::EvaluatePredicateMask(*fe, *candidates));
    const auto& bm = checked_cast<BooleanArray>(*mask);
    std::vector<int64_t> kl, kr;
    std::fill(left_matched.begin(), left_matched.end(), 0);
    std::fill(right_matched.begin(), right_matched.end(), 0);
    for (int64_t i = 0; i < bm.length(); ++i) {
      if (bm.IsValid(i) && bm.Value(i)) {
        kl.push_back(li[i]);
        kr.push_back(ri[i]);
        left_matched[li[i]] = 1;
        right_matched[ri[i]] = 1;
      }
    }
    li = std::move(kl);
    ri = std::move(kr);
  }

  Table out;
  out.schema = plan->schema().schema();
  switch (kind) {
    case JoinKind::kInner:
      break;
    case JoinKind::kLeft:
      for (int64_t i = 0; i < lbatch->num_rows(); ++i) {
        if (!left_matched[i]) {
          li.push_back(i);
          ri.push_back(-1);
        }
      }
      break;
    case JoinKind::kRight:
      for (int64_t j = 0; j < rbatch->num_rows(); ++j) {
        if (!right_matched[j]) {
          li.push_back(-1);
          ri.push_back(j);
        }
      }
      break;
    case JoinKind::kFull:
      for (int64_t i = 0; i < lbatch->num_rows(); ++i) {
        if (!left_matched[i]) {
          li.push_back(i);
          ri.push_back(-1);
        }
      }
      for (int64_t j = 0; j < rbatch->num_rows(); ++j) {
        if (!right_matched[j]) {
          li.push_back(-1);
          ri.push_back(j);
        }
      }
      break;
    case JoinKind::kLeftSemi:
    case JoinKind::kLeftAnti: {
      const bool want = kind == JoinKind::kLeftSemi;
      std::vector<int64_t> keep;
      for (int64_t i = 0; i < lbatch->num_rows(); ++i) {
        if ((left_matched[i] != 0) == want) keep.push_back(i);
      }
      FUSION_ASSIGN_OR_RAISE(auto batch, compute::TakeBatch(*lbatch, keep));
      out.num_rows = batch->num_rows();
      out.batches.push_back(std::make_shared<RecordBatch>(out.schema, out.num_rows,
                                                          batch->columns()));
      return out;
    }
    default:
      return Status::NotImplemented("TIE: unsupported join kind");
  }
  FUSION_ASSIGN_OR_RAISE(auto joined, assemble(li, ri, out.schema));
  out.num_rows = joined->num_rows();
  out.batches = SliceBatch(joined, options_.batch_rows);
  return out;
}

Result<TieEngine::Table> TieEngine::Distinct(Table input) {
  FUSION_ASSIGN_OR_RAISE(auto merged, ConcatenateBatches(input.schema, input.batches));
  const int64_t n = merged->num_rows();
  std::vector<ArrayPtr> keys = merged->columns();
  GroupTable table(std::min<int64_t>(n, 1 << 20));
  if (!keys.empty()) {
    std::vector<uint64_t> hashes;
    FUSION_RETURN_NOT_OK(compute::HashColumns(keys, &hashes));
    for (int64_t r = 0; r < n; ++r) {
      table.Lookup(hashes[r], r, keys);
    }
  }
  FUSION_ASSIGN_OR_RAISE(auto dedup, compute::TakeBatch(*merged, table.first_rows()));
  Table out;
  out.schema = input.schema;
  out.num_rows = dedup->num_rows();
  out.batches = SliceBatch(dedup, options_.batch_rows);
  return out;
}

}  // namespace baseline
}  // namespace fusion
