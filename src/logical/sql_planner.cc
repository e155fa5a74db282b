#include "logical/sql_planner.h"

#include <algorithm>
#include <charconv>

#include "compute/cast.h"
#include "compute/temporal.h"
#include "logical/expr_eval.h"
#include "logical/simplify.h"

namespace fusion {
namespace logical {

namespace {

Result<DataType> TypeFromSqlName(const std::string& name) {
  if (name == "int" || name == "integer" || name == "bigint" || name == "int8" ||
      name == "long") {
    return int64();
  }
  if (name == "smallint" || name == "int4" || name == "int32") return int32();
  if (name.rfind("decimal", 0) == 0 || name.rfind("numeric", 0) == 0) {
    // "decimal"/"numeric" with or without (p,s); both names are 7 chars.
    return TypeFromString("decimal" + name.substr(7));
  }
  if (name == "double" || name == "float" || name == "real" || name == "float8") {
    return float64();
  }
  if (name == "varchar" || name == "text" || name == "char" || name == "string") {
    return utf8();
  }
  if (name == "date") return date32();
  if (name == "timestamp" || name == "datetime") return timestamp();
  if (name == "bool" || name == "boolean") return boolean();
  return Status::PlanError("unknown type name '" + name + "' in CAST");
}

Result<BinaryOp> BinaryOpFromText(const std::string& op) {
  if (op == "AND") return BinaryOp::kAnd;
  if (op == "OR") return BinaryOp::kOr;
  if (op == "=") return BinaryOp::kEq;
  if (op == "<>" || op == "!=") return BinaryOp::kNeq;
  if (op == "<") return BinaryOp::kLt;
  if (op == "<=") return BinaryOp::kLtEq;
  if (op == ">") return BinaryOp::kGt;
  if (op == ">=") return BinaryOp::kGtEq;
  if (op == "+") return BinaryOp::kPlus;
  if (op == "-") return BinaryOp::kMinus;
  if (op == "*") return BinaryOp::kMultiply;
  if (op == "/") return BinaryOp::kDivide;
  if (op == "%") return BinaryOp::kModulo;
  if (op == "||") return BinaryOp::kStringConcat;
  return Status::PlanError("unknown binary operator '" + op + "'");
}

/// Names of the output columns an Aggregate node produces for the given
/// group/aggregate expressions (mirrors SchemaFromExprs naming).
std::vector<std::string> OutputNames(const std::vector<ExprPtr>& exprs) {
  std::vector<std::string> names;
  names.reserve(exprs.size());
  for (const auto& e : exprs) names.push_back(e->DisplayName());
  return names;
}

bool SameExpr(const ExprPtr& a, const ExprPtr& b) {
  return Unalias(a)->ToString() == Unalias(b)->ToString();
}

/// Collect all aggregate subexpressions (deduplicated).
void CollectAggregates(const ExprPtr& expr, std::vector<ExprPtr>* out) {
  VisitExpr(expr, [out](const ExprPtr& e) {
    if (e->kind == Expr::Kind::kAggregate) {
      for (const auto& seen : *out) {
        if (SameExpr(seen, e)) return false;
      }
      out->push_back(e);
      return false;  // don't descend into aggregate args
    }
    return true;
  });
}

void CollectWindows(const ExprPtr& expr, std::vector<ExprPtr>* out) {
  VisitExpr(expr, [out](const ExprPtr& e) {
    if (e->kind == Expr::Kind::kWindow) {
      for (const auto& seen : *out) {
        if (SameExpr(seen, e)) return false;
      }
      out->push_back(e);
      return false;
    }
    return true;
  });
}

WindowFrame ConvertFrame(const sql::WindowSpec& spec) {
  WindowFrame frame;
  if (!spec.has_frame) {
    // SQL default: RANGE UNBOUNDED PRECEDING .. CURRENT ROW when ORDER
    // BY is present, else the whole partition.
    frame.is_rows = false;
    frame.start = WindowFrame::BoundKind::kUnboundedPreceding;
    frame.end = spec.order_by.empty()
                    ? WindowFrame::BoundKind::kUnboundedFollowing
                    : WindowFrame::BoundKind::kCurrentRow;
    return frame;
  }
  frame.is_rows = spec.frame_is_rows;
  auto convert_bound = [](const sql::FrameBound& b, WindowFrame::BoundKind* kind,
                          int64_t* offset) {
    switch (b.kind) {
      case sql::FrameBound::Kind::kUnboundedPreceding:
        *kind = WindowFrame::BoundKind::kUnboundedPreceding;
        break;
      case sql::FrameBound::Kind::kPreceding:
        *kind = WindowFrame::BoundKind::kPreceding;
        *offset = b.offset;
        break;
      case sql::FrameBound::Kind::kCurrentRow:
        *kind = WindowFrame::BoundKind::kCurrentRow;
        break;
      case sql::FrameBound::Kind::kFollowing:
        *kind = WindowFrame::BoundKind::kFollowing;
        *offset = b.offset;
        break;
      case sql::FrameBound::Kind::kUnboundedFollowing:
        *kind = WindowFrame::BoundKind::kUnboundedFollowing;
        break;
    }
  };
  convert_bound(spec.frame_start, &frame.start, &frame.start_offset);
  convert_bound(spec.frame_end, &frame.end, &frame.end_offset);
  return frame;
}

}  // namespace

Result<ExprPtr> RewriteToColumns(const ExprPtr& expr,
                                 const std::vector<ExprPtr>& sources,
                                 const std::vector<std::string>& names) {
  return TransformExpr(expr, [&](const ExprPtr& e) -> Result<ExprPtr> {
    for (size_t i = 0; i < sources.size(); ++i) {
      if (SameExpr(e, sources[i]) && e->kind != Expr::Kind::kAlias) {
        return Col(names[i]);
      }
    }
    return e;
  });
}

Result<PlanPtr> SqlPlanner::PlanStatement(const sql::Statement& stmt) {
  FUSION_ASSIGN_OR_RAISE(PlanPtr plan, PlanQuery(*stmt.query, {}));
  if (stmt.kind == sql::Statement::Kind::kExplain) {
    return MakeExplain(std::move(plan), stmt.analyze);
  }
  return plan;
}

Result<PlanPtr> SqlPlanner::PlanSql(const std::string& sql) {
  FUSION_ASSIGN_OR_RAISE(sql::Statement stmt, sql::Parser::Parse(sql));
  return PlanStatement(stmt);
}

Result<PlanPtr> SqlPlanner::PlanQuery(const sql::AstQuery& query,
                                      const CteScope& outer_ctes) {
  CteScope ctes = outer_ctes;
  for (const auto& [name, cte_query] : query.ctes) {
    FUSION_ASSIGN_OR_RAISE(PlanPtr cte_plan, PlanQuery(*cte_query, ctes));
    FUSION_ASSIGN_OR_RAISE(cte_plan, MakeSubqueryAlias(std::move(cte_plan), name));
    ctes[name] = std::move(cte_plan);
  }

  FUSION_ASSIGN_OR_RAISE(PlanPtr plan, PlanSelectCore(query.cores[0], ctes));
  for (size_t i = 1; i < query.cores.size(); ++i) {
    FUSION_ASSIGN_OR_RAISE(PlanPtr next, PlanSelectCore(query.cores[i], ctes));
    switch (query.set_ops[i - 1]) {
      case sql::SetOp::kUnionAll: {
        FUSION_ASSIGN_OR_RAISE(plan, MakeUnion({std::move(plan), std::move(next)}));
        break;
      }
      case sql::SetOp::kUnionDistinct: {
        FUSION_ASSIGN_OR_RAISE(plan, MakeUnion({std::move(plan), std::move(next)}));
        FUSION_ASSIGN_OR_RAISE(plan, MakeDistinct(std::move(plan)));
        break;
      }
      case sql::SetOp::kIntersect:
      case sql::SetOp::kExcept: {
        // INTERSECT -> semi join on all columns; EXCEPT -> anti join
        // (both with DISTINCT output, per SQL set semantics).
        if (plan->schema().num_fields() != next->schema().num_fields()) {
          return Status::PlanError("set operation: column count mismatch");
        }
        std::vector<std::pair<ExprPtr, ExprPtr>> on;
        for (int c = 0; c < plan->schema().num_fields(); ++c) {
          on.emplace_back(
              Col(plan->schema().qualifier(c), plan->schema().field(c).name()),
              Col(next->schema().qualifier(c), next->schema().field(c).name()));
        }
        JoinKind kind = query.set_ops[i - 1] == sql::SetOp::kIntersect
                            ? JoinKind::kLeftSemi
                            : JoinKind::kLeftAnti;
        FUSION_ASSIGN_OR_RAISE(
            plan, MakeJoin(std::move(plan), std::move(next), kind, std::move(on)));
        FUSION_ASSIGN_OR_RAISE(plan, MakeDistinct(std::move(plan)));
        break;
      }
    }
  }

  if (!query.order_by.empty()) {
    // ORDER BY may reference output aliases, ordinals, or arbitrary
    // expressions over the input of the final projection.
    std::vector<SortExpr> sort_exprs;
    std::vector<ExprPtr> extra_projections;
    const PlanSchema& out_schema = plan->schema();
    const bool is_projection = plan->kind == PlanKind::kProjection;
    for (const auto& item : query.order_by) {
      SortExpr se;
      se.options.descending = item.descending;
      se.options.nulls_first =
          item.nulls_specified ? item.nulls_first : item.descending;
      // Ordinal?
      if (item.expr->kind == sql::AstExpr::Kind::kNumber) {
        int64_t ordinal = 0;
        std::from_chars(item.expr->text.data(),
                        item.expr->text.data() + item.expr->text.size(), ordinal);
        if (ordinal < 1 || ordinal > out_schema.num_fields()) {
          return Status::PlanError("ORDER BY ordinal out of range");
        }
        se.expr = Col(out_schema.field(static_cast<int>(ordinal - 1)).name());
        sort_exprs.push_back(std::move(se));
        continue;
      }
      // Try against the output schema (aliases).
      auto converted = ConvertExpr(item.expr, out_schema, ctes);
      if (converted.ok() && !ContainsAggregate(*converted)) {
        se.expr = *converted;
        sort_exprs.push_back(std::move(se));
        continue;
      }
      // ORDER BY an aggregate (e.g. ORDER BY count(*) DESC): match the
      // aggregate's display name against the projected output columns.
      if (converted.ok() && ContainsAggregate(*converted)) {
        std::string display = (*converted)->DisplayName();
        if (out_schema.IndexOf("", display).ok()) {
          se.expr = Col(display);
          sort_exprs.push_back(std::move(se));
          continue;
        }
      }
      // Fall back: expression over the projection's input, projected as
      // an extra (hidden) column.
      if (!is_projection) return converted.status();
      FUSION_ASSIGN_OR_RAISE(ExprPtr under,
                             ConvertExpr(item.expr, plan->child(0)->schema(), ctes));
      FUSION_ASSIGN_OR_RAISE(under, Coerce(under, plan->child(0)->schema()));
      std::string hidden = "__sort_" + std::to_string(extra_projections.size());
      extra_projections.push_back(AliasExpr(under, hidden));
      se.expr = Col(hidden);
      sort_exprs.push_back(std::move(se));
    }
    if (!extra_projections.empty()) {
      // Extend the projection, sort, then trim back to the original.
      std::vector<ExprPtr> extended = plan->exprs;
      std::vector<ExprPtr> final_cols;
      for (int i = 0; i < out_schema.num_fields(); ++i) {
        final_cols.push_back(Col(out_schema.field(i).name()));
      }
      for (auto& e : extra_projections) extended.push_back(std::move(e));
      FUSION_ASSIGN_OR_RAISE(plan, MakeProjection(plan->child(0), extended));
      FUSION_ASSIGN_OR_RAISE(plan, MakeSort(std::move(plan), sort_exprs));
      FUSION_ASSIGN_OR_RAISE(plan, MakeProjection(std::move(plan), final_cols));
    } else {
      FUSION_ASSIGN_OR_RAISE(plan, MakeSort(std::move(plan), sort_exprs));
    }
  }
  if (query.limit >= 0 || query.offset > 0) {
    FUSION_ASSIGN_OR_RAISE(plan, MakeLimit(std::move(plan), query.offset,
                                           query.limit));
  }
  return plan;
}

Result<PlanPtr> SqlPlanner::PlanTableRef(const sql::TableRef& ref,
                                         const CteScope& ctes) {
  switch (ref.kind) {
    case sql::TableRef::Kind::kTable: {
      auto it = ctes.find(ref.name);
      PlanPtr plan;
      if (it != ctes.end()) {
        plan = it->second;
      } else {
        FUSION_ASSIGN_OR_RAISE(auto provider, resolver_(ref.name));
        FUSION_ASSIGN_OR_RAISE(plan, MakeTableScan(ref.name, std::move(provider)));
      }
      if (!ref.alias.empty()) {
        return MakeSubqueryAlias(std::move(plan), ref.alias);
      }
      return plan;
    }
    case sql::TableRef::Kind::kSubquery: {
      FUSION_ASSIGN_OR_RAISE(PlanPtr plan, PlanQuery(*ref.subquery, ctes));
      if (!ref.alias.empty()) {
        return MakeSubqueryAlias(std::move(plan), ref.alias);
      }
      return plan;
    }
    case sql::TableRef::Kind::kJoin: {
      FUSION_ASSIGN_OR_RAISE(PlanPtr left, PlanTableRef(*ref.left, ctes));
      FUSION_ASSIGN_OR_RAISE(PlanPtr right, PlanTableRef(*ref.right, ctes));
      JoinKind kind = JoinKind::kInner;
      switch (ref.join_kind) {
        case sql::TableRef::JoinKind::kInner: kind = JoinKind::kInner; break;
        case sql::TableRef::JoinKind::kLeft: kind = JoinKind::kLeft; break;
        case sql::TableRef::JoinKind::kRight: kind = JoinKind::kRight; break;
        case sql::TableRef::JoinKind::kFull: kind = JoinKind::kFull; break;
        case sql::TableRef::JoinKind::kLeftSemi: kind = JoinKind::kLeftSemi; break;
        case sql::TableRef::JoinKind::kLeftAnti: kind = JoinKind::kLeftAnti; break;
        case sql::TableRef::JoinKind::kCross:
          return MakeCrossJoin(std::move(left), std::move(right));
      }
      // USING(cols) -> equi pairs.
      if (!ref.using_columns.empty()) {
        std::vector<std::pair<ExprPtr, ExprPtr>> on;
        for (const auto& col : ref.using_columns) {
          on.emplace_back(Col(col), Col(col));
        }
        return MakeJoin(std::move(left), std::move(right), kind, std::move(on));
      }
      // ON condition: extract equi pairs; everything else becomes the
      // join filter (paper §6.4: equi-join predicate identification).
      PlanSchema combined = left->schema().Concat(right->schema());
      FUSION_ASSIGN_OR_RAISE(ExprPtr on_expr, ConvertExpr(ref.on, combined, ctes));
      FUSION_ASSIGN_OR_RAISE(on_expr, Coerce(on_expr, combined));
      std::vector<ExprPtr> conjuncts;
      SplitConjunction(on_expr, &conjuncts);
      std::vector<std::pair<ExprPtr, ExprPtr>> on;
      std::vector<ExprPtr> residual;
      auto side_of = [&](const ExprPtr& e) -> int {
        // 0 = left only, 1 = right only, -1 = mixed/none.
        bool uses_left = false, uses_right = false;
        std::vector<ExprPtr> cols;
        CollectColumns(e, &cols);
        for (const auto& c : cols) {
          bool on_left = left->schema().IndexOf(c->qualifier, c->name).ok();
          bool on_right = right->schema().IndexOf(c->qualifier, c->name).ok();
          if (on_left && !on_right) uses_left = true;
          else if (on_right && !on_left) uses_right = true;
          else return -1;  // ambiguous
        }
        if (uses_left && !uses_right) return 0;
        if (uses_right && !uses_left) return 1;
        return -1;
      };
      for (const auto& conj : conjuncts) {
        const ExprPtr& c = Unalias(conj);
        if (c->kind == Expr::Kind::kBinary && c->op == BinaryOp::kEq) {
          int ls = side_of(c->children[0]);
          int rs = side_of(c->children[1]);
          if (ls == 0 && rs == 1) {
            on.emplace_back(c->children[0], c->children[1]);
            continue;
          }
          if (ls == 1 && rs == 0) {
            on.emplace_back(c->children[1], c->children[0]);
            continue;
          }
        }
        residual.push_back(conj);
      }
      return MakeJoin(std::move(left), std::move(right), kind, std::move(on),
                      Conjunction(residual));
    }
  }
  return Status::Internal("unhandled table ref kind");
}

Result<PlanPtr> SqlPlanner::ApplyWhere(PlanPtr input, const sql::AstExprPtr& where,
                                       const CteScope& ctes) {
  if (where == nullptr) return input;
  // Split AST-level conjuncts so IN/EXISTS subqueries become joins.
  std::vector<sql::AstExprPtr> conjuncts;
  std::function<void(const sql::AstExprPtr&)> split = [&](const sql::AstExprPtr& e) {
    if (e->kind == sql::AstExpr::Kind::kBinary && e->op == "AND") {
      split(e->left);
      split(e->right);
    } else {
      conjuncts.push_back(e);
    }
  };
  split(where);

  std::vector<ExprPtr> predicates;
  for (const auto& conj : conjuncts) {
    if (conj->kind == sql::AstExpr::Kind::kInSubquery) {
      FUSION_ASSIGN_OR_RAISE(ExprPtr key,
                             ConvertExpr(conj->left, input->schema(), ctes));
      FUSION_ASSIGN_OR_RAISE(PlanPtr sub, PlanQuery(*conj->subquery, ctes));
      if (sub->schema().num_fields() != 1) {
        return Status::PlanError("IN subquery must produce one column");
      }
      ExprPtr sub_key = Col(sub->schema().qualifier(0), sub->schema().field(0).name());
      FUSION_ASSIGN_OR_RAISE(
          input, MakeJoin(std::move(input), std::move(sub),
                          conj->negated ? JoinKind::kLeftAnti : JoinKind::kLeftSemi,
                          {{key, sub_key}}));
      continue;
    }
    if (conj->kind == sql::AstExpr::Kind::kExists) {
      return Status::NotImplemented(
          "EXISTS subqueries are not supported; rewrite as a join "
          "(see DESIGN.md §5.7)");
    }
    FUSION_ASSIGN_OR_RAISE(ExprPtr p, ConvertExpr(conj, input->schema(), ctes));
    if (ContainsAggregate(p)) {
      return Status::PlanError("aggregate functions are not allowed in WHERE");
    }
    FUSION_ASSIGN_OR_RAISE(p, Coerce(p, input->schema()));
    predicates.push_back(std::move(p));
  }
  if (predicates.empty()) return input;
  FUSION_ASSIGN_OR_RAISE(ExprPtr predicate, SimplifyExpr(Conjunction(predicates)));
  return MakeFilter(std::move(input), std::move(predicate));
}

Result<PlanPtr> SqlPlanner::PlanSelectCore(const sql::SelectCore& core,
                                           const CteScope& ctes) {
  // FROM.
  PlanPtr plan;
  if (core.from != nullptr) {
    FUSION_ASSIGN_OR_RAISE(plan, PlanTableRef(*core.from, ctes));
  } else {
    FUSION_ASSIGN_OR_RAISE(plan, MakeEmptyRelation(/*produce_one_row=*/true));
  }

  // WHERE (with IN-subquery -> semi-join rewriting).
  FUSION_ASSIGN_OR_RAISE(plan, ApplyWhere(std::move(plan), core.where, ctes));

  // SELECT items (star expansion + conversion).
  const PlanSchema from_schema = plan->schema();
  std::vector<ExprPtr> select_exprs;
  for (const auto& item : core.items) {
    if (item.is_star) {
      for (int i = 0; i < from_schema.num_fields(); ++i) {
        if (!item.star_qualifier.empty() &&
            from_schema.qualifier(i) != item.star_qualifier) {
          continue;
        }
        select_exprs.push_back(
            Col(from_schema.qualifier(i), from_schema.field(i).name()));
      }
      continue;
    }
    FUSION_ASSIGN_OR_RAISE(ExprPtr e, ConvertExpr(item.expr, from_schema, ctes));
    FUSION_ASSIGN_OR_RAISE(e, Coerce(e, from_schema));
    FUSION_ASSIGN_OR_RAISE(e, SimplifyExpr(e));
    if (!item.alias.empty()) e = AliasExpr(e, item.alias);
    select_exprs.push_back(std::move(e));
  }

  // HAVING (may contain aggregates).
  ExprPtr having;
  if (core.having != nullptr) {
    FUSION_ASSIGN_OR_RAISE(having, ConvertExpr(core.having, from_schema, ctes));
    FUSION_ASSIGN_OR_RAISE(having, Coerce(having, from_schema));
  }

  // GROUP BY expressions (support ordinals and select aliases). A key
  // repeated in any spelling is kept once: two aggregate outputs of one
  // name would make the select's column lookups ambiguous. Column
  // references compare by the input field they resolve to, so `t.grp`
  // and `grp` are one key; other expressions by their printed form.
  std::vector<ExprPtr> group_exprs;
  auto same_key = [&from_schema](const Expr& a, const Expr& b) {
    if (a.kind == Expr::Kind::kColumn && b.kind == Expr::Kind::kColumn) {
      auto ia = from_schema.IndexOf(a.qualifier, a.name);
      auto ib = from_schema.IndexOf(b.qualifier, b.name);
      if (ia.ok() && ib.ok()) return *ia == *ib;
    }
    return a.Equals(b);
  };
  auto add_group = [&group_exprs, &same_key](ExprPtr e) {
    for (const auto& prev : group_exprs) {
      if (same_key(*prev, *e)) return;
    }
    group_exprs.push_back(std::move(e));
  };
  for (const auto& g : core.group_by) {
    if (g->kind == sql::AstExpr::Kind::kNumber) {
      int64_t ordinal = 0;
      std::from_chars(g->text.data(), g->text.data() + g->text.size(), ordinal);
      if (ordinal >= 1 && ordinal <= static_cast<int64_t>(select_exprs.size())) {
        add_group(Unalias(select_exprs[ordinal - 1]));
        continue;
      }
    }
    if (g->kind == sql::AstExpr::Kind::kColumn && g->qualifier.empty()) {
      // Alias reference?
      bool matched = false;
      if (!from_schema.IndexOf("", g->name).ok()) {
        for (const auto& se : select_exprs) {
          if (se->kind == Expr::Kind::kAlias && se->alias == g->name) {
            add_group(Unalias(se));
            matched = true;
            break;
          }
        }
      }
      if (matched) continue;
    }
    FUSION_ASSIGN_OR_RAISE(ExprPtr e, ConvertExpr(g, from_schema, ctes));
    FUSION_ASSIGN_OR_RAISE(e, Coerce(e, from_schema));
    add_group(std::move(e));
  }

  // Aggregation.
  std::vector<ExprPtr> aggregates;
  for (const auto& e : select_exprs) CollectAggregates(e, &aggregates);
  if (having != nullptr) CollectAggregates(having, &aggregates);

  if (!aggregates.empty() || !group_exprs.empty()) {
    FUSION_ASSIGN_OR_RAISE(plan, MakeAggregate(plan, group_exprs, aggregates));
    // Re-express select/having over the aggregate's output columns.
    std::vector<ExprPtr> sources = group_exprs;
    sources.insert(sources.end(), aggregates.begin(), aggregates.end());
    std::vector<std::string> names = OutputNames(sources);
    for (auto& e : select_exprs) {
      FUSION_ASSIGN_OR_RAISE(e, RewriteToColumns(e, sources, names));
      // Anything left referencing a non-grouped column is an error.
      std::vector<ExprPtr> cols;
      CollectColumns(e, &cols);
      for (const auto& c : cols) {
        if (!plan->schema().IndexOf(c->qualifier, c->name).ok()) {
          return Status::PlanError("column '" + c->name +
                                   "' must appear in GROUP BY or an aggregate");
        }
      }
    }
    if (having != nullptr) {
      FUSION_ASSIGN_OR_RAISE(having, RewriteToColumns(having, sources, names));
      FUSION_ASSIGN_OR_RAISE(plan, MakeFilter(std::move(plan), having));
    }
  } else if (having != nullptr) {
    return Status::PlanError("HAVING requires GROUP BY or aggregates");
  }

  // Window functions (evaluated after aggregation).
  std::vector<ExprPtr> windows;
  for (const auto& e : select_exprs) CollectWindows(e, &windows);
  if (!windows.empty()) {
    FUSION_ASSIGN_OR_RAISE(plan, MakeWindow(plan, windows));
    std::vector<std::string> names = OutputNames(windows);
    for (auto& e : select_exprs) {
      FUSION_ASSIGN_OR_RAISE(e, RewriteToColumns(e, windows, names));
    }
  }

  FUSION_ASSIGN_OR_RAISE(plan, MakeProjection(std::move(plan), select_exprs));
  if (core.distinct) {
    FUSION_ASSIGN_OR_RAISE(plan, MakeDistinct(std::move(plan)));
  }
  return plan;
}

Result<ExprPtr> SqlPlanner::Coerce(ExprPtr expr, const PlanSchema& schema) {
  return TransformExpr(expr, [&](const ExprPtr& e) -> Result<ExprPtr> {
    // AND, OR and NOT take booleans: other operands are cast, so a
    // rewrite that keeps one operand (`true AND k` -> k) keeps the type.
    if (e->kind == Expr::Kind::kNot ||
        (e->kind == Expr::Kind::kBinary &&
         (e->op == BinaryOp::kAnd || e->op == BinaryOp::kOr))) {
      auto copy = std::make_shared<Expr>(*e);
      for (auto& c : copy->children) {
        FUSION_ASSIGN_OR_RAISE(DataType t, c->GetType(schema));
        if (!t.is_bool()) c = CastExpr(c, boolean());
      }
      return ExprPtr(copy);
    }
    if (e->kind != Expr::Kind::kBinary) return e;
    if (e->op == BinaryOp::kStringConcat) return e;
    FUSION_ASSIGN_OR_RAISE(DataType lt, e->children[0]->GetType(schema));
    FUSION_ASSIGN_OR_RAISE(DataType rt, e->children[1]->GetType(schema));
    if (lt == rt) return e;
    // Temporal +/- integer (date math) keeps operands as-is, and so does
    // arithmetic with NULL, which is NULL.
    if (IsArithmeticOp(e->op) && (lt.is_temporal() || rt.is_temporal() ||
                                  lt.is_null() || rt.is_null())) {
      return e;
    }
    if (IsArithmeticOp(e->op) && (lt.is_decimal() || rt.is_decimal())) {
      // Decimal arithmetic must NOT rescale decimal operands: the kernel
      // propagates (precision, scale) itself (multiplication adds scales,
      // so forcing a common scale up front would be wrong). Only the
      // non-decimal side is coerced.
      if (lt.is_decimal() && rt.is_decimal()) return e;
      const int dec_idx = lt.is_decimal() ? 0 : 1;
      const int other_idx = 1 - dec_idx;
      const DataType dec = dec_idx == 0 ? lt : rt;
      const DataType other = dec_idx == 0 ? rt : lt;
      auto copy = std::make_shared<Expr>(*e);
      if (other.is_floating()) {
        // Doubles pull the expression into the approximate domain.
        copy->children[dec_idx] = CastExpr(copy->children[dec_idx], float64());
      } else if (other.is_integer()) {
        const int digits = other.id() == TypeId::kInt64 ? 19 : 10;
        copy->children[other_idx] =
            CastExpr(copy->children[other_idx],
                     decimal128(std::min<int>(kDecimalMaxPrecision, digits), 0));
      } else if (other.is_string()) {
        copy->children[other_idx] = CastExpr(copy->children[other_idx], dec);
      } else {
        return Status::TypeError("no arithmetic between " + lt.ToString() +
                                 " and " + rt.ToString());
      }
      return ExprPtr(copy);
    }
    FUSION_ASSIGN_OR_RAISE(DataType common, compute::CommonType(lt, rt));
    auto copy = std::make_shared<Expr>(*e);
    if (lt != common) copy->children[0] = CastExpr(copy->children[0], common);
    if (rt != common) copy->children[1] = CastExpr(copy->children[1], common);
    return ExprPtr(copy);
  });
}

Result<ExprPtr> SqlPlanner::ConvertExpr(const sql::AstExprPtr& ast,
                                        const PlanSchema& schema,
                                        const CteScope& ctes) {
  using K = sql::AstExpr::Kind;
  switch (ast->kind) {
    case K::kColumn: {
      // Resolve now and store the schema's canonical (case-preserving)
      // column name so downstream rules match field names exactly.
      FUSION_ASSIGN_OR_RAISE(int idx, schema.IndexOf(ast->qualifier, ast->name));
      std::string qualifier = ast->qualifier;
      if (!qualifier.empty()) qualifier = schema.qualifier(idx);
      return Col(std::move(qualifier), schema.field(idx).name());
    }
    case K::kNumber: {
      // Integral literals become int64; others float64.
      if (ast->text.find('.') == std::string::npos &&
          ast->text.find('e') == std::string::npos &&
          ast->text.find('E') == std::string::npos) {
        int64_t v = 0;
        auto res = std::from_chars(ast->text.data(),
                                   ast->text.data() + ast->text.size(), v);
        if (res.ec == std::errc()) return Lit(v);
      }
      return Lit(std::strtod(ast->text.c_str(), nullptr));
    }
    case K::kString:
      return Lit(ast->text);
    case K::kBool:
      return Lit(Scalar::Bool(ast->bool_value));
    case K::kNull:
      return Lit(Scalar());
    case K::kDate: {
      FUSION_ASSIGN_OR_RAISE(int32_t days, compute::ParseDate32(ast->text));
      return Lit(Scalar::Date32(days));
    }
    case K::kTimestampLit: {
      FUSION_ASSIGN_OR_RAISE(int64_t micros, compute::ParseTimestamp(ast->text));
      return Lit(Scalar::Timestamp(micros));
    }
    case K::kInterval:
      return Status::PlanError(
          "INTERVAL literals are only supported in +/- expressions with "
          "constant temporal operands");
    case K::kStar:
      return Status::PlanError("'*' is only valid in COUNT(*)");
    case K::kBinary: {
      // date/timestamp +/- INTERVAL folds at plan time.
      if (ast->right != nullptr && ast->right->kind == K::kInterval &&
          (ast->op == "+" || ast->op == "-")) {
        FUSION_ASSIGN_OR_RAISE(ExprPtr left, ConvertExpr(ast->left, schema, ctes));
        if (!IsConstant(left)) {
          return Status::NotImplemented(
              "INTERVAL arithmetic requires a constant temporal operand");
        }
        FUSION_ASSIGN_OR_RAISE(Scalar base, EvaluateConstantExpr(left));
        FUSION_ASSIGN_OR_RAISE(
            Scalar shifted,
            AddInterval(base, ast->right->interval_months, ast->right->interval_days,
                        ast->op == "-"));
        return Lit(std::move(shifted));
      }
      FUSION_ASSIGN_OR_RAISE(ExprPtr left, ConvertExpr(ast->left, schema, ctes));
      FUSION_ASSIGN_OR_RAISE(ExprPtr right, ConvertExpr(ast->right, schema, ctes));
      FUSION_ASSIGN_OR_RAISE(BinaryOp op, BinaryOpFromText(ast->op));
      return Binary(std::move(left), op, std::move(right));
    }
    case K::kUnary: {
      FUSION_ASSIGN_OR_RAISE(ExprPtr child, ConvertExpr(ast->left, schema, ctes));
      if (ast->op == "NOT") return Not(std::move(child));
      auto e = std::make_shared<Expr>();
      e->kind = Expr::Kind::kNegative;
      e->children = {std::move(child)};
      return ExprPtr(e);
    }
    case K::kIsNull: {
      FUSION_ASSIGN_OR_RAISE(ExprPtr child, ConvertExpr(ast->left, schema, ctes));
      return ast->negated ? IsNotNullExpr(std::move(child))
                          : IsNullExpr(std::move(child));
    }
    case K::kBetween: {
      FUSION_ASSIGN_OR_RAISE(ExprPtr value, ConvertExpr(ast->left, schema, ctes));
      FUSION_ASSIGN_OR_RAISE(ExprPtr low, ConvertExpr(ast->low, schema, ctes));
      FUSION_ASSIGN_OR_RAISE(ExprPtr high, ConvertExpr(ast->high, schema, ctes));
      ExprPtr range = And(Binary(value, BinaryOp::kGtEq, std::move(low)),
                          Binary(value, BinaryOp::kLtEq, std::move(high)));
      return ast->negated ? Not(std::move(range)) : range;
    }
    case K::kInList: {
      FUSION_ASSIGN_OR_RAISE(ExprPtr value, ConvertExpr(ast->left, schema, ctes));
      std::vector<ExprPtr> list;
      for (const auto& item : ast->list) {
        FUSION_ASSIGN_OR_RAISE(ExprPtr e, ConvertExpr(item, schema, ctes));
        list.push_back(std::move(e));
      }
      return InListExpr(std::move(value), std::move(list), ast->negated);
    }
    case K::kInSubquery:
      return Status::NotImplemented(
          "IN (subquery) is only supported as a top-level WHERE conjunct");
    case K::kExists:
      return Status::NotImplemented(
          "EXISTS subqueries are not supported; rewrite as a join");
    case K::kLike: {
      FUSION_ASSIGN_OR_RAISE(ExprPtr value, ConvertExpr(ast->left, schema, ctes));
      FUSION_ASSIGN_OR_RAISE(ExprPtr pattern, ConvertExpr(ast->right, schema, ctes));
      return LikeExpr(std::move(value), std::move(pattern), ast->negated,
                      ast->case_insensitive);
    }
    case K::kCase: {
      std::vector<std::pair<ExprPtr, ExprPtr>> when_then;
      ExprPtr operand;
      if (ast->case_operand != nullptr) {
        FUSION_ASSIGN_OR_RAISE(operand, ConvertExpr(ast->case_operand, schema, ctes));
      }
      for (const auto& [when_ast, then_ast] : ast->when_clauses) {
        FUSION_ASSIGN_OR_RAISE(ExprPtr when, ConvertExpr(when_ast, schema, ctes));
        FUSION_ASSIGN_OR_RAISE(ExprPtr then, ConvertExpr(then_ast, schema, ctes));
        if (operand != nullptr) {
          // CASE x WHEN v ... desugars to CASE WHEN x = v ...
          when = Binary(operand, BinaryOp::kEq, std::move(when));
        }
        when_then.emplace_back(std::move(when), std::move(then));
      }
      ExprPtr else_expr;
      if (ast->else_expr != nullptr) {
        FUSION_ASSIGN_OR_RAISE(else_expr, ConvertExpr(ast->else_expr, schema, ctes));
      }
      return CaseExpr(std::move(when_then), std::move(else_expr));
    }
    case K::kCast: {
      FUSION_ASSIGN_OR_RAISE(DataType type, TypeFromSqlName(ast->cast_type));
      if (type.is_decimal()) {
        // Exact decimal literal: CAST(1.23 AS DECIMAL(p,s)) parses the
        // literal text directly instead of routing through a double.
        const sql::AstExpr* lit = ast->left.get();
        bool negated = false;
        if (lit->kind == K::kUnary && lit->op == "-" && lit->left != nullptr &&
            lit->left->kind == K::kNumber) {
          negated = true;
          lit = lit->left.get();
        }
        if (lit->kind == K::kNumber) {
          Decimal128 v;
          if (DecimalFromString(lit->text, type.precision(), type.scale(), &v)) {
            return Lit(Scalar::Decimal(negated ? -v : v, type));
          }
          return Status::PlanError("decimal literal '" + lit->text +
                                   "' does not fit " + type.ToString());
        }
      }
      FUSION_ASSIGN_OR_RAISE(ExprPtr child, ConvertExpr(ast->left, schema, ctes));
      return CastExpr(std::move(child), type);
    }
    case K::kScalarSubquery: {
      FUSION_ASSIGN_OR_RAISE(PlanPtr sub, PlanQuery(*ast->subquery, ctes));
      if (sub->schema().num_fields() != 1) {
        return Status::PlanError("scalar subquery must produce one column");
      }
      auto e = std::make_shared<Expr>();
      e->kind = Expr::Kind::kScalarSubquery;
      e->cast_type = sub->schema().field(0).type();
      e->subquery_plan = std::static_pointer_cast<void>(sub);
      return ExprPtr(e);
    }
    case K::kFunction: {
      // Window invocation?
      if (ast->window != nullptr) {
        FUSION_ASSIGN_OR_RAISE(auto fn, registry_->GetWindow(ast->func_name));
        std::vector<ExprPtr> args;
        for (const auto& arg : ast->args) {
          if (arg->kind == K::kStar) continue;  // count(*) over(...)
          FUSION_ASSIGN_OR_RAISE(ExprPtr e, ConvertExpr(arg, schema, ctes));
          args.push_back(std::move(e));
        }
        auto spec = std::make_shared<WindowSpecExpr>();
        for (const auto& p : ast->window->partition_by) {
          FUSION_ASSIGN_OR_RAISE(ExprPtr e, ConvertExpr(p, schema, ctes));
          spec->partition_by.push_back(std::move(e));
        }
        for (const auto& o : ast->window->order_by) {
          SortExpr se;
          FUSION_ASSIGN_OR_RAISE(se.expr, ConvertExpr(o.expr, schema, ctes));
          se.options.descending = o.descending;
          se.options.nulls_first = o.nulls_specified ? o.nulls_first : o.descending;
          spec->order_by.push_back(std::move(se));
        }
        spec->frame = ConvertFrame(*ast->window);
        spec->has_explicit_frame = ast->window->has_frame;
        return WindowCall(std::move(fn), std::move(args), std::move(spec));
      }
      // Aggregate?
      std::string name = ast->func_name;
      if (registry_->HasAggregate(name) ||
          (name == "count" && ast->distinct)) {
        if (ast->distinct) {
          if (name != "count") {
            return Status::NotImplemented("DISTINCT is only supported for count()");
          }
          name = "count_distinct";
        }
        FUSION_ASSIGN_OR_RAISE(auto fn, registry_->GetAggregate(name));
        std::vector<ExprPtr> args;
        for (const auto& arg : ast->args) {
          if (arg->kind == K::kStar) continue;  // count(*)
          FUSION_ASSIGN_OR_RAISE(ExprPtr e, ConvertExpr(arg, schema, ctes));
          args.push_back(std::move(e));
        }
        ExprPtr filter;
        if (ast->filter != nullptr) {
          FUSION_ASSIGN_OR_RAISE(filter, ConvertExpr(ast->filter, schema, ctes));
        }
        // Aggregates accumulate over the common numeric domain; widen
        // int32 inputs where the accumulator expects it is handled by
        // the accumulators themselves.
        return AggregateCall(std::move(fn), std::move(args), ast->distinct,
                             std::move(filter));
      }
      // Scalar function.
      FUSION_ASSIGN_OR_RAISE(auto fn, registry_->GetScalar(ast->func_name));
      std::vector<ExprPtr> args;
      for (const auto& arg : ast->args) {
        FUSION_ASSIGN_OR_RAISE(ExprPtr e, ConvertExpr(arg, schema, ctes));
        args.push_back(std::move(e));
      }
      return FunctionCall(std::move(fn), std::move(args));
    }
  }
  return Status::Internal("unhandled AST expression kind");
}

}  // namespace logical
}  // namespace fusion
