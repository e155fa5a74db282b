#include "logical/expr.h"

#include <cctype>
#include <sstream>

#include "compute/arithmetic.h"
#include "compute/cast.h"

namespace fusion {
namespace logical {

// ------------------------------------------------------------- PlanSchema

namespace {
bool EqualsIgnoreCase(const std::string& a, const std::string& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (std::tolower(static_cast<unsigned char>(a[i])) !=
        std::tolower(static_cast<unsigned char>(b[i]))) {
      return false;
    }
  }
  return true;
}
}  // namespace

Result<int> PlanSchema::IndexOf(const std::string& qualifier,
                                const std::string& name) const {
  // Exact match first; unquoted SQL identifiers arrive lower-cased, so
  // fall back to a case-insensitive pass (PostgreSQL-flavored lookup).
  for (int pass = 0; pass < 2; ++pass) {
    const bool ci = pass == 1;
    int found = -1;
    for (int i = 0; i < schema_->num_fields(); ++i) {
      const bool name_match = ci ? EqualsIgnoreCase(schema_->field(i).name(), name)
                                 : schema_->field(i).name() == name;
      if (!name_match) continue;
      if (!qualifier.empty()) {
        const bool qual_match = ci ? EqualsIgnoreCase(qualifiers_[i], qualifier)
                                   : qualifiers_[i] == qualifier;
        if (!qual_match) continue;
      }
      if (found >= 0) {
        if (qualifier.empty()) {
          return Status::PlanError("ambiguous column reference '" + name + "'");
        }
        // Same qualifier twice: take the first (self-join aliasing rules
        // are enforced at plan build time).
        continue;
      }
      found = i;
    }
    if (found >= 0) return found;
  }
  std::string full = qualifier.empty() ? name : qualifier + "." + name;
  return Status::PlanError("column '" + full + "' not found in schema [" +
                           ToString() + "]");
}

PlanSchema PlanSchema::Concat(const PlanSchema& right) const {
  std::vector<Field> fields = schema_->fields();
  for (const auto& f : right.schema_->fields()) fields.push_back(f);
  std::vector<std::string> quals = qualifiers_;
  quals.insert(quals.end(), right.qualifiers_.begin(), right.qualifiers_.end());
  return PlanSchema(std::make_shared<Schema>(std::move(fields)), std::move(quals));
}

PlanSchema PlanSchema::WithQualifier(const std::string& qualifier) const {
  std::vector<std::string> quals(qualifiers_.size(), qualifier);
  return PlanSchema(schema_, std::move(quals));
}

std::string PlanSchema::ToString() const {
  std::ostringstream out;
  for (int i = 0; i < num_fields(); ++i) {
    if (i > 0) out << ", ";
    if (!qualifiers_[i].empty()) out << qualifiers_[i] << ".";
    out << schema_->field(i).name() << ":" << schema_->field(i).type().ToString();
  }
  return out.str();
}

// ----------------------------------------------------------------- ops

const char* BinaryOpName(BinaryOp op) {
  switch (op) {
    case BinaryOp::kAnd: return "AND";
    case BinaryOp::kOr: return "OR";
    case BinaryOp::kEq: return "=";
    case BinaryOp::kNeq: return "!=";
    case BinaryOp::kLt: return "<";
    case BinaryOp::kLtEq: return "<=";
    case BinaryOp::kGt: return ">";
    case BinaryOp::kGtEq: return ">=";
    case BinaryOp::kPlus: return "+";
    case BinaryOp::kMinus: return "-";
    case BinaryOp::kMultiply: return "*";
    case BinaryOp::kDivide: return "/";
    case BinaryOp::kModulo: return "%";
    case BinaryOp::kStringConcat: return "||";
  }
  return "?";
}

bool IsComparisonOp(BinaryOp op) {
  switch (op) {
    case BinaryOp::kEq:
    case BinaryOp::kNeq:
    case BinaryOp::kLt:
    case BinaryOp::kLtEq:
    case BinaryOp::kGt:
    case BinaryOp::kGtEq:
      return true;
    default:
      return false;
  }
}

bool IsArithmeticOp(BinaryOp op) {
  switch (op) {
    case BinaryOp::kPlus:
    case BinaryOp::kMinus:
    case BinaryOp::kMultiply:
    case BinaryOp::kDivide:
    case BinaryOp::kModulo:
      return true;
    default:
      return false;
  }
}

// ----------------------------------------------------------------- types

Result<DataType> Expr::GetType(const PlanSchema& input) const {
  switch (kind) {
    case Kind::kColumn: {
      FUSION_ASSIGN_OR_RAISE(int idx, input.IndexOf(qualifier, name));
      return input.field(idx).type();
    }
    case Kind::kLiteral:
      return literal.type();
    case Kind::kBinary: {
      FUSION_ASSIGN_OR_RAISE(DataType lt, children[0]->GetType(input));
      FUSION_ASSIGN_OR_RAISE(DataType rt, children[1]->GetType(input));
      if (op == BinaryOp::kAnd || op == BinaryOp::kOr || IsComparisonOp(op)) {
        return boolean();
      }
      if (op == BinaryOp::kStringConcat) return utf8();
      // Date arithmetic keeps the temporal type.
      if (lt.is_temporal() || rt.is_temporal()) {
        return lt.is_temporal() ? lt : rt;
      }
      if (lt.is_decimal() && rt.is_decimal()) {
        // The kernel's scale-propagation rules, so the planned schema
        // matches what execution produces.
        compute::ArithmeticOp aop;
        switch (op) {
          case BinaryOp::kPlus: aop = compute::ArithmeticOp::kAdd; break;
          case BinaryOp::kMinus: aop = compute::ArithmeticOp::kSubtract; break;
          case BinaryOp::kMultiply: aop = compute::ArithmeticOp::kMultiply; break;
          case BinaryOp::kDivide: aop = compute::ArithmeticOp::kDivide; break;
          case BinaryOp::kModulo: aop = compute::ArithmeticOp::kModulo; break;
          default:
            return Status::Internal("unexpected decimal binary op");
        }
        return compute::DecimalBinaryResultType(aop, lt, rt);
      }
      return compute::CommonType(lt, rt);
    }
    case Kind::kNot:
    case Kind::kIsNull:
    case Kind::kIsNotNull:
    case Kind::kInList:
    case Kind::kLike:
      return boolean();
    case Kind::kNegative:
      return children[0]->GetType(input);
    case Kind::kCase: {
      // Type of the first THEN (coercion ran at plan time).
      size_t num_whens = children.size() / 2;
      for (size_t i = 0; i < num_whens; ++i) {
        FUSION_ASSIGN_OR_RAISE(DataType t, children[i * 2 + 1]->GetType(input));
        if (!t.is_null()) return t;
      }
      if (case_has_else) return children.back()->GetType(input);
      return null_type();
    }
    case Kind::kCast:
      return cast_type;
    case Kind::kScalarFunction: {
      std::vector<DataType> arg_types;
      for (const auto& arg : children) {
        FUSION_ASSIGN_OR_RAISE(DataType t, arg->GetType(input));
        arg_types.push_back(t);
      }
      return scalar_function->return_type(arg_types);
    }
    case Kind::kAggregate: {
      std::vector<DataType> arg_types;
      for (const auto& arg : children) {
        FUSION_ASSIGN_OR_RAISE(DataType t, arg->GetType(input));
        arg_types.push_back(t);
      }
      return aggregate_function->return_type(arg_types);
    }
    case Kind::kWindow: {
      std::vector<DataType> arg_types;
      for (const auto& arg : children) {
        FUSION_ASSIGN_OR_RAISE(DataType t, arg->GetType(input));
        arg_types.push_back(t);
      }
      return window_function->return_type(arg_types);
    }
    case Kind::kAlias:
      return children[0]->GetType(input);
    case Kind::kScalarSubquery:
      return cast_type;  // planner stores the subquery's output type here
  }
  return Status::Internal("unhandled expr kind in GetType");
}

Result<bool> Expr::Nullable(const PlanSchema& input) const {
  switch (kind) {
    case Kind::kColumn: {
      FUSION_ASSIGN_OR_RAISE(int idx, input.IndexOf(qualifier, name));
      return input.field(idx).nullable();
    }
    case Kind::kLiteral:
      return literal.is_null();
    case Kind::kIsNull:
    case Kind::kIsNotNull:
      return false;
    case Kind::kAlias:
    case Kind::kNegative:
      return children[0]->Nullable(input);
    default:
      return true;
  }
}

Result<Field> Expr::ToField(const PlanSchema& input) const {
  FUSION_ASSIGN_OR_RAISE(DataType type, GetType(input));
  FUSION_ASSIGN_OR_RAISE(bool nullable, Nullable(input));
  return Field(DisplayName(), type, nullable);
}

std::string Expr::DisplayName() const {
  switch (kind) {
    case Kind::kAlias:
      return alias;
    case Kind::kColumn:
      return name;
    default:
      return ToString();
  }
}

std::string Expr::ToString() const {
  std::ostringstream out;
  switch (kind) {
    case Kind::kColumn:
      if (!qualifier.empty()) out << qualifier << ".";
      out << name;
      break;
    case Kind::kLiteral:
      if (literal.type().is_string()) {
        out << "'" << literal.ToString() << "'";
      } else {
        out << literal.ToString();
      }
      break;
    case Kind::kBinary:
      out << children[0]->ToString() << " " << BinaryOpName(op) << " "
          << children[1]->ToString();
      break;
    case Kind::kNot:
      out << "NOT " << children[0]->ToString();
      break;
    case Kind::kNegative:
      out << "(- " << children[0]->ToString() << ")";
      break;
    case Kind::kIsNull:
      out << children[0]->ToString() << " IS NULL";
      break;
    case Kind::kIsNotNull:
      out << children[0]->ToString() << " IS NOT NULL";
      break;
    case Kind::kCase: {
      out << "CASE";
      size_t num_whens = children.size() / 2;
      for (size_t i = 0; i < num_whens; ++i) {
        out << " WHEN " << children[i * 2]->ToString() << " THEN "
            << children[i * 2 + 1]->ToString();
      }
      if (case_has_else) out << " ELSE " << children.back()->ToString();
      out << " END";
      break;
    }
    case Kind::kCast:
      out << "CAST(" << children[0]->ToString() << " AS " << cast_type.ToString()
          << ")";
      break;
    case Kind::kInList: {
      out << children[0]->ToString() << (negated ? " NOT IN (" : " IN (");
      for (size_t i = 1; i < children.size(); ++i) {
        if (i > 1) out << ", ";
        out << children[i]->ToString();
      }
      out << ")";
      break;
    }
    case Kind::kLike:
      out << children[0]->ToString() << (negated ? " NOT " : " ")
          << (case_insensitive ? "ILIKE " : "LIKE ") << children[1]->ToString();
      break;
    case Kind::kScalarFunction:
    case Kind::kAggregate:
    case Kind::kWindow: {
      out << function_name << "(";
      if (distinct) out << "DISTINCT ";
      if (children.empty() && kind == Kind::kAggregate) out << "*";
      for (size_t i = 0; i < children.size(); ++i) {
        if (i > 0) out << ", ";
        out << children[i]->ToString();
      }
      out << ")";
      if (filter != nullptr) out << " FILTER (WHERE " << filter->ToString() << ")";
      if (kind == Kind::kWindow && window_spec != nullptr) {
        out << " OVER (";
        if (!window_spec->partition_by.empty()) {
          out << "PARTITION BY ";
          for (size_t i = 0; i < window_spec->partition_by.size(); ++i) {
            if (i > 0) out << ", ";
            out << window_spec->partition_by[i]->ToString();
          }
        }
        if (!window_spec->order_by.empty()) {
          out << " ORDER BY ";
          for (size_t i = 0; i < window_spec->order_by.size(); ++i) {
            if (i > 0) out << ", ";
            const row::SortOptions& o = window_spec->order_by[i].options;
            out << window_spec->order_by[i].expr->ToString();
            if (o.descending) out << " DESC";
            if (o.nulls_first != o.descending) {
              out << (o.nulls_first ? " NULLS FIRST" : " NULLS LAST");
            }
          }
        }
        // The text names the expression: calls that differ only in their
        // frame must not read alike.
        if (window_spec->has_explicit_frame) {
          const WindowFrame& f = window_spec->frame;
          auto bound = [](WindowFrame::BoundKind kind, int64_t offset) -> std::string {
            switch (kind) {
              case WindowFrame::BoundKind::kUnboundedPreceding:
                return "UNBOUNDED PRECEDING";
              case WindowFrame::BoundKind::kPreceding:
                return std::to_string(offset) + " PRECEDING";
              case WindowFrame::BoundKind::kCurrentRow:
                return "CURRENT ROW";
              case WindowFrame::BoundKind::kFollowing:
                return std::to_string(offset) + " FOLLOWING";
              case WindowFrame::BoundKind::kUnboundedFollowing:
                return "UNBOUNDED FOLLOWING";
            }
            return "";
          };
          out << (f.is_rows ? " ROWS" : " RANGE") << " BETWEEN "
              << bound(f.start, f.start_offset) << " AND " << bound(f.end, f.end_offset);
        }
        out << ")";
      }
      break;
    }
    case Kind::kAlias:
      out << children[0]->ToString() << " AS " << alias;
      break;
    case Kind::kScalarSubquery:
      out << "(<subquery>)";
      break;
  }
  return out.str();
}

// --------------------------------------------------------- constructors

namespace {
ExprPtr MakeExpr(Expr::Kind kind) {
  auto e = std::make_shared<Expr>();
  e->kind = kind;
  return e;
}
}  // namespace

ExprPtr Col(std::string name) {
  auto e = MakeExpr(Expr::Kind::kColumn);
  e->name = std::move(name);
  return e;
}

ExprPtr Col(std::string qualifier, std::string name) {
  auto e = MakeExpr(Expr::Kind::kColumn);
  e->qualifier = std::move(qualifier);
  e->name = std::move(name);
  return e;
}

ExprPtr Lit(Scalar value) {
  auto e = MakeExpr(Expr::Kind::kLiteral);
  e->literal = std::move(value);
  return e;
}

ExprPtr Lit(int64_t value) { return Lit(Scalar::Int64(value)); }
ExprPtr Lit(double value) { return Lit(Scalar::Float64(value)); }
ExprPtr Lit(const std::string& value) { return Lit(Scalar::String(value)); }
ExprPtr Lit(const char* value) { return Lit(Scalar::String(value)); }

ExprPtr Binary(ExprPtr left, BinaryOp op, ExprPtr right) {
  auto e = MakeExpr(Expr::Kind::kBinary);
  e->op = op;
  e->children = {std::move(left), std::move(right)};
  return e;
}

ExprPtr Eq(ExprPtr l, ExprPtr r) { return Binary(std::move(l), BinaryOp::kEq, std::move(r)); }
ExprPtr And(ExprPtr l, ExprPtr r) {
  return Binary(std::move(l), BinaryOp::kAnd, std::move(r));
}
ExprPtr Or(ExprPtr l, ExprPtr r) {
  return Binary(std::move(l), BinaryOp::kOr, std::move(r));
}

ExprPtr Not(ExprPtr child) {
  auto e = MakeExpr(Expr::Kind::kNot);
  e->children = {std::move(child)};
  return e;
}

ExprPtr IsNullExpr(ExprPtr child) {
  auto e = MakeExpr(Expr::Kind::kIsNull);
  e->children = {std::move(child)};
  return e;
}

ExprPtr IsNotNullExpr(ExprPtr child) {
  auto e = MakeExpr(Expr::Kind::kIsNotNull);
  e->children = {std::move(child)};
  return e;
}

ExprPtr CastExpr(ExprPtr child, DataType type) {
  auto e = MakeExpr(Expr::Kind::kCast);
  e->children = {std::move(child)};
  e->cast_type = type;
  return e;
}

ExprPtr AliasExpr(ExprPtr child, std::string alias) {
  auto e = MakeExpr(Expr::Kind::kAlias);
  e->children = {std::move(child)};
  e->alias = std::move(alias);
  return e;
}

ExprPtr InListExpr(ExprPtr child, std::vector<ExprPtr> list, bool negated) {
  auto e = MakeExpr(Expr::Kind::kInList);
  e->children.push_back(std::move(child));
  for (auto& item : list) e->children.push_back(std::move(item));
  e->negated = negated;
  return e;
}

ExprPtr LikeExpr(ExprPtr child, ExprPtr pattern, bool negated,
                 bool case_insensitive) {
  auto e = MakeExpr(Expr::Kind::kLike);
  e->children = {std::move(child), std::move(pattern)};
  e->negated = negated;
  e->case_insensitive = case_insensitive;
  return e;
}

ExprPtr CaseExpr(std::vector<std::pair<ExprPtr, ExprPtr>> when_then,
                 ExprPtr else_expr) {
  auto e = MakeExpr(Expr::Kind::kCase);
  for (auto& [when, then] : when_then) {
    e->children.push_back(std::move(when));
    e->children.push_back(std::move(then));
  }
  if (else_expr != nullptr) {
    e->children.push_back(std::move(else_expr));
    e->case_has_else = true;
  }
  return e;
}

ExprPtr FunctionCall(ScalarFunctionPtr fn, std::vector<ExprPtr> args) {
  auto e = MakeExpr(Expr::Kind::kScalarFunction);
  e->function_name = fn->name;
  e->scalar_function = std::move(fn);
  e->children = std::move(args);
  return e;
}

ExprPtr AggregateCall(AggregateFunctionPtr fn, std::vector<ExprPtr> args,
                      bool distinct, ExprPtr filter) {
  auto e = MakeExpr(Expr::Kind::kAggregate);
  e->function_name = fn->name;
  e->aggregate_function = std::move(fn);
  e->children = std::move(args);
  e->distinct = distinct;
  e->filter = std::move(filter);
  return e;
}

ExprPtr WindowCall(WindowFunctionPtr fn, std::vector<ExprPtr> args,
                   std::shared_ptr<WindowSpecExpr> spec) {
  auto e = MakeExpr(Expr::Kind::kWindow);
  e->function_name = fn->name;
  e->window_function = std::move(fn);
  e->children = std::move(args);
  e->window_spec = std::move(spec);
  return e;
}

ExprPtr Conjunction(const std::vector<ExprPtr>& predicates) {
  ExprPtr out;
  for (const auto& p : predicates) {
    out = out == nullptr ? p : And(out, p);
  }
  return out;
}

void SplitConjunction(const ExprPtr& expr, std::vector<ExprPtr>* out) {
  if (expr == nullptr) return;
  if (expr->kind == Expr::Kind::kBinary && expr->op == BinaryOp::kAnd) {
    SplitConjunction(expr->children[0], out);
    SplitConjunction(expr->children[1], out);
    return;
  }
  out->push_back(expr);
}

const ExprPtr& Unalias(const ExprPtr& expr) {
  const ExprPtr* e = &expr;
  while ((*e)->kind == Expr::Kind::kAlias) {
    e = &(*e)->children[0];
  }
  return *e;
}

void VisitExpr(const ExprPtr& expr, const std::function<bool(const ExprPtr&)>& fn) {
  if (expr == nullptr) return;
  if (!fn(expr)) return;
  for (const auto& child : expr->children) VisitExpr(child, fn);
  if (expr->filter != nullptr) VisitExpr(expr->filter, fn);
  if (expr->window_spec != nullptr) {
    for (const auto& p : expr->window_spec->partition_by) VisitExpr(p, fn);
    for (const auto& o : expr->window_spec->order_by) VisitExpr(o.expr, fn);
  }
}

Result<ExprPtr> TransformExpr(
    const ExprPtr& expr,
    const std::function<Result<ExprPtr>(const ExprPtr&)>& fn) {
  if (expr == nullptr) return ExprPtr(nullptr);
  ExprPtr node = expr;
  bool changed = false;
  std::vector<ExprPtr> new_children;
  new_children.reserve(node->children.size());
  for (const auto& child : node->children) {
    FUSION_ASSIGN_OR_RAISE(auto nc, TransformExpr(child, fn));
    if (nc != child) changed = true;
    new_children.push_back(std::move(nc));
  }
  ExprPtr new_filter = node->filter;
  if (node->filter != nullptr) {
    FUSION_ASSIGN_OR_RAISE(new_filter, TransformExpr(node->filter, fn));
    if (new_filter != node->filter) changed = true;
  }
  std::shared_ptr<WindowSpecExpr> new_spec = node->window_spec;
  if (node->window_spec != nullptr) {
    auto spec = std::make_shared<WindowSpecExpr>(*node->window_spec);
    bool spec_changed = false;
    for (auto& p : spec->partition_by) {
      FUSION_ASSIGN_OR_RAISE(auto np, TransformExpr(p, fn));
      if (np != p) spec_changed = true;
      p = std::move(np);
    }
    for (auto& o : spec->order_by) {
      FUSION_ASSIGN_OR_RAISE(auto no, TransformExpr(o.expr, fn));
      if (no != o.expr) spec_changed = true;
      o.expr = std::move(no);
    }
    if (spec_changed) {
      new_spec = std::move(spec);
      changed = true;
    }
  }
  if (changed) {
    auto copy = std::make_shared<Expr>(*node);
    copy->children = std::move(new_children);
    copy->filter = std::move(new_filter);
    copy->window_spec = std::move(new_spec);
    node = std::move(copy);
  }
  return fn(node);
}

void CollectColumns(const ExprPtr& expr, std::vector<ExprPtr>* out) {
  VisitExpr(expr, [out](const ExprPtr& e) {
    if (e->kind == Expr::Kind::kColumn) {
      for (const auto& seen : *out) {
        if (seen->Equals(*e)) return true;
      }
      out->push_back(e);
    }
    return true;
  });
}

bool ContainsAggregate(const ExprPtr& expr) {
  bool found = false;
  VisitExpr(expr, [&](const ExprPtr& e) {
    if (e->kind == Expr::Kind::kAggregate) {
      found = true;
      return false;
    }
    // Do not descend into window specs' internals for aggregates; a
    // window over an aggregate still counts.
    return true;
  });
  return found;
}

bool ContainsWindow(const ExprPtr& expr) {
  bool found = false;
  VisitExpr(expr, [&](const ExprPtr& e) {
    if (e->kind == Expr::Kind::kWindow) {
      found = true;
      return false;
    }
    return true;
  });
  return found;
}

bool IsConstant(const ExprPtr& expr) {
  bool constant = true;
  VisitExpr(expr, [&](const ExprPtr& e) {
    switch (e->kind) {
      case Expr::Kind::kColumn:
      case Expr::Kind::kAggregate:
      case Expr::Kind::kWindow:
      case Expr::Kind::kScalarSubquery:
        constant = false;
        return false;
      default:
        return true;
    }
  });
  return constant;
}

ExprPtr CloneExpr(const ExprPtr& expr) {
  if (expr == nullptr) return nullptr;
  auto copy = std::make_shared<Expr>(*expr);
  for (auto& child : copy->children) child = CloneExpr(child);
  if (copy->filter != nullptr) copy->filter = CloneExpr(copy->filter);
  if (copy->window_spec != nullptr) {
    auto spec = std::make_shared<WindowSpecExpr>(*copy->window_spec);
    for (auto& p : spec->partition_by) p = CloneExpr(p);
    for (auto& o : spec->order_by) o.expr = CloneExpr(o.expr);
    copy->window_spec = std::move(spec);
  }
  return copy;
}

}  // namespace logical
}  // namespace fusion
