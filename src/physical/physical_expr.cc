#include "physical/physical_expr.h"

#include "arrow/builder.h"
#include "compute/arithmetic.h"
#include "compute/boolean.h"
#include "compute/cast.h"
#include "compute/compare.h"
#include "compute/kernel_util.h"
#include "logical/expr_eval.h"

namespace fusion {
namespace physical {

namespace {

using logical::BinaryOp;
using logical::Expr;
using logical::ExprPtr;

class LiteralExpr : public PhysicalExpr {
 public:
  explicit LiteralExpr(Scalar value) : value_(std::move(value)) {}

  DataType type() const override { return value_.type(); }
  Result<ColumnarValue> Evaluate(const RecordBatch&) const override {
    return ColumnarValue(value_);
  }
  std::string ToString() const override { return value_.ToString(); }

 private:
  Scalar value_;
};

class BinaryExpr : public PhysicalExpr {
 public:
  BinaryExpr(BinaryOp op, PhysicalExprPtr left, PhysicalExprPtr right, DataType type)
      : op_(op), left_(std::move(left)), right_(std::move(right)), type_(type) {}

  DataType type() const override { return type_; }

  Result<ColumnarValue> Evaluate(const RecordBatch& batch) const override {
    FUSION_ASSIGN_OR_RAISE(ColumnarValue l, left_->Evaluate(batch));
    FUSION_ASSIGN_OR_RAISE(ColumnarValue r, right_->Evaluate(batch));
    // A NULL operand gives NULL. AND and OR never see one: the compiler
    // casts it to a boolean NULL for three-valued logic.
    if (l.type().is_null() || r.type().is_null()) {
      return ColumnarValue(Scalar::Null(type_));
    }
    if (l.is_scalar() && r.is_scalar()) {
      // Constant operands run the same kernels over one row, so a
      // folded constant and a column agree.
      FUSION_ASSIGN_OR_RAISE(auto la, l.ToArray(1));
      FUSION_ASSIGN_OR_RAISE(auto ra, r.ToArray(1));
      FUSION_ASSIGN_OR_RAISE(auto out, Apply(ColumnarValue(la), ColumnarValue(ra), 1));
      return ColumnarValue(Scalar::FromArray(*out, 0));
    }
    FUSION_ASSIGN_OR_RAISE(auto out, Apply(l, r, batch.num_rows()));
    return ColumnarValue(std::move(out));
  }

  std::string ToString() const override {
    return left_->ToString() + " " + logical::BinaryOpName(op_) + " " +
           right_->ToString();
  }

 private:
  /// The operator over operands of which at most one is a scalar.
  Result<ArrayPtr> Apply(const ColumnarValue& l, const ColumnarValue& r,
                         int64_t num_rows) const {
    switch (op_) {
      case BinaryOp::kAnd:
      case BinaryOp::kOr: {
        FUSION_ASSIGN_OR_RAISE(auto la, l.ToArray(num_rows));
        FUSION_ASSIGN_OR_RAISE(auto ra, r.ToArray(num_rows));
        return op_ == BinaryOp::kAnd ? compute::And(*la, *ra) : compute::Or(*la, *ra);
      }
      case BinaryOp::kEq:
      case BinaryOp::kNeq:
      case BinaryOp::kLt:
      case BinaryOp::kLtEq:
      case BinaryOp::kGt:
      case BinaryOp::kGtEq: {
        compute::CompareOp op;
        switch (op_) {
          case BinaryOp::kEq: op = compute::CompareOp::kEq; break;
          case BinaryOp::kNeq: op = compute::CompareOp::kNeq; break;
          case BinaryOp::kLt: op = compute::CompareOp::kLt; break;
          case BinaryOp::kLtEq: op = compute::CompareOp::kLtEq; break;
          case BinaryOp::kGt: op = compute::CompareOp::kGt; break;
          default: op = compute::CompareOp::kGtEq;
        }
        // Array-scalar fast path avoids materializing the literal.
        if (r.is_scalar()) return compute::CompareScalar(op, *l.array(), r.scalar());
        if (l.is_scalar()) {
          // flip: scalar op array -> array flipped-op scalar
          compute::CompareOp flipped;
          switch (op) {
            case compute::CompareOp::kLt: flipped = compute::CompareOp::kGt; break;
            case compute::CompareOp::kLtEq: flipped = compute::CompareOp::kGtEq; break;
            case compute::CompareOp::kGt: flipped = compute::CompareOp::kLt; break;
            case compute::CompareOp::kGtEq: flipped = compute::CompareOp::kLtEq; break;
            default: flipped = op;
          }
          return compute::CompareScalar(flipped, *r.array(), l.scalar());
        }
        return compute::Compare(op, *l.array(), *r.array());
      }
      case BinaryOp::kStringConcat: {
        FUSION_ASSIGN_OR_RAISE(auto la, l.ToArray(num_rows));
        FUSION_ASSIGN_OR_RAISE(auto ra, r.ToArray(num_rows));
        return compute::ConcatStrings(*la, *ra);
      }
      default: {
        compute::ArithmeticOp op;
        switch (op_) {
          case BinaryOp::kPlus: op = compute::ArithmeticOp::kAdd; break;
          case BinaryOp::kMinus: op = compute::ArithmeticOp::kSubtract; break;
          case BinaryOp::kMultiply: op = compute::ArithmeticOp::kMultiply; break;
          case BinaryOp::kDivide: op = compute::ArithmeticOp::kDivide; break;
          default: op = compute::ArithmeticOp::kModulo;
        }
        if (r.is_scalar()) return compute::ArithmeticScalar(op, *l.array(), r.scalar());
        if (l.is_scalar()) return compute::ScalarArithmetic(op, l.scalar(), *r.array());
        return compute::Arithmetic(op, *l.array(), *r.array());
      }
    }
  }

  BinaryOp op_;
  PhysicalExprPtr left_;
  PhysicalExprPtr right_;
  DataType type_;
};

class NotExpr : public PhysicalExpr {
 public:
  explicit NotExpr(PhysicalExprPtr child) : child_(std::move(child)) {}

  DataType type() const override { return boolean(); }
  Result<ColumnarValue> Evaluate(const RecordBatch& batch) const override {
    FUSION_ASSIGN_OR_RAISE(ColumnarValue v, child_->Evaluate(batch));
    FUSION_ASSIGN_OR_RAISE(auto arr, v.ToArray(batch.num_rows()));
    FUSION_ASSIGN_OR_RAISE(auto out, compute::Not(*arr));
    return ColumnarValue(std::move(out));
  }
  std::string ToString() const override { return "NOT " + child_->ToString(); }

 private:
  PhysicalExprPtr child_;
};

class NegativeExpr : public PhysicalExpr {
 public:
  NegativeExpr(PhysicalExprPtr child, DataType type)
      : child_(std::move(child)), type_(type) {}

  DataType type() const override { return type_; }
  Result<ColumnarValue> Evaluate(const RecordBatch& batch) const override {
    FUSION_ASSIGN_OR_RAISE(ColumnarValue v, child_->Evaluate(batch));
    FUSION_ASSIGN_OR_RAISE(auto arr, v.ToArray(batch.num_rows()));
    FUSION_ASSIGN_OR_RAISE(auto out, compute::Negate(*arr));
    return ColumnarValue(std::move(out));
  }
  std::string ToString() const override { return "(- " + child_->ToString() + ")"; }

 private:
  PhysicalExprPtr child_;
  DataType type_;
};

class IsNullPhysExpr : public PhysicalExpr {
 public:
  IsNullPhysExpr(PhysicalExprPtr child, bool negated)
      : child_(std::move(child)), negated_(negated) {}

  DataType type() const override { return boolean(); }
  Result<ColumnarValue> Evaluate(const RecordBatch& batch) const override {
    FUSION_ASSIGN_OR_RAISE(ColumnarValue v, child_->Evaluate(batch));
    FUSION_ASSIGN_OR_RAISE(auto arr, v.ToArray(batch.num_rows()));
    return ColumnarValue(negated_ ? compute::IsNotNull(*arr)
                                  : compute::IsNull(*arr));
  }
  std::string ToString() const override {
    return child_->ToString() + (negated_ ? " IS NOT NULL" : " IS NULL");
  }

 private:
  PhysicalExprPtr child_;
  bool negated_;
};

class CastPhysExpr : public PhysicalExpr {
 public:
  CastPhysExpr(PhysicalExprPtr child, DataType target)
      : child_(std::move(child)), target_(target) {}

  DataType type() const override { return target_; }
  Result<ColumnarValue> Evaluate(const RecordBatch& batch) const override {
    FUSION_ASSIGN_OR_RAISE(ColumnarValue v, child_->Evaluate(batch));
    if (v.is_scalar()) {
      FUSION_ASSIGN_OR_RAISE(Scalar out, compute::CastScalar(v.scalar(), target_));
      return ColumnarValue(std::move(out));
    }
    FUSION_ASSIGN_OR_RAISE(auto out, compute::Cast(*v.array(), target_));
    return ColumnarValue(std::move(out));
  }
  std::string ToString() const override {
    return "CAST(" + child_->ToString() + " AS " + target_.ToString() + ")";
  }

 private:
  PhysicalExprPtr child_;
  DataType target_;
};

class InListPhysExpr : public PhysicalExpr {
 public:
  InListPhysExpr(PhysicalExprPtr child, std::vector<Scalar> values, bool negated)
      : child_(std::move(child)), values_(std::move(values)), negated_(negated) {}

  DataType type() const override { return boolean(); }
  Result<ColumnarValue> Evaluate(const RecordBatch& batch) const override {
    FUSION_ASSIGN_OR_RAISE(ColumnarValue v, child_->Evaluate(batch));
    FUSION_ASSIGN_OR_RAISE(auto arr, v.ToArray(batch.num_rows()));
    FUSION_ASSIGN_OR_RAISE(auto mask, compute::InList(*arr, values_));
    if (!negated_) return ColumnarValue(std::move(mask));
    FUSION_ASSIGN_OR_RAISE(auto inverted, compute::Not(*mask));
    return ColumnarValue(std::move(inverted));
  }
  std::string ToString() const override {
    return child_->ToString() + (negated_ ? " NOT IN (...)" : " IN (...)");
  }

 private:
  PhysicalExprPtr child_;
  std::vector<Scalar> values_;
  bool negated_;
};

class LikePhysExpr : public PhysicalExpr {
 public:
  LikePhysExpr(PhysicalExprPtr child, std::string pattern, bool negated,
               bool case_insensitive)
      : child_(std::move(child)), matcher_(std::move(pattern), case_insensitive),
        negated_(negated) {}

  DataType type() const override { return boolean(); }
  Result<ColumnarValue> Evaluate(const RecordBatch& batch) const override {
    FUSION_ASSIGN_OR_RAISE(ColumnarValue v, child_->Evaluate(batch));
    FUSION_ASSIGN_OR_RAISE(auto arr, v.ToArray(batch.num_rows()));
    FUSION_ASSIGN_OR_RAISE(auto out, compute::Like(*arr, matcher_, negated_));
    return ColumnarValue(std::move(out));
  }
  std::string ToString() const override {
    return child_->ToString() + (negated_ ? " NOT LIKE '" : " LIKE '") +
           matcher_.pattern() + "'";
  }

 private:
  PhysicalExprPtr child_;
  compute::LikeMatcher matcher_;
  bool negated_;
};

class CasePhysExpr : public PhysicalExpr {
 public:
  CasePhysExpr(std::vector<std::pair<PhysicalExprPtr, PhysicalExprPtr>> when_then,
               PhysicalExprPtr else_expr, DataType type)
      : when_then_(std::move(when_then)), else_expr_(std::move(else_expr)),
        type_(type) {}

  DataType type() const override { return type_; }

  Result<ColumnarValue> Evaluate(const RecordBatch& batch) const override {
    // Every branch is NULL.
    if (type_.is_null()) return ColumnarValue(Scalar());
    const int64_t n = batch.num_rows();
    FUSION_ASSIGN_OR_RAISE(auto builder, MakeBuilder(type_));
    builder->Reserve(n);
    // Evaluate all branches once (columnar), then select per row.
    std::vector<ArrayPtr> conditions;
    std::vector<ArrayPtr> values;
    for (const auto& [when, then] : when_then_) {
      FUSION_ASSIGN_OR_RAISE(ColumnarValue c, when->Evaluate(batch));
      FUSION_ASSIGN_OR_RAISE(auto ca, c.ToArray(n));
      conditions.push_back(std::move(ca));
      FUSION_ASSIGN_OR_RAISE(ColumnarValue v, then->Evaluate(batch));
      FUSION_ASSIGN_OR_RAISE(auto va, v.ToArray(n));
      FUSION_ASSIGN_OR_RAISE(va, compute::Cast(*va, type_));
      values.push_back(std::move(va));
    }
    ArrayPtr else_values;
    if (else_expr_ != nullptr) {
      FUSION_ASSIGN_OR_RAISE(ColumnarValue v, else_expr_->Evaluate(batch));
      FUSION_ASSIGN_OR_RAISE(else_values, v.ToArray(n));
      FUSION_ASSIGN_OR_RAISE(else_values, compute::Cast(*else_values, type_));
    }
    for (int64_t i = 0; i < n; ++i) {
      bool done = false;
      for (size_t b = 0; b < conditions.size(); ++b) {
        const auto& cond = checked_cast<BooleanArray>(*conditions[b]);
        if (cond.IsValid(i) && cond.Value(i)) {
          builder->AppendFrom(*values[b], i);
          done = true;
          break;
        }
      }
      if (!done) {
        if (else_values != nullptr) {
          builder->AppendFrom(*else_values, i);
        } else {
          builder->AppendNull();
        }
      }
    }
    FUSION_ASSIGN_OR_RAISE(auto out, builder->Finish());
    return ColumnarValue(std::move(out));
  }

  std::string ToString() const override { return "CASE ... END"; }

 private:
  std::vector<std::pair<PhysicalExprPtr, PhysicalExprPtr>> when_then_;
  PhysicalExprPtr else_expr_;
  DataType type_;
};

class ScalarFunctionPhysExpr : public PhysicalExpr {
 public:
  ScalarFunctionPhysExpr(logical::ScalarFunctionPtr fn,
                         std::vector<PhysicalExprPtr> args, DataType type)
      : fn_(std::move(fn)), args_(std::move(args)), type_(type) {}

  DataType type() const override { return type_; }

  Result<ColumnarValue> Evaluate(const RecordBatch& batch) const override {
    std::vector<ColumnarValue> arg_values;
    arg_values.reserve(args_.size());
    for (const auto& arg : args_) {
      FUSION_ASSIGN_OR_RAISE(ColumnarValue v, arg->Evaluate(batch));
      arg_values.push_back(std::move(v));
    }
    return fn_->impl(arg_values, batch.num_rows());
  }

  std::string ToString() const override { return fn_->name + "(...)"; }

 private:
  logical::ScalarFunctionPtr fn_;
  std::vector<PhysicalExprPtr> args_;
  DataType type_;
};

}  // namespace

PhysicalExprPtr MakeCastExpr(PhysicalExprPtr child, DataType target) {
  return std::make_shared<CastPhysExpr>(std::move(child), target);
}

namespace {

/// A condition or logical operand as a boolean (NULL, or a number true
/// when nonzero).
PhysicalExprPtr AsBoolean(PhysicalExprPtr expr) {
  if (expr->type().is_bool()) return expr;
  return MakeCastExpr(std::move(expr), boolean());
}

}  // namespace

Result<PhysicalExprPtr> CreatePhysicalExpr(const ExprPtr& expr,
                                           const logical::PlanSchema& input) {
  switch (expr->kind) {
    case Expr::Kind::kColumn: {
      FUSION_ASSIGN_OR_RAISE(int idx, input.IndexOf(expr->qualifier, expr->name));
      return PhysicalExprPtr(std::make_shared<ColumnExpr>(
          expr->name, idx, input.field(idx).type()));
    }
    case Expr::Kind::kLiteral:
      return PhysicalExprPtr(std::make_shared<LiteralExpr>(expr->literal));
    case Expr::Kind::kAlias:
      return CreatePhysicalExpr(expr->children[0], input);
    case Expr::Kind::kBinary: {
      FUSION_ASSIGN_OR_RAISE(auto left, CreatePhysicalExpr(expr->children[0], input));
      FUSION_ASSIGN_OR_RAISE(auto right, CreatePhysicalExpr(expr->children[1], input));
      FUSION_ASSIGN_OR_RAISE(DataType type, expr->GetType(input));
      // Insert implicit casts so kernel operand types match. A NULL
      // operand needs none: the result is NULL.
      const bool null_operand = left->type().is_null() || right->type().is_null();
      if (expr->op == BinaryOp::kAnd || expr->op == BinaryOp::kOr) {
        // Three-valued logic on booleans: a NULL operand is a boolean
        // NULL, a number is true when nonzero.
        left = AsBoolean(std::move(left));
        right = AsBoolean(std::move(right));
      } else if (expr->op == BinaryOp::kStringConcat && !null_operand) {
        if (!left->type().is_string_like()) left = MakeCastExpr(std::move(left), utf8());
        if (!right->type().is_string_like()) right = MakeCastExpr(std::move(right), utf8());
      } else if (logical::IsArithmeticOp(expr->op) && type.is_temporal() &&
                 !null_operand) {
        // date ± n and timestamp ± n add n days, as does n + date: the
        // integer becomes a day offset of the temporal type.
        const bool days_left = !left->type().is_temporal();
        PhysicalExprPtr& days = days_left ? left : right;
        if (!days->type().is_integer() ||
            !(expr->op == BinaryOp::kPlus ||
              (expr->op == BinaryOp::kMinus && !days_left))) {
          return Status::TypeError("unsupported temporal arithmetic: " +
                                   expr->ToString());
        }
        days = MakeCastExpr(std::move(days), date32());
        if (type.id() == TypeId::kTimestamp) {
          days = MakeCastExpr(std::move(days), timestamp());
        }
      } else if (logical::IsArithmeticOp(expr->op) && !type.is_decimal() &&
                 !null_operand) {
        // Decimal arithmetic is exempt: the kernel consumes operands at
        // their own scales (multiplication's result scale is s1+s2,
        // which neither operand can be cast to without changing the
        // value).
        if (left->type() != type) left = MakeCastExpr(std::move(left), type);
        if (right->type() != type) right = MakeCastExpr(std::move(right), type);
      } else if (logical::IsComparisonOp(expr->op) &&
                 left->type() != right->type()) {
        FUSION_ASSIGN_OR_RAISE(DataType common,
                               compute::CommonType(left->type(), right->type()));
        if (left->type() != common) {
          left = std::make_shared<CastPhysExpr>(std::move(left), common);
        }
        if (right->type() != common) {
          right = std::make_shared<CastPhysExpr>(std::move(right), common);
        }
      }
      return PhysicalExprPtr(std::make_shared<BinaryExpr>(
          expr->op, std::move(left), std::move(right), type));
    }
    case Expr::Kind::kNot: {
      FUSION_ASSIGN_OR_RAISE(auto child, CreatePhysicalExpr(expr->children[0], input));
      return PhysicalExprPtr(std::make_shared<NotExpr>(AsBoolean(std::move(child))));
    }
    case Expr::Kind::kNegative: {
      FUSION_ASSIGN_OR_RAISE(auto child, CreatePhysicalExpr(expr->children[0], input));
      DataType type = child->type();
      return PhysicalExprPtr(
          std::make_shared<NegativeExpr>(std::move(child), type));
    }
    case Expr::Kind::kIsNull: {
      FUSION_ASSIGN_OR_RAISE(auto child, CreatePhysicalExpr(expr->children[0], input));
      return PhysicalExprPtr(std::make_shared<IsNullPhysExpr>(std::move(child),
                                                              false));
    }
    case Expr::Kind::kIsNotNull: {
      FUSION_ASSIGN_OR_RAISE(auto child, CreatePhysicalExpr(expr->children[0], input));
      return PhysicalExprPtr(std::make_shared<IsNullPhysExpr>(std::move(child),
                                                              true));
    }
    case Expr::Kind::kCast: {
      FUSION_ASSIGN_OR_RAISE(auto child, CreatePhysicalExpr(expr->children[0], input));
      return PhysicalExprPtr(
          std::make_shared<CastPhysExpr>(std::move(child), expr->cast_type));
    }
    case Expr::Kind::kInList: {
      FUSION_ASSIGN_OR_RAISE(auto child, CreatePhysicalExpr(expr->children[0], input));
      std::vector<Scalar> values;
      for (size_t i = 1; i < expr->children.size(); ++i) {
        FUSION_ASSIGN_OR_RAISE(Scalar v,
                               logical::EvaluateConstantExpr(expr->children[i]));
        values.push_back(std::move(v));
      }
      return PhysicalExprPtr(std::make_shared<InListPhysExpr>(
          std::move(child), std::move(values), expr->negated));
    }
    case Expr::Kind::kLike: {
      FUSION_ASSIGN_OR_RAISE(auto child, CreatePhysicalExpr(expr->children[0], input));
      FUSION_ASSIGN_OR_RAISE(Scalar pattern,
                             logical::EvaluateConstantExpr(expr->children[1]));
      if (pattern.is_null()) {
        return PhysicalExprPtr(std::make_shared<LiteralExpr>(Scalar::Null(boolean())));
      }
      if (!pattern.type().is_string()) {
        return Status::NotImplemented("LIKE pattern must be a string literal");
      }
      return PhysicalExprPtr(std::make_shared<LikePhysExpr>(
          std::move(child), pattern.string_value(), expr->negated,
          expr->case_insensitive));
    }
    case Expr::Kind::kCase: {
      std::vector<std::pair<PhysicalExprPtr, PhysicalExprPtr>> when_then;
      size_t num_whens = expr->children.size() / 2;
      for (size_t i = 0; i < num_whens; ++i) {
        FUSION_ASSIGN_OR_RAISE(auto when,
                               CreatePhysicalExpr(expr->children[i * 2], input));
        when = AsBoolean(std::move(when));
        FUSION_ASSIGN_OR_RAISE(auto then,
                               CreatePhysicalExpr(expr->children[i * 2 + 1], input));
        when_then.emplace_back(std::move(when), std::move(then));
      }
      PhysicalExprPtr else_expr;
      if (expr->case_has_else) {
        FUSION_ASSIGN_OR_RAISE(else_expr,
                               CreatePhysicalExpr(expr->children.back(), input));
      }
      FUSION_ASSIGN_OR_RAISE(DataType type, expr->GetType(input));
      return PhysicalExprPtr(std::make_shared<CasePhysExpr>(
          std::move(when_then), std::move(else_expr), type));
    }
    case Expr::Kind::kScalarFunction: {
      std::vector<PhysicalExprPtr> args;
      for (const auto& arg : expr->children) {
        FUSION_ASSIGN_OR_RAISE(auto a, CreatePhysicalExpr(arg, input));
        args.push_back(std::move(a));
      }
      FUSION_ASSIGN_OR_RAISE(DataType type, expr->GetType(input));
      return PhysicalExprPtr(std::make_shared<ScalarFunctionPhysExpr>(
          expr->scalar_function, std::move(args), type));
    }
    case Expr::Kind::kAggregate:
      return Status::PlanError(
          "aggregate expression outside an Aggregate node: " + expr->ToString());
    case Expr::Kind::kWindow:
      return Status::PlanError("window expression outside a Window node: " +
                               expr->ToString());
    case Expr::Kind::kScalarSubquery:
      return Status::Internal(
          "scalar subquery should have been replaced during physical planning");
  }
  return Status::Internal("unhandled expr kind in CreatePhysicalExpr");
}

Result<std::vector<ArrayPtr>> EvaluateToArrays(
    const std::vector<PhysicalExprPtr>& exprs, const RecordBatch& batch) {
  std::vector<ArrayPtr> out;
  out.reserve(exprs.size());
  for (const auto& e : exprs) {
    FUSION_ASSIGN_OR_RAISE(ColumnarValue v, e->Evaluate(batch));
    FUSION_ASSIGN_OR_RAISE(auto arr, v.ToArray(batch.num_rows()));
    out.push_back(std::move(arr));
  }
  return out;
}

Result<ArrayPtr> EvaluatePredicateMask(const PhysicalExpr& predicate,
                                       const RecordBatch& batch) {
  FUSION_ASSIGN_OR_RAISE(ColumnarValue v, predicate.Evaluate(batch));
  FUSION_ASSIGN_OR_RAISE(auto arr, v.ToArray(batch.num_rows()));
  if (!arr->type().is_bool()) {
    return Status::ExecutionError("predicate did not evaluate to boolean");
  }
  return arr;
}

}  // namespace physical
}  // namespace fusion
