#include "logical/simplify.h"

#include "logical/expr_eval.h"

namespace fusion {
namespace logical {

namespace {

bool IsTrueLiteral(const ExprPtr& e) {
  return e->kind == Expr::Kind::kLiteral && !e->literal.is_null() &&
         e->literal.type().is_bool() && e->literal.bool_value();
}

bool IsFalseLiteral(const ExprPtr& e) {
  return e->kind == Expr::Kind::kLiteral && !e->literal.is_null() &&
         e->literal.type().is_bool() && !e->literal.bool_value();
}

Result<ExprPtr> SimplifyNode(const ExprPtr& expr) {
  // Fold any fully-constant, non-trivial subtree (a cast of a literal
  // too) to a literal.
  if (expr->kind != Expr::Kind::kLiteral && expr->kind != Expr::Kind::kAlias &&
      IsConstant(expr)) {
    auto value = EvaluateConstantExpr(expr);
    if (value.ok()) return Lit(std::move(*value));
    // It fails as a column would: leave it to fail at run time, with no
    // rewrite below (`'abc' AND true` is not 'abc').
    return expr;
  }
  switch (expr->kind) {
    case Expr::Kind::kBinary:
      if (expr->op == BinaryOp::kAnd) {
        if (IsTrueLiteral(expr->children[0])) return expr->children[1];
        if (IsTrueLiteral(expr->children[1])) return expr->children[0];
        if (IsFalseLiteral(expr->children[0]) || IsFalseLiteral(expr->children[1])) {
          return Lit(Scalar::Bool(false));
        }
      } else if (expr->op == BinaryOp::kOr) {
        if (IsFalseLiteral(expr->children[0])) return expr->children[1];
        if (IsFalseLiteral(expr->children[1])) return expr->children[0];
        if (IsTrueLiteral(expr->children[0]) || IsTrueLiteral(expr->children[1])) {
          return Lit(Scalar::Bool(true));
        }
      }
      break;
    case Expr::Kind::kNot:
      if (expr->children[0]->kind == Expr::Kind::kNot) {
        return expr->children[0]->children[0];
      }
      if (IsTrueLiteral(expr->children[0])) return Lit(Scalar::Bool(false));
      if (IsFalseLiteral(expr->children[0])) return Lit(Scalar::Bool(true));
      break;
    default:
      break;
  }
  return expr;
}

}  // namespace

Result<ExprPtr> SimplifyExpr(const ExprPtr& expr) {
  return TransformExpr(expr, SimplifyNode);
}

}  // namespace logical
}  // namespace fusion
