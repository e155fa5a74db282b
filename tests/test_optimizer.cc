// Tests for the logical optimizer rules: each rule's structural effect
// on the plan tree, plus end-to-end result invariance.

#include "tests/test_util.h"

#include <map>

#include "logical/simplify.h"
#include "optimizer/cardinality.h"
#include "optimizer/optimizer.h"
#include "optimizer/predicate_lowering.h"

namespace fusion {
namespace test {
namespace {

using logical::Expr;
using logical::ExprPtr;
using logical::PlanKind;
using logical::PlanPtr;

/// Count nodes of a kind in a plan tree.
int CountNodes(const PlanPtr& plan, PlanKind kind) {
  int count = plan->kind == kind ? 1 : 0;
  for (const auto& c : plan->children) count += CountNodes(c, kind);
  return count;
}

/// Find the first node of a kind (pre-order).
PlanPtr FindNode(const PlanPtr& plan, PlanKind kind) {
  if (plan->kind == kind) return plan;
  for (const auto& c : plan->children) {
    auto found = FindNode(c, kind);
    if (found != nullptr) return found;
  }
  return nullptr;
}

PlanPtr PlanFor(core::SessionContext* ctx, const std::string& sql,
                bool optimized = true) {
  auto plan = ctx->CreateLogicalPlan(sql);
  plan.status().Abort();
  if (!optimized) return *plan;
  auto result = ctx->OptimizePlan(*plan);
  result.status().Abort();
  return *result;
}

TEST(SimplifyTest, ConstantFolding) {
  ASSERT_OK_AND_ASSIGN(
      auto e, logical::SimplifyExpr(logical::Binary(
                  logical::Lit(int64_t{2}), logical::BinaryOp::kPlus,
                  logical::Binary(logical::Lit(int64_t{3}),
                                  logical::BinaryOp::kMultiply,
                                  logical::Lit(int64_t{4})))));
  ASSERT_EQ(e->kind, Expr::Kind::kLiteral);
  EXPECT_EQ(e->literal.int_value(), 14);
}

TEST(SimplifyTest, BooleanAlgebra) {
  auto col = logical::Col("x");
  ASSERT_OK_AND_ASSIGN(auto and_true,
                       logical::SimplifyExpr(logical::And(
                           col, logical::Lit(Scalar::Bool(true)))));
  EXPECT_EQ(and_true->ToString(), "x");
  ASSERT_OK_AND_ASSIGN(auto and_false,
                       logical::SimplifyExpr(logical::And(
                           col, logical::Lit(Scalar::Bool(false)))));
  EXPECT_EQ(and_false->literal.bool_value(), false);
  ASSERT_OK_AND_ASSIGN(auto or_true, logical::SimplifyExpr(logical::Or(
                                         col, logical::Lit(Scalar::Bool(true)))));
  EXPECT_TRUE(or_true->literal.bool_value());
  ASSERT_OK_AND_ASSIGN(auto notnot,
                       logical::SimplifyExpr(logical::Not(logical::Not(col))));
  EXPECT_EQ(notnot->ToString(), "x");
}

TEST(SimplifyTest, BooleanConnectivesKeepBooleanType) {
  // AND, OR and NOT cast a non-boolean operand to boolean, so dropping
  // the constant operand leaves `id <> 0`, not id.
  auto ctx = MakeTestSession(5);
  for (const char* e : {"true AND id", "id AND true", "NOT NOT id", "id OR false",
                        "false OR id", "(id > 0) AND id"}) {
    SCOPED_TRACE(e);
    ASSERT_OK_AND_ASSIGN(
        auto batches,
        ctx->ExecuteSql(std::string("SELECT ") + e + ", id <> 0 FROM t ORDER BY id"));
    EXPECT_EQ(batches[0]->schema()->field(0).type(), boolean());
    const auto rows = ToStringRows(batches);
    ASSERT_EQ(rows.size(), 5u);
    for (const auto& row : rows) EXPECT_EQ(row[0], row[1]);
  }
}

TEST(OptimizerTest, FilterPushedIntoMemoryScanStaysAsFilter) {
  // MemoryTable doesn't absorb filters, so the Filter survives but lands
  // directly above the scan.
  auto ctx = MakeTestSession(10);
  auto plan = PlanFor(ctx.get(), "SELECT id FROM t WHERE id > 3");
  auto filter = FindNode(plan, PlanKind::kFilter);
  ASSERT_NE(filter, nullptr);
  EXPECT_EQ(filter->child(0)->kind, PlanKind::kTableScan);
}

TEST(OptimizerTest, ProjectionPushdownShrinksScan) {
  auto ctx = MakeTestSession(10);
  auto plan = PlanFor(ctx.get(), "SELECT grp FROM t");
  auto scan = FindNode(plan, PlanKind::kTableScan);
  ASSERT_NE(scan, nullptr);
  EXPECT_EQ(scan->schema().num_fields(), 1);
  EXPECT_EQ(scan->schema().field(0).name(), "grp");
}

TEST(OptimizerTest, ProjectionPushdownKeepsFilterColumns) {
  auto ctx = MakeTestSession(10);
  auto plan = PlanFor(ctx.get(), "SELECT grp FROM t WHERE id > 3");
  auto scan = FindNode(plan, PlanKind::kTableScan);
  ASSERT_NE(scan, nullptr);
  EXPECT_EQ(scan->schema().num_fields(), 2);  // grp + id
}

TEST(OptimizerTest, CountStarScanKeepsOneColumn) {
  auto ctx = MakeTestSession(10);
  auto plan = PlanFor(ctx.get(), "SELECT count(*) FROM t");
  auto scan = FindNode(plan, PlanKind::kTableScan);
  ASSERT_NE(scan, nullptr);
  EXPECT_EQ(scan->schema().num_fields(), 1);
}

TEST(OptimizerTest, LimitPushedIntoSortAsFetch) {
  auto ctx = MakeTestSession(10);
  auto plan = PlanFor(ctx.get(), "SELECT id FROM t ORDER BY id LIMIT 5");
  auto sort = FindNode(plan, PlanKind::kSort);
  ASSERT_NE(sort, nullptr);
  EXPECT_EQ(sort->fetch, 5);
}

TEST(OptimizerTest, LimitPushedIntoScan) {
  auto ctx = MakeTestSession(10);
  auto plan = PlanFor(ctx.get(), "SELECT id FROM t LIMIT 5");
  auto scan = FindNode(plan, PlanKind::kTableScan);
  ASSERT_NE(scan, nullptr);
  EXPECT_EQ(scan->scan_limit, 5);
}

TEST(OptimizerTest, CommaJoinBecomesEquiJoin) {
  auto ctx = MakeTestSession(10);
  auto plan = PlanFor(ctx.get(),
                      "SELECT count(*) FROM t a, t b WHERE a.id = b.id");
  auto join = FindNode(plan, PlanKind::kJoin);
  ASSERT_NE(join, nullptr);
  EXPECT_EQ(join->join_kind, logical::JoinKind::kInner);
  EXPECT_EQ(join->join_on.size(), 1u);
}

TEST(OptimizerTest, OuterToInnerWhenFilterRejectsNulls) {
  auto ctx = MakeTestSession(10);
  auto plan = PlanFor(ctx.get(),
                      "SELECT count(*) FROM t a LEFT JOIN t b ON a.id = b.id "
                      "WHERE b.v > 0");
  auto join = FindNode(plan, PlanKind::kJoin);
  ASSERT_NE(join, nullptr);
  EXPECT_EQ(join->join_kind, logical::JoinKind::kInner);
}

TEST(OptimizerTest, LeftJoinKeptWhenFilterOnPreservedSide) {
  auto ctx = MakeTestSession(10);
  auto plan = PlanFor(ctx.get(),
                      "SELECT count(*) FROM t a LEFT JOIN t b ON a.id = b.id "
                      "WHERE a.id > 0");
  auto join = FindNode(plan, PlanKind::kJoin);
  ASSERT_NE(join, nullptr);
  EXPECT_EQ(join->join_kind, logical::JoinKind::kLeft);
}

TEST(OptimizerTest, FilterSplitAcrossJoinSides) {
  auto ctx = MakeTestSession(10);
  auto plan = PlanFor(ctx.get(),
                      "SELECT count(*) FROM t a JOIN t b ON a.id = b.id "
                      "WHERE a.v > 2 AND b.v < 100");
  // Both conjuncts pushed below the join (and below each side's alias
  // node): a filter sits directly above each scan.
  auto join = FindNode(plan, PlanKind::kJoin);
  ASSERT_NE(join, nullptr);
  for (int side = 0; side < 2; ++side) {
    auto filter = FindNode(join->child(side), PlanKind::kFilter);
    ASSERT_NE(filter, nullptr) << "side " << side;
    EXPECT_EQ(filter->child(0)->kind, PlanKind::kTableScan);
  }
}

TEST(OptimizerTest, CseFactorsRepeatedSubexpr) {
  auto ctx = MakeTestSession(10);
  auto plan = PlanFor(ctx.get(),
                      "SELECT (v * 37 + 1) AS a, (v * 37 + 1) * 2 AS b FROM t");
  // Two stacked projections: the lower one computes the shared subtree.
  EXPECT_GE(CountNodes(plan, PlanKind::kProjection), 2);
}

TEST(OptimizerTest, JoinReorderStartsFromSmallest) {
  // big (300 rows) JOIN small (3 rows) JOIN medium (30 rows) in SQL
  // order; the reorder should not begin with `big`.
  auto ctx = core::SessionContext::Make();
  auto make_table = [&](const std::string& name, int64_t n) {
    Int64Builder k;
    for (int64_t i = 0; i < n; ++i) k.Append(i);
    auto schema = fusion::schema({Field(name + "_key", int64(), false)});
    std::vector<ArrayPtr> cols = {k.Finish().ValueOrDie()};
    auto batch = std::make_shared<RecordBatch>(schema, n, std::move(cols));
    ctx->RegisterTable(name, catalog::MemoryTable::Make(schema, {batch})
                                 .ValueOrDie())
        .Abort();
  };
  make_table("big", 300);
  make_table("small", 3);
  make_table("medium", 30);
  auto plan = PlanFor(ctx.get(),
                      "SELECT count(*) FROM big, small, medium "
                      "WHERE big_key = small_key AND small_key = medium_key");
  // Walk to the deepest left leaf of the join tree.
  PlanPtr node = FindNode(plan, PlanKind::kJoin);
  ASSERT_NE(node, nullptr);
  while (node->kind == PlanKind::kJoin) node = node->child(0);
  while (!node->children.empty()) node = node->child(0);
  ASSERT_EQ(node->kind, PlanKind::kTableScan);
  EXPECT_NE(node->table_name, "big");
}

TEST(OptimizerTest, CommaJoinPlansNoCrossJoin) {
  // FROM a, b, c leaves a x b as a cross join (no predicate links the
  // two); join reordering must join both through c instead.
  auto ctx = core::SessionContext::Make();
  // Column `name` of a table of `n` rows holds i % modulo.
  auto register_table = [&](const std::string& table, int64_t n,
                            std::vector<std::pair<std::string, int64_t>> cols) {
    std::vector<Field> fields;
    std::vector<ArrayPtr> arrays;
    for (const auto& [name, modulo] : cols) {
      Int64Builder b;
      for (int64_t i = 0; i < n; ++i) b.Append(i % modulo);
      fields.emplace_back(name, int64(), false);
      arrays.push_back(b.Finish().ValueOrDie());
    }
    auto schema = fusion::schema(std::move(fields));
    auto batch = std::make_shared<RecordBatch>(schema, n, std::move(arrays));
    ctx->RegisterTable(table, catalog::MemoryTable::Make(schema, {batch}).ValueOrDie())
        .Abort();
  };
  register_table("a", 10, {{"x", 10}});
  register_table("b", 20, {{"y", 20}});
  register_table("c", 30, {{"x", 10}, {"y", 20}});
  const char* q = "SELECT count(*) FROM a, b, c WHERE a.x = c.x AND b.y = c.y";
  std::function<int(const PlanPtr&)> cross_joins = [&](const PlanPtr& p) {
    int n = p->kind == PlanKind::kJoin && p->join_on.empty() ? 1 : 0;
    for (const auto& c : p->children) n += cross_joins(c);
    return n;
  };
  EXPECT_EQ(cross_joins(PlanFor(ctx.get(), q)), 0)
      << PlanFor(ctx.get(), q)->ToString();
  ASSERT_OK_AND_ASSIGN(auto rows, ctx->ExecuteSql(q));
  EXPECT_EQ(ToStringRows(rows), (std::vector<StringRow>{{"30"}}));
}

/// A memory table whose statistics report `ndv` distinct values in
/// every column.
class NdvTable : public catalog::MemoryTable {
 public:
  NdvTable(SchemaPtr schema, std::vector<RecordBatchPtr> batches, int64_t ndv)
      : MemoryTable(std::move(schema), std::move(batches)), ndv_(ndv) {}
  catalog::TableStatistics statistics() const override {
    auto stats = MemoryTable::statistics();
    for (auto& cs : stats.column_stats) cs.ndv = ndv_;
    return stats;
  }

 private:
  int64_t ndv_;
};

TEST(CardinalityTest, MultiKeyJoinEstimateIsAtLeastSmallerSide) {
  // Keys need not be independent: a side's combined key NDV cannot
  // exceed its rows, so two keys of 300 and 400 distinct values must not
  // estimate 1000 x 2000 / (400 x 400) = 12.5 rows.
  auto scan = [](const std::string& name, int64_t rows, int64_t ndv) {
    Int64Builder k1, k2;
    for (int64_t i = 0; i < rows; ++i) {
      k1.Append(i % ndv);
      k2.Append(i % ndv);
    }
    auto schema = fusion::schema(
        {Field(name + "1", int64(), false), Field(name + "2", int64(), false)});
    auto batch = std::make_shared<RecordBatch>(
        schema, rows, std::vector<ArrayPtr>{k1.Finish().ValueOrDie(),
                                            k2.Finish().ValueOrDie()});
    auto table = std::make_shared<NdvTable>(schema, std::vector<RecordBatchPtr>{batch}, ndv);
    return logical::MakeTableScan(name, table).ValueOrDie();
  };
  PlanPtr left = scan("l", 1000, 300);
  PlanPtr right = scan("r", 2000, 400);
  const std::pair<ExprPtr, ExprPtr> first{logical::Col("l1"), logical::Col("r1")};
  const std::pair<ExprPtr, ExprPtr> second{logical::Col("l2"), logical::Col("r2")};
  EXPECT_GE(optimizer::EstimateJoinRows(left, right, {first, second},
                                        logical::JoinKind::kInner),
            1000);
  // One key: l * r / max(ndv_l, ndv_r), as before.
  EXPECT_DOUBLE_EQ(
      optimizer::EstimateJoinRows(left, right, {first}, logical::JoinKind::kInner),
      1000.0 * 2000.0 / 400.0);
}

/// Column names of every table scan, keyed by table name.
void CollectScanColumns(const PlanPtr& plan,
                        std::map<std::string, std::vector<std::string>>* out) {
  if (plan->kind == PlanKind::kTableScan) {
    auto& names = (*out)[plan->table_name];
    for (int i = 0; i < plan->schema().num_fields(); ++i) {
      names.push_back(plan->schema().field(i).name());
    }
  }
  for (const auto& c : plan->children) CollectScanColumns(c, out);
}

TEST(OptimizerTest, ReorderedCommaJoinScansOnlyReferencedColumns) {
  // Join reordering puts a projection restoring the original column
  // order over the reordered joins; it must not make every scan read
  // every column.
  auto ctx = core::SessionContext::Make();
  auto make_table = [&](const std::string& name, int64_t n) {
    Int64Builder key, val;
    StringBuilder pad;
    for (int64_t i = 0; i < n; ++i) {
      key.Append(i);
      val.Append(i * 10);
      pad.Append(name + "-pad-" + std::to_string(i));
    }
    auto schema = fusion::schema({Field(name + "_key", int64(), false),
                                  Field(name + "_val", int64(), false),
                                  Field(name + "_pad", utf8(), false)});
    std::vector<ArrayPtr> cols = {key.Finish().ValueOrDie(), val.Finish().ValueOrDie(),
                                  pad.Finish().ValueOrDie()};
    auto batch = std::make_shared<RecordBatch>(schema, n, std::move(cols));
    ctx->RegisterTable(name, catalog::MemoryTable::Make(schema, {batch})
                                 .ValueOrDie())
        .Abort();
  };
  make_table("big", 300);
  make_table("small", 3);
  make_table("medium", 30);
  const char* q =
      "SELECT big_val, medium_val FROM big, small, medium "
      "WHERE big_key = small_key AND small_key = medium_key";
  std::map<std::string, std::vector<std::string>> scans;
  CollectScanColumns(PlanFor(ctx.get(), q), &scans);
  EXPECT_EQ(scans["big"], (std::vector<std::string>{"big_key", "big_val"}));
  EXPECT_EQ(scans["small"], (std::vector<std::string>{"small_key"}));
  EXPECT_EQ(scans["medium"], (std::vector<std::string>{"medium_key", "medium_val"}));
  ASSERT_OK_AND_ASSIGN(auto rows, ctx->ExecuteSql(q));
  EXPECT_EQ(SortedStringRows(rows),
            (std::vector<StringRow>{{"0", "0"}, {"10", "10"}, {"20", "20"}}));
}

TEST(OptimizerTest, OptimizationPreservesResults) {
  // Property: the optimizer must never change query results.
  auto ctx = MakeTestSession(60);
  const char* queries[] = {
      "SELECT grp, count(*), sum(v) FROM t GROUP BY grp",
      "SELECT id FROM t WHERE id % 2 = 0 AND grp = 'a'",
      "SELECT a.id, b.grp FROM t a JOIN t b ON a.id = b.id WHERE a.id < 10",
      "SELECT grp FROM t ORDER BY id DESC LIMIT 7",
      "SELECT id * 2 + 1, id * 2 + 1 FROM t WHERE v IS NOT NULL",
  };
  for (const char* q : queries) {
    ASSERT_OK_AND_ASSIGN(auto raw_plan, ctx->CreateLogicalPlan(q));
    ASSERT_OK_AND_ASSIGN(auto raw_exec, ctx->CreatePhysicalPlan(raw_plan));
    auto exec_ctx = ctx->MakeExecContext();
    ASSERT_OK_AND_ASSIGN(auto unopt,
                         physical::ExecuteCollect(raw_exec, exec_ctx));
    ASSERT_OK_AND_ASSIGN(auto opt, ctx->ExecuteSql(q));
    EXPECT_EQ(SortedStringRows(unopt), SortedStringRows(opt)) << q;
  }
}

TEST(PredicateLoweringTest, ShapesThatLower) {
  auto lowered =
      optimizer::TryLowerPredicate(logical::Binary(logical::Col("x"),
                                                   logical::BinaryOp::kGt,
                                                   logical::Lit(int64_t{5})));
  ASSERT_TRUE(lowered.has_value());
  EXPECT_EQ(lowered->column, "x");
  EXPECT_EQ(lowered->op, format::ColumnPredicate::Op::kGt);
  // Flipped: 5 < x -> x > 5
  auto flipped =
      optimizer::TryLowerPredicate(logical::Binary(logical::Lit(int64_t{5}),
                                                   logical::BinaryOp::kLt,
                                                   logical::Col("x")));
  ASSERT_TRUE(flipped.has_value());
  EXPECT_EQ(flipped->op, format::ColumnPredicate::Op::kGt);
  // IS NULL
  auto isnull = optimizer::TryLowerPredicate(logical::IsNullExpr(logical::Col("x")));
  ASSERT_TRUE(isnull.has_value());
  EXPECT_EQ(isnull->op, format::ColumnPredicate::Op::kIsNull);
}

TEST(PredicateLoweringTest, ShapesThatDoNot) {
  // column-vs-column
  EXPECT_FALSE(optimizer::TryLowerPredicate(
                   logical::Binary(logical::Col("x"), logical::BinaryOp::kEq,
                                   logical::Col("y")))
                   .has_value());
  // expression on the column side
  EXPECT_FALSE(
      optimizer::TryLowerPredicate(
          logical::Binary(logical::Binary(logical::Col("x"),
                                          logical::BinaryOp::kPlus,
                                          logical::Lit(int64_t{1})),
                          logical::BinaryOp::kGt, logical::Lit(int64_t{5})))
          .has_value());
  // OR is not a conjunct
  EXPECT_FALSE(optimizer::TryLowerPredicate(
                   logical::Or(logical::Col("a"), logical::Col("b")))
                   .has_value());
}

TEST(OptimizerTest, CustomRuleRuns) {
  // A rule that rewrites every Limit fetch to at most 3.
  class ClampLimitRule : public optimizer::OptimizerRule {
   public:
    std::string name() const override { return "clamp_limit"; }
    Result<PlanPtr> Apply(const PlanPtr& plan) override {
      return logical::TransformPlan(plan, [](const PlanPtr& node) -> Result<PlanPtr> {
        if (node->kind == PlanKind::kLimit && node->fetch > 3) {
          return logical::MakeLimit(node->child(0), node->skip, 3);
        }
        return node;
      });
    }
  };
  auto ctx = MakeTestSession(50);
  // Run the query first so its plan, optimized without the rule, sits in
  // the plan cache; adding the rule must flush it.
  ASSERT_OK_AND_ASSIGN(auto before, ctx->ExecuteSql("SELECT id FROM t LIMIT 10"));
  EXPECT_EQ(TotalRows(before), 10);
  ctx->AddOptimizerRule(std::make_shared<ClampLimitRule>());
  ASSERT_OK_AND_ASSIGN(auto batches,
                       ctx->ExecuteSql("SELECT id FROM t LIMIT 10"));
  EXPECT_EQ(TotalRows(batches), 3);
}

}  // namespace
}  // namespace test
}  // namespace fusion
