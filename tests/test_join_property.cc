// Randomized join property tests: every join type executed by the
// engine is cross-checked against a naive row-at-a-time oracle on
// random inputs with nulls and duplicate keys.

#include "tests/test_util.h"

#include <functional>
#include <map>
#include <set>
#include <unordered_map>

#include "logical/plan.h"

namespace fusion {
namespace test {
namespace {

struct JoinInput {
  std::vector<std::optional<int64_t>> keys;
  std::vector<std::string> payload;
};

JoinInput RandomInput(std::mt19937* rng, int64_t n, int64_t key_range) {
  JoinInput input;
  for (int64_t i = 0; i < n; ++i) {
    if ((*rng)() % 10 == 0) {
      input.keys.push_back(std::nullopt);
    } else {
      input.keys.push_back(static_cast<int64_t>((*rng)() % key_range));
    }
    input.payload.push_back("p" + std::to_string(i));
  }
  return input;
}

core::SessionContextPtr SessionWith(const JoinInput& left, const JoinInput& right,
                                    exec::SessionConfig config = {}) {
  auto ctx = core::SessionContext::Make(config);
  auto make = [&](const char* name, const JoinInput& in) {
    Int64Builder k;
    StringBuilder p;
    for (size_t i = 0; i < in.keys.size(); ++i) {
      if (in.keys[i].has_value()) {
        k.Append(*in.keys[i]);
      } else {
        k.AppendNull();
      }
      p.Append(in.payload[i]);
    }
    auto schema = fusion::schema({Field("k", int64(), true),
                                  Field("p", utf8(), false)});
    std::vector<ArrayPtr> cols = {k.Finish().ValueOrDie(), p.Finish().ValueOrDie()};
    auto batch = std::make_shared<RecordBatch>(
        schema, static_cast<int64_t>(in.keys.size()), std::move(cols));
    ctx->RegisterTable(name,
                       catalog::MemoryTable::Make(schema, SliceBatch(batch, 7))
                           .ValueOrDie())
        .Abort();
  };
  make("l", left);
  make("r", right);
  return ctx;
}

/// Join condition over one (left key, right key) pair.
using Condition = std::function<bool(const std::optional<int64_t>&,
                                     const std::optional<int64_t>&)>;

bool KeysEqual(const std::optional<int64_t>& l, const std::optional<int64_t>& r) {
  return l.has_value() && r.has_value() && *l == *r;
}

/// Naive oracle producing sorted string rows for each join type: a row
/// loop over every (left, right) pair, keeping those `matches` accepts.
std::vector<StringRow> Oracle(const JoinInput& left, const JoinInput& right,
                              const std::string& kind,
                              const Condition& matches = KeysEqual) {
  std::vector<StringRow> rows;
  auto key_str = [](const std::optional<int64_t>& k) {
    return k.has_value() ? std::to_string(*k) : std::string("null");
  };
  std::vector<bool> right_matched(right.keys.size(), false);
  for (size_t i = 0; i < left.keys.size(); ++i) {
    bool matched = false;
    for (size_t j = 0; j < right.keys.size(); ++j) {
      if (matches(left.keys[i], right.keys[j])) {
        matched = true;
        right_matched[j] = true;
        if (kind == "inner" || kind == "cross" || kind == "left" ||
            kind == "right" || kind == "full") {
          rows.push_back({key_str(left.keys[i]), left.payload[i],
                          key_str(right.keys[j]), right.payload[j]});
        }
      }
    }
    if (!matched && (kind == "left" || kind == "full")) {
      rows.push_back({key_str(left.keys[i]), left.payload[i], "null", "null"});
    }
    if (matched && kind == "semi") {
      rows.push_back({key_str(left.keys[i]), left.payload[i]});
    }
    if (!matched && kind == "anti") {
      rows.push_back({key_str(left.keys[i]), left.payload[i]});
    }
  }
  if (kind == "right" || kind == "full") {
    for (size_t j = 0; j < right.keys.size(); ++j) {
      if (!right_matched[j]) {
        rows.push_back({"null", "null", key_str(right.keys[j]), right.payload[j]});
      }
    }
  }
  if (kind == "right_semi" || kind == "right_anti") {
    for (size_t j = 0; j < right.keys.size(); ++j) {
      if (right_matched[j] == (kind == "right_semi")) {
        rows.push_back({key_str(right.keys[j]), right.payload[j]});
      }
    }
  }
  std::sort(rows.begin(), rows.end());
  return rows;
}

/// The one HashJoinExec in an executed plan's metrics tree.
const physical::PlanMetricsNode* FindHashJoin(const physical::PlanMetricsNode& node) {
  if (node.name == "HashJoinExec") return &node;
  for (const auto& child : node.children) {
    if (const auto* found = FindHashJoin(child)) return found;
  }
  return nullptr;
}

class JoinPropertyTest : public ::testing::TestWithParam<std::string> {};

TEST_P(JoinPropertyTest, MatchesOracle) {
  const std::string kind = GetParam();
  std::map<std::string, std::string> sql_for = {
      {"inner", "SELECT l.k, l.p, r.k, r.p FROM l JOIN r ON l.k = r.k"},
      {"left", "SELECT l.k, l.p, r.k, r.p FROM l LEFT JOIN r ON l.k = r.k"},
      {"right", "SELECT l.k, l.p, r.k, r.p FROM l RIGHT JOIN r ON l.k = r.k"},
      {"full", "SELECT l.k, l.p, r.k, r.p FROM l FULL JOIN r ON l.k = r.k"},
      {"semi", "SELECT l.k, l.p FROM l WHERE l.k IN (SELECT r.k FROM r)"},
      {"anti",
       "SELECT l.k, l.p FROM l WHERE l.k IS NOT NULL AND "
       "l.k NOT IN (SELECT r.k FROM r)"},
  };
  std::mt19937 rng(std::hash<std::string>{}(kind));
  for (int trial = 0; trial < 12; ++trial) {
    auto left = RandomInput(&rng, 5 + rng() % 40, 1 + rng() % 15);
    auto right = RandomInput(&rng, 5 + rng() % 40, 1 + rng() % 15);
    auto ctx = SessionWith(left, right);
    ASSERT_OK_AND_ASSIGN(auto batches, ctx->ExecuteSql(sql_for[kind]));
    auto expected = Oracle(left, right, kind);
    if (kind == "anti") {
      // Our oracle's anti definition keeps null-keyed left rows; the SQL
      // form filters them out explicitly, so drop them from the oracle.
      std::vector<StringRow> filtered;
      for (auto& row : expected) {
        if (row[0] != "null") filtered.push_back(row);
      }
      expected = std::move(filtered);
    }
    EXPECT_EQ(SortedStringRows(batches), expected)
        << kind << " trial " << trial;
  }
}

INSTANTIATE_TEST_SUITE_P(AllKinds, JoinPropertyTest,
                         ::testing::Values("inner", "left", "right", "full",
                                           "semi", "anti"),
                         [](const auto& info) { return info.param; });

TEST(JoinPropertyTest, KeylessJoinsMatchOracle) {
  // Joins without equi keys plan as keyless hash joins: every kind, with
  // a non-equi condition and with none at all (a cross product), at 1
  // and 4 partitions. A small batch_size makes the probe run in slices.
  using logical::JoinKind;
  const std::vector<std::pair<std::string, JoinKind>> kinds = {
      {"inner", JoinKind::kInner},
      {"cross", JoinKind::kCross},
      {"left", JoinKind::kLeft},
      {"right", JoinKind::kRight},
      {"full", JoinKind::kFull},
      {"semi", JoinKind::kLeftSemi},
      {"anti", JoinKind::kLeftAnti},
      {"right_semi", JoinKind::kRightSemi},
      {"right_anti", JoinKind::kRightAnti}};
  const Condition less = [](const std::optional<int64_t>& l,
                            const std::optional<int64_t>& r) {
    return l.has_value() && r.has_value() && *l < *r;
  };
  const Condition always = [](const std::optional<int64_t>&,
                              const std::optional<int64_t>&) { return true; };
  constexpr int64_t kBatchSize = 16;
  std::mt19937 rng(16);
  for (int trial = 0; trial < 6; ++trial) {
    // Sizes start at 0: an empty side is a case of its own.
    auto left = RandomInput(&rng, rng() % 40, 1 + rng() % 15);
    auto right = RandomInput(&rng, rng() % 40, 1 + rng() % 15);
    for (int partitions : {1, 4}) {
      exec::SessionConfig config;
      config.target_partitions = partitions;
      config.batch_size = kBatchSize;
      auto ctx = SessionWith(left, right, config);
      ASSERT_OK_AND_ASSIGN(auto l, logical::LogicalPlanBuilder::Scan(
                                       "l", ctx->GetTable("l").ValueOrDie()));
      ASSERT_OK_AND_ASSIGN(auto r, logical::LogicalPlanBuilder::Scan(
                                       "r", ctx->GetTable("r").ValueOrDie()));
      for (const auto& [name, kind] : kinds) {
        for (bool with_condition : {true, false}) {
          SCOPED_TRACE(name + (with_condition ? " on l.k < r.k" : " on nothing") +
                       ", trial " + std::to_string(trial) + ", partitions " +
                       std::to_string(partitions));
          logical::ExprPtr filter;
          if (with_condition) {
            filter = logical::Binary(logical::Col("l", "k"), logical::BinaryOp::kLt,
                                     logical::Col("r", "k"));
          }
          ASSERT_OK_AND_ASSIGN(auto joined, l.Join(r, kind, {}, filter));
          ASSERT_OK_AND_ASSIGN(auto optimized, ctx->OptimizePlan(joined.Build()));
          ASSERT_OK_AND_ASSIGN(auto exec_plan, ctx->CreatePhysicalPlan(optimized));
          ASSERT_NE(exec_plan->ToString().find("on=[]"), std::string::npos)
              << exec_plan->ToString();
          ASSERT_OK_AND_ASSIGN(auto batches, ctx->ExecutePhysical(exec_plan));
          EXPECT_EQ(SortedStringRows(batches),
                    Oracle(left, right, name, with_condition ? less : always));
          // Slicing bounds every output batch, the end-of-probe batch of
          // unmatched build rows included.
          auto metrics = physical::CollectMetrics(*exec_plan);
          const auto* join = FindHashJoin(metrics);
          ASSERT_NE(join, nullptr) << exec_plan->ToString();
          const int64_t build_rows = join->children[0].output_rows;
          for (const auto& b : batches) {
            EXPECT_LE(b->num_rows(), std::max(kBatchSize, build_rows));
          }
        }
      }
    }
  }
}

TEST(JoinPropertyTest, MultiKeyJoinMatchesSingleKeyComposition) {
  // (a,b) equi-join == join on synthesized combined key.
  std::mt19937 rng(5);
  auto ctx = core::SessionContext::Make();
  auto make = [&](const char* name) {
    Int64Builder a, b;
    for (int i = 0; i < 60; ++i) {
      a.Append(static_cast<int64_t>(rng() % 5));
      b.Append(static_cast<int64_t>(rng() % 4));
    }
    auto schema = fusion::schema({Field("a", int64(), false),
                                  Field("b", int64(), false)});
    std::vector<ArrayPtr> cols = {a.Finish().ValueOrDie(), b.Finish().ValueOrDie()};
    auto batch = std::make_shared<RecordBatch>(schema, 60, std::move(cols));
    ctx->RegisterTable(name, catalog::MemoryTable::Make(schema, {batch})
                                 .ValueOrDie())
        .Abort();
  };
  make("x");
  make("y");
  ASSERT_OK_AND_ASSIGN(
      auto multi,
      ctx->ExecuteSql("SELECT count(*) FROM x JOIN y ON x.a = y.a AND x.b = y.b"));
  ASSERT_OK_AND_ASSIGN(
      auto combined,
      ctx->ExecuteSql("SELECT count(*) FROM x JOIN y ON "
                      "x.a * 10 + x.b = y.a * 10 + y.b"));
  EXPECT_EQ(ToStringRows(multi), ToStringRows(combined));
}

TEST(JoinPropertyTest, JoinWithResidualFilter) {
  auto ctx = MakeTestSession(30);
  // Equi key + non-equi residual; oracle via cross-join formulation.
  ASSERT_OK_AND_ASSIGN(
      auto with_filter,
      ctx->ExecuteSql("SELECT count(*) FROM t a JOIN t b "
                      "ON a.grp = b.grp AND a.id < b.id"));
  ASSERT_OK_AND_ASSIGN(
      auto via_where,
      ctx->ExecuteSql("SELECT count(*) FROM t a, t b "
                      "WHERE a.grp = b.grp AND a.id < b.id"));
  EXPECT_EQ(ToStringRows(with_filter), ToStringRows(via_where));
}

TEST(JoinPropertyTest, CrossJoinCount) {
  auto ctx = MakeTestSession(13);
  ASSERT_OK_AND_ASSIGN(auto batches,
                       ctx->ExecuteSql("SELECT count(*) FROM t a CROSS JOIN t b"));
  EXPECT_EQ(ToStringRows(batches)[0][0], "169");
}

TEST(GroupByPropertyTest, MatchesMapOracle) {
  // Random multi-column GROUP BY cross-checked against an
  // unordered_map oracle, at 1 and 4 target partitions (the latter
  // exercising the build -> radix merge plan). count(DISTINCT v) plans
  // as GROUP BY k, g, v under GROUP BY k, g, so the oracle also checks
  // that rewrite.
  std::mt19937 rng(99);
  for (int trial = 0; trial < 8; ++trial) {
    const int64_t n = 50 + rng() % 400;
    const int64_t key_range = 1 + rng() % 60;
    Int64Builder kb;
    StringBuilder gb;
    Int64Builder vb;
    std::vector<std::optional<int64_t>> ks;
    std::vector<std::string> gs;
    std::vector<std::optional<int64_t>> vs;
    for (int64_t i = 0; i < n; ++i) {
      if (rng() % 11 == 0) {
        ks.push_back(std::nullopt);
        kb.AppendNull();
      } else {
        ks.push_back(static_cast<int64_t>(rng() % key_range));
        kb.Append(*ks.back());
      }
      gs.push_back(std::string(1, static_cast<char>('a' + rng() % 4)));
      gb.Append(gs.back());
      if (rng() % 9 == 0) {
        vs.push_back(std::nullopt);
        vb.AppendNull();
      } else {
        vs.push_back(static_cast<int64_t>(rng() % 1000));
        vb.Append(*vs.back());
      }
    }
    auto schema = fusion::schema({Field("k", int64(), true),
                                  Field("g", utf8(), false),
                                  Field("v", int64(), true)});
    std::vector<ArrayPtr> cols = {kb.Finish().ValueOrDie(),
                                  gb.Finish().ValueOrDie(),
                                  vb.Finish().ValueOrDie()};
    auto batch = std::make_shared<RecordBatch>(schema, n, std::move(cols));

    // Oracle: (k,g) -> (count(*), count(v), sum(v), count(DISTINCT v)).
    struct Agg {
      int64_t count_star = 0;
      int64_t count_v = 0;
      int64_t sum_v = 0;
      std::set<int64_t> distinct_v;
    };
    std::unordered_map<std::string, Agg> oracle;
    for (int64_t i = 0; i < n; ++i) {
      std::string key =
          (ks[i].has_value() ? std::to_string(*ks[i]) : "null") + "|" + gs[i];
      Agg& a = oracle[key];
      a.count_star++;
      if (vs[i].has_value()) {
        a.count_v++;
        a.sum_v += *vs[i];
        a.distinct_v.insert(*vs[i]);
      }
    }
    std::vector<StringRow> expected;
    for (const auto& [key, a] : oracle) {
      auto sep = key.find('|');
      expected.push_back({key.substr(0, sep), key.substr(sep + 1),
                          std::to_string(a.count_star), std::to_string(a.count_v),
                          a.count_v == 0 ? "null" : std::to_string(a.sum_v),
                          std::to_string(a.distinct_v.size())});
    }
    std::sort(expected.begin(), expected.end());

    for (int partitions : {1, 4}) {
      exec::SessionConfig config;
      config.target_partitions = partitions;
      auto ctx = core::SessionContext::Make(config);
      ASSERT_OK(ctx->RegisterTable(
          "gt", catalog::MemoryTable::Make(schema, SliceBatch(batch, 33))
                    .ValueOrDie()));
      ASSERT_OK_AND_ASSIGN(
          auto batches,
          ctx->ExecuteSql("SELECT k, g, count(*), count(v), sum(v), "
                          "count(DISTINCT v) FROM gt GROUP BY k, g"));
      EXPECT_EQ(SortedStringRows(batches), expected)
          << "trial " << trial << " partitions " << partitions;
    }
  }
}

}  // namespace
}  // namespace test
}  // namespace fusion
