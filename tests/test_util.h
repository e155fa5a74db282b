#ifndef FUSION_TESTS_TEST_UTIL_H_
#define FUSION_TESTS_TEST_UTIL_H_

#include <gtest/gtest.h>

#include <map>
#include <random>
#include <string>
#include <vector>

#include "arrow/builder.h"
#include "catalog/memory_table.h"
#include "core/session_context.h"

#define ASSERT_OK(expr)                                   \
  do {                                                    \
    auto _st = (expr);                                    \
    ASSERT_TRUE(_st.ok()) << _st.ToString();              \
  } while (false)

#define ASSERT_OK_AND_ASSIGN(lhs, rexpr)                  \
  auto FUSION_CONCAT(_res_, __LINE__) = (rexpr);          \
  ASSERT_TRUE(FUSION_CONCAT(_res_, __LINE__).ok())        \
      << FUSION_CONCAT(_res_, __LINE__).status().ToString(); \
  lhs = std::move(FUSION_CONCAT(_res_, __LINE__)).ValueUnsafe()

#define EXPECT_RAISES(expr)                 \
  do {                                      \
    auto _st = (expr);                      \
    EXPECT_FALSE(_st.ok());                 \
  } while (false)

namespace fusion {
namespace test {

/// One row of a result rendered as strings ("null" for NULL).
using StringRow = std::vector<std::string>;

inline std::vector<StringRow> ToStringRows(
    const std::vector<RecordBatchPtr>& batches) {
  std::vector<StringRow> rows;
  for (const auto& b : batches) {
    for (int64_t r = 0; r < b->num_rows(); ++r) {
      StringRow row;
      for (int c = 0; c < b->num_columns(); ++c) {
        row.push_back(b->column(c)->ValueToString(r));
      }
      rows.push_back(std::move(row));
    }
  }
  return rows;
}

/// Sort rows lexicographically for order-independent comparison.
inline std::vector<StringRow> SortedStringRows(
    const std::vector<RecordBatchPtr>& batches) {
  auto rows = ToStringRows(batches);
  std::sort(rows.begin(), rows.end());
  return rows;
}

inline int64_t TotalRows(const std::vector<RecordBatchPtr>& batches) {
  int64_t n = 0;
  for (const auto& b : batches) n += b->num_rows();
  return n;
}

/// Session with a small, deterministic test table "t":
///   id int64 (0..n-1), grp string (cycling a,b,c), v int64 (id*2, null
///   every 7th row), f float64 (id*0.5), s string ("row<i>").
inline core::SessionContextPtr MakeTestSession(
    int64_t n = 100, exec::SessionConfig config = {},
    exec::RuntimeEnvPtr env = std::make_shared<exec::RuntimeEnv>()) {
  auto ctx = core::SessionContext::Make(config, std::move(env));
  Int64Builder id;
  StringBuilder grp;
  Int64Builder v;
  Float64Builder f;
  StringBuilder s;
  const char* groups[] = {"a", "b", "c"};
  for (int64_t i = 0; i < n; ++i) {
    id.Append(i);
    grp.Append(groups[i % 3]);
    if (i % 7 == 6) {
      v.AppendNull();
    } else {
      v.Append(i * 2);
    }
    f.Append(static_cast<double>(i) * 0.5);
    s.Append("row" + std::to_string(i));
  }
  auto schema = fusion::schema({Field("id", int64(), false),
                                Field("grp", utf8(), false),
                                Field("v", int64(), true),
                                Field("f", float64(), false),
                                Field("s", utf8(), false)});
  std::vector<ArrayPtr> cols = {id.Finish().ValueOrDie(), grp.Finish().ValueOrDie(),
                                v.Finish().ValueOrDie(), f.Finish().ValueOrDie(),
                                s.Finish().ValueOrDie()};
  auto batch = std::make_shared<RecordBatch>(schema, n, std::move(cols));
  auto table =
      catalog::MemoryTable::Make(schema, SliceBatch(batch, 32)).ValueOrDie();
  table->SetSortOrder({{"id", {}}});
  ctx->RegisterTable("t", table).Abort();
  return ctx;
}

/// Run `sql` in a fresh session whose table "v" holds the one column
/// `x`, in batches of 128 rows.
inline Result<std::vector<RecordBatchPtr>> QueryColumn(const ArrayPtr& x,
                                                       const std::string& sql) {
  auto schema = fusion::schema({Field("x", x->type(), true)});
  auto batch =
      std::make_shared<RecordBatch>(schema, x->length(), std::vector<ArrayPtr>{x});
  FUSION_ASSIGN_OR_RAISE(auto table,
                         catalog::MemoryTable::Make(schema, SliceBatch(batch, 128)));
  auto ctx = core::SessionContext::Make();
  FUSION_RETURN_NOT_OK(ctx->RegisterTable("v", table));
  return ctx->ExecuteSql(sql);
}

}  // namespace test
}  // namespace fusion

#endif  // FUSION_TESTS_TEST_UTIL_H_
