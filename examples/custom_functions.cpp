// User-defined functions (paper §7.1): register a scalar UDF, an
// aggregate UDAF and a window UDWF with exactly the structures the
// built-in library uses, then call them from SQL. The UDAF also serves
// as a window function over a frame, as every aggregate does.

#include <cmath>
#include <cstdio>

#include "arrow/builder.h"
#include "catalog/memory_table.h"
#include "core/session_context.h"

using namespace fusion;           // NOLINT
using namespace fusion::logical;  // NOLINT

namespace {

/// Scalar UDF: haversine-ish "distance from origin" over two columns.
ScalarFunctionPtr MakeDistanceUdf() {
  auto fn = std::make_shared<ScalarFunctionDef>();
  fn->name = "distance";
  fn->return_type = [](const std::vector<DataType>& args) -> Result<DataType> {
    if (args.size() != 2) return Status::PlanError("distance expects 2 args");
    return float64();
  };
  fn->impl = [](const std::vector<ColumnarValue>& args,
                int64_t num_rows) -> Result<ColumnarValue> {
    FUSION_ASSIGN_OR_RAISE(auto xs, args[0].ToArray(num_rows));
    FUSION_ASSIGN_OR_RAISE(auto ys, args[1].ToArray(num_rows));
    const auto& x = checked_cast<Float64Array>(*xs);
    const auto& y = checked_cast<Float64Array>(*ys);
    Float64Builder out;
    for (int64_t i = 0; i < num_rows; ++i) {
      if (x.IsNull(i) || y.IsNull(i)) {
        out.AppendNull();
      } else {
        out.Append(std::sqrt(x.Value(i) * x.Value(i) + y.Value(i) * y.Value(i)));
      }
    }
    FUSION_ASSIGN_OR_RAISE(auto arr, out.Finish());
    return ColumnarValue(std::move(arr));
  };
  return fn;
}

/// Aggregate UDAF: geometric mean, with full two-phase (partial state =
/// [sum of logs, count]) support so it parallelizes like built-ins.
class GeoMeanAccumulator : public GroupedAccumulator {
 public:
  void Resize(int64_t n) override {
    if (static_cast<int64_t>(log_sums_.size()) < n) {
      log_sums_.resize(n, 0);
      counts_.resize(n, 0);
    }
  }

  Status Update(const std::vector<ArrayPtr>& args,
                const std::vector<uint32_t>& group_ids,
                const uint8_t* opt_filter) override {
    const auto& values = checked_cast<Float64Array>(*args[0]);
    for (size_t i = 0; i < group_ids.size(); ++i) {
      int64_t row = static_cast<int64_t>(i);
      if (opt_filter != nullptr && opt_filter[row] == 0) continue;
      if (values.IsNull(row) || values.Value(row) <= 0) continue;
      log_sums_[group_ids[i]] += std::log(values.Value(row));
      ++counts_[group_ids[i]];
    }
    return Status::OK();
  }

  std::vector<DataType> PartialTypes() const override {
    return {float64(), int64()};
  }

  Result<std::vector<ArrayPtr>> PartialState() override {
    return std::vector<ArrayPtr>{MakeFloat64Array(log_sums_),
                                 MakeInt64Array(counts_)};
  }

  Status UpdateFromPartial(const std::vector<ArrayPtr>& state,
                           const std::vector<uint32_t>& group_ids) override {
    const auto& sums = checked_cast<Float64Array>(*state[0]);
    const auto& counts = checked_cast<Int64Array>(*state[1]);
    for (size_t i = 0; i < group_ids.size(); ++i) {
      log_sums_[group_ids[i]] += sums.Value(static_cast<int64_t>(i));
      counts_[group_ids[i]] += counts.Value(static_cast<int64_t>(i));
    }
    return Status::OK();
  }

  Result<ArrayPtr> Finish() override {
    std::vector<double> out(log_sums_.size());
    std::vector<bool> valid(log_sums_.size());
    for (size_t i = 0; i < out.size(); ++i) {
      valid[i] = counts_[i] > 0;
      if (valid[i]) out[i] = std::exp(log_sums_[i] / counts_[i]);
    }
    return MakeFloat64Array(out, valid);
  }

  int64_t SizeBytes() const override {
    return static_cast<int64_t>(log_sums_.size()) * 16;
  }

 private:
  std::vector<double> log_sums_;
  std::vector<int64_t> counts_;
};

AggregateFunctionPtr MakeGeoMeanUdaf() {
  auto fn = std::make_shared<AggregateFunctionDef>();
  fn->name = "geomean";
  fn->return_type = [](const std::vector<DataType>&) -> Result<DataType> {
    return float64();
  };
  fn->create = [](const std::vector<DataType>&)
      -> Result<std::unique_ptr<GroupedAccumulator>> {
    return std::unique_ptr<GroupedAccumulator>(new GeoMeanAccumulator());
  };
  return fn;
}

/// Window UDWF: discrete derivative (value - previous value), the sort
/// of time-series function the paper's §7.1 motivates.
WindowFunctionPtr MakeDeltaUdwf() {
  auto fn = std::make_shared<WindowFunctionDef>();
  fn->name = "delta";
  fn->uses_frame = false;
  fn->return_type = [](const std::vector<DataType>& args) -> Result<DataType> {
    if (args.size() != 1) return Status::PlanError("delta expects 1 arg");
    return float64();
  };
  fn->eval = [](const WindowPartition& p) -> Result<ArrayPtr> {
    const auto& values = checked_cast<Float64Array>(*p.args[0]);
    Float64Builder out;
    for (int64_t i = 0; i < p.num_rows; ++i) {
      // Rows are absolute: the call may hold several window partitions.
      if (i == p.partition_start[i] || values.IsNull(i) || values.IsNull(i - 1)) {
        out.AppendNull();
      } else {
        out.Append(values.Value(i) - values.Value(i - 1));
      }
    }
    return out.Finish();
  };
  return fn;
}

}  // namespace

int main() {
  auto ctx = core::SessionContext::Make();
  ctx->RegisterScalarFunction(MakeDistanceUdf()).Abort();
  ctx->RegisterAggregateFunction(MakeGeoMeanUdaf()).Abort();
  ctx->RegisterWindowFunction(MakeDeltaUdwf()).Abort();

  // Sensor readings.
  Int64Builder t;
  StringBuilder sensor;
  Float64Builder x, y;
  for (int64_t i = 0; i < 12; ++i) {
    t.Append(i);
    sensor.Append(i % 2 == 0 ? "alpha" : "beta");
    x.Append(1.0 + static_cast<double>(i));
    y.Append(2.0 + static_cast<double>(i % 5));
  }
  auto schema = fusion::schema({Field("t", int64(), false),
                                Field("sensor", utf8(), false),
                                Field("x", float64(), false),
                                Field("y", float64(), false)});
  std::vector<ArrayPtr> cols = {t.Finish().ValueOrDie(), sensor.Finish().ValueOrDie(),
                                x.Finish().ValueOrDie(), y.Finish().ValueOrDie()};
  auto batch = std::make_shared<RecordBatch>(schema, 12, std::move(cols));
  ctx->RegisterTable("readings",
                     catalog::MemoryTable::Make(schema, {batch}).ValueOrDie())
      .Abort();

  std::printf("scalar UDF:\n%s\n",
              ctx->Sql("SELECT t, distance(x, y) AS d FROM readings LIMIT 4")
                  .ValueOrDie()
                  .ShowString()
                  .ValueOrDie()
                  .c_str());

  std::printf("aggregate UDAF:\n%s\n",
              ctx->Sql("SELECT sensor, geomean(x) AS gm FROM readings "
                       "GROUP BY sensor ORDER BY sensor")
                  .ValueOrDie()
                  .ShowString()
                  .ValueOrDie()
                  .c_str());

  std::printf(
      "window UDWF:\n%s\n",
      ctx->Sql("SELECT t, sensor, x, delta(x) OVER (PARTITION BY sensor "
               "ORDER BY t) AS dx, geomean(x) OVER (PARTITION BY sensor "
               "ORDER BY t) AS running_gm FROM readings ORDER BY sensor, t")
          .ValueOrDie()
          .ShowString()
          .ValueOrDie()
          .c_str());
  return 0;
}
