#include <algorithm>
#include <cmath>
#include <cstring>
#include <functional>
#include <limits>

#include "arrow/builder.h"
#include "common/hash_util.h"
#include "compute/group_table.h"
#include "compute/hash_kernels.h"
#include "compute/selection.h"
#include "logical/functions.h"
#include "row/row_format.h"

namespace fusion {
namespace logical {

namespace {

bool FilterIncludes(const uint8_t* opt_filter, int64_t row) {
  return opt_filter == nullptr || opt_filter[row] != 0;
}

/// ORDER BY's order. For doubles `<` is no strict weak order once a NaN
/// is present, so a minimum, maximum or median found with it would
/// depend on row order; ORDER BY puts every NaN above +inf.
template <typename T>
bool SortsBefore(const T& a, const T& b) {
  return a < b;
}

bool SortsBefore(double a, double b) {
  return row::OrderableBitsDouble(a) < row::OrderableBitsDouble(b);
}

/// The partial state of an aggregate that keeps every value (median,
/// count_distinct): one utf8 row per group holding the group's values
/// back to back, `row_bytes[g]` bytes for group g. `fill` writes the
/// values at `cursors[g]`, each starting at its row's offset in `data`.
Result<ArrayPtr> ValueListState(
    const std::vector<int64_t>& row_bytes,
    const std::function<void(std::vector<int64_t>* cursors, uint8_t* data)>& fill) {
  const int64_t n = static_cast<int64_t>(row_bytes.size());
  auto offsets = std::make_shared<Buffer>((n + 1) * static_cast<int64_t>(sizeof(int32_t)));
  int32_t* off = offsets->mutable_data_as<int32_t>();
  std::vector<int64_t> cursors(row_bytes.size());
  int64_t total = 0;
  for (int64_t g = 0; g < n; ++g) {
    off[g] = static_cast<int32_t>(total);
    cursors[g] = total;
    total += row_bytes[g];
    if (total > std::numeric_limits<int32_t>::max()) {
      return Status::ResourcesExhausted("aggregate partial state exceeds 2 GiB");
    }
  }
  off[n] = static_cast<int32_t>(total);
  auto data = std::make_shared<Buffer>(total);
  fill(&cursors, data->mutable_data());
  return ArrayPtr(
      std::make_shared<StringArray>(n, std::move(offsets), std::move(data), nullptr, 0));
}

// ------------------------------------------------------------------ COUNT

/// COUNT(*) and COUNT(x). State: per-group int64.
class CountAccumulator : public GroupedAccumulator {
 public:
  explicit CountAccumulator(bool count_star) : count_star_(count_star) {}

  void Resize(int64_t num_groups) override {
    if (static_cast<int64_t>(counts_.size()) < num_groups) counts_.resize(num_groups, 0);
  }

  Status Update(const std::vector<ArrayPtr>& args,
                const std::vector<uint32_t>& group_ids,
                const uint8_t* opt_filter) override {
    const Array* values = count_star_ || args.empty() ? nullptr : args[0].get();
    for (size_t i = 0; i < group_ids.size(); ++i) {
      if (!FilterIncludes(opt_filter, static_cast<int64_t>(i))) continue;
      if (values != nullptr && values->IsNull(static_cast<int64_t>(i))) continue;
      ++counts_[group_ids[i]];
    }
    return Status::OK();
  }

  std::vector<DataType> PartialTypes() const override { return {int64()}; }

  Result<std::vector<ArrayPtr>> PartialState() override {
    return std::vector<ArrayPtr>{MakeInt64Array(counts_)};
  }

  Status UpdateFromPartial(const std::vector<ArrayPtr>& state,
                           const std::vector<uint32_t>& group_ids) override {
    const auto& partial = checked_cast<Int64Array>(*state[0]);
    for (size_t i = 0; i < group_ids.size(); ++i) {
      if (partial.IsValid(static_cast<int64_t>(i))) {
        counts_[group_ids[i]] += partial.Value(static_cast<int64_t>(i));
      }
    }
    return Status::OK();
  }

  Result<ArrayPtr> Finish() override { return MakeInt64Array(counts_); }

  int64_t SizeBytes() const override {
    return static_cast<int64_t>(counts_.size()) * 8;
  }

 private:
  bool count_star_;
  std::vector<int64_t> counts_;
};

// -------------------------------------------------------------------- SUM

template <typename CType, typename Acc>
class SumAccumulator : public GroupedAccumulator {
 public:
  void Resize(int64_t num_groups) override {
    if (static_cast<int64_t>(sums_.size()) < num_groups) {
      sums_.resize(num_groups, Acc{});
      seen_.resize(num_groups, 0);
    }
  }

  Status Update(const std::vector<ArrayPtr>& args,
                const std::vector<uint32_t>& group_ids,
                const uint8_t* opt_filter) override {
    const auto& values = checked_cast<NumericArray<CType>>(*args[0]);
    const CType* raw = values.raw_values();
    if (values.null_count() == 0 && opt_filter == nullptr) {
      for (size_t i = 0; i < group_ids.size(); ++i) {
        sums_[group_ids[i]] += static_cast<Acc>(raw[i]);
        seen_[group_ids[i]] = 1;
      }
    } else {
      for (size_t i = 0; i < group_ids.size(); ++i) {
        int64_t row = static_cast<int64_t>(i);
        if (!FilterIncludes(opt_filter, row) || values.IsNull(row)) continue;
        sums_[group_ids[i]] += static_cast<Acc>(raw[i]);
        seen_[group_ids[i]] = 1;
      }
    }
    return Status::OK();
  }

  std::vector<DataType> PartialTypes() const override {
    return {std::is_floating_point_v<Acc> ? float64() : int64()};
  }

  Result<std::vector<ArrayPtr>> PartialState() override {
    return std::vector<ArrayPtr>{BuildResult()};
  }

  Status UpdateFromPartial(const std::vector<ArrayPtr>& state,
                           const std::vector<uint32_t>& group_ids) override {
    const auto& partial = checked_cast<NumericArray<Acc>>(*state[0]);
    for (size_t i = 0; i < group_ids.size(); ++i) {
      int64_t row = static_cast<int64_t>(i);
      if (partial.IsNull(row)) continue;
      sums_[group_ids[i]] += partial.Value(row);
      seen_[group_ids[i]] = 1;
    }
    return Status::OK();
  }

  Result<ArrayPtr> Finish() override { return BuildResult(); }

  int64_t SizeBytes() const override {
    return static_cast<int64_t>(sums_.size()) * (sizeof(Acc) + 1);
  }

 private:
  ArrayPtr BuildResult() {
    std::vector<bool> valid(seen_.size());
    for (size_t i = 0; i < seen_.size(); ++i) valid[i] = seen_[i] != 0;
    if constexpr (std::is_floating_point_v<Acc>) {
      return MakeFloat64Array(sums_, valid);
    } else {
      return MakeInt64Array(sums_, valid);
    }
  }

  std::vector<Acc> sums_;
  std::vector<uint8_t> seen_;
};

/// SUM over DECIMAL(p,s): exact Decimal128 accumulation at the input scale.
/// Overflow past 38 digits is an error, never a silent wraparound, matching
/// the ungrouped kernel. Partials carry decimal(38, s) so merges stay exact.
class DecimalSumAccumulator : public GroupedAccumulator {
 public:
  explicit DecimalSumAccumulator(DataType input_type)
      : out_type_(decimal128(kDecimalMaxPrecision, input_type.scale())) {}

  void Resize(int64_t num_groups) override {
    if (static_cast<int64_t>(sums_.size()) < num_groups) {
      sums_.resize(num_groups, Decimal128(0));
      seen_.resize(num_groups, 0);
    }
  }

  Status Update(const std::vector<ArrayPtr>& args,
                const std::vector<uint32_t>& group_ids,
                const uint8_t* opt_filter) override {
    const auto& values = checked_cast<Decimal128Array>(*args[0]);
    const Decimal128* raw = values.raw_values();
    for (size_t i = 0; i < group_ids.size(); ++i) {
      int64_t row = static_cast<int64_t>(i);
      if (!FilterIncludes(opt_filter, row) || values.IsNull(row)) continue;
      uint32_t g = group_ids[i];
      if (Decimal128::AddWithOverflow(sums_[g], raw[i], &sums_[g])) {
        return Status::Invalid("Sum: decimal overflow");
      }
      seen_[g] = 1;
    }
    return Status::OK();
  }

  std::vector<DataType> PartialTypes() const override { return {out_type_}; }

  Result<std::vector<ArrayPtr>> PartialState() override {
    FUSION_ASSIGN_OR_RAISE(auto arr, BuildResult());
    return std::vector<ArrayPtr>{std::move(arr)};
  }

  Status UpdateFromPartial(const std::vector<ArrayPtr>& state,
                           const std::vector<uint32_t>& group_ids) override {
    return Update(state, group_ids, nullptr);
  }

  Result<ArrayPtr> Finish() override { return BuildResult(); }

  int64_t SizeBytes() const override {
    return static_cast<int64_t>(sums_.size()) * 17;
  }

 private:
  Result<ArrayPtr> BuildResult() {
    Decimal128Builder builder(out_type_);
    for (size_t i = 0; i < sums_.size(); ++i) {
      if (seen_[i]) {
        builder.Append(sums_[i]);
      } else {
        builder.AppendNull();
      }
    }
    return builder.Finish();
  }

  DataType out_type_;
  std::vector<Decimal128> sums_;
  std::vector<uint8_t> seen_;
};

// ----------------------------------------------------------------- MIN/MAX

template <typename CType, bool kMin>
class MinMaxAccumulator : public GroupedAccumulator {
 public:
  explicit MinMaxAccumulator(DataType type) : type_(type) {}

  void Resize(int64_t num_groups) override {
    if (static_cast<int64_t>(best_.size()) < num_groups) {
      best_.resize(num_groups, CType{});
      seen_.resize(num_groups, 0);
    }
  }

  Status Update(const std::vector<ArrayPtr>& args,
                const std::vector<uint32_t>& group_ids,
                const uint8_t* opt_filter) override {
    const auto& values = checked_cast<NumericArray<CType>>(*args[0]);
    const CType* raw = values.raw_values();
    for (size_t i = 0; i < group_ids.size(); ++i) {
      int64_t row = static_cast<int64_t>(i);
      if (!FilterIncludes(opt_filter, row) || values.IsNull(row)) continue;
      uint32_t g = group_ids[i];
      if (!seen_[g] || (kMin ? SortsBefore(raw[i], best_[g])
                             : SortsBefore(best_[g], raw[i]))) {
        best_[g] = raw[i];
        seen_[g] = 1;
      }
    }
    return Status::OK();
  }

  std::vector<DataType> PartialTypes() const override { return {type_}; }

  Result<std::vector<ArrayPtr>> PartialState() override {
    FUSION_ASSIGN_OR_RAISE(auto arr, BuildResult());
    return std::vector<ArrayPtr>{std::move(arr)};
  }

  Status UpdateFromPartial(const std::vector<ArrayPtr>& state,
                           const std::vector<uint32_t>& group_ids) override {
    return Update(state, group_ids, nullptr);
  }

  Result<ArrayPtr> Finish() override { return BuildResult(); }

  int64_t SizeBytes() const override {
    return static_cast<int64_t>(best_.size()) * (sizeof(CType) + 1);
  }

 private:
  Result<ArrayPtr> BuildResult() {
    FUSION_ASSIGN_OR_RAISE(auto builder, MakeBuilder(type_));
    auto* typed = static_cast<NumericBuilder<CType>*>(builder.get());
    for (size_t i = 0; i < best_.size(); ++i) {
      if (seen_[i]) {
        typed->Append(best_[i]);
      } else {
        typed->AppendNull();
      }
    }
    return builder->Finish();
  }

  DataType type_;
  std::vector<CType> best_;
  std::vector<uint8_t> seen_;
};

template <bool kMin>
class MinMaxStringAccumulator : public GroupedAccumulator {
 public:
  void Resize(int64_t num_groups) override {
    if (static_cast<int64_t>(best_.size()) < num_groups) {
      best_.resize(num_groups);
      seen_.resize(num_groups, 0);
    }
  }

  Status Update(const std::vector<ArrayPtr>& args,
                const std::vector<uint32_t>& group_ids,
                const uint8_t* opt_filter) override {
    const Array& values = *args[0];
    for (size_t i = 0; i < group_ids.size(); ++i) {
      int64_t row = static_cast<int64_t>(i);
      if (!FilterIncludes(opt_filter, row) || values.IsNull(row)) continue;
      uint32_t g = group_ids[i];
      std::string_view v = StringLikeValue(values, row);
      if (!seen_[g] || (kMin ? v < best_[g] : v > best_[g])) {
        best_[g] = std::string(v);
        seen_[g] = 1;
      }
    }
    return Status::OK();
  }

  std::vector<DataType> PartialTypes() const override { return {utf8()}; }

  Result<std::vector<ArrayPtr>> PartialState() override {
    return std::vector<ArrayPtr>{BuildResult()};
  }

  Status UpdateFromPartial(const std::vector<ArrayPtr>& state,
                           const std::vector<uint32_t>& group_ids) override {
    return Update(state, group_ids, nullptr);
  }

  Result<ArrayPtr> Finish() override { return BuildResult(); }

  int64_t SizeBytes() const override {
    int64_t total = 0;
    for (const auto& s : best_) total += static_cast<int64_t>(s.size()) + 16;
    return total;
  }

 private:
  ArrayPtr BuildResult() {
    StringBuilder builder;
    for (size_t i = 0; i < best_.size(); ++i) {
      if (seen_[i]) {
        builder.Append(best_[i]);
      } else {
        builder.AppendNull();
      }
    }
    return builder.Finish().ValueOrDie();
  }

  std::vector<std::string> best_;
  std::vector<uint8_t> seen_;
};

// -------------------------------------------------------------------- AVG

class AvgAccumulator : public GroupedAccumulator {
 public:
  void Resize(int64_t num_groups) override {
    if (static_cast<int64_t>(sums_.size()) < num_groups) {
      sums_.resize(num_groups, 0);
      counts_.resize(num_groups, 0);
    }
  }

  Status Update(const std::vector<ArrayPtr>& args,
                const std::vector<uint32_t>& group_ids,
                const uint8_t* opt_filter) override {
    FUSION_RETURN_NOT_OK(ForEachDouble(
        *args[0], group_ids, opt_filter, [this](uint32_t g, double v) {
          sums_[g] += v;
          ++counts_[g];
        }));
    return Status::OK();
  }

  std::vector<DataType> PartialTypes() const override {
    return {float64(), int64()};
  }

  Result<std::vector<ArrayPtr>> PartialState() override {
    return std::vector<ArrayPtr>{MakeFloat64Array(sums_), MakeInt64Array(counts_)};
  }

  Status UpdateFromPartial(const std::vector<ArrayPtr>& state,
                           const std::vector<uint32_t>& group_ids) override {
    const auto& sums = checked_cast<Float64Array>(*state[0]);
    const auto& counts = checked_cast<Int64Array>(*state[1]);
    for (size_t i = 0; i < group_ids.size(); ++i) {
      sums_[group_ids[i]] += sums.Value(static_cast<int64_t>(i));
      counts_[group_ids[i]] += counts.Value(static_cast<int64_t>(i));
    }
    return Status::OK();
  }

  Result<ArrayPtr> Finish() override {
    std::vector<double> out(sums_.size());
    std::vector<bool> valid(sums_.size());
    for (size_t i = 0; i < sums_.size(); ++i) {
      valid[i] = counts_[i] > 0;
      out[i] = valid[i] ? sums_[i] / static_cast<double>(counts_[i]) : 0;
    }
    return MakeFloat64Array(out, valid);
  }

  int64_t SizeBytes() const override {
    return static_cast<int64_t>(sums_.size()) * 16;
  }

  /// Apply `fn(group, value)` for each included, non-null row, widening
  /// any numeric input to double.
  template <typename Fn>
  static Status ForEachDouble(const Array& values,
                              const std::vector<uint32_t>& group_ids,
                              const uint8_t* opt_filter, Fn&& fn) {
    auto run = [&](auto getter) {
      for (size_t i = 0; i < group_ids.size(); ++i) {
        int64_t row = static_cast<int64_t>(i);
        if (!FilterIncludes(opt_filter, row) || values.IsNull(row)) continue;
        fn(group_ids[i], getter(row));
      }
    };
    switch (values.type().id()) {
      case TypeId::kInt32:
      case TypeId::kDate32: {
        const auto& a = checked_cast<Int32Array>(values);
        run([&](int64_t r) { return static_cast<double>(a.Value(r)); });
        return Status::OK();
      }
      case TypeId::kInt64:
      case TypeId::kTimestamp: {
        const auto& a = checked_cast<Int64Array>(values);
        run([&](int64_t r) { return static_cast<double>(a.Value(r)); });
        return Status::OK();
      }
      case TypeId::kFloat64: {
        const auto& a = checked_cast<Float64Array>(values);
        run([&](int64_t r) { return a.Value(r); });
        return Status::OK();
      }
      case TypeId::kDecimal128: {
        // Approximate path for double-based aggregates (variance, corr,
        // median); avg itself routes decimals to DecimalAvgAccumulator.
        const auto& a = checked_cast<Decimal128Array>(values);
        const double inv_scale = std::pow(10.0, -values.type().scale());
        run([&](int64_t r) { return a.Value(r).ToDouble() * inv_scale; });
        return Status::OK();
      }
      default:
        return Status::TypeError("numeric aggregate over non-numeric column");
    }
  }

 private:
  std::vector<double> sums_;
  std::vector<int64_t> counts_;
};

/// AVG over DECIMAL(p,s): exact Decimal128 sum plus int64 count, divided
/// once at Finish. The quotient widens by four fractional digits and rounds
/// half away from zero.
class DecimalAvgAccumulator : public GroupedAccumulator {
 public:
  explicit DecimalAvgAccumulator(DataType input_type)
      : in_scale_(input_type.scale()),
        sum_type_(decimal128(kDecimalMaxPrecision, input_type.scale())),
        out_type_(decimal128(
            kDecimalMaxPrecision,
            std::min<int>(kDecimalMaxPrecision, input_type.scale() + 4))) {}

  void Resize(int64_t num_groups) override {
    if (static_cast<int64_t>(sums_.size()) < num_groups) {
      sums_.resize(num_groups, Decimal128(0));
      counts_.resize(num_groups, 0);
    }
  }

  Status Update(const std::vector<ArrayPtr>& args,
                const std::vector<uint32_t>& group_ids,
                const uint8_t* opt_filter) override {
    const auto& values = checked_cast<Decimal128Array>(*args[0]);
    const Decimal128* raw = values.raw_values();
    for (size_t i = 0; i < group_ids.size(); ++i) {
      int64_t row = static_cast<int64_t>(i);
      if (!FilterIncludes(opt_filter, row) || values.IsNull(row)) continue;
      uint32_t g = group_ids[i];
      if (Decimal128::AddWithOverflow(sums_[g], raw[i], &sums_[g])) {
        return Status::Invalid("Avg: decimal overflow");
      }
      ++counts_[g];
    }
    return Status::OK();
  }

  std::vector<DataType> PartialTypes() const override {
    return {sum_type_, int64()};
  }

  Result<std::vector<ArrayPtr>> PartialState() override {
    Decimal128Builder sums(sum_type_);
    for (const Decimal128& s : sums_) sums.Append(s);
    FUSION_ASSIGN_OR_RAISE(auto sum_arr, sums.Finish());
    return std::vector<ArrayPtr>{std::move(sum_arr), MakeInt64Array(counts_)};
  }

  Status UpdateFromPartial(const std::vector<ArrayPtr>& state,
                           const std::vector<uint32_t>& group_ids) override {
    const auto& sums = checked_cast<Decimal128Array>(*state[0]);
    const auto& counts = checked_cast<Int64Array>(*state[1]);
    for (size_t i = 0; i < group_ids.size(); ++i) {
      int64_t row = static_cast<int64_t>(i);
      if (counts.Value(row) == 0) continue;
      uint32_t g = group_ids[i];
      if (Decimal128::AddWithOverflow(sums_[g], sums.Value(row), &sums_[g])) {
        return Status::Invalid("Avg: decimal overflow");
      }
      counts_[g] += counts.Value(row);
    }
    return Status::OK();
  }

  Result<ArrayPtr> Finish() override {
    Decimal128Builder builder(out_type_);
    for (size_t i = 0; i < sums_.size(); ++i) {
      if (counts_[i] == 0) {
        builder.AppendNull();
        continue;
      }
      Decimal128 widened;
      if (!DecimalRescale(sums_[i], in_scale_, out_type_.scale(), &widened)) {
        return Status::Invalid("Avg: decimal overflow");
      }
      __int128 num = widened.ToInt128();
      __int128 q = num / counts_[i];
      __int128 rem = num % counts_[i];
      if (rem < 0) rem = -rem;
      if (2 * rem >= counts_[i]) q += (num < 0) ? -1 : 1;
      builder.Append(Decimal128::FromInt128(q));
    }
    return builder.Finish();
  }

  int64_t SizeBytes() const override {
    return static_cast<int64_t>(sums_.size()) * 24;
  }

 private:
  int in_scale_;
  DataType sum_type_;
  DataType out_type_;
  std::vector<Decimal128> sums_;
  std::vector<int64_t> counts_;
};

// -------------------------------------------------------- VARIANCE/STDDEV

/// Welford online variance per group; merge via Chan's parallel formula.
class VarianceAccumulator : public GroupedAccumulator {
 public:
  explicit VarianceAccumulator(bool stddev) : stddev_(stddev) {}

  void Resize(int64_t num_groups) override {
    if (static_cast<int64_t>(counts_.size()) < num_groups) {
      counts_.resize(num_groups, 0);
      means_.resize(num_groups, 0);
      m2s_.resize(num_groups, 0);
    }
  }

  Status Update(const std::vector<ArrayPtr>& args,
                const std::vector<uint32_t>& group_ids,
                const uint8_t* opt_filter) override {
    return AvgAccumulator::ForEachDouble(
        *args[0], group_ids, opt_filter, [this](uint32_t g, double v) {
          ++counts_[g];
          double delta = v - means_[g];
          means_[g] += delta / static_cast<double>(counts_[g]);
          m2s_[g] += delta * (v - means_[g]);
        });
  }

  std::vector<DataType> PartialTypes() const override {
    return {int64(), float64(), float64()};
  }

  Result<std::vector<ArrayPtr>> PartialState() override {
    return std::vector<ArrayPtr>{MakeInt64Array(counts_), MakeFloat64Array(means_),
                                 MakeFloat64Array(m2s_)};
  }

  Status UpdateFromPartial(const std::vector<ArrayPtr>& state,
                           const std::vector<uint32_t>& group_ids) override {
    const auto& counts = checked_cast<Int64Array>(*state[0]);
    const auto& means = checked_cast<Float64Array>(*state[1]);
    const auto& m2s = checked_cast<Float64Array>(*state[2]);
    for (size_t i = 0; i < group_ids.size(); ++i) {
      int64_t row = static_cast<int64_t>(i);
      int64_t nb = counts.Value(row);
      if (nb == 0) continue;
      uint32_t g = group_ids[i];
      int64_t na = counts_[g];
      double delta = means.Value(row) - means_[g];
      int64_t n = na + nb;
      means_[g] += delta * static_cast<double>(nb) / static_cast<double>(n);
      m2s_[g] += m2s.Value(row) + delta * delta *
                                      static_cast<double>(na) *
                                      static_cast<double>(nb) /
                                      static_cast<double>(n);
      counts_[g] = n;
    }
    return Status::OK();
  }

  Result<ArrayPtr> Finish() override {
    std::vector<double> out(counts_.size());
    std::vector<bool> valid(counts_.size());
    for (size_t i = 0; i < counts_.size(); ++i) {
      valid[i] = counts_[i] > 1;
      if (valid[i]) {
        double var = m2s_[i] / static_cast<double>(counts_[i] - 1);
        out[i] = stddev_ ? std::sqrt(var) : var;
      }
    }
    return MakeFloat64Array(out, valid);
  }

  int64_t SizeBytes() const override {
    return static_cast<int64_t>(counts_.size()) * 24;
  }

 private:
  bool stddev_;
  std::vector<int64_t> counts_;
  std::vector<double> means_;
  std::vector<double> m2s_;
};

// ------------------------------------------------------------------- CORR

class CorrAccumulator : public GroupedAccumulator {
 public:
  void Resize(int64_t num_groups) override {
    if (static_cast<int64_t>(n_.size()) < num_groups) {
      n_.resize(num_groups, 0);
      sx_.resize(num_groups, 0);
      sy_.resize(num_groups, 0);
      sxx_.resize(num_groups, 0);
      syy_.resize(num_groups, 0);
      sxy_.resize(num_groups, 0);
    }
  }

  Status Update(const std::vector<ArrayPtr>& args,
                const std::vector<uint32_t>& group_ids,
                const uint8_t* opt_filter) override {
    if (args.size() != 2) return Status::Invalid("corr expects 2 arguments");
    FUSION_ASSIGN_OR_RAISE(auto xs, ToDoubles(*args[0]));
    FUSION_ASSIGN_OR_RAISE(auto ys, ToDoubles(*args[1]));
    for (size_t i = 0; i < group_ids.size(); ++i) {
      int64_t row = static_cast<int64_t>(i);
      if (!FilterIncludes(opt_filter, row) || args[0]->IsNull(row) ||
          args[1]->IsNull(row)) {
        continue;
      }
      uint32_t g = group_ids[i];
      double x = xs[i];
      double y = ys[i];
      ++n_[g];
      sx_[g] += x;
      sy_[g] += y;
      sxx_[g] += x * x;
      syy_[g] += y * y;
      sxy_[g] += x * y;
    }
    return Status::OK();
  }

  std::vector<DataType> PartialTypes() const override {
    return {int64(), float64(), float64(), float64(), float64(), float64()};
  }

  Result<std::vector<ArrayPtr>> PartialState() override {
    return std::vector<ArrayPtr>{MakeInt64Array(n_),    MakeFloat64Array(sx_),
                                 MakeFloat64Array(sy_), MakeFloat64Array(sxx_),
                                 MakeFloat64Array(syy_), MakeFloat64Array(sxy_)};
  }

  Status UpdateFromPartial(const std::vector<ArrayPtr>& state,
                           const std::vector<uint32_t>& group_ids) override {
    const auto& n = checked_cast<Int64Array>(*state[0]);
    const auto& sx = checked_cast<Float64Array>(*state[1]);
    const auto& sy = checked_cast<Float64Array>(*state[2]);
    const auto& sxx = checked_cast<Float64Array>(*state[3]);
    const auto& syy = checked_cast<Float64Array>(*state[4]);
    const auto& sxy = checked_cast<Float64Array>(*state[5]);
    for (size_t i = 0; i < group_ids.size(); ++i) {
      int64_t row = static_cast<int64_t>(i);
      uint32_t g = group_ids[i];
      n_[g] += n.Value(row);
      sx_[g] += sx.Value(row);
      sy_[g] += sy.Value(row);
      sxx_[g] += sxx.Value(row);
      syy_[g] += syy.Value(row);
      sxy_[g] += sxy.Value(row);
    }
    return Status::OK();
  }

  Result<ArrayPtr> Finish() override {
    std::vector<double> out(n_.size());
    std::vector<bool> valid(n_.size());
    for (size_t i = 0; i < n_.size(); ++i) {
      double n = static_cast<double>(n_[i]);
      double cov = n * sxy_[i] - sx_[i] * sy_[i];
      double vx = n * sxx_[i] - sx_[i] * sx_[i];
      double vy = n * syy_[i] - sy_[i] * sy_[i];
      valid[i] = n_[i] > 1 && vx > 0 && vy > 0;
      if (valid[i]) out[i] = cov / std::sqrt(vx * vy);
    }
    return MakeFloat64Array(out, valid);
  }

  int64_t SizeBytes() const override {
    return static_cast<int64_t>(n_.size()) * 48;
  }

 private:
  static Result<std::vector<double>> ToDoubles(const Array& arr) {
    std::vector<double> out(arr.length(), 0);
    switch (arr.type().id()) {
      case TypeId::kInt32:
      case TypeId::kDate32: {
        const auto& a = checked_cast<Int32Array>(arr);
        for (int64_t i = 0; i < arr.length(); ++i) out[i] = a.Value(i);
        return out;
      }
      case TypeId::kInt64:
      case TypeId::kTimestamp: {
        const auto& a = checked_cast<Int64Array>(arr);
        for (int64_t i = 0; i < arr.length(); ++i) {
          out[i] = static_cast<double>(a.Value(i));
        }
        return out;
      }
      case TypeId::kFloat64: {
        const auto& a = checked_cast<Float64Array>(arr);
        for (int64_t i = 0; i < arr.length(); ++i) out[i] = a.Value(i);
        return out;
      }
      default:
        return Status::TypeError("corr over non-numeric column");
    }
  }

  std::vector<int64_t> n_;
  std::vector<double> sx_, sy_, sxx_, syy_, sxy_;
};

// ----------------------------------------------------------------- MEDIAN

/// Exact median: buffers every value per group. The partial state holds
/// a group's values as raw doubles back to back.
class MedianAccumulator : public GroupedAccumulator {
 public:
  void Resize(int64_t num_groups) override {
    if (static_cast<int64_t>(values_.size()) < num_groups) values_.resize(num_groups);
  }

  Status Update(const std::vector<ArrayPtr>& args,
                const std::vector<uint32_t>& group_ids,
                const uint8_t* opt_filter) override {
    return AvgAccumulator::ForEachDouble(
        *args[0], group_ids, opt_filter,
        [this](uint32_t g, double v) { values_[g].push_back(v); });
  }

  std::vector<DataType> PartialTypes() const override { return {utf8()}; }

  Result<std::vector<ArrayPtr>> PartialState() override {
    std::vector<int64_t> row_bytes(values_.size());
    for (size_t g = 0; g < values_.size(); ++g) {
      row_bytes[g] = static_cast<int64_t>(values_[g].size() * sizeof(double));
    }
    FUSION_ASSIGN_OR_RAISE(
        auto rows, ValueListState(row_bytes, [&](std::vector<int64_t>* cursors,
                                                 uint8_t* data) {
          for (size_t g = 0; g < values_.size(); ++g) {
            if (row_bytes[g] > 0) {
              std::memcpy(data + (*cursors)[g], values_[g].data(), row_bytes[g]);
            }
          }
        }));
    return std::vector<ArrayPtr>{std::move(rows)};
  }

  Status UpdateFromPartial(const std::vector<ArrayPtr>& state,
                           const std::vector<uint32_t>& group_ids) override {
    const auto& rows = checked_cast<StringArray>(*state[0]);
    for (size_t i = 0; i < group_ids.size(); ++i) {
      const int64_t row = static_cast<int64_t>(i);
      if (rows.IsNull(row)) continue;
      const std::string_view bytes = rows.Value(row);
      if (bytes.size() % sizeof(double) != 0) {
        return Status::Invalid("median: partial state row of " +
                               std::to_string(bytes.size()) +
                               " bytes does not hold whole doubles");
      }
      std::vector<double>& values = values_[group_ids[i]];
      const size_t old_size = values.size();
      values.resize(old_size + bytes.size() / sizeof(double));
      if (!bytes.empty()) std::memcpy(values.data() + old_size, bytes.data(), bytes.size());
    }
    return Status::OK();
  }

  Result<ArrayPtr> Finish() override {
    std::vector<double> out(values_.size());
    std::vector<bool> valid(values_.size());
    for (size_t i = 0; i < values_.size(); ++i) {
      auto& v = values_[i];
      valid[i] = !v.empty();
      if (v.empty()) continue;
      const size_t mid = v.size() / 2;
      auto before = [](double a, double b) { return SortsBefore(a, b); };
      std::nth_element(v.begin(), v.begin() + mid, v.end(), before);
      if (v.size() % 2 == 1) {
        out[i] = v[mid];
      } else {
        double hi = v[mid];
        double lo = *std::max_element(v.begin(), v.begin() + mid, before);
        out[i] = (lo + hi) / 2;
      }
    }
    return MakeFloat64Array(out, valid);
  }

  int64_t SizeBytes() const override {
    int64_t total = 0;
    for (const auto& v : values_) total += static_cast<int64_t>(v.capacity()) * 8;
    return total;
  }

 private:
  std::vector<std::vector<double>> values_;
};

// ---------------------------------------------------------- COUNT DISTINCT

/// Exact distinct count: one GroupTable over (group id, value) pairs. A
/// value counts toward its group when its pair is first inserted, so
/// values compare the way group keys do (-0.0 equals 0.0, NaNs are one
/// value). The partial state holds a group's distinct values in their
/// GroupKeyEncoder bytes, back to back; the merge splits them and inserts
/// them as pairs again, so a value counts once per group across builds.
class CountDistinctAccumulator : public GroupedAccumulator {
 public:
  explicit CountDistinctAccumulator(DataType value_type)
      : pairs_({int64(), value_type}),
        // Dictionary values come back as plain strings: their key bytes
        // and hashes are the same.
        value_encoder_({value_type.is_dictionary() ? utf8() : value_type}) {}

  void Resize(int64_t num_groups) override {
    if (static_cast<int64_t>(counts_.size()) < num_groups) counts_.resize(num_groups);
  }

  Status Update(const std::vector<ArrayPtr>& args,
                const std::vector<uint32_t>& group_ids,
                const uint8_t* opt_filter) override {
    const ArrayPtr& values = args[0];
    rows_.clear();
    for (size_t i = 0; i < group_ids.size(); ++i) {
      const int64_t row = static_cast<int64_t>(i);
      if (FilterIncludes(opt_filter, row) && !values->IsNull(row)) rows_.push_back(row);
    }
    if (values->type().is_dictionary()) {
      KeepFirstPerCode(checked_cast<DictionaryArray>(*values), group_ids);
    }
    if (rows_.empty()) return Status::OK();
    groups_.resize(rows_.size());
    for (size_t i = 0; i < rows_.size(); ++i) groups_[i] = group_ids[rows_[i]];
    if (rows_.size() == group_ids.size()) return InsertPairs(values);
    FUSION_ASSIGN_OR_RAISE(auto kept, compute::Take(*values, rows_));
    return InsertPairs(kept);
  }

  std::vector<DataType> PartialTypes() const override { return {utf8()}; }

  Result<std::vector<ArrayPtr>> PartialState() override {
    // A pair's key is the group id (marker byte + int64) followed by the
    // value's bytes; row g gathers the value bytes of group g's pairs.
    constexpr size_t kGroupIdBytes = 9;
    auto group_of = [](std::string_view key) {
      int64_t g;
      std::memcpy(&g, key.data() + 1, sizeof(g));
      return static_cast<size_t>(g);
    };
    const uint32_t num_pairs = static_cast<uint32_t>(pairs_.num_groups());
    std::vector<int64_t> row_bytes(counts_.size(), 0);
    for (uint32_t p = 0; p < num_pairs; ++p) {
      const std::string_view key = pairs_.group_key(p);
      row_bytes[group_of(key)] += static_cast<int64_t>(key.size() - kGroupIdBytes);
    }
    FUSION_ASSIGN_OR_RAISE(
        auto rows, ValueListState(row_bytes, [&](std::vector<int64_t>* cursors,
                                                 uint8_t* data) {
          for (uint32_t p = 0; p < num_pairs; ++p) {
            const std::string_view key = pairs_.group_key(p);
            int64_t& cursor = (*cursors)[group_of(key)];
            std::memcpy(data + cursor, key.data() + kGroupIdBytes,
                        key.size() - kGroupIdBytes);
            cursor += static_cast<int64_t>(key.size() - kGroupIdBytes);
          }
        }));
    return std::vector<ArrayPtr>{std::move(rows)};
  }

  Status UpdateFromPartial(const std::vector<ArrayPtr>& state,
                           const std::vector<uint32_t>& group_ids) override {
    const auto& rows = checked_cast<StringArray>(*state[0]);
    views_.clear();
    groups_.clear();
    for (size_t i = 0; i < group_ids.size(); ++i) {
      const int64_t row = static_cast<int64_t>(i);
      if (rows.IsNull(row)) continue;
      FUSION_RETURN_NOT_OK(value_encoder_.SplitKeys(rows.Value(row), &views_));
      groups_.resize(views_.size(), group_ids[i]);
    }
    if (views_.empty()) return Status::OK();
    FUSION_ASSIGN_OR_RAISE(auto values, value_encoder_.DecodeKeyViews(views_));
    return InsertPairs(values[0]);
  }

  Result<ArrayPtr> Finish() override { return MakeInt64Array(counts_); }

  int64_t SizeBytes() const override {
    return pairs_.SizeBytes() + static_cast<int64_t>(counts_.capacity()) * 8;
  }

 private:
  /// Insert the pairs (groups_[i], values[i]); count each new one toward
  /// its group. Pair ids are dense and handed out in row order, so a pair
  /// is new exactly when its id is the next one unassigned.
  Status InsertPairs(const ArrayPtr& values) {
    std::vector<ArrayPtr> pair{MakeInt64Array(groups_), values};
    FUSION_RETURN_NOT_OK(compute::HashColumns(pair, &hashes_));
    uint32_t next = static_cast<uint32_t>(pairs_.num_groups());
    FUSION_RETURN_NOT_OK(pairs_.MapBatch(pair, hashes_, &pair_ids_));
    for (size_t i = 0; i < pair_ids_.size(); ++i) {
      if (pair_ids_[i] == next) {
        ++counts_[groups_[i]];
        ++next;
      }
    }
    return Status::OK();
  }

  /// Dictionary values repeat codes: keep only each (group, code)'s first
  /// row of the batch, so the pair table probes every pair once.
  void KeepFirstPerCode(const DictionaryArray& values,
                        const std::vector<uint32_t>& group_ids) {
    constexpr uint64_t kEmpty = ~uint64_t{0};
    size_t capacity = 16;
    while (capacity < rows_.size() * 2) capacity <<= 1;
    seen_.assign(capacity, kEmpty);
    const int32_t* codes = values.raw_codes();
    size_t kept = 0;
    for (int64_t row : rows_) {
      const uint64_t key =
          uint64_t{group_ids[row]} << 32 | static_cast<uint32_t>(codes[row]);
      size_t slot = hash_util::HashInt64(key) & (capacity - 1);
      while (seen_[slot] != kEmpty && seen_[slot] != key) {
        slot = (slot + 1) & (capacity - 1);
      }
      if (seen_[slot] == kEmpty) {
        seen_[slot] = key;
        rows_[kept++] = row;
      }
    }
    rows_.resize(kept);
  }

  compute::GroupTable pairs_;
  row::GroupKeyEncoder value_encoder_;
  std::vector<int64_t> counts_;
  // Scratch reused across batches.
  std::vector<int64_t> rows_;
  std::vector<int64_t> groups_;
  std::vector<std::string_view> views_;
  std::vector<uint64_t> seen_;
  std::vector<uint64_t> hashes_;
  std::vector<uint32_t> pair_ids_;
};

Result<DataType> NumericReturn(const std::vector<DataType>& args, const char* name) {
  if (args.size() != 1) {
    return Status::PlanError(std::string(name) + " expects 1 argument");
  }
  if (!args[0].is_numeric() && !args[0].is_decimal() && !args[0].is_null()) {
    return Status::PlanError(std::string(name) + " requires a numeric argument, got " +
                             args[0].ToString());
  }
  return args[0];
}

}  // namespace

void RegisterBuiltinAggregateFunctions(FunctionRegistry* registry) {
  auto reg = [registry](AggregateFunctionPtr fn) {
    registry->RegisterAggregate(std::move(fn)).Abort();
  };

  {
    auto fn = std::make_shared<AggregateFunctionDef>();
    fn->name = "count";
    fn->return_type = [](const std::vector<DataType>&) -> Result<DataType> {
      return int64();
    };
    fn->create = [](const std::vector<DataType>& args)
        -> Result<std::unique_ptr<GroupedAccumulator>> {
      return std::unique_ptr<GroupedAccumulator>(
          new CountAccumulator(/*count_star=*/args.empty()));
    };
    reg(fn);
  }
  {
    auto fn = std::make_shared<AggregateFunctionDef>();
    fn->name = "count_distinct";
    fn->return_type = [](const std::vector<DataType>&) -> Result<DataType> {
      return int64();
    };
    fn->create = [](const std::vector<DataType>& args)
        -> Result<std::unique_ptr<GroupedAccumulator>> {
      if (args.size() != 1) return Status::PlanError("count_distinct expects 1 argument");
      return std::unique_ptr<GroupedAccumulator>(new CountDistinctAccumulator(args[0]));
    };
    reg(fn);
  }
  {
    auto fn = std::make_shared<AggregateFunctionDef>();
    fn->name = "sum";
    fn->return_type = [](const std::vector<DataType>& args) -> Result<DataType> {
      FUSION_ASSIGN_OR_RAISE(DataType t, NumericReturn(args, "sum"));
      if (t.is_decimal()) return decimal128(kDecimalMaxPrecision, t.scale());
      return t.is_floating() ? float64() : int64();
    };
    fn->create = [](const std::vector<DataType>& args)
        -> Result<std::unique_ptr<GroupedAccumulator>> {
      switch (args[0].id()) {
        case TypeId::kInt32:
          return std::unique_ptr<GroupedAccumulator>(
              new SumAccumulator<int32_t, int64_t>());
        case TypeId::kInt64:
          return std::unique_ptr<GroupedAccumulator>(
              new SumAccumulator<int64_t, int64_t>());
        case TypeId::kFloat64:
          return std::unique_ptr<GroupedAccumulator>(
              new SumAccumulator<double, double>());
        case TypeId::kDecimal128:
          return std::unique_ptr<GroupedAccumulator>(
              new DecimalSumAccumulator(args[0]));
        default:
          return Status::TypeError("sum: unsupported type " + args[0].ToString());
      }
    };
    reg(fn);
  }
  auto reg_minmax = [&](const char* name, bool is_min) {
    auto fn = std::make_shared<AggregateFunctionDef>();
    fn->name = name;
    std::string fname = name;
    fn->return_type = [fname](const std::vector<DataType>& args) -> Result<DataType> {
      if (args.size() != 1) return Status::PlanError(fname + " expects 1 argument");
      return args[0];
    };
    fn->create = [is_min](const std::vector<DataType>& args)
        -> Result<std::unique_ptr<GroupedAccumulator>> {
      DataType t = args[0];
      switch (t.id()) {
        case TypeId::kInt32:
        case TypeId::kDate32:
          return is_min ? std::unique_ptr<GroupedAccumulator>(
                              new MinMaxAccumulator<int32_t, true>(t))
                        : std::unique_ptr<GroupedAccumulator>(
                              new MinMaxAccumulator<int32_t, false>(t));
        case TypeId::kInt64:
        case TypeId::kTimestamp:
          return is_min ? std::unique_ptr<GroupedAccumulator>(
                              new MinMaxAccumulator<int64_t, true>(t))
                        : std::unique_ptr<GroupedAccumulator>(
                              new MinMaxAccumulator<int64_t, false>(t));
        case TypeId::kFloat64:
          return is_min ? std::unique_ptr<GroupedAccumulator>(
                              new MinMaxAccumulator<double, true>(t))
                        : std::unique_ptr<GroupedAccumulator>(
                              new MinMaxAccumulator<double, false>(t));
        case TypeId::kDecimal128:
          return is_min ? std::unique_ptr<GroupedAccumulator>(
                              new MinMaxAccumulator<Decimal128, true>(t))
                        : std::unique_ptr<GroupedAccumulator>(
                              new MinMaxAccumulator<Decimal128, false>(t));
        case TypeId::kString:
          return is_min ? std::unique_ptr<GroupedAccumulator>(
                              new MinMaxStringAccumulator<true>())
                        : std::unique_ptr<GroupedAccumulator>(
                              new MinMaxStringAccumulator<false>());
        default:
          return Status::TypeError("min/max: unsupported type " + t.ToString());
      }
    };
    reg(fn);
  };
  reg_minmax("min", true);
  reg_minmax("max", false);
  {
    auto fn = std::make_shared<AggregateFunctionDef>();
    fn->name = "avg";
    fn->return_type = [](const std::vector<DataType>& args) -> Result<DataType> {
      FUSION_ASSIGN_OR_RAISE(DataType t, NumericReturn(args, "avg"));
      if (t.is_decimal()) {
        return decimal128(kDecimalMaxPrecision,
                          std::min<int>(kDecimalMaxPrecision, t.scale() + 4));
      }
      return float64();
    };
    fn->create = [](const std::vector<DataType>& args)
        -> Result<std::unique_ptr<GroupedAccumulator>> {
      if (!args.empty() && args[0].is_decimal()) {
        return std::unique_ptr<GroupedAccumulator>(
            new DecimalAvgAccumulator(args[0]));
      }
      return std::unique_ptr<GroupedAccumulator>(new AvgAccumulator());
    };
    reg(fn);
  }
  auto reg_var = [&](const char* name, bool stddev) {
    auto fn = std::make_shared<AggregateFunctionDef>();
    fn->name = name;
    fn->return_type = [](const std::vector<DataType>&) -> Result<DataType> {
      return float64();
    };
    fn->create = [stddev](const std::vector<DataType>&)
        -> Result<std::unique_ptr<GroupedAccumulator>> {
      return std::unique_ptr<GroupedAccumulator>(new VarianceAccumulator(stddev));
    };
    reg(fn);
  };
  reg_var("stddev", true);
  reg_var("stddev_samp", true);
  reg_var("var", false);
  reg_var("var_samp", false);
  {
    auto fn = std::make_shared<AggregateFunctionDef>();
    fn->name = "corr";
    fn->return_type = [](const std::vector<DataType>&) -> Result<DataType> {
      return float64();
    };
    fn->create = [](const std::vector<DataType>&)
        -> Result<std::unique_ptr<GroupedAccumulator>> {
      return std::unique_ptr<GroupedAccumulator>(new CorrAccumulator());
    };
    reg(fn);
  }
  {
    auto fn = std::make_shared<AggregateFunctionDef>();
    fn->name = "median";
    fn->return_type = [](const std::vector<DataType>&) -> Result<DataType> {
      return float64();
    };
    fn->create = [](const std::vector<DataType>&)
        -> Result<std::unique_ptr<GroupedAccumulator>> {
      return std::unique_ptr<GroupedAccumulator>(new MedianAccumulator());
    };
    reg(fn);
  }
}

}  // namespace logical
}  // namespace fusion
