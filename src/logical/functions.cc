#include "logical/functions.h"

#include <cmath>

#include "arrow/builder.h"
#include "compute/cast.h"
#include "compute/string_kernels.h"
#include "compute/temporal.h"
#include "common/macros.h"

namespace fusion {
namespace logical {

// ------------------------------------------------------------- registry

std::shared_ptr<FunctionRegistry> FunctionRegistry::Default() {
  auto registry = std::make_shared<FunctionRegistry>();
  RegisterBuiltinScalarFunctions(registry.get());
  RegisterBuiltinAggregateFunctions(registry.get());
  RegisterBuiltinWindowFunctions(registry.get());
  return registry;
}

Status FunctionRegistry::RegisterScalar(ScalarFunctionPtr fn) {
  scalar_[fn->name] = std::move(fn);
  return Status::OK();
}

Status FunctionRegistry::RegisterAggregate(AggregateFunctionPtr fn) {
  aggregate_[fn->name] = std::move(fn);
  return Status::OK();
}

Status FunctionRegistry::RegisterWindow(WindowFunctionPtr fn) {
  window_[fn->name] = std::move(fn);
  return Status::OK();
}

Result<ScalarFunctionPtr> FunctionRegistry::GetScalar(const std::string& name) const {
  auto it = scalar_.find(name);
  if (it == scalar_.end()) {
    return Status::KeyError("no scalar function named '" + name + "'");
  }
  return it->second;
}

Result<AggregateFunctionPtr> FunctionRegistry::GetAggregate(
    const std::string& name) const {
  auto it = aggregate_.find(name);
  if (it == aggregate_.end()) {
    return Status::KeyError("no aggregate function named '" + name + "'");
  }
  return it->second;
}

Result<WindowFunctionPtr> FunctionRegistry::GetWindow(const std::string& name) const {
  auto it = window_.find(name);
  if (it != window_.end()) return it->second;
  auto agg = aggregate_.find(name);
  if (agg != aggregate_.end()) return AggregateWindow(agg->second);
  return Status::KeyError("no window function named '" + name + "'");
}

std::vector<std::string> FunctionRegistry::ScalarNames() const {
  std::vector<std::string> out;
  out.reserve(scalar_.size());
  for (const auto& [name, fn] : scalar_) out.push_back(name);
  return out;
}

// ------------------------------------------------------- scalar builtins

namespace {

Result<DataType> CheckArity(const std::vector<DataType>& args, size_t n,
                            const char* name, DataType ret) {
  if (args.size() != n) {
    return Status::PlanError(std::string(name) + " expects " + std::to_string(n) +
                             " arguments");
  }
  return ret;
}

/// Unary float64 math function over a numeric column.
ScalarFunctionPtr MakeFloatUnary(const char* name, double (*fn)(double)) {
  auto def = std::make_shared<ScalarFunctionDef>();
  def->name = name;
  std::string fname = name;
  def->return_type = [fname](const std::vector<DataType>& args) {
    return CheckArity(args, 1, fname.c_str(), float64());
  };
  def->impl = [fn](const std::vector<ColumnarValue>& args,
                   int64_t num_rows) -> Result<ColumnarValue> {
    FUSION_ASSIGN_OR_RAISE(auto arr, args[0].ToArray(num_rows));
    FUSION_ASSIGN_OR_RAISE(auto as_double, compute::Cast(*arr, float64()));
    const auto& in = checked_cast<Float64Array>(*as_double);
    Float64Builder builder;
    builder.Reserve(in.length());
    for (int64_t i = 0; i < in.length(); ++i) {
      if (in.IsNull(i)) {
        builder.AppendNull();
      } else {
        builder.Append(fn(in.Value(i)));
      }
    }
    FUSION_ASSIGN_OR_RAISE(auto out, builder.Finish());
    return ColumnarValue(std::move(out));
  };
  return def;
}

Result<ColumnarValue> AbsImpl(const std::vector<ColumnarValue>& args,
                              int64_t num_rows) {
  FUSION_ASSIGN_OR_RAISE(auto arr, args[0].ToArray(num_rows));
  if (arr->type().is_null()) return ColumnarValue(std::move(arr));
  switch (arr->type().id()) {
    case TypeId::kInt32: {
      Int32Builder b;
      const auto& in = checked_cast<Int32Array>(*arr);
      for (int64_t i = 0; i < in.length(); ++i) {
        in.IsNull(i) ? b.AppendNull() : b.Append(std::abs(in.Value(i)));
      }
      FUSION_ASSIGN_OR_RAISE(auto out, b.Finish());
      return ColumnarValue(std::move(out));
    }
    case TypeId::kInt64: {
      Int64Builder b;
      const auto& in = checked_cast<Int64Array>(*arr);
      for (int64_t i = 0; i < in.length(); ++i) {
        in.IsNull(i) ? b.AppendNull() : b.Append(std::llabs(in.Value(i)));
      }
      FUSION_ASSIGN_OR_RAISE(auto out, b.Finish());
      return ColumnarValue(std::move(out));
    }
    case TypeId::kFloat64: {
      Float64Builder b;
      const auto& in = checked_cast<Float64Array>(*arr);
      for (int64_t i = 0; i < in.length(); ++i) {
        in.IsNull(i) ? b.AppendNull() : b.Append(std::fabs(in.Value(i)));
      }
      FUSION_ASSIGN_OR_RAISE(auto out, b.Finish());
      return ColumnarValue(std::move(out));
    }
    default:
      return Status::TypeError("abs: unsupported type " + arr->type().ToString());
  }
}

Result<ColumnarValue> RoundImpl(const std::vector<ColumnarValue>& args,
                                int64_t num_rows) {
  FUSION_ASSIGN_OR_RAISE(auto arr, args[0].ToArray(num_rows));
  FUSION_ASSIGN_OR_RAISE(auto as_double, compute::Cast(*arr, float64()));
  double scale = 1.0;
  if (args.size() > 1) {
    if (!args[1].is_scalar()) {
      return Status::Invalid("round: digits must be a literal");
    }
    scale = std::pow(10.0, args[1].scalar().AsDouble());
  }
  const auto& in = checked_cast<Float64Array>(*as_double);
  Float64Builder builder;
  for (int64_t i = 0; i < in.length(); ++i) {
    if (in.IsNull(i)) {
      builder.AppendNull();
    } else {
      builder.Append(std::round(in.Value(i) * scale) / scale);
    }
  }
  FUSION_ASSIGN_OR_RAISE(auto out, builder.Finish());
  return ColumnarValue(std::move(out));
}

compute::DateField ParseDateField(const std::string& field) {
  if (field == "year") return compute::DateField::kYear;
  if (field == "month") return compute::DateField::kMonth;
  if (field == "day") return compute::DateField::kDay;
  if (field == "hour") return compute::DateField::kHour;
  if (field == "minute") return compute::DateField::kMinute;
  if (field == "second") return compute::DateField::kSecond;
  return compute::DateField::kDayOfWeek;
}

compute::TruncUnit ParseTruncUnit(const std::string& unit) {
  if (unit == "year") return compute::TruncUnit::kYear;
  if (unit == "month") return compute::TruncUnit::kMonth;
  if (unit == "day") return compute::TruncUnit::kDay;
  if (unit == "hour") return compute::TruncUnit::kHour;
  return compute::TruncUnit::kMinute;
}

}  // namespace

void RegisterBuiltinScalarFunctions(FunctionRegistry* registry) {
  auto reg = [registry](ScalarFunctionPtr fn) {
    registry->RegisterScalar(std::move(fn)).Abort();
  };

  // Math -------------------------------------------------------------
  {
    auto abs_fn = std::make_shared<ScalarFunctionDef>();
    abs_fn->name = "abs";
    abs_fn->return_type = [](const std::vector<DataType>& args) -> Result<DataType> {
      if (args.size() != 1) return Status::PlanError("abs expects 1 argument");
      return args[0];
    };
    abs_fn->impl = AbsImpl;
    reg(abs_fn);
  }
  reg(MakeFloatUnary("sqrt", [](double x) { return std::sqrt(x); }));
  reg(MakeFloatUnary("exp", [](double x) { return std::exp(x); }));
  reg(MakeFloatUnary("ln", [](double x) { return std::log(x); }));
  reg(MakeFloatUnary("log10", [](double x) { return std::log10(x); }));
  reg(MakeFloatUnary("ceil", [](double x) { return std::ceil(x); }));
  reg(MakeFloatUnary("floor", [](double x) { return std::floor(x); }));
  reg(MakeFloatUnary("sign", [](double x) { return x > 0 ? 1.0 : (x < 0 ? -1.0 : 0.0); }));
  {
    auto round_fn = std::make_shared<ScalarFunctionDef>();
    round_fn->name = "round";
    round_fn->return_type = [](const std::vector<DataType>& args) -> Result<DataType> {
      if (args.empty() || args.size() > 2) {
        return Status::PlanError("round expects 1 or 2 arguments");
      }
      return float64();
    };
    round_fn->impl = RoundImpl;
    reg(round_fn);
  }
  {
    auto power_fn = std::make_shared<ScalarFunctionDef>();
    power_fn->name = "power";
    power_fn->return_type = [](const std::vector<DataType>& args) {
      return CheckArity(args, 2, "power", float64());
    };
    power_fn->impl = [](const std::vector<ColumnarValue>& args,
                        int64_t num_rows) -> Result<ColumnarValue> {
      FUSION_ASSIGN_OR_RAISE(auto base_arr, args[0].ToArray(num_rows));
      FUSION_ASSIGN_OR_RAISE(auto exp_arr, args[1].ToArray(num_rows));
      FUSION_ASSIGN_OR_RAISE(auto base, compute::Cast(*base_arr, float64()));
      FUSION_ASSIGN_OR_RAISE(auto exponent, compute::Cast(*exp_arr, float64()));
      const auto& b = checked_cast<Float64Array>(*base);
      const auto& e = checked_cast<Float64Array>(*exponent);
      Float64Builder builder;
      for (int64_t i = 0; i < b.length(); ++i) {
        if (b.IsNull(i) || e.IsNull(i)) {
          builder.AppendNull();
        } else {
          builder.Append(std::pow(b.Value(i), e.Value(i)));
        }
      }
      FUSION_ASSIGN_OR_RAISE(auto out, builder.Finish());
      return ColumnarValue(std::move(out));
    };
    reg(power_fn);
  }

  // Strings ------------------------------------------------------------
  auto reg_string1 = [&](const char* name,
                         Result<ArrayPtr> (*kernel)(const Array&),
                         DataType ret) {
    auto fn = std::make_shared<ScalarFunctionDef>();
    fn->name = name;
    std::string fname = name;
    fn->return_type = [fname, ret](const std::vector<DataType>& args) {
      return CheckArity(args, 1, fname.c_str(), ret);
    };
    fn->impl = [kernel](const std::vector<ColumnarValue>& args,
                        int64_t num_rows) -> Result<ColumnarValue> {
      FUSION_ASSIGN_OR_RAISE(auto arr, args[0].ToArray(num_rows));
      FUSION_ASSIGN_OR_RAISE(auto out, kernel(*arr));
      return ColumnarValue(std::move(out));
    };
    reg(fn);
  };
  reg_string1("upper", compute::Upper, utf8());
  reg_string1("lower", compute::Lower, utf8());
  reg_string1("trim", compute::Trim, utf8());
  reg_string1("length", compute::Length, int64());
  reg_string1("char_length", compute::Length, int64());
  {
    auto substr_fn = std::make_shared<ScalarFunctionDef>();
    substr_fn->name = "substr";
    substr_fn->return_type = [](const std::vector<DataType>& args) -> Result<DataType> {
      if (args.size() < 2 || args.size() > 3) {
        return Status::PlanError("substr expects 2 or 3 arguments");
      }
      return utf8();
    };
    substr_fn->impl = [](const std::vector<ColumnarValue>& args,
                         int64_t num_rows) -> Result<ColumnarValue> {
      FUSION_ASSIGN_OR_RAISE(auto arr, args[0].ToArray(num_rows));
      if (!args[1].is_scalar() || (args.size() > 2 && !args[2].is_scalar())) {
        return Status::NotImplemented("substr: start/length must be literals");
      }
      int64_t start = args[1].scalar().int_value();
      int64_t len = args.size() > 2 ? args[2].scalar().int_value() : -1;
      FUSION_ASSIGN_OR_RAISE(auto out, compute::Substr(*arr, start, len));
      return ColumnarValue(std::move(out));
    };
    reg(substr_fn);
  }
  {
    auto concat_fn = std::make_shared<ScalarFunctionDef>();
    concat_fn->name = "concat";
    concat_fn->return_type = [](const std::vector<DataType>& args) -> Result<DataType> {
      if (args.empty()) return Status::PlanError("concat expects arguments");
      return utf8();
    };
    concat_fn->impl = [](const std::vector<ColumnarValue>& args,
                         int64_t num_rows) -> Result<ColumnarValue> {
      FUSION_ASSIGN_OR_RAISE(auto acc_any, args[0].ToArray(num_rows));
      FUSION_ASSIGN_OR_RAISE(auto acc, compute::Cast(*acc_any, utf8()));
      for (size_t i = 1; i < args.size(); ++i) {
        FUSION_ASSIGN_OR_RAISE(auto next_any, args[i].ToArray(num_rows));
        FUSION_ASSIGN_OR_RAISE(auto next, compute::Cast(*next_any, utf8()));
        FUSION_ASSIGN_OR_RAISE(acc, compute::ConcatStrings(*acc, *next));
      }
      return ColumnarValue(std::move(acc));
    };
    reg(concat_fn);
  }
  {
    auto replace_fn = std::make_shared<ScalarFunctionDef>();
    replace_fn->name = "replace";
    replace_fn->return_type = [](const std::vector<DataType>& args) {
      return CheckArity(args, 3, "replace", utf8());
    };
    replace_fn->impl = [](const std::vector<ColumnarValue>& args,
                          int64_t num_rows) -> Result<ColumnarValue> {
      FUSION_ASSIGN_OR_RAISE(auto arr, args[0].ToArray(num_rows));
      if (!args[1].is_scalar() || !args[2].is_scalar()) {
        return Status::NotImplemented("replace: patterns must be literals");
      }
      FUSION_ASSIGN_OR_RAISE(auto out,
                             compute::ReplaceAll(*arr, args[1].scalar().string_value(),
                                                 args[2].scalar().string_value()));
      return ColumnarValue(std::move(out));
    };
    reg(replace_fn);
  }
  auto reg_string_pred = [&](const char* name,
                             Result<ArrayPtr> (*kernel)(const Array&,
                                                        std::string_view)) {
    auto fn = std::make_shared<ScalarFunctionDef>();
    fn->name = name;
    std::string fname = name;
    fn->return_type = [fname](const std::vector<DataType>& args) {
      return CheckArity(args, 2, fname.c_str(), boolean());
    };
    fn->impl = [kernel](const std::vector<ColumnarValue>& args,
                        int64_t num_rows) -> Result<ColumnarValue> {
      FUSION_ASSIGN_OR_RAISE(auto arr, args[0].ToArray(num_rows));
      if (!args[1].is_scalar()) {
        return Status::NotImplemented("pattern must be a literal");
      }
      FUSION_ASSIGN_OR_RAISE(auto out,
                             kernel(*arr, args[1].scalar().string_value()));
      return ColumnarValue(std::move(out));
    };
    reg(fn);
  };
  reg_string_pred("starts_with", compute::StartsWith);
  reg_string_pred("ends_with", compute::EndsWith);
  reg_string_pred("contains", compute::Contains);

  // Temporal -----------------------------------------------------------
  {
    auto date_part_fn = std::make_shared<ScalarFunctionDef>();
    date_part_fn->name = "date_part";
    date_part_fn->return_type = [](const std::vector<DataType>& args) {
      return CheckArity(args, 2, "date_part", int64());
    };
    date_part_fn->impl = [](const std::vector<ColumnarValue>& args,
                            int64_t num_rows) -> Result<ColumnarValue> {
      if (!args[0].is_scalar()) {
        return Status::Invalid("date_part: field must be a literal");
      }
      FUSION_ASSIGN_OR_RAISE(auto arr, args[1].ToArray(num_rows));
      FUSION_ASSIGN_OR_RAISE(
          auto out,
          compute::Extract(ParseDateField(args[0].scalar().string_value()), *arr));
      return ColumnarValue(std::move(out));
    };
    reg(date_part_fn);
  }
  {
    auto date_trunc_fn = std::make_shared<ScalarFunctionDef>();
    date_trunc_fn->name = "date_trunc";
    date_trunc_fn->return_type =
        [](const std::vector<DataType>& args) -> Result<DataType> {
      if (args.size() != 2) return Status::PlanError("date_trunc expects 2 args");
      return args[1];
    };
    date_trunc_fn->impl = [](const std::vector<ColumnarValue>& args,
                             int64_t num_rows) -> Result<ColumnarValue> {
      if (!args[0].is_scalar()) {
        return Status::Invalid("date_trunc: unit must be a literal");
      }
      FUSION_ASSIGN_OR_RAISE(auto arr, args[1].ToArray(num_rows));
      FUSION_ASSIGN_OR_RAISE(
          auto out,
          compute::DateTrunc(ParseTruncUnit(args[0].scalar().string_value()), *arr));
      return ColumnarValue(std::move(out));
    };
    reg(date_trunc_fn);
  }
  {
    auto to_date_fn = std::make_shared<ScalarFunctionDef>();
    to_date_fn->name = "to_date";
    to_date_fn->return_type = [](const std::vector<DataType>& args) {
      return CheckArity(args, 1, "to_date", date32());
    };
    to_date_fn->impl = [](const std::vector<ColumnarValue>& args,
                          int64_t num_rows) -> Result<ColumnarValue> {
      FUSION_ASSIGN_OR_RAISE(auto arr, args[0].ToArray(num_rows));
      const Array& sa = *arr;
      Date32Builder builder;
      for (int64_t i = 0; i < sa.length(); ++i) {
        if (sa.IsNull(i)) {
          builder.AppendNull();
          continue;
        }
        auto days = compute::ParseDate32(std::string(StringLikeValue(sa, i)));
        if (!days.ok()) {
          builder.AppendNull();
        } else {
          builder.Append(*days);
        }
      }
      FUSION_ASSIGN_OR_RAISE(auto out, builder.Finish());
      return ColumnarValue(std::move(out));
    };
    reg(to_date_fn);
  }

  // Conditional ----------------------------------------------------------
  {
    auto coalesce_fn = std::make_shared<ScalarFunctionDef>();
    coalesce_fn->name = "coalesce";
    coalesce_fn->return_type =
        [](const std::vector<DataType>& args) -> Result<DataType> {
      if (args.empty()) return Status::PlanError("coalesce expects arguments");
      DataType t = args[0];
      for (const auto& a : args) {
        FUSION_ASSIGN_OR_RAISE(t, compute::CommonType(t, a));
      }
      return t;
    };
    coalesce_fn->impl = [](const std::vector<ColumnarValue>& args,
                           int64_t num_rows) -> Result<ColumnarValue> {
      DataType out_type = null_type();
      for (const auto& a : args) {
        FUSION_ASSIGN_OR_RAISE(out_type, compute::CommonType(out_type, a.type()));
      }
      std::vector<ArrayPtr> arrays;
      for (const auto& a : args) {
        FUSION_ASSIGN_OR_RAISE(auto arr, a.ToArray(num_rows));
        FUSION_ASSIGN_OR_RAISE(arr, compute::Cast(*arr, out_type));
        arrays.push_back(std::move(arr));
      }
      FUSION_ASSIGN_OR_RAISE(auto builder, MakeBuilder(out_type));
      for (int64_t i = 0; i < num_rows; ++i) {
        bool done = false;
        for (const auto& arr : arrays) {
          if (arr->IsValid(i)) {
            builder->AppendFrom(*arr, i);
            done = true;
            break;
          }
        }
        if (!done) builder->AppendNull();
      }
      FUSION_ASSIGN_OR_RAISE(auto out, builder->Finish());
      return ColumnarValue(std::move(out));
    };
    reg(coalesce_fn);
  }
  {
    auto nullif_fn = std::make_shared<ScalarFunctionDef>();
    nullif_fn->name = "nullif";
    nullif_fn->return_type =
        [](const std::vector<DataType>& args) -> Result<DataType> {
      if (args.size() != 2) return Status::PlanError("nullif expects 2 args");
      return args[0];
    };
    nullif_fn->impl = [](const std::vector<ColumnarValue>& args,
                         int64_t num_rows) -> Result<ColumnarValue> {
      FUSION_ASSIGN_OR_RAISE(auto a, args[0].ToArray(num_rows));
      FUSION_ASSIGN_OR_RAISE(auto b_any, args[1].ToArray(num_rows));
      FUSION_ASSIGN_OR_RAISE(auto b, compute::Cast(*b_any, a->type()));
      FUSION_ASSIGN_OR_RAISE(auto builder, MakeBuilder(a->type()));
      for (int64_t i = 0; i < num_rows; ++i) {
        if (a->IsValid(i) && b->IsValid(i) && ArrayElementsEqual(*a, i, *b, i)) {
          builder->AppendNull();
        } else {
          builder->AppendFrom(*a, i);
        }
      }
      FUSION_ASSIGN_OR_RAISE(auto out, builder->Finish());
      return ColumnarValue(std::move(out));
    };
    reg(nullif_fn);
  }
}

}  // namespace logical
}  // namespace fusion
