#include <algorithm>

#include "arrow/builder.h"
#include "arrow/record_batch.h"
#include "compute/selection.h"
#include "logical/functions.h"

namespace fusion {
namespace logical {

namespace {

Result<DataType> Int64Return(const std::vector<DataType>&) { return int64(); }

WindowFunctionPtr MakeRankLike(const char* name,
                               std::function<void(const WindowPartition&,
                                                  std::vector<int64_t>*)> fill) {
  auto fn = std::make_shared<WindowFunctionDef>();
  fn->name = name;
  fn->return_type = Int64Return;
  fn->uses_frame = false;
  fn->eval = [fill](const WindowPartition& p) -> Result<ArrayPtr> {
    std::vector<int64_t> out(p.num_rows);
    fill(p, &out);
    return MakeInt64Array(out);
  };
  return fn;
}

/// lag/lead: offset and default value come from literal arguments
/// (materialized as constant columns by the window operator).
WindowFunctionPtr MakeShift(const char* name, int direction) {
  auto fn = std::make_shared<WindowFunctionDef>();
  fn->name = name;
  fn->return_type = [](const std::vector<DataType>& args) -> Result<DataType> {
    if (args.empty()) return Status::PlanError("lag/lead expects an argument");
    return args[0];
  };
  fn->uses_frame = false;
  fn->eval = [direction](const WindowPartition& p) -> Result<ArrayPtr> {
    int64_t offset = 1;
    if (p.args.size() > 1 && p.num_rows > 0 && p.args[1]->IsValid(0)) {
      offset = checked_cast<Int64Array>(*p.args[1]).Value(0);
    }
    const Array& values = *p.args[0];
    FUSION_ASSIGN_OR_RAISE(auto builder, MakeBuilder(values.type()));
    builder->Reserve(p.num_rows);
    const Array* defaults =
        p.args.size() > 2 ? p.args[2].get() : nullptr;
    for (int64_t i = 0; i < p.num_rows; ++i) {
      int64_t src = i - direction * offset;
      if (src >= p.partition_start[i] && src < p.partition_end[i]) {
        builder->AppendFrom(values, src);
      } else if (defaults != nullptr && defaults->IsValid(i)) {
        builder->AppendFrom(*defaults, i);
      } else {
        builder->AppendNull();
      }
    }
    return builder->Finish();
  };
  return fn;
}

/// Rows whose frames one merge round covers, and the partial-state bytes
/// their frames may span: together they bound the node lists and the
/// round's output accumulator, which for an aggregate that keeps every
/// value (median, count_distinct) holds each row's whole frame.
constexpr int64_t kFrameMergeRows = 4096;
constexpr int64_t kFrameMergeBytes = int64_t{8} << 20;

/// An aggregate's value over every row's frame, computed with its own
/// GroupedAccumulator. Frames that are whole partitions take one Update
/// with one group per partition, broadcast to the rows. Any other frame
/// shape reads a segment tree of partial states (Leis et al., "Efficient
/// Processing of Window Functions in Analytical SQL Queries", VLDB 2015):
/// level 0 has one group per row, each level above merges pairs of nodes
/// with UpdateFromPartial, and a frame is covered by at most two nodes
/// per level, merged into its row's group of an output accumulator that
/// serves one round of rows. Each level is charged through `p.reserve`
/// as it is built, and each round's state before its merges.
Result<ArrayPtr> EvalAggregateFrames(const AggregateFunctionDef& agg,
                                     const WindowPartition& p) {
  std::vector<DataType> types;
  for (const auto& a : p.args) types.push_back(a->type());
  auto make = [&](int64_t groups) -> Result<std::unique_ptr<GroupedAccumulator>> {
    FUSION_ASSIGN_OR_RAISE(auto acc, agg.create(types));
    acc->Resize(groups);
    return acc;
  };
  auto reserve = [&](int64_t bytes) { return p.reserve ? p.reserve(bytes) : Status::OK(); };
  const int64_t n = p.num_rows;
  std::vector<uint32_t> ids(static_cast<size_t>(n));

  bool whole_partitions = true;
  for (int64_t i = 0; whole_partitions && i < n; ++i) {
    whole_partitions = p.frame_start[i] == p.partition_start[i] &&
                       p.frame_end[i] == p.partition_end[i];
  }
  if (whole_partitions) {
    std::vector<int64_t> group_of_row(static_cast<size_t>(n));
    int64_t groups = 0;
    for (int64_t i = 0; i < n; ++i) {
      if (i == p.partition_start[i]) ++groups;
      group_of_row[i] = groups - 1;
      ids[i] = static_cast<uint32_t>(groups - 1);
    }
    FUSION_ASSIGN_OR_RAISE(auto acc, make(groups));
    FUSION_RETURN_NOT_OK(acc->Update(p.args, ids, nullptr));
    FUSION_RETURN_NOT_OK(reserve(acc->SizeBytes()));
    FUSION_ASSIGN_OR_RAISE(auto values, acc->Finish());
    return compute::Take(*values, group_of_row);
  }

  // levels[l] holds the states of nodes covering 2^l rows each.
  std::vector<std::vector<ArrayPtr>> levels;
  std::vector<int64_t> node_bytes;  ///< a node's mean state bytes, per level
  int64_t tree_bytes = 0;
  auto add_level = [&](GroupedAccumulator* acc) -> Status {
    FUSION_RETURN_NOT_OK(reserve(tree_bytes + 2 * acc->SizeBytes()));
    FUSION_ASSIGN_OR_RAISE(auto state, acc->PartialState());
    int64_t bytes = 0;
    for (const auto& column : state) bytes += TotalBufferSize(*column);
    tree_bytes += bytes;
    node_bytes.push_back(bytes / std::max<int64_t>(1, state.front()->length()) + 1);
    levels.push_back(std::move(state));
    return Status::OK();
  };
  for (int64_t i = 0; i < n; ++i) ids[i] = static_cast<uint32_t>(i);
  {
    FUSION_ASSIGN_OR_RAISE(auto leaves, make(n));
    FUSION_RETURN_NOT_OK(leaves->Update(p.args, ids, nullptr));
    FUSION_RETURN_NOT_OK(add_level(leaves.get()));
  }
  for (int64_t width = n; width > 1; width = (width + 1) / 2) {
    for (int64_t j = 0; j < width; ++j) ids[j] = static_cast<uint32_t>(j / 2);
    ids.resize(static_cast<size_t>(width));
    FUSION_ASSIGN_OR_RAISE(auto parents, make((width + 1) / 2));
    FUSION_RETURN_NOT_OK(parents->UpdateFromPartial(levels.back(), ids));
    FUSION_RETURN_NOT_OK(add_level(parents.get()));
  }

  std::vector<ArrayPtr> pieces;
  std::vector<std::vector<int64_t>> nodes(levels.size());
  std::vector<std::vector<uint32_t>> rows(levels.size());
  for (int64_t begin = 0, end = 0; begin < n; begin = end) {
    // A round takes rows until it has kFrameMergeRows of them or their
    // frames' states reach kFrameMergeBytes.
    for (int64_t bytes = 0;
         end < n && end - begin < kFrameMergeRows && bytes < kFrameMergeBytes; ++end) {
      const auto row = static_cast<uint32_t>(end - begin);
      int64_t lo = p.frame_start[end];
      int64_t hi = p.frame_end[end];
      for (size_t level = 0; lo < hi; ++level, lo /= 2, hi /= 2) {
        if (lo % 2 == 1) {
          nodes[level].push_back(lo++);
          rows[level].push_back(row);
          bytes += node_bytes[level];
        }
        if (hi % 2 == 1) {
          nodes[level].push_back(--hi);
          rows[level].push_back(row);
          bytes += node_bytes[level];
        }
      }
    }
    FUSION_ASSIGN_OR_RAISE(auto out, make(end - begin));
    for (size_t level = 0; level < levels.size(); ++level) {
      if (nodes[level].empty()) continue;
      // The taken states, and as much again in the output they merge into.
      const int64_t taken = node_bytes[level] * static_cast<int64_t>(nodes[level].size());
      FUSION_RETURN_NOT_OK(reserve(tree_bytes + out->SizeBytes() + 2 * taken));
      std::vector<ArrayPtr> state;
      for (const auto& column : levels[level]) {
        FUSION_ASSIGN_OR_RAISE(auto picked, compute::Take(*column, nodes[level]));
        state.push_back(std::move(picked));
      }
      FUSION_RETURN_NOT_OK(out->UpdateFromPartial(state, rows[level]));
      nodes[level].clear();
      rows[level].clear();
    }
    FUSION_ASSIGN_OR_RAISE(auto piece, out->Finish());
    pieces.push_back(std::move(piece));
  }
  if (pieces.size() == 1) return pieces.front();
  return Concatenate(pieces);
}

}  // namespace

void RegisterBuiltinWindowFunctions(FunctionRegistry* registry) {
  auto reg = [registry](WindowFunctionPtr fn) {
    registry->RegisterWindow(std::move(fn)).Abort();
  };

  reg(MakeRankLike("row_number", [](const WindowPartition& p,
                                    std::vector<int64_t>* out) {
    for (int64_t i = 0; i < p.num_rows; ++i) (*out)[i] = i - p.partition_start[i] + 1;
  }));
  reg(MakeRankLike("rank", [](const WindowPartition& p, std::vector<int64_t>* out) {
    for (int64_t i = 0; i < p.num_rows; ++i) {
      (*out)[i] = p.peer_start[i] - p.partition_start[i] + 1;
    }
  }));
  reg(MakeRankLike("dense_rank",
                   [](const WindowPartition& p, std::vector<int64_t>* out) {
                     int64_t rank = 0;
                     for (int64_t i = 0; i < p.num_rows; ++i) {
                       if (i == p.partition_start[i]) rank = 0;
                       if (i == p.peer_start[i]) ++rank;
                       (*out)[i] = rank;
                     }
                   }));
  reg(MakeShift("lag", 1));
  reg(MakeShift("lead", -1));

  {
    auto fn = std::make_shared<WindowFunctionDef>();
    fn->name = "first_value";
    fn->uses_frame = true;
    fn->return_type = [](const std::vector<DataType>& args) -> Result<DataType> {
      if (args.empty()) return Status::PlanError("first_value expects an argument");
      return args[0];
    };
    fn->eval = [](const WindowPartition& p) -> Result<ArrayPtr> {
      const Array& values = *p.args[0];
      FUSION_ASSIGN_OR_RAISE(auto builder, MakeBuilder(values.type()));
      for (int64_t i = 0; i < p.num_rows; ++i) {
        if (p.frame_start[i] < p.frame_end[i]) {
          builder->AppendFrom(values, p.frame_start[i]);
        } else {
          builder->AppendNull();
        }
      }
      return builder->Finish();
    };
    reg(fn);
  }
  {
    auto fn = std::make_shared<WindowFunctionDef>();
    fn->name = "last_value";
    fn->uses_frame = true;
    fn->return_type = [](const std::vector<DataType>& args) -> Result<DataType> {
      if (args.empty()) return Status::PlanError("last_value expects an argument");
      return args[0];
    };
    fn->eval = [](const WindowPartition& p) -> Result<ArrayPtr> {
      const Array& values = *p.args[0];
      FUSION_ASSIGN_OR_RAISE(auto builder, MakeBuilder(values.type()));
      for (int64_t i = 0; i < p.num_rows; ++i) {
        if (p.frame_start[i] < p.frame_end[i]) {
          builder->AppendFrom(values, p.frame_end[i] - 1);
        } else {
          builder->AppendNull();
        }
      }
      return builder->Finish();
    };
    reg(fn);
  }
}

WindowFunctionPtr AggregateWindow(AggregateFunctionPtr aggregate) {
  auto fn = std::make_shared<WindowFunctionDef>();
  fn->name = aggregate->name;
  fn->return_type = aggregate->return_type;
  fn->uses_frame = true;
  fn->eval = [aggregate](const WindowPartition& p) {
    return EvalAggregateFrames(*aggregate, p);
  };
  return fn;
}

}  // namespace logical
}  // namespace fusion
