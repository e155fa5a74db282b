// fusion_perfbench: the repository's end-to-end benchmark.
//
//   fusion_perfbench --workload clickbench|tpch|serving --seed N
//                    --seconds S --trace 0|1 --work-dir DIR
//                    --expected-dir DIR --out-dir DIR [--source-id ID]
//                    [--record FILE]
//
// Prints a host fingerprint, one line per metric with its sample count,
// and as the last line one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// Untraced runs print the end-to-end metrics; traced runs (--trace 1)
// print the per-layer metrics and write their spans to --out-dir.
// run.py builds this program and is the command to use; see README.md.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>

#include "perfbench/perfbench.h"

using namespace fusion;             // NOLINT
using namespace fusion::perfbench;  // NOLINT

namespace {

// The metrics BENCHMARK.json declares, in its order: untraced runs print
// the end-to-end ones, traced runs the per-layer ones.
struct MetricSpec {
  const char* name;
  const char* unit;
};

const std::vector<MetricSpec> kEndToEnd = {
    {"setup_s", "s"},    {"total_s", "s"}, {"geomean_ms", "ms"},     {"p50_ms", "ms"},
    {"tail_ms", "ms"},   {"qps", "1/s"},   {"peak_rss_mb", "MiB"},
};

const std::vector<MetricSpec> kPerLayer = {
    {"sql.bind_ms", "ms"},
    {"optimizer.optimize_ms", "ms"},
    {"physical.plan_ms", "ms"},
    {"exec.run_ms", "ms"},
    {"core.planning_share", "ratio"},
    {"exec.parallelism", "ratio"},
    {"format.scan_ms", "ms"},
    {"format.rows_scanned", "count"},
    {"format.file_mb", "MiB"},
    {"format.rf_pruned_ratio", "ratio"},
    {"format.rf_checked_rows", "count"},
    {"physical.aggregate_ms", "ms"},
    {"physical.partial_groups", "count"},
    {"physical.bypass_rows", "count"},
    {"physical.join_ms", "ms"},
    {"physical.rf_build_ms", "ms"},
    {"physical.sort_ms", "ms"},
    {"compute.filter_project_ms", "ms"},
    {"exec.exchange_ms", "ms"},
    {"exec.queue_wait_ms", "ms"},
    {"exec.tasks_spawned", "count"},
    {"physical.morsels_stolen", "count"},
    {"exec.peak_threads", "count"},
    {"exec.peak_ready_tasks", "count"},
    {"exec.admission_queued", "count"},
    {"physical.spill_bytes", "bytes"},
    {"exec.buffer_hit_rate", "ratio"},
    {"exec.buffer_hits", "count"},
    {"exec.buffer_misses", "count"},
    {"exec.buffer_coalesced", "count"},
    {"exec.buffer_evictions", "count"},
    {"core.plan_hit_rate", "ratio"},
    {"core.plan_hits", "count"},
    {"core.plan_misses", "count"},
    {"core.plan_invalidations", "count"},
    {"flight.wire_ms", "ms"},
    {"flight.first_batch_ms", "ms"},
    {"flight.bytes_per_query", "bytes"},
    {"flight.batches_per_query", "count"},
    {"flight.put_p50_ms", "ms"},
    {"flight.put_p90_ms", "ms"},
    {"arrow.ipc_encode_ms", "ms"},
    {"arrow.ipc_decode_ms", "ms"},
    {"serving.gen_late_ms", "ms"},
    {"trace.overhead_pct", "%"},
};

#ifdef __clang__
constexpr const char* kCompiler = "clang " __VERSION__;
#else
constexpr const char* kCompiler = "g++ " __VERSION__;
#endif

[[noreturn]] void Usage(const char* why) {
  std::fprintf(stderr,
               "fusion_perfbench: %s\nusage: fusion_perfbench --workload "
               "clickbench|tpch|serving --seed N --seconds S --trace 0|1 "
               "--work-dir DIR --expected-dir DIR --out-dir DIR [--source-id ID] "
               "[--record FILE]\n",
               why);
  std::exit(2);
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out + "\"";
}

std::string CpuModel() {
  std::ifstream cpuinfo("/proc/cpuinfo");
  std::string line;
  while (std::getline(cpuinfo, line)) {
    if (line.rfind("model name", 0) == 0) {
      auto colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

}  // namespace

int main(int argc, char** argv) {
  Options options;
  options.partitions = static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
  std::string source_id = "unknown";
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) Usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      options.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      options.trace = value == "1";
    } else if (flag == "--work-dir") {
      options.work_dir = value;
    } else if (flag == "--expected-dir") {
      options.expected_dir = value;
    } else if (flag == "--out-dir") {
      options.out_dir = value;
    } else if (flag == "--source-id") {
      source_id = value;
    } else if (flag == "--record") {
      options.record_path = value;
    } else {
      Usage(("unknown flag " + flag).c_str());
    }
  }
  if (options.workload != "clickbench" && options.workload != "tpch" &&
      options.workload != "serving") {
    Usage("--workload must be clickbench, tpch or serving");
  }
  if (!(options.seconds > 0) || options.work_dir.empty() ||
      options.expected_dir.empty() || options.out_dir.empty()) {
    Usage("--seconds, --work-dir, --expected-dir and --out-dir are required");
  }

  std::printf(
      "# host {\"nproc\": %u, \"cpu\": %s, \"build\": %s, \"compiler\": %s, "
      "\"source\": %s, \"partitions\": %d, \"connections\": %d, \"workload\": %s, "
      "\"seed\": %llu, \"seconds\": %g, \"trace\": %d}\n",
      std::thread::hardware_concurrency(), JsonString(CpuModel()).c_str(),
      JsonString(PERFBENCH_BUILD).c_str(), JsonString(kCompiler).c_str(),
      JsonString(source_id).c_str(), options.partitions, options.partitions,
      JsonString(options.workload).c_str(),
      static_cast<unsigned long long>(options.seed), options.seconds,
      options.trace ? 1 : 0);
  std::fflush(stdout);

  Tracer tracer(options.trace);
  RunResult result = options.workload == "serving" ? RunServing(options, &tracer)
                                                   : RunAnalytic(options, &tracer);
  std::error_code ec;
  std::filesystem::remove_all(options.work_dir, ec);
  if (options.trace) {
    std::filesystem::create_directories(options.out_dir, ec);
    const std::string path = options.out_dir + "/spans-" + options.workload + "-" +
                             std::to_string(options.seed) + ".jsonl";
    Status st = tracer.Write(path);
    if (!st.ok()) std::fprintf(stderr, "%s\n", st.ToString().c_str());
  }

  for (const auto& note : result.notes) std::printf("# %s\n", note.c_str());
  std::printf("# failed_pct = %.4f %% (%lld of %lld operations)\n",
              result.attempted > 0 ? 100.0 * result.failed / result.attempted : 0.0,
              static_cast<long long>(result.failed),
              static_cast<long long>(result.attempted));
  if (result.attempted == 0) {  // set-up failed before any operation ran
    result.attempted = 1;
    result.failed = 1;
  }
  std::vector<Metric> ordered;
  const auto& specs = options.trace ? kPerLayer : kEndToEnd;
  for (const MetricSpec& spec : specs) {
    auto it = std::find_if(result.metrics.begin(), result.metrics.end(),
                           [&](const Metric& m) { return m.name == spec.name; });
    if (it != result.metrics.end() && it->unit == spec.unit) {
      ordered.push_back(*it);
    } else if (options.trace && it == result.metrics.end()) {
      // A layer this workload never calls into did no work (n=0).
      ordered.push_back({spec.name, 0, spec.unit, 0});
    } else {
      std::fprintf(stderr, "metric %s missing or in the wrong unit\n", spec.name);
      result.correct = false;
    }
  }
  for (const Metric& m : result.metrics) {
    if (std::none_of(specs.begin(), specs.end(),
                     [&](const MetricSpec& s) { return m.name == s.name; })) {
      std::fprintf(stderr, "metric %s is not declared\n", m.name.c_str());
      result.correct = false;
    }
  }
  std::string metrics;
  for (const auto& m : ordered) {
    double value = m.value;
    if (!std::isfinite(value)) {
      result.correct = false;
      value = 0;
    }
    std::printf("# %-28s %16.6f %-6s (n=%lld)\n", m.name.c_str(), value, m.unit.c_str(),
                static_cast<long long>(m.samples));
    char entry[256];
    std::snprintf(entry, sizeof(entry), "%s%s: {\"value\": %.17g, \"unit\": %s}",
                  metrics.empty() ? "" : ", ", JsonString(m.name).c_str(), value,
                  JsonString(m.unit).c_str());
    metrics += entry;
  }
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, \"metrics\": {%s}}\n",
              result.correct && result.failed == 0 ? "true" : "false",
              static_cast<long long>(result.attempted),
              static_cast<long long>(result.failed), metrics.c_str());
  return 0;
}
