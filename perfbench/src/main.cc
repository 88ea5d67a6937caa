// perfbench: the repository benchmark binary.
//
//   perfbench --workload <sample_zipf|live_map|train_lkp> --seed <n>
//             --seconds <s> --trace <0|1>
//   perfbench --selftest
//
// Runs the statistics self-tests, then one workload. Human-readable
// lines go first; the last line of standard output is one JSON object
// with the run's verdict, counts, metrics (end-to-end with --trace 0,
// per-layer with --trace 1) and provenance. Exits 1 when a correctness
// check fails and 2 on bad arguments or failed self-tests.

#include <sched.h>

#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>

#include "common.h"

namespace {

int Lanes() {
  cpu_set_t set;
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    const int n = CPU_COUNT(&set);
    if (n > 0) return n;
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? static_cast<int>(hw) : 1;
}

void PrintJson(const perfbench::Report& report) {
  std::string out = "{\"correct\": ";
  out += report.correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(report.attempted);
  out += ", \"failed\": " + std::to_string(report.failed);
  out += ", \"metrics\": {";
  bool first = true;
  char buf[64];
  for (const auto& [name, metric] : report.metrics) {
    std::snprintf(buf, sizeof(buf), "%.17g", metric.value);
    out += first ? "" : ", ";
    out += "\"" + name + "\": {\"value\": " + buf + ", \"unit\": \"" +
           metric.unit + "\"}";
    first = false;
  }
  out += "}, \"info\": {";
  first = true;
  for (const auto& [key, value] : report.info) {
    out += first ? "" : ", ";
    out += "\"" + key + "\": " + value;
    first = false;
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options options;
  options.lanes = Lanes();
  bool selftest_only = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--selftest") {
      selftest_only = true;
    } else if (arg == "--workload" && has_value) {
      options.workload = argv[++i];
    } else if (arg == "--seed" && has_value) {
      options.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--seconds" && has_value) {
      options.seconds = std::atof(argv[++i]);
    } else if (arg == "--trace" && has_value) {
      options.trace = std::atoi(argv[++i]) != 0;
    } else {
      std::fprintf(stderr, "unknown or incomplete argument: %s\n", arg.c_str());
      return 2;
    }
  }
  const int selftest_failures = perfbench::RunSelfTests();
  if (selftest_failures > 0) {
    std::fprintf(stderr, "%d statistics self-test(s) failed\n",
                 selftest_failures);
    return 2;
  }
  std::printf("statistics self-tests passed\n");
  if (selftest_only) return 0;
  if (!(options.seconds > 0.0)) {
    std::fprintf(stderr, "--seconds must be positive\n");
    return 2;
  }

  perfbench::Report report;
  if (options.workload == "sample_zipf") {
    perfbench::RunSampleZipf(options, &report);
  } else if (options.workload == "live_map") {
    perfbench::RunLiveMap(options, &report);
  } else if (options.workload == "train_lkp") {
    perfbench::RunTrainLkp(options, &report);
  } else {
    std::fprintf(stderr, "unknown workload '%s'\n", options.workload.c_str());
    return 2;
  }
  report.Info("workload", options.workload);
  report.Info("seed", static_cast<double>(options.seed));
  report.Info("seconds", options.seconds);
  report.Info("trace", options.trace ? 1.0 : 0.0);
  report.Info("nproc", options.lanes);
  for (const std::string& m : report.mismatches) {
    std::printf("MISMATCH: %s\n", m.c_str());
  }
  for (const auto& [name, metric] : report.metrics) {
    std::printf("%-44s %16.6f %s\n", name.c_str(), metric.value,
                metric.unit.c_str());
  }
  PrintJson(report);
  return report.correct ? 0 : 1;
}
