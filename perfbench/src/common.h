// Shared plumbing of the perfbench binary: run options, the result
// record every workload fills, and small helpers (Zipf traffic, peak
// RSS, timing summaries).

#ifndef PERFBENCH_COMMON_H_
#define PERFBENCH_COMMON_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "serve/service.h"
#include "tracer.h"

namespace perfbench {

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Busy lanes the benchmark may use (nproc): pool workers + caller.
  int lanes = 4;
};

struct Metric {
  double value = 0.0;
  std::string unit;
};

/// What one run reports. `metrics` holds the end-to-end metrics of an
/// untraced run or the per-layer metrics of a traced run; `info` holds
/// provenance and workload parameters as preformatted JSON values.
struct Report {
  bool correct = true;
  long attempted = 0;
  long failed = 0;
  std::map<std::string, Metric> metrics;
  std::map<std::string, std::string> info;
  std::vector<std::string> mismatches;

  void Set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = Metric{value, unit};
  }
  void Info(const std::string& key, double value);
  void Info(const std::string& key, const std::string& value);
  /// Records a failed correctness check; the run then exits non-zero.
  void Mismatch(const std::string& what);
};

/// Deterministic Zipf(exponent) user traffic: a fixed shuffle maps
/// popularity rank to user id, and each request draws its rank by
/// inverse CDF from `draw_seed`. Two draws with different draw seeds but
/// the same `shuffle_seed` share the popularity order.
std::vector<lkpdpp::RecRequest> ZipfTrace(int num_users, int num_requests,
                                          double exponent,
                                          uint64_t shuffle_seed,
                                          uint64_t draw_seed);

/// Share of the machine's CPU time the hypervisor gave to others (steal,
/// from /proc/stat) since construction; -1 where it cannot be read.
/// Recorded beside timings so a slow run on a contended host shows why.
class StealMeter {
 public:
  StealMeter();
  double Share() const;

 private:
  long long steal_ = -1;
  long long total_ = -1;
};

/// Peak resident set size of this process so far, in MiB.
double PeakRssMb();

/// Median of `values` (copied and sorted).
double Median(std::vector<double> values);

/// Summary of a latency sample: its median and its value at the
/// workload's fixed tail percentile.
struct LatencySummary {
  size_t count = 0;
  double p50 = 0.0;
  double tail = 0.0;
  double tail_pct = 0.0;
};
LatencySummary Summarize(std::vector<double> samples, double tail_pct);

/// Adds the per-layer rows of one span summary to `report`: count, self
/// time, and (when `percentiles`) p50, the tail and its percentile. The
/// span's unit suffix (_us, _ms, _s) sets the unit of the timings.
void AddSpanMetrics(Report* report,
                    const std::map<std::string, SpanStats>& stats,
                    const std::string& name, bool percentiles,
                    bool with_total = false);

/// The layer span with the largest total self time (batch and epoch
/// roots excluded).
std::string TopSelfLayer(const std::map<std::string, SpanStats>& stats);

/// The calibrated cost of recording one span, in microseconds. Clears
/// the tracer, so call it after the run's records have been taken.
double SpanCostMicros();

/// Workload entry points. Each fills `report` and returns normally;
/// failed checks land in report->mismatches.
void RunSampleZipf(const Options& options, Report* report);
void RunLiveMap(const Options& options, Report* report);
void RunTrainLkp(const Options& options, Report* report);

/// Self-tests of the statistics above; returns the number of failures.
int RunSelfTests();

}  // namespace perfbench

#endif  // PERFBENCH_COMMON_H_
