#include "common.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "common/rng.h"

namespace perfbench {

void Report::Info(const std::string& key, double value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  info[key] = buf;
}

void Report::Info(const std::string& key, const std::string& value) {
  std::string quoted = "\"";
  for (char c : value) {
    if (c == '"' || c == '\\') quoted += '\\';
    quoted += c;
  }
  info[key] = quoted + "\"";
}

void Report::Mismatch(const std::string& what) {
  correct = false;
  if (mismatches.size() < 20) mismatches.push_back(what);
}

std::vector<lkpdpp::RecRequest> ZipfTrace(int num_users, int num_requests,
                                          double exponent,
                                          uint64_t shuffle_seed,
                                          uint64_t draw_seed) {
  std::vector<double> cdf(static_cast<size_t>(num_users));
  double total = 0.0;
  for (int r = 0; r < num_users; ++r) {
    total += 1.0 / std::pow(static_cast<double>(r + 1), exponent);
    cdf[static_cast<size_t>(r)] = total;
  }
  std::vector<int> rank_to_user(static_cast<size_t>(num_users));
  for (int u = 0; u < num_users; ++u) rank_to_user[static_cast<size_t>(u)] = u;
  lkpdpp::Rng shuffle(shuffle_seed);
  shuffle.Shuffle(&rank_to_user);
  lkpdpp::Rng draw(draw_seed);
  std::vector<lkpdpp::RecRequest> trace;
  trace.reserve(static_cast<size_t>(num_requests));
  for (int i = 0; i < num_requests; ++i) {
    const double u = draw.Uniform() * total;
    const auto it = std::upper_bound(cdf.begin(), cdf.end(), u);
    const size_t rank =
        std::min(static_cast<size_t>(it - cdf.begin()), cdf.size() - 1);
    trace.push_back(lkpdpp::RecRequest{rank_to_user[rank]});
  }
  return trace;
}

namespace {

// Steal and total ticks of the aggregate "cpu" line of /proc/stat.
bool ReadCpuTicks(long long* steal, long long* total) {
  std::FILE* f = std::fopen("/proc/stat", "r");
  if (f == nullptr) return false;
  long long v[8] = {0, 0, 0, 0, 0, 0, 0, 0};
  const int n = std::fscanf(f, "cpu %lld %lld %lld %lld %lld %lld %lld %lld",
                            &v[0], &v[1], &v[2], &v[3], &v[4], &v[5], &v[6],
                            &v[7]);
  std::fclose(f);
  if (n != 8) return false;
  *steal = v[7];
  *total = 0;
  for (long long x : v) *total += x;
  return true;
}

}  // namespace

StealMeter::StealMeter() {
  if (!ReadCpuTicks(&steal_, &total_)) steal_ = total_ = -1;
}

double StealMeter::Share() const {
  long long steal = 0;
  long long total = 0;
  if (total_ < 0 || !ReadCpuTicks(&steal, &total) || total <= total_) {
    return -1.0;
  }
  return static_cast<double>(steal - steal_) /
         static_cast<double>(total - total_);
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux.
}

double Median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  return Percentile(values, 50.0);
}

LatencySummary Summarize(std::vector<double> samples, double tail_pct) {
  std::sort(samples.begin(), samples.end());
  LatencySummary out;
  out.count = samples.size();
  out.p50 = Percentile(samples, 50.0);
  out.tail_pct = tail_pct;
  out.tail = Percentile(samples, tail_pct);
  return out;
}

namespace {

// Unit of a span from its name's suffix, and the factor from the
// recorder's microseconds to it.
std::pair<std::string, double> SpanUnit(const std::string& name) {
  auto ends_with = [&](const char* suffix) {
    const std::string s(suffix);
    return name.size() >= s.size() &&
           name.compare(name.size() - s.size(), s.size(), s) == 0;
  };
  if (ends_with("_ms")) return {"ms", 1e-3};
  if (ends_with("_s")) return {"s", 1e-6};
  return {"us", 1.0};
}

}  // namespace

void AddSpanMetrics(Report* report,
                    const std::map<std::string, SpanStats>& stats,
                    const std::string& name, bool percentiles,
                    bool with_total) {
  static const SpanStats kEmpty;
  auto it = stats.find(name);
  const SpanStats& s = it == stats.end() ? kEmpty : it->second;
  report->Set(name + ".count", static_cast<double>(s.count), "count");
  report->Set(name + ".self_ms", s.self_us / 1e3, "ms");
  if (with_total) report->Set(name + ".total_ms", s.total_us / 1e3, "ms");
  if (!percentiles) return;
  const auto [unit, scale] = SpanUnit(name);
  const double tail_pct = TailPercentile(s.durations_us.size());
  report->Set(name + ".p50", Percentile(s.durations_us, 50.0) * scale, unit);
  report->Set(name + ".tail",
              Percentile(s.durations_us, tail_pct > 0.0 ? tail_pct : 50.0) *
                  scale,
              unit);
  report->Set(name + ".tail_pct", tail_pct, "pct");
}

std::string TopSelfLayer(const std::map<std::string, SpanStats>& stats) {
  std::string top;
  double top_self = -1.0;
  for (const auto& [name, s] : stats) {
    if (name == "serve.batch_ms" || name == "replay.batch" ||
        name == "train.epoch") {
      continue;
    }
    if (s.self_us > top_self) {
      top_self = s.self_us;
      top = name;
    }
  }
  return top;
}

double SpanCostMicros() {
  Tracer& tracer = Tracer::Global();
  const bool was_enabled = tracer.enabled();
  tracer.SetEnabled(true);
  constexpr int kSpans = 20000;
  const double t0 = NowMicros();
  for (int i = 0; i < kSpans; ++i) {
    Span s("trace.calibration");
  }
  const double t1 = NowMicros();
  tracer.SetEnabled(was_enabled);
  tracer.Take();
  return (t1 - t0) / kSpans;
}

}  // namespace perfbench
