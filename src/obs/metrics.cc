#include "obs/metrics.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdio>
#include <cstring>

namespace lkpdpp {
namespace obs {

int CurrentThreadId() {
  static std::atomic<int> next{0};
  thread_local const int id = next.fetch_add(1, std::memory_order_relaxed);
  return id;
}

namespace {

// Shortest round-trippable decimal for a metric value: integers print
// without a fractional part, everything else with %g precision wide
// enough for exporter goldens to stay stable.
std::string FormatNumber(double v) {
  char buf[64];
  if (std::isfinite(v) && v == std::floor(v) && std::fabs(v) < 1e15) {
    std::snprintf(buf, sizeof(buf), "%.0f", v);
  } else {
    std::snprintf(buf, sizeof(buf), "%.9g", v);
  }
  return buf;
}

// Splits "family{label="x"}" into its family part; names without a
// label block are their own family.
std::string FamilyOf(const std::string& name) {
  const size_t brace = name.find('{');
  return brace == std::string::npos ? name : name.substr(0, brace);
}

// Minimal JSON string escaping (metric names are ASCII identifiers
// plus label punctuation; quotes/backslashes are the only risks).
std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 4);
  for (char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    out.push_back(c);
  }
  return out;
}

}  // namespace

Histogram::Histogram(std::vector<double> upper_bounds)
    : bounds_(std::move(upper_bounds)) {
  assert(std::is_sorted(bounds_.begin(), bounds_.end()) &&
         std::adjacent_find(bounds_.begin(), bounds_.end()) ==
             bounds_.end());
  buckets_ = std::make_unique<std::atomic<long>[]>(bounds_.size() + 1);
  for (size_t i = 0; i <= bounds_.size(); ++i) buckets_[i].store(0);
}

void Histogram::Observe(double v) {
  const size_t bucket = static_cast<size_t>(
      std::lower_bound(bounds_.begin(), bounds_.end(), v) -
      bounds_.begin());
  buckets_[bucket].fetch_add(1, std::memory_order_relaxed);
  count_.Inc();
  sum_.Add(v);
}

std::vector<long> Histogram::BucketCounts() const {
  std::vector<long> out(bounds_.size() + 1);
  for (size_t i = 0; i <= bounds_.size(); ++i) {
    out[i] = buckets_[i].load(std::memory_order_relaxed);
  }
  return out;
}

void Histogram::Reset() {
  for (size_t i = 0; i <= bounds_.size(); ++i) {
    buckets_[i].store(0, std::memory_order_relaxed);
  }
  count_.Reset();
  sum_.Reset();
}

MetricsRegistry& MetricsRegistry::Global() {
  static MetricsRegistry* registry = new MetricsRegistry();  // Never dies.
  return *registry;
}

Counter* MetricsRegistry::GetCounter(const std::string& name) {
  std::lock_guard<std::mutex> lk(mu_);
  auto& slot = counters_[name];
  if (slot == nullptr) slot = std::make_unique<Counter>();
  return slot.get();
}

Gauge* MetricsRegistry::GetGauge(const std::string& name) {
  std::lock_guard<std::mutex> lk(mu_);
  auto& slot = gauges_[name];
  if (slot == nullptr) slot = std::make_unique<Gauge>();
  return slot.get();
}

Histogram* MetricsRegistry::GetHistogram(
    const std::string& name, const std::vector<double>& upper_bounds) {
  std::lock_guard<std::mutex> lk(mu_);
  auto& slot = histograms_[name];
  if (slot == nullptr) slot = std::make_unique<Histogram>(upper_bounds);
  return slot.get();
}

std::string MetricsRegistry::DumpPrometheusText() const {
  std::lock_guard<std::mutex> lk(mu_);
  std::string out;
  std::string last_family;
  auto type_line = [&](const std::string& name, const char* type) {
    const std::string family = FamilyOf(name);
    if (family != last_family) {
      out += "# TYPE " + family + " " + type + "\n";
      last_family = family;
    }
  };
  for (const auto& [name, counter] : counters_) {
    type_line(name, "counter");
    out += name + " " + FormatNumber(static_cast<double>(counter->Value())) +
           "\n";
  }
  for (const auto& [name, gauge] : gauges_) {
    type_line(name, "gauge");
    out += name + " " + FormatNumber(gauge->Value()) + "\n";
  }
  for (const auto& [name, histogram] : histograms_) {
    type_line(name, "histogram");
    // A labeled series ("family{path="x"}") keeps its labels on every
    // suffix: family_bucket{path="x",le="1"}, family_sum{path="x"}.
    const std::string family = FamilyOf(name);
    const std::string labels = name.substr(family.size());
    const std::string bucket_open =
        family + "_bucket" +
        (labels.empty() ? "{" : labels.substr(0, labels.size() - 1) + ",");
    const std::vector<long> counts = histogram->BucketCounts();
    long cumulative = 0;
    for (size_t i = 0; i < histogram->bounds().size(); ++i) {
      cumulative += counts[i];
      out += bucket_open + "le=\"" + FormatNumber(histogram->bounds()[i]) +
             "\"} " + FormatNumber(static_cast<double>(cumulative)) + "\n";
    }
    cumulative += counts.back();
    out += bucket_open + "le=\"+Inf\"} " +
           FormatNumber(static_cast<double>(cumulative)) + "\n";
    out += family + "_sum" + labels + " " + FormatNumber(histogram->Sum()) +
           "\n";
    out += family + "_count" + labels + " " +
           FormatNumber(static_cast<double>(histogram->Count())) + "\n";
  }
  return out;
}

std::string MetricsRegistry::DumpJson() const {
  std::lock_guard<std::mutex> lk(mu_);
  std::string out = "{\n  \"counters\": {";
  bool first = true;
  for (const auto& [name, counter] : counters_) {
    out += first ? "\n" : ",\n";
    first = false;
    out += "    \"" + JsonEscape(name) + "\": " +
           FormatNumber(static_cast<double>(counter->Value()));
  }
  out += first ? "},\n" : "\n  },\n";
  out += "  \"gauges\": {";
  first = true;
  for (const auto& [name, gauge] : gauges_) {
    out += first ? "\n" : ",\n";
    first = false;
    out += "    \"" + JsonEscape(name) + "\": " + FormatNumber(gauge->Value());
  }
  out += first ? "},\n" : "\n  },\n";
  out += "  \"histograms\": {";
  first = true;
  for (const auto& [name, histogram] : histograms_) {
    out += first ? "\n" : ",\n";
    first = false;
    out += "    \"" + JsonEscape(name) + "\": {\"bounds\": [";
    for (size_t i = 0; i < histogram->bounds().size(); ++i) {
      if (i > 0) out += ", ";
      out += FormatNumber(histogram->bounds()[i]);
    }
    out += "], \"counts\": [";
    const std::vector<long> counts = histogram->BucketCounts();
    for (size_t i = 0; i < counts.size(); ++i) {
      if (i > 0) out += ", ";
      out += FormatNumber(static_cast<double>(counts[i]));
    }
    out += "], \"sum\": " + FormatNumber(histogram->Sum()) +
           ", \"count\": " +
           FormatNumber(static_cast<double>(histogram->Count())) + "}";
  }
  out += first ? "}\n}\n" : "\n  }\n}\n";
  return out;
}

void MetricsRegistry::ResetAll() {
  std::lock_guard<std::mutex> lk(mu_);
  for (auto& [name, counter] : counters_) counter->Reset();
  for (auto& [name, gauge] : gauges_) gauge->Reset();
  for (auto& [name, histogram] : histograms_) histogram->Reset();
}

int MetricsRegistry::NumMetrics() const {
  std::lock_guard<std::mutex> lk(mu_);
  return static_cast<int>(counters_.size() + gauges_.size() +
                          histograms_.size());
}

const std::vector<double>& LatencyBucketsMs() {
  static const std::vector<double>* buckets = new std::vector<double>{
      0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 25.0, 50.0, 100.0,
      250.0, 500.0, 1000.0, 2500.0, 5000.0};
  return *buckets;
}

}  // namespace obs
}  // namespace lkpdpp
