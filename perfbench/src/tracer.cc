#include "tracer.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <unordered_map>

namespace perfbench {

namespace {

std::atomic<bool> g_enabled{false};
std::atomic<int64_t> g_next_id{0};
std::atomic<int64_t> g_ambient{-1};
thread_local int64_t t_current = -1;

}  // namespace

double NowMicros() {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

Tracer& Tracer::Global() {
  static Tracer* tracer = new Tracer();
  return *tracer;
}

void Tracer::SetEnabled(bool enabled) {
  g_enabled.store(enabled, std::memory_order_relaxed);
}

bool Tracer::enabled() const {
  return g_enabled.load(std::memory_order_relaxed);
}

int64_t Tracer::Begin() {
  return g_next_id.fetch_add(1, std::memory_order_relaxed);
}

void Tracer::End(const char* name, int64_t id, int64_t parent,
                 double start_us) {
  const double end_us = NowMicros();
  std::lock_guard<std::mutex> lk(mu_);
  records_.push_back(SpanRecord{name, id, parent, start_us, end_us});
}

void Tracer::AddRoot(const std::string& name, double start_us,
                     double end_us) {
  if (!enabled()) return;
  const int64_t id = Begin();
  std::lock_guard<std::mutex> lk(mu_);
  records_.push_back(SpanRecord{name, id, -1, start_us, end_us});
}

std::vector<SpanRecord> Tracer::Take() {
  std::lock_guard<std::mutex> lk(mu_);
  std::vector<SpanRecord> out;
  out.swap(records_);
  return out;
}

Span::Span(const char* name) : name_(name) {
  if (name == nullptr || !g_enabled.load(std::memory_order_relaxed)) return;
  id_ = Tracer::Global().Begin();
  enclosing_ = t_current;
  parent_ = t_current >= 0 ? t_current
                           : g_ambient.load(std::memory_order_relaxed);
  t_current = id_;
  start_us_ = NowMicros();
}

Span::~Span() {
  if (id_ < 0) return;
  Tracer::Global().End(name_, id_, parent_, start_us_);
  t_current = enclosing_;
}

AmbientParent::AmbientParent(int64_t parent)
    : previous_(g_ambient.exchange(parent, std::memory_order_relaxed)) {}

AmbientParent::~AmbientParent() {
  g_ambient.store(previous_, std::memory_order_relaxed);
}

double Percentile(const std::vector<double>& sorted, double pct) {
  if (sorted.empty()) return 0.0;
  const double n = static_cast<double>(sorted.size());
  size_t rank = static_cast<size_t>(std::ceil(pct / 100.0 * n));
  if (rank < 1) rank = 1;
  if (rank > sorted.size()) rank = sorted.size();
  return sorted[rank - 1];
}

double TailPercentile(size_t n) {
  for (const double pct : {99.0, 90.0, 50.0}) {
    const size_t rank = static_cast<size_t>(
        std::ceil(pct / 100.0 * static_cast<double>(n)));
    if (n >= rank + 10 && rank >= 1) return pct;
  }
  return 0.0;
}

double UnionLength(std::vector<std::pair<double, double>> intervals) {
  std::sort(intervals.begin(), intervals.end());
  double total = 0.0;
  double cur_start = 0.0;
  double cur_end = 0.0;
  bool open = false;
  for (const auto& [start, end] : intervals) {
    if (end <= start) continue;
    if (!open || start > cur_end) {
      if (open) total += cur_end - cur_start;
      cur_start = start;
      cur_end = end;
      open = true;
    } else {
      cur_end = std::max(cur_end, end);
    }
  }
  if (open) total += cur_end - cur_start;
  return total;
}

namespace {

// Children's intervals clipped to their parent, keyed by parent id.
std::unordered_map<int64_t, std::vector<std::pair<double, double>>>
ChildIntervals(const std::vector<SpanRecord>& records) {
  std::unordered_map<int64_t, const SpanRecord*> by_id;
  by_id.reserve(records.size());
  for (const SpanRecord& r : records) by_id[r.id] = &r;
  std::unordered_map<int64_t, std::vector<std::pair<double, double>>> out;
  for (const SpanRecord& r : records) {
    if (r.parent < 0) continue;
    auto it = by_id.find(r.parent);
    if (it == by_id.end()) continue;
    const SpanRecord& p = *it->second;
    out[r.parent].emplace_back(std::max(r.start_us, p.start_us),
                               std::min(r.end_us, p.end_us));
  }
  return out;
}

}  // namespace

std::map<std::string, SpanStats> Summarize(
    const std::vector<SpanRecord>& records) {
  const auto children = ChildIntervals(records);
  std::map<std::string, SpanStats> out;
  for (const SpanRecord& r : records) {
    const double duration = r.end_us - r.start_us;
    double covered = 0.0;
    auto it = children.find(r.id);
    if (it != children.end()) covered = UnionLength(it->second);
    SpanStats& s = out[r.name];
    ++s.count;
    s.total_us += duration;
    s.self_us += duration - covered;
    s.durations_us.push_back(duration);
  }
  for (auto& [name, s] : out) {
    std::sort(s.durations_us.begin(), s.durations_us.end());
  }
  return out;
}

double Coverage(const std::vector<SpanRecord>& records,
                const std::string& root) {
  const auto children = ChildIntervals(records);
  double wall = 0.0;
  double covered = 0.0;
  for (const SpanRecord& r : records) {
    if (r.name != root) continue;
    wall += r.end_us - r.start_us;
    auto it = children.find(r.id);
    if (it != children.end()) covered += UnionLength(it->second);
  }
  return wall > 0.0 ? covered / wall : 0.0;
}

std::vector<double> LatencyFromDue(const std::vector<double>& due,
                                   const std::vector<double>& done) {
  std::vector<double> out(due.size());
  for (size_t i = 0; i < due.size(); ++i) out[i] = done[i] - due[i];
  return out;
}

}  // namespace perfbench
