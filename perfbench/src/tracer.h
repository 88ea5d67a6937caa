// Span recording for the traced benchmark runs, plus the statistics the
// benchmark reports (percentile rule, self time, open-loop latency).
//
// Spans are recorded by the benchmark around its own calls into each
// layer's public function; nothing inside the library is instrumented.
// A span's parent is the innermost open span on the same thread or,
// for work fanned out to pool workers, the ambient parent the caller
// installed with AmbientParent. Records stay in memory and are folded
// into per-name summaries when the run ends.

#ifndef PERFBENCH_TRACER_H_
#define PERFBENCH_TRACER_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

/// Microseconds on the steady clock since an arbitrary fixed origin.
double NowMicros();

struct SpanRecord {
  std::string name;
  int64_t id = 0;
  int64_t parent = -1;  ///< -1 for a root span.
  double start_us = 0.0;
  double end_us = 0.0;
};

/// Process-wide span store. Disabled by default: a disabled Span costs
/// one relaxed load and a branch.
class Tracer {
 public:
  static Tracer& Global();

  void SetEnabled(bool enabled);
  bool enabled() const;

  /// Allocates a span id.
  int64_t Begin();
  void End(const char* name, int64_t id, int64_t parent, double start_us);

  /// Adds a complete span measured elsewhere (parent -1).
  void AddRoot(const std::string& name, double start_us, double end_us);

  std::vector<SpanRecord> Take();

 private:
  std::mutex mu_;
  std::vector<SpanRecord> records_;
};

/// RAII span: records [construction, destruction) under `name`. A null
/// name records nothing, for work that must stay out of the summary.
class Span {
 public:
  explicit Span(const char* name);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  int64_t id() const { return id_; }

 private:
  const char* name_;
  int64_t id_ = -1;
  int64_t parent_ = -1;
  int64_t enclosing_ = -1;  // This thread's open span before this one.
  double start_us_ = 0.0;
};

/// While alive, spans opened on threads with no open span of their own
/// (pool workers) take `parent` as their parent.
class AmbientParent {
 public:
  explicit AmbientParent(int64_t parent);
  ~AmbientParent();
  AmbientParent(const AmbientParent&) = delete;
  AmbientParent& operator=(const AmbientParent&) = delete;

 private:
  int64_t previous_;
};

/// Nearest-rank percentile of `sorted` (ascending, non-empty).
double Percentile(const std::vector<double>& sorted, double pct);

/// The percentile rule: the highest of 99, 90 and 50 that leaves at
/// least ten samples strictly above its nearest-rank position among n
/// samples, or 0 when none does (fewer than 20 samples).
double TailPercentile(size_t n);

/// Per-name fold of span records.
struct SpanStats {
  long count = 0;
  double total_us = 0.0;
  double self_us = 0.0;
  std::vector<double> durations_us;  ///< Sorted ascending.
};

/// Folds records into per-name stats. A span's self time is its
/// duration minus the length of the union of its children's intervals
/// clipped to it, so children running in parallel on pool workers are
/// not subtracted twice.
std::map<std::string, SpanStats> Summarize(
    const std::vector<SpanRecord>& records);

/// Share of the wall time of the spans named `root` that lies inside
/// at least one of their direct children. When the children run one
/// after another on the root's thread this is the sum of the layer self
/// times over the end-to-end wall time of the same requests.
double Coverage(const std::vector<SpanRecord>& records,
                const std::string& root);

/// Length of the union of [start, end) intervals.
double UnionLength(std::vector<std::pair<double, double>> intervals);

/// Open-loop latency of each request, timed from when it was due to be
/// sent (not from when the generator got round to sending it), so a
/// stall charges its wait to every request queued behind it.
std::vector<double> LatencyFromDue(const std::vector<double>& due,
                                   const std::vector<double>& done);

}  // namespace perfbench

#endif  // PERFBENCH_TRACER_H_
