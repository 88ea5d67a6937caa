// Self-tests of the benchmark's own statistics. They run at the start of
// every benchmark run (and alone with --selftest); any failure stops the
// run before it measures anything.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <vector>

#include "common.h"

namespace perfbench {

namespace {

int g_failures = 0;

void Expect(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "selftest FAILED: %s\n", what);
    ++g_failures;
  }
}

bool Near(double a, double b) { return std::fabs(a - b) < 1e-9; }

// Completion times of a FIFO single server fed by a generator that sends
// request i at max(due[i], generator_free), where the generator itself is
// blocked until `stall_until` after sending request `stall_after`.
std::vector<double> SimulateFifo(const std::vector<double>& due,
                                 const std::vector<double>& service,
                                 size_t stall_after, double stall_until,
                                 std::vector<double>* sent) {
  std::vector<double> done(due.size());
  sent->assign(due.size(), 0.0);
  double generator_free = 0.0;
  double server_free = 0.0;
  for (size_t i = 0; i < due.size(); ++i) {
    (*sent)[i] = std::max(due[i], generator_free);
    generator_free = (*sent)[i];
    if (i == stall_after) generator_free = std::max(generator_free,
                                                    stall_until);
    server_free = std::max(server_free, (*sent)[i]) + service[i];
    done[i] = server_free;
  }
  return done;
}


SpanRecord Rec(const char* name, int64_t id, int64_t parent, double start,
               double end) {
  return SpanRecord{name, id, parent, start, end};
}

void TestPercentileRule() {
  // Nearest rank: p50 of 1..10 is 5, p90 is 9.
  std::vector<double> v;
  for (int i = 1; i <= 10; ++i) v.push_back(i);
  Expect(Near(Percentile(v, 50.0), 5.0), "p50 of 1..10 is 5");
  Expect(Near(Percentile(v, 90.0), 9.0), "p90 of 1..10 is 9");
  // The tail is the highest percentile with >= 10 samples beyond it.
  Expect(TailPercentile(19) == 0.0, "19 samples support no percentile");
  Expect(TailPercentile(20) == 50.0, "20 samples support p50");
  Expect(TailPercentile(99) == 50.0, "99 samples: p90 has only 9 beyond");
  Expect(TailPercentile(100) == 90.0, "100 samples support p90");
  Expect(TailPercentile(999) == 90.0, "999 samples: p99 has only 9 beyond");
  Expect(TailPercentile(1000) == 99.0, "1000 samples support p99");
  Expect(TailPercentile(100000) == 99.0, "the ladder tops out at p99");
}

void TestSelfTime() {
  // root [0,100) has children a [10,40) and b [30,60) (overlapping, as
  // on two pool workers) and a grandchild c [15,25) inside a.
  const std::vector<SpanRecord> records = {
      Rec("root", 0, -1, 0, 100), Rec("a", 1, 0, 10, 40),
      Rec("b", 2, 0, 30, 60),     Rec("c", 3, 1, 15, 25),
      Rec("other", 4, -1, 0, 50),
  };
  const auto stats = Summarize(records);
  Expect(Near(stats.at("root").self_us, 50.0),
         "root self time subtracts the union of its children once");
  Expect(Near(stats.at("root").total_us, 100.0), "root total is its span");
  Expect(Near(stats.at("a").self_us, 20.0), "a loses its child c");
  Expect(Near(stats.at("b").self_us, 30.0), "leaf self time is its span");
  Expect(Near(stats.at("c").self_us, 10.0), "grandchild self time");
  Expect(Near(Coverage(records, "root"), 0.5),
         "coverage is the covered share of the root");
  Expect(Near(UnionLength({{0, 1}, {2, 3}, {2.5, 4}}), 3.0),
         "union of intervals");

  // Spans recorded live: a child opened inside a parent nests under it,
  // and a span on a thread with no open span takes the ambient parent.
  Tracer::Global().Take();
  Tracer::Global().SetEnabled(true);
  int64_t outer_id = -1;
  {
    Span outer("outer");
    outer_id = outer.id();
    { Span inner("inner"); }
  }
  {
    AmbientParent ambient(outer_id);
    Span adopted("adopted");
  }
  { Span skipped(nullptr); }
  Tracer::Global().SetEnabled(false);
  const std::vector<SpanRecord> live = Tracer::Global().Take();
  Expect(live.size() == 3, "a null-named span records nothing");
  for (const SpanRecord& r : live) {
    if (r.name == "inner") Expect(r.parent == outer_id, "inner nests");
    if (r.name == "outer") Expect(r.parent == -1, "outer is a root");
    if (r.name == "adopted") {
      Expect(r.parent == outer_id, "ambient parent adopts worker spans");
    }
  }
}

void TestOpenLoopLatency() {
  // Ten requests due every 1 ms, each served in 0.1 ms. The generator
  // stalls for 5 ms after sending request 3.
  std::vector<double> due;
  for (int i = 0; i < 10; ++i) due.push_back(i * 1.0);
  const std::vector<double> service(10, 0.1);
  std::vector<double> sent;
  const std::vector<double> done =
      SimulateFifo(due, service, /*stall_after=*/3, /*stall_until=*/8.0, &sent);
  const std::vector<double> from_due = LatencyFromDue(due, done);
  const std::vector<double> from_sent = LatencyFromDue(sent, done);
  Expect(Near(from_due[3], 0.1), "the stalled request itself is on time");
  // Requests 4..7 were due at 4..7 ms but went out at 8 ms.
  Expect(Near(from_due[4], 4.1), "request 4 waits out the stall");
  Expect(Near(from_due[7], 1.4), "requests behind queue behind each other");
  Expect(from_due[4] > from_sent[4] + 3.9,
         "timing from the send would hide the stall");
  Expect(Near(from_due[9], 0.1), "the loop recovers after the backlog");
}

}  // namespace

int RunSelfTests() {
  g_failures = 0;
  TestPercentileRule();
  TestSelfTime();
  TestOpenLoopLatency();
  return g_failures;
}

}  // namespace perfbench
