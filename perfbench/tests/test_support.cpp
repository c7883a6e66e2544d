/// \file test_support.cpp
/// Unit tests for the benchmark's own code: percentiles and the
/// ten-samples-beyond rule, due-time latency in the open loop (including
/// generator lag), and span self time.  Plain asserts that survive NDEBUG;
/// exits nonzero on the first failure.  Run: perfbench_tests.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <vector>

#include "open_loop.hpp"
#include "stats.hpp"
#include "trace.hpp"

namespace {

int failures = 0;

void check(bool ok, const char* what, int line) {
  if (!ok) {
    std::fprintf(stderr, "FAIL line %d: %s\n", line, what);
    ++failures;
  }
}
#define CHECK(cond) check((cond), #cond, __LINE__)

bool near(double a, double b, double tol = 1e-12) { return std::fabs(a - b) <= tol; }

void test_percentile() {
  std::vector<double> v;
  for (int i = 100; i >= 1; --i) v.push_back(i);  // unsorted input
  CHECK(near(perfbench::percentile(v, 0.5), 50.0));
  CHECK(near(perfbench::percentile(v, 0.99), 99.0));
  CHECK(near(perfbench::percentile(v, 1.0), 100.0));
  CHECK(near(perfbench::percentile({7.0}, 0.99), 7.0));
  CHECK(std::isnan(perfbench::percentile({}, 0.5)));
  CHECK(near(perfbench::median({3.0, 1.0, 2.0}), 2.0));
  CHECK(near(perfbench::median({4.0, 1.0, 2.0, 3.0}), 2.5));

  // A failed operation is +inf and lands in the tail, never in the median
  // of a mostly-good sample.
  std::vector<double> w(100, 1.0);
  w[3] = std::numeric_limits<double>::infinity();
  CHECK(near(perfbench::percentile(w, 0.5), 1.0));
  CHECK(std::isinf(perfbench::percentile(w, 1.0)));
  w[4] = w[5] = std::numeric_limits<double>::infinity();
  CHECK(std::isinf(perfbench::percentile(w, 0.98)));
}

void test_ten_beyond_rule() {
  // p99 needs 1000 samples: ceil(0.99 n) leaves n - 990 = 10 beyond.
  CHECK(perfbench::samples_beyond(1000, 0.99) == 10);
  CHECK(perfbench::percentile_supported(1000, 0.99));
  CHECK(!perfbench::percentile_supported(999, 0.99));
  CHECK(perfbench::percentile_supported(20, 0.5));
  CHECK(!perfbench::percentile_supported(19, 0.5));
  CHECK(perfbench::percentile_supported(10000, 0.999));
  CHECK(!perfbench::percentile_supported(9999, 0.999));
  CHECK(!perfbench::percentile_supported(0, 0.5));
}

void test_poisson_schedule() {
  const std::vector<double> a = perfbench::poisson_schedule(42, 1000.0, 10.0);
  const std::vector<double> b = perfbench::poisson_schedule(42, 1000.0, 10.0);
  const std::vector<double> c = perfbench::poisson_schedule(43, 1000.0, 10.0);
  CHECK(a == b);
  CHECK(a != c);
  CHECK(a.size() > 9500 && a.size() < 10500);  // 10000 expected, sd 100
  bool increasing = true;
  for (std::size_t i = 1; i < a.size(); ++i) increasing = increasing && a[i] > a[i - 1];
  CHECK(increasing);
  CHECK(a.back() < 10.0);
}

void test_due_time_latency() {
  // Fake clock: sending takes no time except op 1, which stalls the
  // generator for 5 ms.  Ops 2 and 3, due during the stall, go out late;
  // their latency is charged from the due time, and the lateness shows as
  // generator lag.
  double t = 0.0;
  perfbench::LoopClock clock;
  clock.now = [&t] { return t; };
  clock.sleep_until = [&t](double until) { t = until; };
  const std::vector<double> due = {0.000, 0.001, 0.002, 0.004, 0.010};
  std::vector<perfbench::OpTiming> ops(due.size());
  const std::vector<double> sent =
      perfbench::run_open_loop(due, clock, [&](std::size_t i, double s) {
        ops[i].due = due[i];
        ops[i].sent = s;
        if (i == 1) t += 0.005;       // the stall
        ops[i].done = t + 0.0002;     // each op completes 0.2 ms after its send returns
      });
  CHECK(near(sent[0], 0.000));
  CHECK(near(sent[1], 0.001));
  CHECK(near(sent[2], 0.006));  // late: issued when the stall ended
  CHECK(near(sent[3], 0.006));
  CHECK(near(sent[4], 0.010));  // the loop caught up
  CHECK(near(perfbench::generator_lag(ops[2]), 0.004));
  CHECK(near(perfbench::generator_lag(ops[3]), 0.002));
  CHECK(near(perfbench::generator_lag(ops[4]), 0.0));
  CHECK(near(perfbench::due_latency(ops[0]), 0.0002));
  CHECK(near(perfbench::due_latency(ops[2]), 0.0042));  // 4 ms late + 0.2 ms service
  CHECK(near(perfbench::due_latency(ops[3]), 0.0022));
  CHECK(near(perfbench::due_latency(ops[4]), 0.0002));
  ops[4].ok = false;
  CHECK(std::isinf(perfbench::due_latency(ops[4])));
}

void test_self_time() {
  using perfbench::Span;
  // root [0, 100); children [10, 30) and [20, 50) overlap -> cover 40;
  // child [90, 120) is clipped to the root -> covers 10; grandchild
  // [12, 18) belongs to span 1 only.
  std::vector<Span> s(5);
  s[0] = Span{"root", 0, 100, -1, 7, 0};
  s[1] = Span{"a", 10, 30, 0, 7, 0};
  s[2] = Span{"b", 20, 50, 0, 7, 1};
  s[3] = Span{"c", 90, 120, 0, 7, 0};
  s[4] = Span{"d", 12, 18, 1, 7, 0};
  const std::vector<double> self = perfbench::self_times(s);
  CHECK(near(self[0], 1e-9 * 50));  // 100 - (40 + 10)
  CHECK(near(self[1], 1e-9 * 14));  // 20 - 6
  CHECK(near(self[2], 1e-9 * 30));
  CHECK(near(self[3], 1e-9 * 30));
  CHECK(near(self[4], 1e-9 * 6));

  perfbench::Tracer off(false);
  CHECK(off.begin("x") == -1);
  CHECK(off.spans().empty());
  perfbench::Tracer on(true);
  {
    perfbench::ScopedSpan outer(on, "outer", -1, 3);
    perfbench::ScopedSpan inner(on, "inner", outer.id(), 3);
  }
  const std::vector<Span> rec = on.spans();
  CHECK(rec.size() == 2);
  CHECK(rec[1].parent == 0 && rec[1].op == 3);
  CHECK(rec[0].end_ns >= rec[1].end_ns && rec[1].end_ns >= rec[1].start_ns);
  CHECK(on.durations("inner").size() == 1);
}

}  // namespace

int main() {
  test_percentile();
  test_ten_beyond_rule();
  test_poisson_schedule();
  test_due_time_latency();
  test_self_time();
  if (failures != 0) {
    std::fprintf(stderr, "perfbench_tests: %d check(s) failed\n", failures);
    return 1;
  }
  std::printf("perfbench_tests: all checks passed\n");
  return 0;
}
