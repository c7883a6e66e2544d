/// \file host.cpp
/// Measurement helpers and the per-run host-noise record.

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>
#include <thread>

#include "bench.hpp"
#include "engine/backend.hpp"

namespace perfbench {

double process_cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto tv = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) + 1e-6 * static_cast<double>(t.tv_usec);
  };
  return tv(ru.ru_utime) + tv(ru.ru_stime);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB on Linux
}

double max_rel_deviation(const kalman::SmootherResult& got, const kalman::SmootherResult& ref) {
  constexpr double inf = std::numeric_limits<double>::infinity();
  if (got.means.size() != ref.means.size()) return inf;
  double worst = 0.0;
  const auto fold = [&worst](const double* a, const double* b, std::size_t len) {
    for (std::size_t i = 0; i < len; ++i) {
      const double d = std::fabs(a[i] - b[i]) / std::max(1.0, std::fabs(b[i]));
      worst = std::isfinite(d) ? std::max(worst, d) : inf;
    }
  };
  for (std::size_t i = 0; i < ref.means.size(); ++i) {
    if (got.means[i].size() != ref.means[i].size()) return inf;
    fold(got.means[i].data(), ref.means[i].data(), static_cast<std::size_t>(ref.means[i].size()));
  }
  if (got.has_covariances() && ref.has_covariances()) {
    if (got.covariances.size() != ref.covariances.size()) return inf;
    for (std::size_t i = 0; i < ref.covariances.size(); ++i) {
      const la::Matrix& a = got.covariances[i];
      const la::Matrix& b = ref.covariances[i];
      if (a.rows() != b.rows() || a.cols() != b.cols()) return inf;
      fold(a.data(), b.data(), static_cast<std::size_t>(b.rows() * b.cols()));
    }
  }
  return worst;
}

std::string fmt(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.4g", v);
  return buf;
}

CpuTicks read_cpu_ticks() {
  std::ifstream f("/proc/stat");
  std::string cpu;
  CpuTicks t;
  if (!(f >> cpu) || cpu != "cpu") return t;
  std::uint64_t v = 0;
  for (int field = 0; field < 10 && (f >> v); ++field) {
    if (field == 7) t.steal = v;  // user nice system idle iowait irq softirq steal ...
    if (field < 8) t.total += v;  // guest time is already inside user
  }
  return t;
}

namespace {
/// Fixed floating-point work with no memory traffic: four independent
/// multiply-add chains.  Returns a value so the work cannot be elided.
double probe_work() {
  double a = 1.0, b = 1.1, c = 1.2, d = 1.3;
  for (int i = 0; i < 20'000'000; ++i) {
    a = a * 0.999999 + 1e-7;
    b = b * 0.999998 + 2e-7;
    c = c * 0.999997 + 3e-7;
    d = d * 0.999996 + 4e-7;
  }
  return a + b + c + d;
}
}  // namespace

double compute_probe_scaling(unsigned threads) {
  double sink = 0.0;
  double t1 = std::numeric_limits<double>::infinity();
  double tn = std::numeric_limits<double>::infinity();
  for (int rep = 0; rep < 2; ++rep) {
    t1 = std::min(t1, time_call([&] { sink += probe_work(); }));
    tn = std::min(tn, time_call([&] {
      std::vector<std::thread> ts;
      std::vector<double> r(threads, 0.0);
      for (unsigned i = 0; i < threads; ++i) ts.emplace_back([&r, i] { r[i] = probe_work(); });
      for (std::thread& t : ts) t.join();
      for (double x : r) sink += x;
    }));
  }
  if (sink == 42.0) std::fprintf(stderr, " ");  // keep `sink` observable
  return t1 / tn;
}

void note_host(Outcome& out, const RunConfig& cfg, const CpuTicks& start,
               const std::string& selection) {
  const CpuTicks end = read_cpu_ticks();
  const double hz = static_cast<double>(sysconf(_SC_CLK_TCK));  // /proc/stat's unit
  const std::uint64_t dsteal = end.steal - start.steal;
  const std::uint64_t dtotal = end.total - start.total;
  out.note("host.steal_s = " + fmt(static_cast<double>(dsteal) / hz) + " s (share " +
           fmt(dtotal > 0 ? static_cast<double>(dsteal) / static_cast<double>(dtotal) : 0.0) +
           " of all CPU time during the run)");
  const double scaling = compute_probe_scaling(cfg.threads);
  out.note("host.compute_probe_scaling = " + fmt(scaling) + " (t_1thread / t_" +
           std::to_string(cfg.threads) + "threads on identical per-thread work; " +
           (scaling < 0.8 ? "FLAG: the machine itself failed to scale in this run)"
                          : "the machine scaled)"));
  out.note("host.calibrated_gemm_flops = " + fmt(engine::calibrated_gemm_flops_per_second()) +
           " flop/s");

  const std::filesystem::path file =
      std::filesystem::path(cfg.state_dir) / ("selection-" + cfg.workload + ".txt");
  std::string first;
  if (std::ifstream in(file); in) {
    std::stringstream ss;
    ss << in.rdbuf();
    first = ss.str();
  }
  if (first.empty()) {
    std::ofstream(file) << selection;
    out.note("host.backend_selection = " + selection + " (first run: recorded)");
  } else if (first == selection) {
    out.note("host.backend_selection = " + selection + " (same as the first run)");
  } else {
    out.note("host.backend_selection = " + selection + " (FLAG: differs from the first run's " +
             first + ")");
  }
}

}  // namespace perfbench
