#pragma once

/// \file bench.hpp
/// What every workload shares: the run configuration, the outcome it
/// reports (metrics with units, operation accounting, report-only notes),
/// and small measurement helpers.

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "kalman/model.hpp"
#include "trace.hpp"

namespace pitk::engine {}
namespace pitk::par {}
namespace pitk::serve {}
namespace pitk::obs {}

namespace perfbench {

namespace engine = pitk::engine;
namespace kalman = pitk::kalman;
namespace la = pitk::la;
namespace obs = pitk::obs;
namespace par = pitk::par;
namespace serve = pitk::serve;

struct RunConfig {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;      ///< length of the measured phase, all sections
  bool trace = false;         ///< traced run: per-layer metrics instead of end-to-end
  unsigned threads = 1;       ///< "nproc": the machine's hardware threads
  std::string state_dir;      ///< per-checkout state kept across runs
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct Outcome {
  std::vector<Metric> metrics;
  /// Report-only lines (paper shape fields, host-noise record, sample
  /// counts); printed before the result line, never gated.
  std::vector<std::string> notes;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> errors;  ///< first few correctness failures

  void add(std::string name, double value, std::string unit) {
    metrics.push_back(Metric{std::move(name), value, std::move(unit)});
  }
  void note(std::string line) { notes.push_back(std::move(line)); }
  /// Count one operation; `ok` false counts it failed and keeps `why`.
  void account(bool ok, const std::string& why = {}) {
    ++attempted;
    if (!ok) {
      ++failed;
      if (errors.size() < 8) errors.push_back(why);
    }
  }
};

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Wall time of one call of `f`, in seconds.
template <class F>
double time_call(F&& f) {
  const Clock::time_point t0 = Clock::now();
  f();
  return seconds_since(t0);
}

/// Process CPU time (user + system) in seconds, from getrusage.
[[nodiscard]] double process_cpu_seconds();
/// Peak resident set size of the process in MiB, from getrusage.
[[nodiscard]] double peak_rss_mb();

/// Largest |a - b| over means (and covariances when both carry them),
/// scaled by max(1, |b|) per entry; +inf on a shape mismatch or non-finite.
[[nodiscard]] double max_rel_deviation(const kalman::SmootherResult& got,
                                       const kalman::SmootherResult& ref);

/// "%.4g"-style formatting for notes.
[[nodiscard]] std::string fmt(double v);

// ---- host-noise record (host.cpp) -----------------------------------------

/// Cumulative steal and total jiffies from /proc/stat (zeros when absent).
struct CpuTicks {
  std::uint64_t steal = 0;
  std::uint64_t total = 0;
};
[[nodiscard]] CpuTicks read_cpu_ticks();

/// A fixed pure-compute probe run on one thread, then on `threads` threads
/// at once (the same work per thread): returns t_1 / t_threads, which is ~1
/// when the machine scales and drops when the host itself is contended.
[[nodiscard]] double compute_probe_scaling(unsigned threads);

/// Append the host-noise notes: steal-time delta since `start`, the compute
/// probe, the engine's calibrated GEMM rate, and whether `selection` (the
/// backend-selection record of this run) matches the first run's record in
/// the state directory (the first run writes it).
void note_host(Outcome& out, const RunConfig& cfg, const CpuTicks& start,
               const std::string& selection);

// ---- sections ------------------------------------------------------------

/// Every workload runs the same three sections one after another, each on
/// its share of the measured phase; the workload only chooses the block
/// size of the paper section.  A section adds its metrics to the outcome
/// and hands back what the workload sums up or records across sections.
struct Section {
  std::vector<double> setups;  ///< set-up wall time of each repetition
  std::string selection;       ///< backend-selection record (host notes)
};

/// The Section 5.2 problem (n, k) solved by the smoother variants.
Section run_paper(const RunConfig& cfg, double seconds, la::index n, la::index k, Outcome& out);
/// Closed loop over SmootherEngine::submit_batch.
Section run_engine_batch(const RunConfig& cfg, double seconds, Outcome& out);
/// Open loop of session updates and tier requests.
Section run_stream(const RunConfig& cfg, double seconds, Outcome& out);

}  // namespace perfbench
