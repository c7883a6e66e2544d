/// \file main.cpp
/// perfbench: runs one workload and prints every metric by name with
/// its unit, the report-only notes, and as its last line one JSON object
/// {"correct", "attempted", "failed", "metrics"}.
///
///   perfbench --workload <blocks_n6|blocks_n48>
///             --seed <n> --seconds <s> --trace <0|1> [--state-dir <dir>]
///
/// A workload runs three sections back to back, each on a fixed share of
/// the measured phase: the paper's Section 5.2 problem at the workload's
/// block size, the engine batch loop and the open-loop stream.  Every
/// workload therefore reports the same metrics.  --trace 0 reports the
/// end-to-end metrics, --trace 1 the per-layer ones (see README.md).
/// Exits 1 when any operation failed or any result was outside tolerance,
/// 2 on a usage error.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <string>

#include "bench.hpp"
#include "parallel/thread_pool.hpp"
#include "stats.hpp"

namespace {

void usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload <blocks_n6|blocks_n48> "
               "--seed <n> --seconds <s> --trace <0|1> [--state-dir <dir>]\n");
}

/// Shares of the measured phase: the paper section needs the most, its
/// solves take up to a second each at n=6.  A traced paper round solves
/// every variant, eight solves, so the traced run gives it more.
struct Shares {
  double paper, batch, stream;
};
constexpr Shares kUntraced{0.5, 0.2, 0.3};
constexpr Shares kTraced{0.6, 0.15, 0.25};

std::string json_escape(const std::string& s) {
  std::string o;
  for (char c : s) {
    if (c == '"' || c == '\\') o += '\\';
    o += c;
  }
  return o;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunConfig cfg;
  cfg.state_dir = ".bench_build/perfbench/state";
  bool have_workload = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string val = argv[i + 1];
    if (key == "--workload") {
      cfg.workload = val;
      have_workload = true;
    } else if (key == "--seed") {
      cfg.seed = std::strtoull(val.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      cfg.seconds = std::atof(val.c_str());
    } else if (key == "--trace") {
      cfg.trace = val == "1";
    } else if (key == "--state-dir") {
      cfg.state_dir = val;
    } else {
      usage();
      return 2;
    }
  }
  if (!have_workload || argc % 2 == 0 || !(cfg.seconds > 0.0)) {
    usage();
    return 2;
  }
  cfg.threads = pitk::par::ThreadPool::hardware_cores();
  std::error_code ec;
  std::filesystem::create_directories(cfg.state_dir, ec);

  pitk::la::index n = 0, k = 0;
  if (cfg.workload == "blocks_n6") {
    n = 6;
    k = 100000;
  } else if (cfg.workload == "blocks_n48") {
    n = 48;
    k = 1000;
  } else {
    usage();
    return 2;
  }

  perfbench::Outcome out;
  try {
    const perfbench::CpuTicks ticks0 = perfbench::read_cpu_ticks();
    const Shares& share = cfg.trace ? kTraced : kUntraced;
    const perfbench::Section sections[] = {
        perfbench::run_paper(cfg, share.paper * cfg.seconds, n, k, out),
        perfbench::run_engine_batch(cfg, share.batch * cfg.seconds, out),
        perfbench::run_stream(cfg, share.stream * cfg.seconds, out),
    };
    double setup = 0.0;
    std::string selection;
    for (const perfbench::Section& s : sections) {
      setup += perfbench::median(s.setups);
      selection += (selection.empty() ? "" : " ") + s.selection;
    }
    if (!cfg.trace) {
      out.add("setup_s", setup, "s");
      out.add("peak_rss_mb", perfbench::peak_rss_mb(), "MiB");
    }
    perfbench::note_host(out, cfg, ticks0, selection);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s failed: %s\n", cfg.workload.c_str(), e.what());
    return 1;
  }

  // A metric that is not a finite number is a defect of the run itself.
  bool finite_metrics = true;
  for (const perfbench::Metric& m : out.metrics)
    finite_metrics = finite_metrics && std::isfinite(m.value);
  if (!finite_metrics) out.errors.push_back("a metric is not a finite number");
  const bool correct = out.failed == 0 && out.attempted > 0 && finite_metrics;
  std::printf("workload %s, seed %llu, %g s measured, %s, %u threads\n", cfg.workload.c_str(),
              static_cast<unsigned long long>(cfg.seed), cfg.seconds,
              cfg.trace ? "traced (per-layer metrics)" : "untraced (end-to-end metrics)",
              cfg.threads);
  for (const perfbench::Metric& m : out.metrics)
    std::printf("  %-44s %.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  for (const std::string& n : out.notes) std::printf("  # %s\n", n.c_str());
  std::printf("  operations: %llu attempted, %llu failed\n",
              static_cast<unsigned long long>(out.attempted),
              static_cast<unsigned long long>(out.failed));
  for (const std::string& e : out.errors) std::printf("  ! %s\n", e.c_str());

  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(out.attempted);
  json += ", \"failed\": " + std::to_string(out.failed);
  json += ", \"metrics\": {";
  for (std::size_t i = 0; i < out.metrics.size(); ++i) {
    const perfbench::Metric& m = out.metrics[i];
    char num[64];
    std::snprintf(num, sizeof num, "%.17g", std::isfinite(m.value) ? m.value : 0.0);
    json += (i == 0 ? "\"" : ", \"") + json_escape(m.name) + "\": {\"value\": " + num +
            ", \"unit\": \"" + json_escape(m.unit) + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}
