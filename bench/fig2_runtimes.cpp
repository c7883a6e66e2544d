/// \file fig2_runtimes.cpp
/// Figure 2: running times of all six smoother variants as a function of
/// core count, for the (n=6, large k) and (n=48, smaller k) workloads of
/// Section 5.2.  Sequential variants (Kalman, Paige-Saunders, -NC) are
/// measured once (they do not use the pool); parallel variants sweep cores.
///
/// Paper shape to reproduce: parallel algorithms are slower on 1 core
/// (constant work overhead), overtake the sequential ones as cores grow,
/// and Odd-Even stays below Associative at equal core counts.
///
/// Exit code: 1 when "Odd-Even faster than Associative at max cores" fails
/// on either workload with a sweep of at least kGatedCores cores (the
/// paper's headline, and the claim this repo measures on 4 cores); the
/// other shape checks are printed only.

#include "bench_util.hpp"

namespace {

using namespace pitk;
using namespace pitk::bench;

/// Smallest max-core count at which the headline check gates the exit code;
/// on fewer cores Odd-Even's constant work overhead is not yet amortized.
constexpr unsigned kGatedCores = 4;

struct Config {
  index n;
  index k;
};

std::vector<Config> configs() { return {{6, k_for_n6()}, {48, k_for_n48()}}; }

std::string bench_name(Variant v, const Config& c, unsigned cores) {
  return std::string("Fig2/") + variant_name(v) + "/n=" + std::to_string(c.n) +
         "/k=" + std::to_string(c.k) + "/cores=" + std::to_string(cores);
}

void register_all() {
  for (const Config& c : configs()) {
    (void)workload(c.n, c.k);  // build outside timing
    for (Variant v : {Variant::OddEven, Variant::OddEvenNC, Variant::Associative,
                      Variant::PaigeSaunders, Variant::PaigeSaundersNC, Variant::Kalman}) {
      const std::vector<unsigned> cores_list =
          variant_is_parallel(v) ? core_sweep() : std::vector<unsigned>{1};
      for (unsigned cores : cores_list) {
        benchmark::RegisterBenchmark(bench_name(v, c, cores).c_str(),
                                     [v, c, cores](benchmark::State& state) {
                                       const Workload& w = workload(c.n, c.k);
                                       par::ThreadPool pool(cores);
                                       for (auto _ : state) {
                                         benchmark::DoNotOptimize(
                                             run_variant(v, w, pool, par::default_grain));
                                       }
                                     })
            ->Unit(benchmark::kSecond)
            ->UseRealTime()
            ->Iterations(1)
            ->Repetitions(repetitions())
            ->ReportAggregatesOnly(false);
      }
    }
  }
}

/// Prints the table and shape checks; false when the gated headline failed.
bool summary(const CapturingReporter& rep) {
  bool headline_ok = true;
  std::printf("\n=== Figure 2: running times (median of %d runs, seconds) ===\n", repetitions());
  for (const Config& c : configs()) {
    std::printf("\n-- n=%lld k=%lld --\n%-20s", static_cast<long long>(c.n),
                static_cast<long long>(c.k), "cores");
    for (unsigned cores : core_sweep()) std::printf("%10u", cores);
    std::printf("\n");
    for (Variant v : {Variant::OddEven, Variant::OddEvenNC, Variant::Associative,
                      Variant::PaigeSaunders, Variant::PaigeSaundersNC, Variant::Kalman}) {
      std::printf("%-20s", variant_name(v));
      for (unsigned cores : core_sweep()) {
        const unsigned eff = variant_is_parallel(v) ? cores : 1;
        const double t = rep.median_seconds(bench_name(v, c, eff));
        std::printf("%10.3f", t);
      }
      std::printf("\n");
    }

    const unsigned maxc = core_sweep().back();
    const double oe1 = rep.median_seconds(bench_name(Variant::OddEven, c, 1));
    const double oem = rep.median_seconds(bench_name(Variant::OddEven, c, maxc));
    const double as1 = rep.median_seconds(bench_name(Variant::Associative, c, 1));
    const double asm_ = rep.median_seconds(bench_name(Variant::Associative, c, maxc));
    const double ps = rep.median_seconds(bench_name(Variant::PaigeSaunders, c, 1));
    const double kal = rep.median_seconds(bench_name(Variant::Kalman, c, 1));

    std::printf("\nshape checks (paper Section 5.4):\n");
    print_shape_check("Odd-Even slower than Paige-Saunders on 1 core (work overhead)", oe1 > ps);
    print_shape_check("Associative slower than Kalman on 1 core (work overhead)", as1 > kal);
    print_shape_check("Odd-Even faster than Associative at max cores", oem < asm_);
    if (maxc >= kGatedCores && oem > 0.0 && asm_ > 0.0 && !(oem < asm_)) headline_ok = false;
    if (maxc > 1) {
      print_shape_check("Odd-Even speeds up with cores", oem < oe1);
      print_shape_check("Associative speeds up with cores", asm_ < as1);
    }
  }
  if (!headline_ok)
    std::printf("\nFAIL: Odd-Even is not faster than Associative at %u+ cores\n", kGatedCores);
  return headline_ok;
}

}  // namespace

int main(int argc, char** argv) {
  register_all();
  bool headline_ok = true;
  const int rc = run_benchmarks(argc, argv,
                                [&](const CapturingReporter& rep) { headline_ok = summary(rep); });
  return rc == 0 && headline_ok ? 0 : 1;
}
