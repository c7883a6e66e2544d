#include "open_loop.hpp"

#include <chrono>
#include <cmath>
#include <limits>
#include <thread>

namespace perfbench {

namespace {
/// splitmix64: a tiny, fully specified generator, so a schedule depends on
/// the seed alone and not on the standard library's distributions.
std::uint64_t splitmix64(std::uint64_t& s) {
  std::uint64_t z = (s += 0x9E3779B97F4A7C15ULL);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}
}  // namespace

std::vector<double> poisson_schedule(std::uint64_t seed, double rate, double horizon) {
  std::vector<double> due;
  if (!(rate > 0.0) || !(horizon > 0.0)) return due;
  due.reserve(static_cast<std::size_t>(rate * horizon * 1.1) + 16);
  std::uint64_t s = seed;
  double t = 0.0;
  for (;;) {
    // Uniform in (0, 1]: 53 random bits, shifted off zero.
    const double u = (static_cast<double>(splitmix64(s) >> 11) + 1.0) * 0x1.0p-53;
    t += -std::log(u) / rate;
    if (t >= horizon) break;
    due.push_back(t);
  }
  return due;
}

double due_latency(const OpTiming& t) {
  return t.ok ? t.done - t.due : std::numeric_limits<double>::infinity();
}

double generator_lag(const OpTiming& t) { return t.sent - t.due; }

std::vector<double> run_open_loop(const std::vector<double>& due, const LoopClock& clock,
                                  const std::function<void(std::size_t, double)>& send) {
  std::vector<double> sent(due.size(), 0.0);
  for (std::size_t i = 0; i < due.size(); ++i) {
    if (clock.now() < due[i]) clock.sleep_until(due[i]);
    sent[i] = clock.now();
    send(i, sent[i]);
  }
  return sent;
}

LoopClock steady_loop_clock() {
  using Clock = std::chrono::steady_clock;
  const Clock::time_point t0 = Clock::now();
  LoopClock c;
  c.now = [t0] { return std::chrono::duration<double>(Clock::now() - t0).count(); };
  c.sleep_until = [t0](double t) {
    const Clock::time_point target =
        t0 + std::chrono::duration_cast<Clock::duration>(std::chrono::duration<double>(t));
    // Sleep most of the way, then spin: a plain sleep overshoots by the
    // kernel's timer slack (~50-100 us), which would show up as lag.
    const auto spin = std::chrono::microseconds(120);
    if (target - Clock::now() > spin) std::this_thread::sleep_until(target - spin);
    while (Clock::now() < target) std::this_thread::yield();
  };
  return c;
}

}  // namespace perfbench
