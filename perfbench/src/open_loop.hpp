#pragma once

/// \file open_loop.hpp
/// Open-loop load generation: a seeded Poisson arrival schedule, a sender
/// that issues each operation at its due time whatever the system's state,
/// and due-time latency accounting.  An operation's latency runs from the
/// time it was *due*, not the time it was sent, so a stall that makes the
/// generator late is charged to every operation it delayed; the generator's
/// lateness is reported separately as its lag.

#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

namespace perfbench {

/// Due times (seconds from the start) of Poisson arrivals at `rate` per
/// second over [0, horizon).  Same seed, same schedule, on every platform.
[[nodiscard]] std::vector<double> poisson_schedule(std::uint64_t seed, double rate,
                                                   double horizon);

/// Timing of one operation, in seconds from the start of the loop.
struct OpTiming {
  double due = 0.0;
  double sent = 0.0;
  double done = 0.0;
  bool ok = true;  ///< false: threw, was shed, or returned a wrong result
};

/// done - due; +inf for a failed operation (it misses any latency limit).
[[nodiscard]] double due_latency(const OpTiming& t);
/// sent - due: how late the generator issued the operation.
[[nodiscard]] double generator_lag(const OpTiming& t);

/// The clock an open loop runs on; tests substitute a fake one.
struct LoopClock {
  std::function<double()> now;                 ///< seconds from the start
  std::function<void(double)> sleep_until;     ///< block until now() >= t
};

/// Issue operation i at due[i] (or as soon as possible when the generator is
/// already late).  `send(i, sent)` performs the operation's submission and
/// receives the time it was issued.  Returns the send times.
std::vector<double> run_open_loop(const std::vector<double>& due, const LoopClock& clock,
                                  const std::function<void(std::size_t, double)>& send);

/// Steady-clock LoopClock whose zero is the moment of construction.
[[nodiscard]] LoopClock steady_loop_clock();

}  // namespace perfbench
