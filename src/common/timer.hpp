// Wall-clock timing utilities.
//
// Timer          — simple stopwatch.
// ThreadCpuTimer — per-thread CPU stopwatch for oversubscribed benches.
//
// Phase seconds are not measured here: obs::Span under an
// obs::PhaseScope (obs/obs.hpp) is the one phase clock.
#pragma once

#include <chrono>

#include "common/config.hpp"

namespace lrt {

/// Monotonic stopwatch measuring seconds as double.
class Timer {
 public:
  Timer() : start_(Clock::now()) {}

  /// Seconds elapsed since construction or last reset().
  double seconds() const {
    return std::chrono::duration<double>(Clock::now() - start_).count();
  }

  void reset() { start_ = Clock::now(); }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

/// Per-thread CPU stopwatch (CLOCK_THREAD_CPUTIME_ID): counts only cycles
/// this thread actually executed — excludes time blocked on condition
/// variables *and* time descheduled while other rank-threads run. This is
/// the honest "busy time" measure for the simulated-rank scaling benches
/// on an oversubscribed core (see DESIGN.md).
class ThreadCpuTimer {
 public:
  ThreadCpuTimer() : start_(now()) {}

  double seconds() const { return now() - start_; }
  void reset() { start_ = now(); }

  static double now();

 private:
  double start_;
};

}  // namespace lrt
