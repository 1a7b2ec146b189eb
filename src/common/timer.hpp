// Wall-clock timing utilities used by the benchmark harnesses and the
// per-operation I/O statistics.
#pragma once

#include <chrono>

namespace llio {

/// Monotonic wall-clock timer with second-resolution double output.
class WallTimer {
 public:
  using Clock = std::chrono::steady_clock;

  WallTimer() : start_(Clock::now()) {}

  void reset() { start_ = Clock::now(); }

  /// Seconds elapsed since construction or the last reset().
  double seconds() const {
    return std::chrono::duration<double>(Clock::now() - start_).count();
  }

 private:
  Clock::time_point start_;
};

/// Accumulates wall time across start/stop intervals (e.g. "time spent
/// building ol-lists" summed over a whole benchmark run).
class StopWatch {
 public:
  void start() { t0_ = WallTimer::Clock::now(); running_ = true; }

  void stop() {
    if (!running_) return;
    total_ += std::chrono::duration<double>(WallTimer::Clock::now() - t0_)
                  .count();
    running_ = false;
  }

  void reset() { total_ = 0.0; running_ = false; }

  double seconds() const { return total_; }

 private:
  WallTimer::Clock::time_point t0_{};
  double total_ = 0.0;
  bool running_ = false;
};

}  // namespace llio
