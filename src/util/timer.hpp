// Timing utilities: wall-clock and per-thread CPU timers.
#pragma once

#include <chrono>
#include <cstdint>

namespace gbsp {

/// Monotonic wall-clock stopwatch.
///
/// Started on construction; `elapsed_s()` / `elapsed_us()` read without
/// stopping, `restart()` rebases.
class WallTimer {
 public:
  WallTimer() : start_(Clock::now()) {}

  void restart() { start_ = Clock::now(); }

  [[nodiscard]] double elapsed_s() const {
    return std::chrono::duration<double>(Clock::now() - start_).count();
  }
  [[nodiscard]] double elapsed_us() const { return elapsed_s() * 1e6; }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

/// Per-thread CPU-time stopwatch (CLOCK_THREAD_CPUTIME_ID).
///
/// Measures time this thread actually spent executing, excluding time it was
/// descheduled — the right clock for measuring BSP "work" on an oversubscribed
/// host where worker threads share cores.
class ThreadCpuTimer {
 public:
  ThreadCpuTimer() : start_(now_ns()) {}

  void restart() { start_ = now_ns(); }

  [[nodiscard]] double elapsed_s() const {
    return static_cast<double>(now_ns() - start_) * 1e-9;
  }
  [[nodiscard]] double elapsed_us() const {
    return static_cast<double>(now_ns() - start_) * 1e-3;
  }

  /// Raw per-thread CPU time in nanoseconds since an unspecified epoch.
  static std::int64_t now_ns();

 private:
  std::int64_t start_;
};

}  // namespace gbsp
