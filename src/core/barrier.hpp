// The superstep barrier of the in-memory transports, and the one spin
// schedule every blocking wait of the runtime runs before it parks.
//
// One central barrier on a generation word, crossed once per superstep (the
// paper's Appendix B.1 spin-flag synchronisation). A waiter runs the spin
// schedule below, then parks on the word with std::atomic::wait (a futex in
// libstdc++). The staged exchange's idle wait (detail::Waiter,
// core/exchange_engine.hpp) runs the same schedule and parks in poll().
//
// The barrier is abort-aware: a worker that fails raises the shared abort
// flag and then calls wake_on_abort(), and every other worker, instead of
// waiting for a peer that will never arrive, throws BspAborted out of the
// barrier. This is what makes failure injection testable (DESIGN.md
// section 9).
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <stdexcept>

namespace gbsp {

/// Thrown out of a barrier when another worker aborted the computation.
/// Internal control flow: the runtime catches it and unwinds the worker.
struct BspAborted : std::runtime_error {
  BspAborted() : std::runtime_error("BSP computation aborted by a peer") {}
};

/// The spin schedule of a wait, chosen by whether the affinity mask of the
/// thread that built the schedule holds a CPU per participant. With one, a
/// wait pause-spins for 2 us, then yields for up to 1 ms, then parks: a
/// yield returns at once there, so the yield phase is a spin that stays
/// responsive. With fewer CPUs, a wait yields 64 times, then parks: each
/// yield hands the CPU to a runnable peer, a few rounds suffice, and a pause
/// would only hold the CPU that peer needs.
class SpinSchedule {
 public:
  /// One wait's place in the schedule; a fresh Wait starts the clock.
  struct Wait {
    std::chrono::steady_clock::time_point start =
        std::chrono::steady_clock::now();
    int yields = 0;
  };

  /// Reads the calling thread's affinity mask against `participants`.
  explicit SpinSchedule(int participants);

  /// One turn of `w`: pauses or yields and returns true while the schedule
  /// lasts; returns false, at once, when the waiter should park.
  bool turn(Wait& w) const;

 private:
  bool cpu_per_participant_;
};

/// Barrier for `nprocs` participants, reusable across supersteps until an
/// abort, which leaves it spent. As with std::barrier, a participant that
/// leaves calls arrive_and_drop(), and every later phase waits for one
/// fewer.
class Barrier {
 public:
  /// `abort_flag` may be null (no abort); otherwise whoever raises it must
  /// then call wake_on_abort().
  Barrier(int nprocs, const std::atomic<bool>* abort_flag);

  /// Blocks until all participants arrive. `pid` is unused. Throws
  /// BspAborted if the abort flag is raised before or while waiting.
  void arrive_and_wait(int pid);

  /// Arrives at the current phase without waiting and leaves the barrier:
  /// later phases no longer count this participant.
  void arrive_and_drop();

  /// Moves the generation word so every waiter — spinning, yielding or
  /// parked — returns and sees the abort flag, which must already be raised.
  void wake_on_abort();

 private:
  /// Counts one arrival. The last of a phase re-arms the count for the next
  /// phase, advances the generation, and returns true.
  bool arrive();
  void advance();

  const std::atomic<bool>* const abort_;
  const SpinSchedule spin_;
  // Participants of the next phase; arrive_and_drop lowers it.
  std::atomic<int> expected_;
  alignas(64) std::atomic<int> remaining_;  // arrivals this phase still needs
  alignas(64) std::atomic<std::uint32_t> generation_{0};
};

/// perfbench-only shim: perfbench's barrier probe builds its barrier through
/// this call. The one enumerator names no choice; every call returns the one
/// Barrier above.
enum class BarrierKind { CentralBlocking };

std::unique_ptr<Barrier> make_barrier(BarrierKind kind, int nprocs,
                                      const std::atomic<bool>* abort_flag);

}  // namespace gbsp
