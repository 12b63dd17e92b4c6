// The superstep barrier of the in-memory transports.
//
// One central barrier on a generation word, crossed once per superstep (the
// paper's Appendix B.1 spin-flag synchronisation). A waiter pause-spins for a
// few microseconds, then yields, then parks on the word with
// std::atomic::wait (a futex in libstdc++). How long it yields before it
// parks is derived from the host: the CPUs the creating thread may run on
// (sched_getaffinity), against the number of participants.
//
// The barrier is abort-aware: a worker that fails raises the shared abort
// flag and then calls wake_on_abort(), and every other worker, instead of
// waiting for a peer that will never arrive, throws BspAborted out of the
// barrier. This is what makes failure injection testable (DESIGN.md
// section 9).
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <stdexcept>

namespace gbsp {

/// Thrown out of a barrier when another worker aborted the computation.
/// Internal control flow: the runtime catches it and unwinds the worker.
struct BspAborted : std::runtime_error {
  BspAborted() : std::runtime_error("BSP computation aborted by a peer") {}
};

/// Barrier for a fixed set of `nprocs` participants, reusable across
/// supersteps until an abort, which leaves it spent.
class Barrier {
 public:
  /// `abort_flag` may be null (no abort); otherwise whoever raises it must
  /// then call wake_on_abort().
  Barrier(int nprocs, const std::atomic<bool>* abort_flag);

  /// Blocks until all participants arrive. `pid` is unused. Throws
  /// BspAborted if the abort flag is raised before or while waiting.
  void arrive_and_wait(int pid);

  /// Moves the generation word so every waiter — spinning, yielding or
  /// parked — returns and sees the abort flag, which must already be raised.
  void wake_on_abort();

 private:
  void advance();

  const int nprocs_;
  const std::atomic<bool>* const abort_;
  // True when the creating thread's affinity mask holds a CPU for every
  // participant: a waiter then yields for up to a millisecond before it
  // parks, otherwise for a few yields only.
  const bool cpu_per_worker_;
  alignas(64) std::atomic<int> count_{0};
  alignas(64) std::atomic<std::uint32_t> generation_{0};
};

/// perfbench-only shim: perfbench's barrier probe builds its barrier through
/// this call. The one enumerator names no choice; every call returns the one
/// Barrier above.
enum class BarrierKind { CentralBlocking };

std::unique_ptr<Barrier> make_barrier(BarrierKind kind, int nprocs,
                                      const std::atomic<bool>* abort_flag);

}  // namespace gbsp
