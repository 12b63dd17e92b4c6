// Serializing scheduler: runs P virtual BSP processors one at a time.
//
// This is the runtime's Scheduling::Serialized mode — the reproduction of the
// paper's work-depth methodology ("simulating the parallel computation on a
// single processor", Section 3) and the execution substrate for the machine
// emulator (src/emul). Exactly one worker executes at any moment; the baton
// travels in pid order within a superstep round, and when the last active
// worker reaches its superstep boundary the scheduler performs the global
// message exchange and starts the next round.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <vector>

namespace gbsp {

class SerialScheduler {
 public:
  /// `exchange` is invoked (by whichever thread completes a round, with the
  /// scheduler lock held, hence effectively single-threaded) to deliver all
  /// messages sent during the round. If it throws, the scheduler aborts and
  /// drops the exception: `exchange` must record its own error first.
  SerialScheduler(int nprocs, std::function<void()> exchange);

  /// Blocks until this worker's first turn. Throws BspAborted on abort.
  void start(int pid);

  /// Superstep boundary: yields the baton and blocks until this worker's
  /// turn in the next round (after the exchange has run).
  void yield_at_sync(int pid);

  /// The worker's program returned; removes it from the rotation and passes
  /// the baton on. Never throws.
  void finish(int pid) noexcept;

  /// Wakes all waiters; subsequent start/yield calls throw BspAborted.
  void abort() noexcept;

 private:
  // Pre: lock held. Hands the baton to the next runnable worker after
  // `from_pid`, completing the round (exchange + reset) if none remains.
  void advance_locked(int from_pid);
  [[nodiscard]] int first_pending_locked() const;

  std::mutex mutex_;
  std::condition_variable cv_;
  const int nprocs_;
  std::function<void()> exchange_;
  int turn_ = 0;
  std::uint64_t round_ = 0;
  std::vector<char> active_;
  std::vector<char> arrived_;
  int active_count_ = 0;
  bool aborted_ = false;
};

}  // namespace gbsp
