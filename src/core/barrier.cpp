#include "core/barrier.hpp"

#include <sched.h>

#include <thread>

namespace gbsp {

namespace {

// A peer on its own CPU usually arrives within a few microseconds. Keep the
// pause phase that short: fresh workers often share a CPU until the
// scheduler spreads them, and a long pause-spin then burns the core the
// last arriver needs, parks anyway, and pays the wake-up on top. On fewer
// CPUs than participants the peer is often queued behind the waiter on its
// own CPU, so there the schedule skips the pause and yields at once.
constexpr auto kPauseSpin = std::chrono::microseconds(2);
constexpr auto kYieldFor = std::chrono::milliseconds(1);
constexpr int kYieldsWhenShared = 64;

inline void cpu_pause() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__)
  asm volatile("yield");
#endif
}

bool has_cpu_per_participant(int participants) {
  cpu_set_t set;
  CPU_ZERO(&set);
  const int cpus = sched_getaffinity(0, sizeof(set), &set) == 0
                       ? CPU_COUNT(&set)
                       : static_cast<int>(std::thread::hardware_concurrency());
  return cpus >= participants;
}

}  // namespace

SpinSchedule::SpinSchedule(int participants)
    : cpu_per_participant_(has_cpu_per_participant(participants)) {}

bool SpinSchedule::turn(Wait& w) const {
  if (cpu_per_participant_) {
    const auto waited = std::chrono::steady_clock::now() - w.start;
    if (waited < kPauseSpin) {
      cpu_pause();
      return true;
    }
    if (waited >= kYieldFor) return false;
  } else if (w.yields >= kYieldsWhenShared) {
    return false;
  }
  ++w.yields;
  std::this_thread::yield();
  return true;
}

Barrier::Barrier(int nprocs, const std::atomic<bool>* abort_flag)
    : abort_(abort_flag),
      spin_(nprocs),
      expected_(nprocs),
      remaining_(nprocs) {}

bool Barrier::arrive() {
  if (remaining_.fetch_sub(1, std::memory_order_acq_rel) != 1) return false;
  // Every arrival of this phase, a drop's included, is ordered before this
  // last one, so expected_ already counts out each participant that left.
  remaining_.store(expected_.load(), std::memory_order_relaxed);
  advance();
  return true;
}

void Barrier::advance() {
  // A sequentially consistent increment: notify_all skips the futex wake
  // when its waiter count reads zero, and that read must not be ordered
  // before the new generation is visible to a waiter about to park.
  generation_.fetch_add(1, std::memory_order_seq_cst);
  generation_.notify_all();
}

void Barrier::arrive_and_wait(int /*pid*/) {
  const std::uint32_t gen = generation_.load(std::memory_order_acquire);
  // An abort raised before this load may already have moved the generation,
  // and no later move would come.
  const auto throw_if_aborted = [this] {
    if (abort_ != nullptr && abort_->load(std::memory_order_acquire)) {
      throw BspAborted{};
    }
  };
  throw_if_aborted();
  if (arrive()) return;
  SpinSchedule::Wait wait;
  while (generation_.load(std::memory_order_acquire) == gen) {
    if (!spin_.turn(wait)) {
      generation_.wait(gen, std::memory_order_acquire);
      break;
    }
  }
  throw_if_aborted();
}

void Barrier::arrive_and_drop() {
  expected_.fetch_sub(1);
  arrive();
}

void Barrier::wake_on_abort() { advance(); }

std::unique_ptr<Barrier> make_barrier(BarrierKind /*kind*/, int nprocs,
                                      const std::atomic<bool>* abort_flag) {
  return std::make_unique<Barrier>(nprocs, abort_flag);
}

}  // namespace gbsp
