#include "core/barrier.hpp"

#include <sched.h>

#include <chrono>
#include <thread>

namespace gbsp {

namespace {

using Clock = std::chrono::steady_clock;

// A peer on its own CPU usually arrives within a few microseconds. Keep the
// pause phase that short: fresh workers often share a CPU until the
// scheduler spreads them, and a long pause-spin then burns the core the
// last arriver needs, parks anyway, and pays the futex wake on top.
constexpr auto kPauseSpin = std::chrono::microseconds(2);
// Yield phase before parking: on a CPU per worker a yield returns at once,
// so it is a spin that stays responsive for up to this long; on fewer CPUs
// each yield hands the CPU to a runnable peer, and a few rounds suffice.
constexpr auto kYieldFor = std::chrono::milliseconds(1);
constexpr int kYieldsWhenShared = 64;

inline void cpu_pause() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__)
  asm volatile("yield");
#endif
}

bool has_cpu_per_worker(int nprocs) {
  cpu_set_t set;
  CPU_ZERO(&set);
  const int cpus = sched_getaffinity(0, sizeof(set), &set) == 0
                       ? CPU_COUNT(&set)
                       : static_cast<int>(std::thread::hardware_concurrency());
  return cpus >= nprocs;
}

}  // namespace

Barrier::Barrier(int nprocs, const std::atomic<bool>* abort_flag)
    : nprocs_(nprocs),
      abort_(abort_flag),
      cpu_per_worker_(has_cpu_per_worker(nprocs)) {}

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
  if (count_.fetch_add(1, std::memory_order_acq_rel) + 1 == nprocs_) {
    count_.store(0, std::memory_order_relaxed);
    advance();
    return;
  }
  const auto waiting = [this, gen] {
    return generation_.load(std::memory_order_acquire) == gen;
  };
  const Clock::time_point start = Clock::now();
  while (waiting() && Clock::now() - start < kPauseSpin) cpu_pause();
  for (int yields = 0; waiting(); ++yields) {
    if (cpu_per_worker_ ? Clock::now() - start >= kYieldFor
                        : yields >= kYieldsWhenShared) {
      generation_.wait(gen, std::memory_order_acquire);
      break;
    }
    std::this_thread::yield();
  }
  throw_if_aborted();
}

void Barrier::wake_on_abort() { advance(); }

std::unique_ptr<Barrier> make_barrier(BarrierKind /*kind*/, int nprocs,
                                      const std::atomic<bool>* abort_flag) {
  return std::make_unique<Barrier>(nprocs, abort_flag);
}

}  // namespace gbsp
