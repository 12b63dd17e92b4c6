#include "core/scheduler.hpp"

#include "core/barrier.hpp"  // BspAborted

namespace gbsp {

SerialScheduler::SerialScheduler(int nprocs, std::function<void()> exchange)
    : nprocs_(nprocs),
      exchange_(std::move(exchange)),
      active_(static_cast<std::size_t>(nprocs), 1),
      arrived_(static_cast<std::size_t>(nprocs), 0),
      active_count_(nprocs) {}

int SerialScheduler::first_pending_locked() const {
  for (int i = 0; i < nprocs_; ++i) {
    if (active_[i] && !arrived_[i]) return i;
  }
  return -1;
}

void SerialScheduler::advance_locked(int from_pid) {
  // Baton travels in increasing pid order within a round.
  for (int i = from_pid + 1; i < nprocs_; ++i) {
    if (active_[i] && !arrived_[i]) {
      turn_ = i;
      cv_.notify_all();
      return;
    }
  }
  // Round complete: all active workers have reached the superstep boundary.
  if (active_count_ > 0) {
    try {
      exchange_();
    } catch (...) {
      // The callback recorded its error; every worker unwinds.
      aborted_ = true;
      cv_.notify_all();
      return;
    }
    ++round_;
    std::fill(arrived_.begin(), arrived_.end(), 0);
    turn_ = first_pending_locked();
  } else {
    turn_ = -1;
  }
  cv_.notify_all();
}

void SerialScheduler::start(int pid) {
  std::unique_lock<std::mutex> lock(mutex_);
  cv_.wait(lock, [&] { return aborted_ || turn_ == pid; });
  if (aborted_) throw BspAborted{};
}

void SerialScheduler::yield_at_sync(int pid) {
  std::unique_lock<std::mutex> lock(mutex_);
  if (aborted_) throw BspAborted{};
  arrived_[pid] = 1;
  const std::uint64_t my_round = round_;
  advance_locked(pid);
  cv_.wait(lock, [&] {
    return aborted_ || (turn_ == pid && round_ > my_round);
  });
  if (aborted_) throw BspAborted{};
}

void SerialScheduler::finish(int pid) noexcept {
  std::unique_lock<std::mutex> lock(mutex_);
  active_[pid] = 0;
  arrived_[pid] = 0;
  --active_count_;
  if (aborted_) {
    cv_.notify_all();
    return;
  }
  if (active_count_ == 0) {
    turn_ = -1;
    cv_.notify_all();
    return;
  }
  advance_locked(pid);
}

void SerialScheduler::abort() noexcept {
  std::unique_lock<std::mutex> lock(mutex_);
  aborted_ = true;
  cv_.notify_all();
}

}  // namespace gbsp
