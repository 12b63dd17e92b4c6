#include "core/transport_staged.hpp"

#include <poll.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <string>
#include <thread>

#include "core/barrier.hpp"  // BspAborted

namespace gbsp {

void StagedTransport::reset_run(
    const std::vector<std::unique_ptr<detail::WorkerState>>& states) {
  if (!hosts_every_rank_ &&
      (states.size() != 1 || states[0]->pid != cfg_.rank)) {
    // Process mode: the Runtime hands over exactly the one local worker,
    // already carrying the global rank.
    throw BspTransportError(
        std::string(name()) +
        " transport expects exactly one local worker with pid == rank (" +
        std::to_string(cfg_.rank) + "), got " +
        std::to_string(states.size()) + " worker(s)");
  }
  if (!mesh_->dirty() && eng_.size() == states.size()) {
    // Every previous exchange completed cleanly, so every stream and ring is
    // drained: the mesh carries no state and is reused as-is. Only the
    // arenas reset (slabs go back to the pool for the new run to reacquire);
    // the zero-copy epoch stays monotonic across this.
    for (auto& e : eng_) e->reset_for_reuse();
    return;
  }
  // First run, or a run that unwound mid-stage: an aborted exchange may
  // leave half-written stage bytes in kernel buffers or rings, and
  // desynchronises the streams with every peer. Rebuild from scratch; in
  // process mode that re-enters the bootstrap, which only completes when
  // every peer rank does the same — a coordinated retry reconnects, a dead
  // peer makes the bootstrap time out with a descriptive BspTransportError.
  mesh_->build(cfg_.nprocs);
  eng_.clear();
  eng_.reserve(states.size());
  for (const auto& st : states) {
    eng_.push_back(std::make_unique<detail::ExchangeEngine>(
        cfg_, *pool_, *mesh_, abort_, &fault_));
    eng_.back()->attach(st->pid, cfg_.nprocs);
  }
}

void StagedTransport::publish(detail::WorkerState& dst) {
  detail::ExchangeEngine& e = engine_of(dst.pid);
  dst.inbox.reserve(e.inbox_arena().message_count());
  std::uint64_t recv_packets = 0;
  append_views(dst, e.inbox_arena(), recv_packets);
  // Zero-copy frames arrived as 16-byte slab descriptors; swap their views
  // (and their packet accounting) onto the shared mapping before the
  // deterministic sort fixes the inbox order. A no-op on fd links.
  e.apply_zc_views(dst, recv_packets);
  finish_delivery(dst, recv_packets, cfg_.deterministic_delivery);
}

void StagedTransport::begin_exchange(detail::WorkerState& st) {
  detail::ExchangeEngine& e = engine_of(st.pid);
  try {
    // The sender-side Flush hook (this transport's flush() is hook-only),
    // then the Deliver hook at the top of boundary delivery.
    inject_boundary_fault(FaultSite::Flush, st);
    inject_boundary_fault(FaultSite::Deliver, st);
    e.begin_window(st);
  } catch (...) {
    // Unwinding mid-stage strands half-written stage bytes on the wire; the
    // mesh must be rebuilt before the next run.
    mesh_->mark_dirty();
    throw;
  }
}

bool StagedTransport::progress(detail::WorkerState& st) {
  detail::ExchangeEngine& e = engine_of(st.pid);
  if (e.window_done()) return true;
  try {
    return e.pump_window(st);
  } catch (...) {
    mesh_->mark_dirty();
    throw;
  }
}

void StagedTransport::finish_exchange(detail::WorkerState& st) {
  try {
    engine_of(st.pid).finish_window(st);
  } catch (...) {
    mesh_->mark_dirty();
    throw;
  }
  publish(st);
}

void StagedTransport::exchange(
    const std::vector<std::unique_ptr<detail::WorkerState>>& states) {
  using Clock = std::chrono::steady_clock;
  if (!hosts_every_rank_) {
    // validate_config rejects Serialized scheduling in process mode before a
    // Runtime exists; this is the defensive backstop, not a reachable path.
    throw BspTransportError(std::string("the ") + name() +
                            " transport has no serialized global exchange "
                            "(one process hosts one rank)");
  }
  const int p = static_cast<int>(states.size());
  // Single-threaded driver: one thread advances every worker's staged
  // exchange, so the same wire protocol runs under the Serialized scheduler.
  // Finished workers still participate — their peers' schedule expects a
  // (possibly empty) stage from them on the shared stream.
  struct Task {
    detail::WorkerState* st = nullptr;
    detail::ExchangeEngine::StageState ss;
    bool done = false;
  };
  std::vector<Task> tasks(static_cast<std::size_t>(p));
  int done_count = 0;
  // Moves a task on to its next stage, or retires it after stage p-1 (at
  // once for a lone rank, whose boundary is self-delivery only).
  const auto advance = [&](Task& t, detail::ExchangeEngine& e) {
    if (t.ss.k + 1 < p) {
      e.begin_stage(t.ss, t.ss.k + 1);
    } else {
      t.done = true;
      ++done_count;
    }
  };
  try {
    for (int i = 0; i < p; ++i) {
      Task& t = tasks[static_cast<std::size_t>(i)];
      t.st = states[static_cast<std::size_t>(i)].get();
      inject_boundary_fault(FaultSite::Deliver, *t.st);
      engine_of(i).open_boundary(*t.st);
      advance(t, engine_of(i));
    }
    auto last_progress = Clock::now();
    std::size_t backoff_ms = cfg_.socket_backoff_initial_ms;
    while (done_count < p) {
      bool progressed = false;
      for (int i = 0; i < p; ++i) {
        Task& t = tasks[static_cast<std::size_t>(i)];
        if (t.done) continue;
        detail::ExchangeEngine& e = engine_of(i);
        std::size_t moved = 0;
        if (!t.ss.send_done) moved += e.pump_send(*t.st, t.ss);
        if (!t.ss.recv_done) moved += e.pump_recv(*t.st, t.ss);
        if (t.ss.send_done && t.ss.recv_done) {
          advance(t, e);
          progressed = true;
        }
        progressed = progressed || moved != 0;
      }
      if (progressed) {
        last_progress = Clock::now();
        backoff_ms = cfg_.socket_backoff_initial_ms;
        continue;
      }
      if (abort_ != nullptr && abort_->load(std::memory_order_acquire)) {
        throw BspAborted{};
      }
      const auto idle = Clock::now() - last_progress;
      if (idle > std::chrono::milliseconds(cfg_.socket_stage_timeout_ms)) {
        throw BspTransportError(
            "serialized staged exchange made no progress for " +
                std::to_string(cfg_.socket_stage_timeout_ms) + " ms",
            /*rank=*/-1, /*peer=*/-1,
            static_cast<std::int64_t>(states[0]->superstep), /*stage=*/-1,
            /*err=*/0, /*bytes_moved=*/0);
      }
      // Same adaptive spin as the threaded driver; on a single thread the
      // yield is a no-op and the spin just retries the pump round.
      if (idle < std::chrono::microseconds(cfg_.socket_spin_us)) {
        std::this_thread::yield();
        continue;
      }
      // All tasks hit EAGAIN in both directions (kernel buffers momentarily
      // full on one side, empty on the other): wait for any endpoint.
      std::vector<struct pollfd> fds;
      fds.reserve(static_cast<std::size_t>(2 * p));
      for (int i = 0; i < p; ++i) {
        const Task& t = tasks[static_cast<std::size_t>(i)];
        if (t.done) continue;
        detail::ExchangeEngine& e = engine_of(i);
        if (!t.ss.send_done) {
          fds.push_back({mesh_->fd(i, e.send_peer(t.ss)), POLLOUT, 0});
        }
        if (!t.ss.recv_done) {
          fds.push_back({mesh_->fd(i, e.recv_peer(t.ss)), POLLIN, 0});
        }
      }
      if (::poll(fds.data(), static_cast<nfds_t>(fds.size()),
                 static_cast<int>(backoff_ms)) < 0 &&
          errno != EINTR) {
        throw BspTransportError(
            "poll in serialized staged exchange failed", /*rank=*/-1,
            /*peer=*/-1, static_cast<std::int64_t>(states[0]->superstep),
            /*stage=*/-1, errno, /*bytes_moved=*/0);
      }
      backoff_ms = std::min(backoff_ms * 2, cfg_.socket_backoff_max_ms);
    }
  } catch (...) {
    mesh_->mark_dirty();
    throw;
  }
  for (Task& t : tasks) publish(*t.st);
}

bool StagedTransport::has_unflushed(const detail::WorkerState& st) const {
  return !eng_.empty() && engine_of(st.pid).has_unflushed();
}

}  // namespace gbsp
