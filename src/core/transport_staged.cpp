#include "core/transport_staged.hpp"

#include <sys/eventfd.h>
#include <unistd.h>

#include <cstring>
#include <string>

namespace gbsp {

StagedTransport::StagedTransport(const Config& cfg, SlabPool& pool,
                                 const std::atomic<bool>* abort_flag,
                                 std::unique_ptr<detail::Mesh> mesh)
    : TransportBase(cfg, pool, abort_flag),
      mesh_(std::move(mesh)),
      hosts_every_rank_(mesh_->hosts_every_rank()),
      abort_fd_(::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC)) {
  if (abort_fd_ < 0) {
    throw BspTransportError(std::string("eventfd for the abort wake: ") +
                            std::strerror(errno));
  }
}

StagedTransport::~StagedTransport() { ::close(abort_fd_); }

void StagedTransport::wake_on_abort() {
  // Fails only if the counter would overflow, and a nonzero counter already
  // wakes every poll.
  const std::uint64_t one = 1;
  [[maybe_unused]] const ssize_t n = ::write(abort_fd_, &one, sizeof(one));
}

void StagedTransport::reset_run(
    const std::vector<std::unique_ptr<detail::WorkerState>>& states) {
  // The previous run's abort, if any, is over; an undrained wake would end
  // every park of this run at once.
  std::uint64_t wakes = 0;
  [[maybe_unused]] const ssize_t n = ::read(abort_fd_, &wakes, sizeof(wakes));
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
        cfg_, *pool_, *mesh_, abort_, abort_fd_, &fault_));
    eng_.back()->attach(st->pid, cfg_.nprocs);
  }
}

void StagedTransport::publish(detail::WorkerState& dst) {
  detail::ExchangeEngine& e = engine_of(dst.pid);
  dst.inbox.reserve(e.self_arena().message_count() +
                    e.inbox_arena().message_count());
  std::uint64_t recv_packets = 0;
  append_views(dst, e.self_arena(), recv_packets);
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
    // The Flush hook (sends stage straight into per-destination arenas, so
    // there is nothing else to seal), then the Deliver hook at the top of
    // boundary delivery.
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
  try {
    e.pump_window(st);
  } catch (...) {
    mesh_->mark_dirty();
    throw;
  }
  return e.window_done();
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

}  // namespace gbsp
