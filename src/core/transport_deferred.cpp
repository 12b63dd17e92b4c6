#include "core/transport_deferred.hpp"

namespace gbsp {

namespace {

std::size_t parity(const detail::WorkerState& st) {
  return static_cast<std::size_t>(st.superstep % 2);
}

}  // namespace

void DeferredTransport::reset_run(
    const std::vector<std::unique_ptr<detail::WorkerState>>& states) {
  const std::size_t p = states.size();
  // Destroying the previous run's arenas releases every slab into the pool,
  // where the fresh arenas below reacquire them: buffers recycle across
  // run() calls, not just across supersteps.
  per_.clear();
  per_.resize(p);
  for (PerWorker& pw : per_) {
    for (auto& out : pw.outbox) out.reserve(p);
    pw.inbox_from.reserve(p);
    for (std::size_t d = 0; d < p; ++d) {
      for (auto& out : pw.outbox) out.emplace_back(pool_);
      pw.inbox_from.emplace_back(pool_);
    }
  }
}

std::byte* DeferredTransport::stage_reserve(detail::WorkerState& st, int dest,
                                            std::size_t n) {
  const std::size_t d = static_cast<std::size_t>(dest);
  // The zero-allocation send path: bump-append a frame into the recycled
  // per-destination arena; the caller fills the payload slot in place.
  MessageArena& arena =
      per_[static_cast<std::size_t>(st.pid)].outbox[parity(st)][d];
  return arena.append(static_cast<std::uint32_t>(st.pid), st.seq_to[d]++, n);
}

void DeferredTransport::begin_exchange(detail::WorkerState& st) {
  // Nothing to move — sends stage straight into the per-destination arenas —
  // but the fault harness hooks the boundary here.
  inject_boundary_fault(FaultSite::Flush, st);
}

void DeferredTransport::finish_exchange(detail::WorkerState& dst) {
  inject_boundary_fault(FaultSite::Deliver, dst);
  dst.inbox.clear();
  dst.inbox_cursor = 0;
  PerWorker& mine = per_[static_cast<std::size_t>(dst.pid)];
  const std::size_t par = parity(dst);
  // Swap each source's filled outbox arena of this superstep's parity
  // against the drained arena this receiver holds from the boundary before;
  // the source refills the drained one two supersteps from now. Walking
  // sources in pid order yields views already (source, seq)-sorted —
  // deterministic delivery needs no sort here.
  std::size_t total = 0;
  for (std::size_t s = 0; s < per_.size(); ++s) {
    MessageArena& drained = mine.inbox_from[s];
    drained.clear();
    std::swap(drained, per_[s].outbox[par][static_cast<std::size_t>(dst.pid)]);
    total += drained.message_count();
  }
  dst.inbox.reserve(total);
  std::uint64_t recv_packets = 0;
  for (const MessageArena& arena : mine.inbox_from) {
    append_views(dst, arena, recv_packets);
  }
  finish_delivery(dst, recv_packets, /*sort_deterministic=*/false);
}

}  // namespace gbsp
