#include "core/transport_eager.hpp"

namespace gbsp {

void EagerTransport::reset_run(
    const std::vector<std::unique_ptr<detail::WorkerState>>& states) {
  const std::size_t p = states.size();
  per_.clear();
  per_.reserve(p);
  for (std::size_t i = 0; i < p; ++i) {
    auto pw = std::make_unique<PerWorker>();
    pw->pending.reserve(p);
    for (std::size_t d = 0; d < p; ++d) pw->pending.emplace_back(pool_);
    pw->inbuf[0].bind(pool_);
    pw->inbuf[1].bind(pool_);
    pw->inbox_arena.bind(pool_);
    pw->dirty_flag.assign(p, 0);
    pw->dirty.reserve(p);
    per_.push_back(std::move(pw));
  }
}

std::byte* EagerTransport::stage_reserve(detail::WorkerState& st, int dest,
                                         std::size_t n) {
  const std::size_t d = static_cast<std::size_t>(dest);
  PerWorker& pw = *per_[static_cast<std::size_t>(st.pid)];
  MessageArena& arena = pw.pending[d];
  std::byte* slot = arena.append(static_cast<std::uint32_t>(st.pid),
                                 st.seq_to[d]++, n);
  if (pw.dirty_flag[d] == 0) {
    pw.dirty_flag[d] = 1;
    pw.dirty.push_back(dest);
  }
  if (arena.message_count() >= cfg_.eager_chunk_messages) {
    // The chunk flush splices whole slab chains into the destination's input
    // buffer; slabs are never copied or moved, so `slot` stays writable — the
    // receiver cannot observe it before the boundary barriers anyway.
    flush_one(st, dest);
  }
  return slot;
}

void EagerTransport::flush_one(detail::WorkerState& st, int dest) {
  PerWorker& src = *per_[static_cast<std::size_t>(st.pid)];
  MessageArena& pending = src.pending[static_cast<std::size_t>(dest)];
  if (pending.empty()) return;
  PerWorker& dst = *per_[static_cast<std::size_t>(dest)];
  // Sends during superstep t are destined for the receiver's superstep t+1
  // buffer. Both alternating buffers exist so that a sender already in
  // superstep t+1 never races the receiver draining its superstep-t buffer.
  const std::size_t parity = static_cast<std::size_t>((st.superstep + 1) % 2);
  // Splicing moves slab ownership — one lock acquisition per chunk, zero
  // per-message work. The staging arena reacquires slabs from the shared
  // pool, which the receiver refills when it consumes this chunk.
  std::lock_guard<std::mutex> lock(dst.mutex[parity]);
  dst.inbuf[parity].splice_from(pending);
}

void EagerTransport::flush(detail::WorkerState& st) {
  inject_boundary_fault(FaultSite::Flush, st);
  // Only destinations actually sent to this superstep need flushing — a
  // chunk-boundary flush may already have emptied some of them, which
  // flush_one short-circuits.
  PerWorker& pw = *per_[static_cast<std::size_t>(st.pid)];
  for (int d : pw.dirty) {
    flush_one(st, d);
    pw.dirty_flag[static_cast<std::size_t>(d)] = 0;
  }
  pw.dirty.clear();
}

void EagerTransport::finish_exchange(detail::WorkerState& dst) {
  inject_boundary_fault(FaultSite::Deliver, dst);
  dst.inbox.clear();
  dst.inbox_cursor = 0;
  PerWorker& pw = *per_[static_cast<std::size_t>(dst.pid)];
  const std::size_t parity = static_cast<std::size_t>((dst.superstep + 1) % 2);
  // No lock needed: delivery happens strictly between the two superstep
  // barriers (parallel mode) or under the scheduler lock (serialized mode),
  // when no sender can be writing this parity.
  pw.inbox_arena.release_slabs();  // last superstep's views are dead now
  std::swap(pw.inbox_arena, pw.inbuf[parity]);
  dst.inbox.reserve(pw.inbox_arena.message_count());
  std::uint64_t recv_packets = 0;
  append_views(dst, pw.inbox_arena, recv_packets);
  finish_delivery(dst, recv_packets, cfg_.deterministic_delivery);
}

bool EagerTransport::has_unflushed(const detail::WorkerState& st) const {
  const PerWorker& pw = *per_[static_cast<std::size_t>(st.pid)];
  for (const MessageArena& a : pw.pending) {
    if (!a.empty()) return true;
  }
  return false;
}

}  // namespace gbsp
