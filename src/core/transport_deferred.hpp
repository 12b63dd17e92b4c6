// Deferred delivery: the lock-free whole-arena exchange.
//
// Senders buffer locally, one recycled arena per destination; at the
// superstep boundary the receiver swaps each source's filled outbox arena
// against the drained arena it holds from two boundaries ago. The pair
// ping-pongs forever, so steady-state supersteps never touch the allocator
// and no lock is ever taken — the natural BSP realisation on shared memory.
#pragma once

#include <vector>

#include "core/transport.hpp"

namespace gbsp {

class DeferredTransport final : public detail::TransportBase {
 public:
  DeferredTransport(const Config& cfg, SlabPool& pool,
                    const std::atomic<bool>* abort_flag)
      : TransportBase(cfg, pool, abort_flag) {}

  [[nodiscard]] const char* name() const override { return "deferred"; }
  [[nodiscard]] bool needs_boundary_barriers() const override { return true; }
  [[nodiscard]] bool steady_state_zero_alloc() const override { return true; }

  void reset_run(const std::vector<std::unique_ptr<detail::WorkerState>>&
                     states) override;
  std::byte* stage_reserve(detail::WorkerState& st, int dest,
                           std::size_t n) override;
  void flush(detail::WorkerState& st) override;
  void finish_exchange(detail::WorkerState& dst) override;
  [[nodiscard]] bool has_unflushed(
      const detail::WorkerState& st) const override;

 private:
  struct PerWorker {
    // outbox[d]: the arena this processor fills for destination d during the
    // superstep. inbox_from[s]: the drained arena this processor holds for
    // source s, swapped against s's outbox at the boundary.
    std::vector<MessageArena> outbox;
    std::vector<MessageArena> inbox_from;
  };

  std::vector<PerWorker> per_;
};

}  // namespace gbsp
