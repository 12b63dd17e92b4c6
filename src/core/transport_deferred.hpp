// Deferred delivery: the lock-free whole-arena exchange.
//
// Senders buffer locally, one recycled arena per destination and superstep
// parity (the paper's Appendix B.1 alternating buffers): superstep t stages
// into outbox[t % 2]. After the boundary barrier the receiver swaps each
// source's filled outbox arena of that parity against the drained arena it
// holds from the boundary before, while a sender already in superstep t+1
// fills the other parity. The three arenas of each (source, destination)
// pair rotate forever, so steady-state supersteps never touch the allocator
// and no lock is ever taken — the natural BSP realisation on shared memory.
#pragma once

#include <array>
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

  void reset_run(const std::vector<std::unique_ptr<detail::WorkerState>>&
                     states) override;
  std::byte* stage_reserve(detail::WorkerState& st, int dest,
                           std::size_t n) override;
  void begin_exchange(detail::WorkerState& st) override;
  void finish_exchange(detail::WorkerState& dst) override;

 private:
  struct PerWorker {
    // outbox[t % 2][d]: the arena this processor fills for destination d
    // during superstep t. inbox_from[s]: the drained arena this processor
    // holds for source s, swapped against s's outbox at the boundary.
    std::array<std::vector<MessageArena>, 2> outbox;
    std::vector<MessageArena> inbox_from;
  };

  std::vector<PerWorker> per_;
};

}  // namespace gbsp
