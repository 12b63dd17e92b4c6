// Eager delivery: the paper's Appendix B.1 shared-memory scheme.
//
// Each processor owns two alternating input arenas that remote senders
// splice whole slab chains into during the superstep, under chunk-granularity
// locking — "when a process acquires a lock it allocates enough space for
// 1000 packets, so the locking cost is small per packet". Sends during
// superstep t land in the receiver's (t + 1) % 2 buffer, so a sender already
// in superstep t+1 never races the receiver draining its superstep-t buffer.
#pragma once

#include <array>
#include <memory>
#include <mutex>
#include <vector>

#include "core/transport.hpp"

namespace gbsp {

class EagerTransport final : public detail::TransportBase {
 public:
  EagerTransport(const Config& cfg, SlabPool& pool,
                 const std::atomic<bool>* abort_flag)
      : TransportBase(cfg, pool, abort_flag) {}

  [[nodiscard]] const char* name() const override { return "eager"; }
  [[nodiscard]] bool needs_boundary_barriers() const override { return true; }

  void reset_run(const std::vector<std::unique_ptr<detail::WorkerState>>&
                     states) override;
  std::byte* stage_reserve(detail::WorkerState& st, int dest,
                           std::size_t n) override;
  void begin_exchange(detail::WorkerState& st) override;
  void finish_exchange(detail::WorkerState& dst) override;

 private:
  struct PerWorker {
    // The two alternating input arenas this processor owns; remote senders
    // splice whole slab chains under chunked locking.
    std::array<MessageArena, 2> inbuf;
    std::array<std::mutex, 2> mutex;
    // Sender-side staging arenas (one per destination) spliced under one
    // lock acquisition per Config::eager_chunk_messages messages.
    std::vector<MessageArena> pending;
    // Destinations with staged messages, so begin_exchange() walks only
    // what was touched instead of all p staging arenas.
    std::vector<char> dirty_flag;
    std::vector<int> dirty;
    // Arena backing this superstep's inbox views; its slabs return to the
    // pool at the next boundary (Message pointers die at the next sync).
    MessageArena inbox_arena;
  };

  void flush_one(detail::WorkerState& st, int dest);

  // unique_ptr elements: PerWorker holds mutexes, which are immovable.
  std::vector<std::unique_ptr<PerWorker>> per_;
};

}  // namespace gbsp
