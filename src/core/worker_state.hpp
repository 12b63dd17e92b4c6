// Per-processor runtime state shared between the Runtime (worker lifecycle,
// the barrier, instrumentation) and the Transport (message delivery).
//
// WorkerState deliberately carries only transport-agnostic fields: identity,
// sequence counters, the inbox *views* handed to application code, and the
// open superstep's statistics record. Everything strategy-specific —
// per-destination outbox arenas, eager parity buffers, socket staging
// state — lives inside the Transport implementation that needs it
// (core/transport_*.hpp), keyed by pid. That separation is what lets one
// Runtime run unchanged over shared buffers, chunk-locked eager splicing, or
// real sockets (the paper's SGI / Cenju / PC-LAN portability claim,
// Appendix B).
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <mutex>
#include <vector>

#include "core/message.hpp"
#include "core/stats.hpp"

namespace gbsp {
namespace detail {

/// All transport-agnostic mutable per-processor state. Owned by the Runtime;
/// a Worker is a lightweight handle over one WorkerState. Every send reads
/// and writes it, so it is cache-line aligned: no peer's hot state can share
/// its lines, whatever the heap layout.
struct alignas(64) WorkerState {
  int pid = 0;

  std::vector<std::uint32_t> seq_to;  // per-destination sequence counters

  std::vector<Message> inbox;  // views into transport-owned arenas
  std::size_t inbox_cursor = 0;

  std::uint64_t superstep = 0;
  // The open superstep's record: every counting site accrues into it, and
  // each boundary seals it into `trace` whole (core/stats.hpp documents each
  // counter's charging rule).
  WorkerStepRecord step;

  // --- Split-phase window (Worker::sync_begin()/sync_end()). The flag is
  // owned by the worker's own thread; run_attempt() rebuilds states fresh,
  // so an attempt that unwound mid-window never leaks a stale window.
  bool overlap_active = false;
  // Wall-clock (steady) ns at sync_begin, for the window-duration stat.
  std::int64_t overlap_start_ns = 0;

  std::int64_t work_start_ns = 0;
  std::vector<WorkerStepRecord> trace;

  // Serialized mode: this worker's hold on the Runtime's compute token,
  // owned from the start of each work slice to the top of the boundary that
  // ends it. Never owned in Parallel mode.
  std::unique_lock<std::mutex> compute_token;

  // --- Recovery registration (core/recovery.hpp). Re-populated by the user
  // function on every run attempt; the checkpoint layer snapshots regions in
  // registration order and feeds the save callback's bytes back through the
  // restore callback on resume.
  struct CheckpointRegion {
    std::byte* base = nullptr;
    std::size_t bytes = 0;
  };
  std::vector<CheckpointRegion> ckpt_regions;
  std::function<void(std::vector<std::byte>&)> ckpt_save;
  std::function<void(const std::byte*, std::size_t)> ckpt_restore;
};

}  // namespace detail
}  // namespace gbsp
