// Superstep checkpointing for bounded-retry recovery.
//
// BSP hands recovery a gift the general message-passing model lacks: the
// superstep boundary is a consistent cut. At the top of a superstep every
// message of the previous h-relation has been delivered, nothing is in
// flight, and each processor's externally visible state is exactly (its
// registered memory, its inbox, its sequence counters). Snapshotting that
// tuple at the cut — and nothing else — is sufficient to replay the run
// bit-identically, because the program between cuts is deterministic local
// computation plus sends that the restored sequence counters re-number
// identically.
//
// The RecoveryManager keeps two pool-backed checkpoint slots per rank
// (current and previous). Two suffice: checkpoints are taken at the same
// superstep schedule on every rank, so when a failure interrupts a
// checkpoint wave, ranks differ by at most one completed checkpoint — the
// latest superstep present on *all* ranks is always in one of the two slots.
// Inbox snapshots are copied into a MessageArena fed by the runtime's
// SlabPool, so steady-state checkpointing recycles the same slabs instead of
// touching the allocator (the zero-alloc discipline of the message path,
// extended to the resilience layer).
//
// Threading: checkpoint() is called by each worker for its own rank at the
// top of a superstep — slots are per-rank, so no locking is needed.
// latest_complete()/restore() run single-threaded between run attempts,
// after every worker thread has joined.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/arena.hpp"
#include "core/stats.hpp"
#include "core/worker_state.hpp"

namespace gbsp {

class RecoveryManager {
 public:
  explicit RecoveryManager(SlabPool* pool) : pool_(pool) {}

  /// Starts a new independent run: forgets every checkpoint and sizes the
  /// per-rank slots. Retry attempts within one run() must NOT call this —
  /// the surviving checkpoints are precisely what recovery restores.
  void reset(int nprocs);

  /// Snapshots `st` at the current superstep cut: registered regions, the
  /// save callback's bytes, the delivered inbox, the sequence counters, the
  /// open superstep's record (what its opening boundary charged) and the
  /// trace so far. Accrues the snapshot's bytes and µs into
  /// st.step.checkpoint_bytes / checkpoint_us. Called by st's own worker
  /// thread.
  void checkpoint(detail::WorkerState& st);

  /// Highest superstep for which every rank holds a checkpoint, or -1 when
  /// some rank has none (recovery must replay from the start).
  [[nodiscard]] std::int64_t latest_complete() const;

  /// Restores the sequence counters, open record, trace, and inbox of `st`
  /// from rank st.pid's checkpoint at `step` (which must exist — see
  /// latest_complete()). Inbox views point into the checkpoint's own arena;
  /// they remain valid until two further checkpoints rotate the slot away,
  /// long after the first post-resume boundary replaces them with
  /// transport-owned views. Accrues st.step.restore_us.
  void restore(detail::WorkerState& st, std::uint64_t step);

  /// Copies the `index`-th registered region snapshot of rank `pid` at
  /// `step` into `base`. Called at re-registration time during a resumed
  /// prologue; throws std::logic_error when the program registers regions
  /// in a different order or size than the checkpointed run.
  void restore_region(int pid, std::uint64_t step, std::size_t index,
                      std::byte* base, std::size_t bytes) const;

  /// The save callback's bytes for rank `pid` at `step` (empty when the
  /// program registered no save callback).
  [[nodiscard]] const std::vector<std::byte>& user_state(
      int pid, std::uint64_t step) const;

 private:
  /// One per-rank checkpoint. The inbox arena is pool-backed so rotation
  /// recycles slabs instead of reallocating.
  struct Slot {
    bool valid = false;
    std::uint64_t superstep = 0;
    std::vector<std::uint32_t> seq_to;
    WorkerStepRecord step;  // the open record, before this checkpoint's cost
    std::vector<WorkerStepRecord> trace;
    MessageArena inbox;
    std::size_t inbox_cursor = 0;
    std::vector<std::byte> user_state;
    std::vector<std::vector<std::byte>> regions;
  };

  [[nodiscard]] const Slot* find(int pid, std::uint64_t step) const;

  SlabPool* pool_;
  /// slots_[pid] = the rank's two rotating checkpoints; next_[pid] = which
  /// one the next checkpoint() overwrites.
  std::vector<std::vector<Slot>> slots_;
  std::vector<std::uint8_t> next_;
};

}  // namespace gbsp
