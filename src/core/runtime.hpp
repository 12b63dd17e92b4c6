// The Green BSP runtime: SPMD execution over P virtual processors with
// superstep-structured message passing.
//
// Usage:
//   gbsp::Config cfg;
//   cfg.nprocs = 8;
//   gbsp::Runtime rt(cfg);
//   gbsp::RunStats stats = rt.run([](gbsp::Worker& w) {
//     w.send((w.pid() + 1) % w.nprocs(), some_pod_value);
//     w.sync();
//     while (const gbsp::Message* m = w.get_message()) { /* consume */ }
//   });
//
// Semantics (paper Appendix A):
//  * A message sent in superstep i is available to the receiver at the start
//    of superstep i+1, i.e. after the receiver's next sync().
//  * Message arrival order within a superstep is unspecified unless
//    Config::deterministic_delivery is set.
//  * All workers must call sync() the same number of times; messages sent
//    after the final sync() are an error, diagnosed at worker exit. A
//    sync_begin()/sync_end() pair is one boundary — it counts as one sync().
//
// Layering: the Runtime owns worker lifecycle, scheduling, barriers, and
// instrumentation. All message movement — staging, flushing, boundary
// exchange — goes through the Transport selected by Config::delivery
// (core/transport.hpp), which owns every message arena.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <type_traits>
#include <vector>

#include "core/arena.hpp"
#include "core/barrier.hpp"
#include "core/config.hpp"
#include "core/fault.hpp"
#include "core/message.hpp"
#include "core/recovery.hpp"
#include "core/scheduler.hpp"
#include "core/stats.hpp"
#include "core/worker_state.hpp"

namespace gbsp {

class Runtime;
class Worker;
class Transport;

/// How an application drives its superstep boundaries: the rigid sync() of
/// the paper's core library, or the split-phase sync_begin()/sync_end() pair
/// (the paper's bspSynchBegin/bspSynchEnd) with local compute in the window.
/// Apps expose both so the two can be compared bit-for-bit.
enum class SyncMode { Rigid, SplitPhase };

namespace detail {

/// Thread-local handle to the Worker executing on this thread (null outside
/// a BSP run). Backs the C-compatible API in green_bsp.h.
Worker*& current_worker_slot();

}  // namespace detail

/// Handle through which SPMD program code interacts with the runtime.
class Worker {
 public:
  [[nodiscard]] int pid() const { return state_->pid; }
  [[nodiscard]] int nprocs() const;
  [[nodiscard]] std::uint64_t superstep() const { return state_->superstep; }
  [[nodiscard]] const Config& config() const;

  /// Sends `n` raw bytes to processor `dest` (self-sends allowed); delivered
  /// after the next sync().
  void send_bytes(int dest, const void* data, std::size_t n);

  /// Stages an `n`-byte message to `dest` and returns its writable payload
  /// slot, so the caller can build the message in place instead of copying
  /// from a staging buffer. The slot is pointer-stable until delivery; the
  /// caller must fill it before its next sync()/sync_begin(). Accounting
  /// (packets, bytes, comm matrix) is identical to send_bytes(). This is the
  /// combining primitive the collectives layer packs per-destination traffic
  /// with (core/collectives.hpp).
  std::byte* send_reserve(int dest, std::size_t n);

  /// Sends one trivially copyable value.
  template <typename T>
  void send(int dest, const T& value) {
    static_assert(std::is_trivially_copyable_v<T>,
                  "send() requires a trivially copyable payload");
    send_bytes(dest, &value, sizeof(T));
  }

  /// Sends a contiguous array of trivially copyable values as one message.
  template <typename T>
  void send_array(int dest, const T* data, std::size_t count) {
    static_assert(std::is_trivially_copyable_v<T>);
    send_bytes(dest, data, count * sizeof(T));
  }
  template <typename T>
  void send_array(int dest, const std::vector<T>& v) {
    send_array(dest, v.data(), v.size());
  }

  /// Superstep boundary: global synchronization; afterwards the messages
  /// sent to this processor during the ended superstep are available.
  void sync();

  // --- Split-phase boundary (the paper's bspSynchBegin/bspSynchEnd).
  // sync_begin() seals this worker's sending side and starts the boundary
  // exchange; the caller then keeps computing on local data while the
  // transport moves bytes; sync_end() completes delivery and reconciles the
  // superstep at the barrier. sync_begin()..sync_end() together are exactly
  // one sync() — same boundary count, same message semantics — so rigid and
  // split workers can meet at the same boundary.
  //
  // Inside the window the worker owns only its local data: send*() and
  // every inbox accessor (get_message/pending/inbox) throw std::logic_error
  // until sync_end() returns, as do a second sync_begin(), a plain sync(),
  // or returning from the SPMD function mid-window. A transport fault inside
  // the window classifies and retries exactly like one during sync().

  /// Opens the split-phase window: ends this superstep's sending side and
  /// starts the exchange. Must be paired with sync_end().
  void sync_begin();

  /// Optional, inside the window: lets the transport move whatever bytes are
  /// ready without blocking. Returns true once this worker's incoming
  /// exchange is fully drained (sync_end() will not block on the wire);
  /// transports without incremental progress always return false, and the
  /// call is then a no-op. Calling it outside a window returns false.
  bool sync_progress();

  /// Closes the window: completes delivery, crosses the barrier, and makes
  /// the messages sent to this processor during the ended superstep
  /// available.
  void sync_end();

  /// Next undelivered message, or nullptr when drained (paper: bspGetPkt).
  const Message* get_message();

  /// Messages not yet returned by get_message() (paper: bspNumPkts).
  [[nodiscard]] std::size_t pending() const {
    require_outside_window("pending()");
    return state_->inbox.size() - state_->inbox_cursor;
  }

  /// Whole-inbox view for bulk consumption (valid until the next sync()).
  [[nodiscard]] const std::vector<Message>& inbox() const {
    require_outside_window("inbox()");
    return state_->inbox;
  }

  // --- Recovery API (core/recovery.hpp). Programs that enable
  // Config::checkpoint_every are resume-aware: after a recoverable failure
  // the runtime re-invokes the SPMD function with resumed() true, and the
  // function must re-run its prologue (re-register regions and state
  // callbacks, which restores their contents from the checkpoint) and then
  // fast-forward its superstep loop to resume_superstep().

  /// True when this invocation is a resume from a checkpoint rather than a
  /// fresh start.
  [[nodiscard]] bool resumed() const;

  /// The superstep to fast-forward to: the checkpointed superstep on a
  /// resume, 0 on a fresh start (so loops can unconditionally start here).
  [[nodiscard]] std::uint64_t resume_superstep() const;

  /// Registers `bytes` bytes at `base` (e.g. a DRMA region or a result
  /// buffer) for checkpointing. Checkpoints snapshot regions in registration
  /// order; on a resume, registration immediately restores the region's
  /// checkpointed contents — the program must register the same regions, in
  /// the same order and sizes, on every invocation. The memory must stay
  /// valid for the rest of the run.
  void register_checkpoint_region(void* base, std::size_t bytes);

  /// Registers callbacks for state that is not a fixed memory region: `save`
  /// appends the worker's private state to a byte vector at each checkpoint;
  /// `restore` rebuilds it from the checkpointed bytes. On a resume, setting
  /// a non-null `restore` invokes it immediately.
  void set_checkpoint_state(
      std::function<void(std::vector<std::byte>&)> save,
      std::function<void(const std::byte*, std::size_t)> restore);

 private:
  friend class Runtime;
  Worker(Runtime* rt, detail::WorkerState* state) : rt_(rt), state_(state) {}

  /// The one send path: stages an n-byte message to `dest` through the
  /// transport and charges it to this superstep; `what` names the caller in
  /// diagnostics.
  std::byte* stage(int dest, std::size_t n, const char* what);

  /// Throws std::logic_error when called inside a split-phase window: the
  /// inbox views may already have been invalidated by begin_exchange(), so
  /// uniform refusal is what keeps the semantics transport-portable.
  void require_outside_window(const char* what) const;

  Runtime* rt_;
  detail::WorkerState* state_;
};

/// Executes SPMD functions under a fixed Config. Reusable: each run() is an
/// independent BSP computation.
class Runtime {
 public:
  /// Validates cfg (validate_config) and builds the Transport for
  /// cfg.delivery; throws std::invalid_argument on bad parameters.
  explicit Runtime(Config cfg);
  ~Runtime();

  Runtime(const Runtime&) = delete;
  Runtime& operator=(const Runtime&) = delete;

  /// Runs `fn` on nprocs workers; returns the per-superstep statistics.
  ///
  /// Error policy: if any worker throws, the computation aborts. Program
  /// (user) errors outrank transport errors — a functor throw is never
  /// masked by the secondary BspTransportErrors it causes in peers — and
  /// within a class the lowest pid wins. Transport errors are recoverable:
  /// with Config::max_run_retries > 0 the runtime retries the run (from the
  /// latest complete checkpoint when Config::checkpoint_every is enabled,
  /// from superstep 0 otherwise) with exponential backoff, and only rethrows
  /// once the retry budget is exhausted. Everything else rethrows
  /// immediately.
  RunStats run(const std::function<void(Worker&)>& fn);

  /// Installs a deterministic fault plan (core/fault.hpp) on the transport.
  /// The injector persists across run() calls until cleared or replaced;
  /// its per-rule counters carry across the retry attempts *within* one
  /// run() — that is what makes nth-occurrence lethal faults transient —
  /// but are re-armed at the start of each independent run().
  void set_fault_plan(const FaultPlan& plan);
  void clear_fault_plan();
  [[nodiscard]] FaultInjector* fault_injector() { return fault_.get(); }

  [[nodiscard]] const Config& config() const { return cfg_; }

  /// The slab free-list backing every message arena of this runtime.
  /// Exposed for observability: steady-state supersteps must not grow
  /// fresh_allocations().
  [[nodiscard]] const SlabPool& slab_pool() const { return pool_; }

  /// The message-movement strategy serving this runtime. Exposed for
  /// observability and fault-injection tests.
  [[nodiscard]] Transport& transport() { return *transport_; }

 private:
  friend class Worker;

  void worker_main(int local, const std::function<void(Worker&)>& fn);
  /// True when this process hosts exactly ONE rank of a multi-process run
  /// (the tcp and shm transports): run_attempt builds a single WorkerState
  /// carrying the global rank (Config::rank), boundary barriers have size 1,
  /// and cross-rank synchronisation is the transport's staged exchange
  /// itself. RunStats then holds this rank's trace only, and checkpoint
  /// resume degrades to whole-run replay (RecoveryManager::latest_complete
  /// spans all nprocs ranks, of which only the local one ever checkpoints
  /// here).
  [[nodiscard]] bool process_mode() const {
    return cfg_.delivery == DeliveryStrategy::Tcp ||
           cfg_.delivery == DeliveryStrategy::Shm;
  }
  void do_sync(detail::WorkerState& st);
  void do_sync_begin(detail::WorkerState& st);
  bool do_sync_progress(detail::WorkerState& st);
  void do_sync_end(detail::WorkerState& st);
  /// The two halves every boundary shares — rigid sync() and the split
  /// pair alike: begin_boundary seals the sends and starts the exchange;
  /// end_boundary completes delivery (under the barriers or the scheduler,
  /// as the mode requires), bumps the superstep and progress counters,
  /// checkpoints, and opens the next work slice.
  void begin_boundary(detail::WorkerState& st);
  void end_boundary(detail::WorkerState& st);
  void record_step(detail::WorkerState& st);
  void begin_work_slice(detail::WorkerState& st);
  void finalize_worker(detail::WorkerState& st);
  void report_error(std::exception_ptr e, int pid);
  /// One execution of `fn` on all workers (one retry attempt). Returns true
  /// on success; on failure the winning error is left in first_error_.
  bool run_attempt(const std::function<void(Worker&)>& fn);
  /// Watchdog body (only started when Config::superstep_deadline_ms > 0):
  /// reports a wedged run as a transport error when no worker completes a
  /// superstep boundary within the deadline.
  void watchdog_main();

  Config cfg_;
  // Declared before transport_, recovery_ and states_ so arenas (which
  // release their slabs into the pool on destruction) die first. The pool
  // persists across run() calls: that is what recycles buffers from one BSP
  // computation to the next.
  SlabPool pool_;
  std::unique_ptr<Transport> transport_;
  std::vector<std::unique_ptr<detail::WorkerState>> states_;
  std::unique_ptr<Barrier> barrier_a_;
  std::unique_ptr<Barrier> barrier_b_;
  std::unique_ptr<SerialScheduler> scheduler_;
  std::atomic<bool> abort_{false};
  std::mutex error_mutex_;
  std::exception_ptr first_error_;
  int first_error_pid_ = -1;
  // Error class of first_error_: user errors (0) outrank transport errors
  // (1); 2 = no error yet. Lower wins; ties broken by lowest pid.
  int first_error_class_ = 2;

  // --- Fault injection + recovery.
  std::unique_ptr<FaultInjector> fault_;
  RecoveryManager recovery_{&pool_};
  // Superstep the current attempt resumes from; -1 = fresh start (replay
  // from superstep 0 on retry without checkpoints).
  std::int64_t resume_step_ = -1;
  std::uint64_t recoveries_ = 0;
  // Bumped by every worker at every completed superstep boundary (and once
  // at attempt start); the watchdog declares a wedge when it stops moving.
  std::atomic<std::uint64_t> progress_{0};
  std::atomic<bool> watchdog_stop_{false};
};

/// Convenience: one-shot run with a default-parallel config.
RunStats run_bsp(int nprocs, const std::function<void(Worker&)>& fn);

}  // namespace gbsp
