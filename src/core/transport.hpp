// The Transport seam: how BSP messages travel from sender to receiver.
//
// The paper's central claim is portability — one SPMD program runs unchanged
// over SGI shared buffers, Cenju MPI all-to-all, and a PC-LAN staged TCP
// exchange (Appendix B). This interface is that seam in code: the Runtime
// owns worker lifecycle, scheduling, and instrumentation, and dispatches all
// message movement through one Transport selected from Config::delivery:
//
//   * DeferredTransport (core/transport_deferred.hpp): lock-free whole-arena
//     swap at the boundary — the shared-memory realisation.
//   * EagerTransport (core/transport_eager.hpp): the paper's Appendix B.1
//     alternating input buffers with chunk-granularity locking.
//   * StagedTransport (core/transport_staged.hpp): the paper's Appendix B.3
//     rigid (p-1)-stage total exchange over a Mesh — in-process loopback
//     socketpairs (socket), or, one rank per OS process, TCP streams (tcp)
//     or shared-memory rings (shm).
//
// Arena ownership: transports own every message arena. WorkerState carries
// only the inbox *views*; the bytes behind them live in a transport-owned
// arena for the destination worker and stay valid until that worker's next
// sync(). Slabs recycle through the Runtime's SlabPool, which outlives the
// per-run transport state — that is what keeps the deferred/eager steady
// state allocation-free across supersteps and across run() calls.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/arena.hpp"
#include "core/config.hpp"
#include "core/fault.hpp"
#include "core/worker_state.hpp"

namespace gbsp {

/// A peer failed at the transport level (closed connection, stage timeout,
/// corrupt stream, injected fault). Like BspAborted it unwinds the worker,
/// but unlike BspAborted it carries a diagnosis and is reported as the run's
/// error rather than swallowed — and, when Config::max_run_retries is set,
/// it is the one error class Runtime::run() treats as recoverable.
///
/// Every throw site supplies uniform context so a failure deep inside a
/// staged exchange is diagnosable from the message alone: the observing
/// rank, the peer it was talking to (-1 when not peer-specific), the
/// superstep boundary being crossed, the exchange stage (-1 outside a staged
/// exchange), the observed errno (0 when the failure is not a syscall), and
/// how many bytes of the current transfer had already moved.
struct BspTransportError : std::runtime_error {
  int rank = -1;
  int peer = -1;
  std::int64_t superstep = -1;
  int stage = -1;
  int err = 0;
  std::uint64_t bytes_moved = 0;

  explicit BspTransportError(const std::string& what)
      : std::runtime_error("gbsp transport: " + what) {}

  /// Formats "gbsp transport: <what> [rank=R peer=P superstep=S stage=K
  /// errno=E (strerror) bytes_moved=B]".
  BspTransportError(const std::string& what, int rank, int peer,
                    std::int64_t superstep, int stage, int err,
                    std::uint64_t bytes_moved);
};

/// Message-movement strategy. One Transport instance serves one Runtime for
/// its whole lifetime; per-run state is rebuilt by reset_run().
///
/// Every superstep boundary — a rigid sync() or a split-phase
/// sync_begin()/sync_end() pair — runs the same sequence: begin_exchange(),
/// an overlap window (empty for sync()) with optional progress() calls, then
/// finish_exchange(). In Serialized mode flush() replaces begin_exchange()
/// and one exchange() call replaces every finish_exchange().
///
/// Concurrency contract (the seam's locking rules):
///  * stage_reserve(), flush(), begin_exchange() and progress() are called by
///    the owning worker's thread only, with `st` being that worker's own
///    state.
///  * finish_exchange() in Parallel mode is called concurrently, one call
///    per worker. For barrier transports (needs_boundary_barriers() == true)
///    the calls run strictly between the two boundary barriers, when no
///    worker is sending — implementations may therefore read *any* worker's
///    sender-side arenas without locks, but may mutate only state belonging
///    to `st`. For self-synchronising transports (the staged ones) there is
///    no global quiescent point: every boundary call may touch only st's own
///    state and st's endpoints, and must tolerate peers that are still
///    computing.
///  * exchange() is invoked by the SerialScheduler from whichever worker
///    thread completes the round, with the scheduler lock held — effectively
///    single-threaded, never concurrent with any other call.
class Transport {
 public:
  virtual ~Transport() = default;

  [[nodiscard]] virtual const char* name() const = 0;

  /// True when superstep boundaries must bracket delivery with two global
  /// barriers (delivery reads sender-side state that must be quiescent).
  /// Self-synchronising transports return false: their exchange blocks until
  /// every peer's data for this boundary has arrived, which is exactly the
  /// synchronisation a barrier would provide.
  [[nodiscard]] virtual bool needs_boundary_barriers() const = 0;

  /// True when steady-state supersteps are served entirely by slab recycling
  /// (SlabPool::fresh_allocations() freezes after warm-up). The conformance
  /// suite asserts this for transports that promise it.
  [[nodiscard]] virtual bool steady_state_zero_alloc() const = 0;

  /// Rebuilds per-run state. Called once per Runtime::run(), after the
  /// worker states are rebuilt and before any worker thread starts.
  /// Destroying the previous run's arenas here releases their slabs into
  /// the pool for the new run to reacquire.
  virtual void reset_run(
      const std::vector<std::unique_ptr<detail::WorkerState>>& states) = 0;

  /// Stages an `n`-byte message from `st` (the sending worker) to `dest`:
  /// appends a frame to the transport's staging arena, bumps
  /// st.seq_to[dest], and returns the writable payload slot — the caller
  /// copies or builds the message in place (Worker::send_bytes copies once;
  /// the collectives layer combines many logical payloads into one framed
  /// message without a staging copy). `MessageArena::append` slots are
  /// pointer-stable (slabs never move), so the returned pointer stays valid
  /// until the message is delivered after the receiver's next boundary. The
  /// slot is part of the current superstep's traffic whether or not the
  /// caller writes all of it.
  virtual std::byte* stage_reserve(detail::WorkerState& st, int dest,
                                   std::size_t n) = 0;

  /// Sender-side boundary hook: seals `st`'s sends (before the first
  /// barrier, for barrier transports). The whole of begin_exchange() for
  /// transports without incremental progress.
  virtual void flush(detail::WorkerState& st) = 0;

  /// Seals `st`'s sending side and starts its boundary exchange. After this
  /// call the worker must not send until the matching finish_exchange()
  /// (enforced by the runtime); its previous inbox views are invalidated.
  /// Transports with real overlap (the staged ones) start moving bytes here.
  virtual void begin_exchange(detail::WorkerState& st) { flush(st); }

  /// Opportunistic progress inside the overlap window: moves whatever bytes
  /// are ready without blocking. Returns true when the incoming exchange for
  /// `st` is fully drained (finish_exchange() will not block). The default
  /// (no incremental progress) returns false.
  virtual bool progress(detail::WorkerState& st) {
    (void)st;
    return false;
  }

  /// Completes `st`'s boundary exchange and delivers everything sent to it
  /// during the ended superstep: rebuilds st.inbox with views, valid until
  /// st's next boundary, and charges st.pending_recv_*
  /// (Config::collect_stats). For barrier transports the runtime brackets
  /// this with the two boundary barriers.
  virtual void finish_exchange(detail::WorkerState& st) = 0;

  /// Serialized-mode global exchange: delivers for every worker in one call
  /// (single-threaded; see the class comment). Finished workers still
  /// participate as empty senders where the wire protocol requires it.
  virtual void exchange(
      const std::vector<std::unique_ptr<detail::WorkerState>>& states) = 0;

  /// True when `st` holds staged-but-undeliverable messages — used by the
  /// runtime to diagnose sends after a worker's final sync().
  [[nodiscard]] virtual bool has_unflushed(
      const detail::WorkerState& st) const = 0;

  /// Installs (or clears, with nullptr) the fault-injection harness. The
  /// injector must outlive the transport's use of it; null means no faults
  /// (the production fast path: one pointer check per injection point).
  virtual void set_fault_injector(FaultInjector* injector) = 0;
};

/// Human-readable transport name for a strategy ("deferred", "eager",
/// "socket", "tcp", "shm").
[[nodiscard]] const char* to_string(DeliveryStrategy d);

/// Parses a --transport flag value; throws std::invalid_argument on unknown
/// names.
[[nodiscard]] DeliveryStrategy delivery_from_string(const std::string& s);

/// Applies the bsp_launch rank environment to `cfg`: GBSP_RANK + GBSP_NPROCS
/// select process mode and set Config::rank; GBSP_TRANSPORT (tcp when
/// absent) picks the cross-process transport; GBSP_HOST / GBSP_PORT /
/// GBSP_SHM_NAME / GBSP_CONNECT_TIMEOUT_MS fill the transport's knobs.
/// Returns false — leaving cfg untouched — when GBSP_RANK is absent (not
/// launched by bsp_launch); throws std::invalid_argument on a malformed
/// environment.
bool configure_proc_from_env(Config& cfg);

/// Builds the Transport for cfg.delivery (for the staged ones, over the
/// mesh the strategy names). `pool` must outlive the transport
/// (it backs every arena); `abort_flag` is the runtime's shared abort flag,
/// polled by blocking transports so peer failure unwinds instead of hanging.
std::unique_ptr<Transport> make_transport(const Config& cfg, SlabPool& pool,
                                          const std::atomic<bool>* abort_flag);

namespace detail {

/// Shared plumbing for the concrete transports: config/pool/abort handles
/// and the inbox-view publication helpers every strategy ends with.
class TransportBase : public Transport {
 public:
  TransportBase(const Config& cfg, SlabPool& pool,
                const std::atomic<bool>* abort_flag)
      : cfg_(cfg), pool_(&pool), abort_(abort_flag) {}

  /// Default Serialized-mode exchange: finish each unfinished worker's
  /// boundary in pid order. Transports whose wire protocol involves finished
  /// workers (the staged ones) override this.
  void exchange(
      const std::vector<std::unique_ptr<WorkerState>>& states) override {
    for (const auto& st : states) {
      if (st->finished) continue;
      finish_exchange(*st);
    }
  }

  void set_fault_injector(FaultInjector* injector) override {
    fault_ = injector;
  }

 protected:
  /// Consults the injector at a boundary hook (Deliver/Flush) on behalf of
  /// `st` and acts out the decision: DelayUs sleeps, Abort/PeerHangup throw
  /// BspTransportError (in-memory transports have no endpoint to shut down,
  /// so both model sudden peer death). Syscall-only kinds are ignored here.
  void inject_boundary_fault(FaultSite site, WorkerState& st) const;
  /// Appends one view per frame of `arena` onto dst.inbox, accumulating the
  /// h-relation packet count into `recv_packets` when stats are collected.
  void append_views(WorkerState& dst, const MessageArena& arena,
                    std::uint64_t& recv_packets) const;

  /// Final delivery accounting: sorts dst.inbox by (source, seq) when
  /// `sort_deterministic` (Config::deterministic_delivery) and charges the
  /// received packets/messages to the superstep that will read them.
  void finish_delivery(WorkerState& dst, std::uint64_t recv_packets,
                       bool sort_deterministic) const;

  const Config cfg_;
  SlabPool* const pool_;
  const std::atomic<bool>* const abort_;
  FaultInjector* fault_ = nullptr;
};

}  // namespace detail
}  // namespace gbsp
