// Staged-exchange engine: the transport-agnostic half of the socket-family
// transports, pumping the paper's Appendix B.3 rigid (p-1)-stage total
// exchange over whatever endpoints a Mesh (core/mesh.hpp) provides.
//
// One engine serves one local rank. It owns that rank's staging state (the
// per-destination outbox arenas, the self and inbox arenas the receiver's
// views live in, and reusable per-stage scratch) and the whole wire protocol;
// the mesh owns fds and buffer sizing; the transport that composes the two
// (StagedTransport, core/transport_staged.hpp) owns publication (inbox
// views), dirty-wire marking, and the Transport seam.
//
// Wire format v2 — sectioned stages. A stage is three contiguous sections:
//
//   stage    := preamble header_block payload_block
//   preamble := count:u64 header_bytes:u64 payload_bytes:u64      (24 B)
//   header_block  := WireFrameHeader{seq:u32 pad:u32 len:u64} * count
//   payload_block := payload[0] .. payload[count-1]   (no padding)
//
// with the invariants header_bytes == count*16 and payload_bytes ==
// sum(len). Sectioning is what makes both ends cheap. The sender writes the
// header block in place into a reusable buffer and walks the payload
// section as spans (MessageArena::for_each_payload_span): each inline
// payload (<= MessageArena::kInlineCapacity bytes) is copied into a reusable
// pack buffer, so a run of small messages leaves as one iovec entry, while
// out-of-line payloads leave zero-copy from the staging arena, adjacent ones
// merged; one sendmsg moves ~IOV_MAX spans. The receiver does three bulk
// reads: the preamble, the whole header block into a reusable buffer, then
// readv of the payload block — one entry per run of inline-sized frames
// into a reusable pack buffer, sized from the validated header block, and
// one straight into its inbox-arena slot per out-of-line frame. Once the
// payload block is in, each packed payload is copied into its frame's inline
// slot. Inbox views keep the same lifetime contract as the in-memory
// transports: valid until the receiving worker's next sync(), when the inbox
// arena is cleared in place and the self-delivered arena swaps back to the
// sender side, so a steady state of equal supersteps allocates no slab.
//
// There are no boundary barriers. The exchange is the synchronisation — a
// worker finishes its last stage only after every peer has reached the
// matching send, exactly as on the paper's PC-LAN, where the staged schedule
// itself kept the machines in step. Stream framing keeps consecutive
// supersteps unambiguous even when one worker runs ahead.
//
// One loop pumps every boundary, in both scheduling modes: pump_window
// advances the worker's open window through the schedule without blocking,
// and finish_window runs it to the end, taking one Waiter step (below,
// which holds the whole waiting policy) whenever a pump moves nothing.
//
// Links: attach() picks each pair's data path once. When the mesh exposes a
// shared-memory pair view (Mesh::shm_pair, non-null for ShmMesh) the pair is
// a ring link, and both pumps swap their syscalls for SPSC ring operations
// (core/shm_ring.hpp) on the same iovec cursors — the one sectioned state
// machine, validation, fault clamps, and split-phase windows run unchanged
// over either medium, a full ring is the EAGAIN analogue, and nothing on
// the steady-state data path enters the kernel (wire_syscalls reads 0; a
// parked Waiter polls the mesh's control streams, on which a peer that moves
// a ring's cursor rings a doorbell). Payloads >= kShmInlineThreshold
// (core/config.hpp) additionally go zero-copy: reserve() hands the sender a
// slot inside the pair's shared slab, a 16-byte ShmZcDesc travels the ring
// in the payload's place (wire header pad == 1), and apply_zc_views()
// re-points the receiver's inbox views at the mapping itself. Slab halves
// recycle on alternating boundary epochs, fenced by the consumer-published
// boundaries_opened counter.
//
// Robustness: both directions of a stage are pumped through non-blocking
// partial read/write loops (EINTR retried), so a full-duplex stage never
// deadlocks on kernel buffer limits. A stage that makes no progress for
// Config::socket_stage_timeout_ms, or that observes a closed peer, throws
// BspTransportError; incoming frame headers are validated (pad must be 0, len
// capped by kMaxFrameBytes, sections must agree) so a corrupt stream is
// diagnosed instead of sizing an arena append from garbage. Every idle wait
// checks the runtime's abort flag, and an abort wakes every parked wait, so a
// failure elsewhere unwinds the survivors at once. Every syscall consults the
// fault injector (when installed) first — the deterministic fault matrix
// drives this engine identically over either mesh.
#pragma once

#include <poll.h>     // pollfd
#include <sys/uio.h>  // iovec

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "core/arena.hpp"
#include "core/barrier.hpp"
#include "core/config.hpp"
#include "core/fault.hpp"
#include "core/mesh.hpp"
#include "core/worker_state.hpp"

namespace gbsp {
namespace detail {

/// On-wire frame header (everything little-endian host order: both ends of a
/// mesh link are same-architecture — the TCP mesh's RankHello magic doubles
/// as the byte-order tripwire). pad is transmitted as zero and validated on
/// receipt — a nonzero pad is the cheapest tripwire for a desynchronised or
/// corrupt stream — with ONE carve-out: on a shm mesh, pad == 1 with
/// len == 16 flags a zero-copy descriptor frame (the payload is a ShmZcDesc
/// pointing into the pair's shared slab); everything else stays corruption.
struct WireFrameHeader {
  std::uint32_t seq;
  std::uint32_t pad;
  std::uint64_t len;
};
static_assert(sizeof(WireFrameHeader) == 16, "wire header layout drifted");

/// Largest payload one frame may carry (WireFrameHeader::len). A send above
/// it is rejected at the send call; a received header claiming more is
/// diagnosed as stream corruption instead of sizing an inbox arena append.
/// The receiver sums up to 2^26 claimed lens before checking them against
/// the preamble, and 2^26 * 2^30 is far from wrapping a u64.
inline constexpr std::size_t kMaxFrameBytes = std::size_t{1} << 30;  // 1 GiB

/// Stage preamble: one per stage, ahead of the header block. The redundancy
/// (header_bytes is derivable from count) is deliberate — the receiver
/// cross-checks the sections against each other before trusting any length.
struct StagePreamble {
  std::uint64_t count;
  std::uint64_t header_bytes;   // must equal count * sizeof(WireFrameHeader)
  std::uint64_t payload_bytes;  // must equal the sum of frame lens
};
static_assert(sizeof(StagePreamble) == 24, "wire preamble layout drifted");

class ExchangeEngine;

/// The one idle-wait step of the staged exchange. finish_window pumps the
/// open window, calls progressed() when a pump moved bytes and step() when
/// one moved none. The waiting policy, all of it:
///
///  * Abort. Every step checks the runtime's abort flag and unwinds with
///    BspAborted.
///  * Spin. A wait runs the Barrier's spin schedule (SpinSchedule,
///    core/barrier.hpp) from the last progress, counting Config::nprocs
///    participants, since the ranks share this host's CPUs: each step
///    pauses or yields once, and the window is re-pumped at once.
///  * Timeout. Past the spin, a step idle for Config::socket_stage_timeout_ms
///    since the last progress throws BspTransportError ("stage made no
///    progress"), naming the stage's receive peer.
///  * Fault site. The window then consults the PollCall site: an injected
///    EINTR/EAGAIN skips this park, a delay stalls it, an abort throws.
///  * Park. One poll() that only an event ends, for at most the time left
///    before the timeout. It holds the transport's abort eventfd, which the
///    runtime signals on every abort, and the in-flight stage's: on fd links
///    the stage fds (POLLOUT toward an unfinished send, POLLIN from an
///    unfinished receive); on ring links the control streams of the stage's
///    peers. Before it polls on a ring link the waiter raises this rank's
///    parked flags (reader_parked on the ring it reads, writer_parked on the
///    ring it writes) and re-checks the rings' cursors directly, not through
///    a pump the fault injector could stall; a moved cursor skips the poll.
///    A peer that moves a cursor under a raised flag clears it and rings a
///    one-byte doorbell on the control stream (core/shm_ring.hpp).
///  * Wake (ring links). After the poll the flags are lowered and the
///    doorbell bytes drained. EOF there alone is not a death: a peer that
///    wrote its whole last stage may finish and tear down before this rank
///    drained the ring, so the window is pumped once more, and the death is
///    reported only if that pump moved nothing.
///
/// Progress restarts the idle clock and the spin. Only a park enters the
/// kernel, so a busy exchange makes no calls beyond its data path, and none
/// at all on rings.
class Waiter {
 public:
  /// `abort_fd` is the eventfd the transport signals on abort. The poll set
  /// has room for it and the stage's two fds, so no wait allocates.
  Waiter(const Config& cfg, const std::atomic<bool>* abort_flag, int abort_fd)
      : cfg_(&cfg), abort_(abort_flag), abort_fd_(abort_fd), spin_(cfg.nprocs) {
    fds_.reserve(3);
  }

  /// A pump moved bytes: restarts the idle clock and the spin.
  void progressed() { wait_ = {}; }
  /// One idle wait on `e`'s window, which is still in flight.
  void step(ExchangeEngine& e, WorkerState& st);

 private:
  const Config* cfg_;
  const std::atomic<bool>* abort_;
  int abort_fd_;
  SpinSchedule spin_;
  SpinSchedule::Wait wait_;
  std::vector<pollfd> fds_;
};

/// The staged-exchange protocol driver for ONE rank of the mesh.
class ExchangeEngine {
 public:
  /// `fault` is a handle to the owning transport's injector pointer (the
  /// injector can be swapped between runs without re-plumbing the engine);
  /// `abort_flag` is the runtime's shared abort flag, checked on idle waits,
  /// and `abort_fd` the eventfd that wakes a parked wait on abort.
  ExchangeEngine(const Config& cfg, SlabPool& pool, Mesh& mesh,
                 const std::atomic<bool>* abort_flag, int abort_fd,
                 FaultInjector* const* fault)
      : cfg_(&cfg),
        mesh_(&mesh),
        fault_(fault),
        waiter_(cfg, abort_flag, abort_fd) {
    pool_ = &pool;
    self_arena_.bind(pool_);
    inbox_arena_.bind(pool_);
  }

  /// Binds the engine to its rank and (re)sizes per-destination staging for
  /// a p-rank run. Called after every mesh build.
  void attach(int pid, int nprocs);

  /// Clean-run reuse: releases every arena's slabs back to the pool (a
  /// drained stream has nothing to leak).
  void reset_for_reuse();

  /// The boundary's delivered frames: the worker's messages to itself,
  /// then every received stage in schedule order.
  [[nodiscard]] const MessageArena& self_arena() const { return self_arena_; }
  [[nodiscard]] const MessageArena& inbox_arena() const { return inbox_arena_; }

  /// Stages an n-byte frame for `dest` and returns its writable payload
  /// slot. Rejects frames above kMaxFrameBytes at the send call, where the
  /// application can see a clean error.
  std::byte* reserve(WorkerState& st, int dest, std::size_t n);

  /// Shm only: re-points every zero-copy inbox view of the boundary just
  /// exchanged from its 16-byte on-ring descriptor to the payload's bytes in
  /// the pair's shared slab, validating the descriptor's bounds, and adjusts
  /// `recv_packets` from descriptor size to true payload size. The transport
  /// calls this between append_views and finish_delivery; a no-op when the
  /// boundary carried no zero-copy frames.
  void apply_zc_views(WorkerState& dst, std::uint64_t& recv_packets);

  // --- The boundary window (every boundary; a rigid sync() is a window
  // with no compute in it). The in-flight StageState lives inside the
  // engine (not on the caller's stack) because send_iov_ points at
  // split_ss_.send_pre, which must stay at a stable address across
  // pump_window calls.

  /// Opens the boundary and starts streaming stage 1, with one
  /// opportunistic non-blocking pass (a stage that fits the kernel buffers
  /// is often fully on the wire before the caller's overlapped compute even
  /// starts).
  void begin_window(WorkerState& st);

  /// Non-blocking pass over the window's schedule: pumps the in-flight
  /// stage both ways and advances to the next stage whenever one drains,
  /// until nothing moves or the schedule is done. Returns the bytes moved.
  std::size_t pump_window(WorkerState& st);

  [[nodiscard]] bool window_done() const { return split_done_; }

  /// Blocking end of the open window: pumps it and takes one Waiter step
  /// whenever a pump moves nothing, until it is done. The in-flight stage
  /// picks up exactly where its last pump left it; the caller publishes
  /// afterwards.
  void finish_window(WorkerState& st);

 private:
  friend class Waiter;

  /// Progress state of one stage of the schedule: an iovec cursor over the
  /// outgoing sections and a sectioned parse of the incoming stage (preamble
  /// -> header block -> payloads into pack_in_ and the inbox arena).
  struct StageState {
    int k = 0;  // schedule stage, 1 .. p-1
    // Send side. send_pre lives here so its iovec entry stays valid for the
    // stage's lifetime; send_idx indexes the engine's send_iov_, whose
    // entries are consumed (and partially advanced) in place.
    StagePreamble send_pre{};
    std::size_t send_idx = 0;
    MessageArena* send_arena = nullptr;  // cleared once fully on the wire
    bool send_done = false;
    // Receive side.
    enum class Phase { Preamble, Headers, Payload, Done };
    Phase phase = Phase::Preamble;
    std::byte scratch[sizeof(StagePreamble)];
    std::size_t scratch_off = 0;
    StagePreamble recv_pre{};
    std::size_t hdr_off = 0;   // bytes of the header block received so far
    std::size_t recv_idx = 0;  // cursor into the engine's recv_iov_
    bool recv_done = false;
    // Bytes moved so far in each direction of this stage — the transfer
    // progress a BspTransportError reports so a failure mid-stage is
    // diagnosable ("died 8 MB into a 64 MB stage" vs "died instantly").
    std::uint64_t send_moved = 0;
    std::uint64_t recv_moved = 0;
  };

  /// Self-delivery + inbox reset at the top of a boundary (stage 0 of the
  /// schedule: the self-addressed outbox swaps with the drained self arena,
  /// no wire). On a shm mesh this also advances the zero-copy epoch and
  /// publishes it to every peer.
  void open_boundary(WorkerState& dst);

  /// Builds the v2 stage sections for outbox[(pid + k) % p]: writes the
  /// header block, points send_iov_ at preamble/headers/payload spans (packed
  /// inline runs, zero-copy out-of-line runs), resets `ss` for stage k. The
  /// staging arena stays live until the last byte is written (pump_send
  /// clears it).
  void begin_stage(StageState& ss, int k);

  /// Pumps one direction; returns bytes moved (0 on EAGAIN or a full/empty
  /// ring). Throws BspTransportError on EOF, socket error, or a corrupt
  /// incoming stage.
  /// Both pumps consult the fault injector (when installed) before every
  /// syscall and act out its decision: simulated EINTR/EAGAIN, truncated
  /// transfers, endpoint shutdown, delays, and aborts.
  std::size_t pump_send(WorkerState& st, StageState& ss);
  std::size_t pump_recv(WorkerState& st, StageState& ss);

  /// Stage-k peers of this rank (the rigid schedule: send to (pid+k) mod p,
  /// receive from (pid-k) mod p).
  [[nodiscard]] int send_peer(const StageState& ss) const {
    return (pid_ + ss.k) % nprocs_;
  }
  [[nodiscard]] int recv_peer(const StageState& ss) const {
    return (pid_ + nprocs_ - ss.k) % nprocs_;
  }

  /// One pair's data path, chosen at attach(): the mesh's shared-memory
  /// rings when it has them, else the stream fd. On a ring link `fd` is the
  /// bootstrap control stream, whose only post-bootstrap traffic is
  /// doorbells and EOF.
  struct Link {
    int fd = -1;
    ShmPairView* ring = nullptr;
  };

  /// One transfer attempt on the link with `peer`/`src`: bytes moved, 0
  /// when it would block (EAGAIN, or a full/empty ring), -1 on EINTR.
  /// Throws the peer-death/socket-error BspTransportError otherwise.
  ssize_t link_write(WorkerState& st, const StageState& ss, int peer,
                     const iovec* iov, std::size_t cnt);
  ssize_t link_read(WorkerState& st, const StageState& ss, int src,
                    const iovec* iov, std::size_t cnt);
  /// Validates the fully received header block, appends its frames to the
  /// inbox arena and builds recv_iov_ (inline-sized runs into pack_in_,
  /// larger payloads into their slots); advances ss to Payload (or Done).
  void parse_header_block(WorkerState& st, StageState& ss, int src);
  /// Consults the injector before a syscall at `site`. Returns the decision
  /// the pump loop must act on (nullopt = proceed normally); applies
  /// DelayUs/PeerHangup side effects itself and throws on Abort.
  std::optional<FaultInjector::Decision> syscall_fault(WorkerState& st,
                                                       const StageState& ss,
                                                       FaultSite site,
                                                       int peer,
                                                       std::uint64_t moved);
  /// Applies a pending CorruptByte decision to `n` freshly received control
  /// bytes at `buf` (XOR 0xA5 at the rule's offset mod n), before the
  /// validation path reads them.
  void maybe_corrupt(WorkerState& st, const StageState& ss, int src,
                     std::byte* buf, std::size_t n);

  // --- The window in flight, as the Waiter's park sees it.
  /// Appends the in-flight stage's fds to `fds`: on fd links POLLOUT toward
  /// an unfinished send and POLLIN from an unfinished receive; on ring links
  /// POLLIN on both peers' control streams, after raising this rank's
  /// parked flags on the rings. Returns true when a ring's cursor moved
  /// before the flags went up, so the park must not sleep.
  bool add_park_fds(std::vector<pollfd>& fds);
  /// Ring links only: lowers the parked flags and drains the doorbell bytes
  /// of the in-flight stage's control streams. When a stream is closed (the
  /// peer exited, or was kill_endpoints'd) pumps the window once more and
  /// throws the peer's death if that pump moved nothing; returns true when
  /// it moved. Throws on a failed read.
  bool end_park(WorkerState& st);
  /// Throws the BspTransportError of a failed idle wait on the in-flight
  /// stage.
  [[noreturn]] void idle_failure(const WorkerState& st,
                                 const std::string& what, int peer,
                                 int err) const;

  /// Attempts a zero-copy slab reservation of `n` bytes toward `dest`, a
  /// ring link; returns nullptr (inline fallback) when the epoch half is not
  /// yet recycled or is full, or `n` exceeds half the slab.
  std::byte* try_reserve_zc(WorkerState& st, int dest, std::size_t n);
  [[nodiscard]] FaultInjector* injector() const {
    return fault_ != nullptr ? *fault_ : nullptr;
  }

  const Config* cfg_;
  Mesh* mesh_;
  FaultInjector* const* fault_;
  SlabPool* pool_ = nullptr;
  // Idle clock and poll set of finish_window.
  Waiter waiter_;

  int pid_ = 0;
  int nprocs_ = 0;
  std::vector<MessageArena> outbox_;  // per-destination staging
  // Delivered frames; views live here until the next open_boundary. The
  // self arena swaps with outbox_[pid_] there, the inbox arena is cleared.
  MessageArena self_arena_;
  MessageArena inbox_arena_;
  // Reusable per-stage scratch (capacity persists across stages and runs).
  std::vector<WireFrameHeader> hdr_out_;  // outgoing header block
  std::vector<std::byte> pack_out_;       // outgoing inline payloads, packed
  std::vector<std::byte> hdr_in_;         // incoming header block, bulk-read
  std::vector<std::byte> pack_in_;        // incoming inline payloads, packed
  std::vector<iovec> send_iov_;  // preamble + hdr_out + payload spans
  std::vector<iovec> recv_iov_;  // pack_in_ runs and out-of-line slots
  std::vector<iovec> unpack_;    // inline slots of pack_in_'s payloads
  // Boundary window state (see begin_window).
  StageState split_ss_;
  bool split_done_ = false;

  std::vector<Link> links_;  // per peer; {-1, nullptr} on the diagonal

  // --- Zero-copy slab state (used only toward ring links).
  // Boundaries opened since attach — the zero-copy epoch. MONOTONIC across
  // clean-run reuse (reset only at attach, which follows a fresh mesh build
  // with freshly zeroed segment counters): run N+1's first epoch must not
  // alias the slab half behind run N's final, still-live inbox views.
  std::uint64_t boundary_count_ = 0;
  // Per-destination bump allocator over the current epoch's slab half.
  struct ZcAlloc {
    std::uint64_t epoch = ~std::uint64_t{0};  // sentinel: no epoch entered
    std::size_t off = 0;
  };
  std::vector<ZcAlloc> zc_alloc_;
  // Ordinals (append order) of staged descriptor frames, per destination;
  // consumed by begin_stage when it writes the headers (pad = 1).
  std::vector<std::vector<std::size_t>> zc_out_;
  // Inbox indices of received descriptor frames of this boundary, with
  // their source rank; consumed by apply_zc_views.
  struct ZcIn {
    std::size_t ordinal;
    int src;
  };
  std::vector<ZcIn> zc_in_;
};

}  // namespace detail
}  // namespace gbsp
