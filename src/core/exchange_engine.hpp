// Staged-exchange engine: the transport-agnostic half of the socket-family
// transports, pumping the paper's Appendix B.3 rigid (p-1)-stage total
// exchange over whatever endpoints a Mesh (core/mesh.hpp) provides.
//
// One engine serves one local rank. It owns that rank's staging state (the
// per-destination outbox arenas, the inbox arena the receiver's views live
// in, and reusable per-stage scratch) and the whole wire protocol; the mesh
// owns fds and buffer sizing; the transport that composes the two
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
// sum(len). Sectioning is what makes both ends cheap. The sender never
// serializes: it points an iovec at the preamble, a packed header block, and
// the staging arena's payload spans themselves, and pumps with sendmsg —
// zero payload copies, one syscall per ~IOV_MAX spans. The receiver does
// three bulk reads: the preamble, the whole header block into a reusable
// buffer, then readv of the payload block straight into inbox-arena slots
// (no bounce buffer), so inbox views keep the same lifetime contract as the
// in-memory transports: valid until the receiving worker's next sync().
//
// There are no boundary barriers. The exchange is the synchronisation — a
// worker finishes its last stage only after every peer has reached the
// matching send, exactly as on the paper's PC-LAN, where the staged schedule
// itself kept the machines in step. Stream framing keeps consecutive
// supersteps unambiguous even when one worker runs ahead.
//
// Waiting is adaptive spin-then-poll: after both directions hit EAGAIN the
// worker retries the non-blocking pumps for Config::socket_spin_us (yielding
// between attempts, so oversubscribed hosts hand the core to the peer)
// before falling back to poll with bounded exponential backoff.
//
// Links: attach() picks each pair's data path once. When the mesh exposes a
// shared-memory pair view (Mesh::shm_pair, non-null for ShmMesh) the pair is
// a ring link, and both pumps swap their syscalls for SPSC ring operations
// (core/shm_ring.hpp) on the same iovec cursors — the one sectioned state
// machine, validation, fault clamps, and split-phase windows run unchanged
// over either medium, a full ring is the EAGAIN analogue, and nothing on
// the steady-state data path enters the kernel (wire_syscalls reads 0; idle
// waits replace poll with bounded sleeps plus a liveness peek of the mesh's
// control streams). Payloads >= Config::shm_inline_threshold additionally go
// zero-copy: reserve() hands the sender a slot inside the pair's shared
// slab, a 16-byte ShmZcDesc travels the ring in the payload's place (wire
// header pad == 1), and apply_zc_views() re-points the receiver's inbox
// views at the mapping itself. Slab halves recycle on alternating boundary
// epochs, fenced by the consumer-published boundaries_opened counter.
//
// Robustness: both directions of a stage are pumped through non-blocking
// partial read/write loops (EINTR retried), so a full-duplex stage never
// deadlocks on kernel buffer limits. A stage that makes no progress for
// Config::socket_stage_timeout_ms, or that observes a closed peer, throws
// BspTransportError; incoming frame headers are validated (pad must be 0,
// len capped by Config::socket_max_frame_bytes, sections must agree) so a
// corrupt stream is diagnosed instead of sizing an arena append from
// garbage. The runtime's abort flag is polled on every idle wait, so a peer
// that dies mid-superstep unwinds the survivors within one backoff period.
// Every syscall consults the fault injector (when installed) first — the
// deterministic fault matrix drives this engine identically over either
// mesh.
#pragma once

#include <sys/uio.h>  // iovec

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

#include "core/arena.hpp"
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

/// Stage preamble: one per stage, ahead of the header block. The redundancy
/// (header_bytes is derivable from count) is deliberate — the receiver
/// cross-checks the sections against each other before trusting any length.
struct StagePreamble {
  std::uint64_t count;
  std::uint64_t header_bytes;   // must equal count * sizeof(WireFrameHeader)
  std::uint64_t payload_bytes;  // must equal the sum of frame lens
};
static_assert(sizeof(StagePreamble) == 24, "wire preamble layout drifted");

/// The staged-exchange protocol driver for ONE rank of the mesh.
class ExchangeEngine {
 public:
  /// Progress state of one stage of the schedule: an iovec cursor over the
  /// outgoing sections and a sectioned parse of the incoming stage (preamble
  /// -> header block -> payloads straight into the inbox arena).
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

  /// `fault` is a handle to the owning transport's injector pointer (the
  /// injector can be swapped between runs without re-plumbing the engine);
  /// `abort_flag` is the runtime's shared abort flag, polled on idle waits.
  ExchangeEngine(const Config& cfg, SlabPool& pool, Mesh& mesh,
                 const std::atomic<bool>* abort_flag,
                 FaultInjector* const* fault)
      : cfg_(&cfg), mesh_(&mesh), abort_(abort_flag), fault_(fault) {
    pool_ = &pool;
    inbox_arena_.bind(pool_);
  }

  /// Binds the engine to its rank and (re)sizes per-destination staging for
  /// a p-rank run. Called after every mesh build.
  void attach(int pid, int nprocs);

  /// Clean-run reuse: releases every arena's slabs back to the pool (a
  /// drained stream has nothing to leak).
  void reset_for_reuse();

  [[nodiscard]] int pid() const { return pid_; }
  [[nodiscard]] MessageArena& inbox_arena() { return inbox_arena_; }
  [[nodiscard]] bool has_unflushed() const;

  /// Stages an n-byte frame for `dest` and returns its writable payload
  /// slot. Rejects frames above Config::socket_max_frame_bytes at the send
  /// call, where the application can see a clean error.
  std::byte* reserve(WorkerState& st, int dest, std::size_t n);

  /// Self-delivery + inbox reset at the top of a boundary (stage 0 of the
  /// schedule: whole slabs splice over, no wire). On a shm mesh this also
  /// advances the zero-copy epoch and publishes it to every peer.
  void open_boundary(WorkerState& dst);

  /// Shm only: re-points every zero-copy inbox view of the boundary just
  /// exchanged from its 16-byte on-ring descriptor to the payload's bytes in
  /// the pair's shared slab, validating the descriptor's bounds, and adjusts
  /// `recv_packets` from descriptor size to true payload size. The transport
  /// calls this between append_views and finish_delivery; a no-op when the
  /// boundary carried no zero-copy frames.
  void apply_zc_views(WorkerState& dst, std::uint64_t& recv_packets);

  /// Builds the v2 stage sections for outbox[(pid + k) % p]: packs the
  /// header block, points send_iov_ at preamble/headers/arena payload spans,
  /// resets `ss` for stage k. The staging arena stays live until the last
  /// byte is written (pump_send clears it).
  void begin_stage(StageState& ss, int k);

  /// Pumps one direction; returns bytes moved (0 on EAGAIN or a full/empty
  /// ring). Throws BspTransportError on EOF, socket error, or a corrupt
  /// incoming stage.
  /// Both pumps consult the fault injector (when installed) before every
  /// syscall and act out its decision: simulated EINTR/EAGAIN, truncated
  /// transfers, endpoint shutdown, delays, and aborts.
  std::size_t pump_send(WorkerState& st, StageState& ss);
  std::size_t pump_recv(WorkerState& st, StageState& ss);

  /// Blocking driver of one stage: pumps both directions with the adaptive
  /// spin-then-poll waiting policy (spin-then-nap on ring links) until the
  /// stage drains.
  void run_stage(WorkerState& st, StageState& ss);

  // --- The boundary window (every boundary; a rigid sync() is a window
  // with no compute in it). The in-flight StageState lives inside the
  // engine (not on the caller's stack) because send_iov_ points at
  // split_ss_.send_pre, which must stay at a stable address across
  // pump_window calls.

  /// Opens the boundary and starts streaming stage 1, with one
  /// opportunistic non-blocking pass (with kernel buffers sized to the
  /// stage, small exchanges are often fully on the wire before the caller's
  /// overlapped compute even starts).
  void begin_window(WorkerState& st);

  /// Non-blocking pass over the window's schedule: pumps the in-flight
  /// stage both ways and advances to the next stage whenever one drains,
  /// until nothing moves or the schedule is done. Returns window_done().
  bool pump_window(WorkerState& st);

  /// Blocking resume: drives the remaining stages with run_stage. The
  /// in-flight stage picks up exactly where the window's last pump left it;
  /// the caller publishes afterwards.
  void finish_window(WorkerState& st);

  [[nodiscard]] bool window_done() const { return split_done_; }

  /// Stage-k peers of this rank (the rigid schedule: send to (pid+k) mod p,
  /// receive from (pid-k) mod p). Exposed for the serialized driver's poll
  /// set.
  [[nodiscard]] int send_peer(const StageState& ss) const {
    return (pid_ + ss.k) % nprocs_;
  }
  [[nodiscard]] int recv_peer(const StageState& ss) const {
    return (pid_ + nprocs_ - ss.k) % nprocs_;
  }

 private:
  /// One pair's data path, chosen at attach(): the mesh's shared-memory
  /// rings when it has them, else the stream fd. On a ring link `fd` is the
  /// bootstrap control stream, whose only post-bootstrap traffic is EOF.
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
  /// inbox arena and builds recv_iov_; advances ss to Payload (or Done).
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
  /// Ring idle path: one non-consuming, non-blocking peek of the control
  /// stream with `peer`. True on EOF: the peer exited (or was
  /// kill_endpoints'd). Throws on stray bytes or a failed peek.
  bool peer_closed(WorkerState& st, const StageState& ss, int peer);
  /// Attempts a zero-copy slab reservation of `n` bytes toward `dest`, a
  /// ring link; returns nullptr (inline fallback) when the epoch half is not
  /// yet recycled or is full, or `n` exceeds half the slab.
  std::byte* try_reserve_zc(WorkerState& st, int dest, std::size_t n);
  [[nodiscard]] FaultInjector* injector() const {
    return fault_ != nullptr ? *fault_ : nullptr;
  }

  const Config* cfg_;
  Mesh* mesh_;
  const std::atomic<bool>* abort_;
  FaultInjector* const* fault_;
  SlabPool* pool_ = nullptr;

  int pid_ = 0;
  int nprocs_ = 0;
  std::vector<MessageArena> outbox_;  // per-destination staging
  MessageArena inbox_arena_;          // received frames; views live here
  // Reusable per-stage scratch (capacity persists across stages and runs).
  std::vector<std::byte> hdr_out_;  // packed outgoing header block
  std::vector<std::byte> hdr_in_;   // incoming header block, bulk-read
  std::vector<iovec> send_iov_;     // preamble + hdr_out + payload spans
  std::vector<iovec> recv_iov_;     // inbox-arena payload slots to fill
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
  // consumed by begin_stage when it packs the headers (pad = 1).
  std::vector<std::vector<std::size_t>> zc_out_;
  // Inbox-arena ordinals of received descriptor frames of this boundary,
  // with their source rank; consumed by apply_zc_views.
  struct ZcIn {
    std::size_t ordinal;
    int src;
  };
  std::vector<ZcIn> zc_in_;
};

}  // namespace detail
}  // namespace gbsp
