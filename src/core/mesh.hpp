// Mesh/bootstrap layer of the socket-family transports.
//
// A Mesh owns the endpoint fds of the paper's Appendix B.3 interconnect —
// one full-duplex stream per (pid, peer) pair — and everything about their
// lifecycle: build and teardown, the wire-dirty rebuild contract, and kernel
// buffer sizing. It knows nothing about the staged exchange protocol; the
// staged-exchange engine (core/exchange_engine.hpp) pumps bytes through
// whatever fds the mesh hands it. This is the seam that lets the same v2
// sectioned wire format run over in-process AF_UNIX socketpairs, over
// AF_INET/TCP between separate OS processes, and over shared-memory rings.
//
// Three implementations:
//
//   * SocketpairMesh — the in-process mesh: all p ranks live in this process
//     as threads, and each (i, j) pair is an AF_UNIX SOCK_STREAM socketpair
//     ("loopback TCP" without the port bookkeeping; same syscalls, same
//     partial-I/O behaviour).
//
//   * TcpMesh — the cross-process mesh: this process is exactly one rank of
//     a p-process run (launched by tools/bsp_launch). Rank r listens on
//     tcp_port + r; every pair (i, j) with i < j is one TCP connection that
//     the higher rank initiates (connect, retrying while the listener comes
//     up) and the lower rank accepts. Both ends exchange a versioned
//     RankHello and validate it bidirectionally before the connection joins
//     the mesh; TCP_NODELAY is set on every endpoint so the staged
//     exchange's small control sections are not Nagle-delayed.
//
//   * ShmMesh — the cross-process mesh on one host: the same rank topology
//     and RankHello handshake over abstract AF_UNIX sockets, after which
//     each pair shares an fd-passed memfd segment of SPSC rings.
//
// Dirty-wire contract (shared with the transports): a mesh starts dirty, so
// the first build() happens on the first reset_run(). A worker that unwinds
// mid-stage calls mark_dirty() (possible half-written stage bytes in kernel
// buffers or, for TCP, a desynchronised peer), and the next reset_run()
// rebuilds from scratch. Clean runs reuse the mesh as-is — builds() stays
// flat, which the reuse tests assert.
//
// Kernel buffer sizing lives here because it is an endpoint property: the
// engine reports each stage's expected byte count and the mesh grows
// SO_SNDBUF/SO_RCVBUF toward it, grow-only per (pid, peer) direction and
// bounded, unless Config::socket_buffer_bytes pinned the size at build.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/config.hpp"
#include "core/shm_ring.hpp"

namespace gbsp {
namespace detail {

/// On-wire rank handshake exchanged (both directions) on every freshly
/// connected link of a process-mode mesh (TcpMesh, ShmMesh), before it
/// carries stage traffic. The magic doubles as a byte-order sentinel: a peer
/// of different endianness (or a stray client that is not a gbsp rank) fails
/// the magic check with a descriptive error instead of desynchronising the
/// stage protocol.
struct RankHello {
  static constexpr std::uint64_t kMagic = 0x4853454D50534247ULL;  // "GBSPMESH"
  static constexpr std::uint32_t kVersion = 1;

  std::uint64_t magic = kMagic;
  std::uint32_t version = kVersion;
  std::uint32_t rank = 0;
  std::uint32_t nprocs = 0;
  std::uint32_t reserved = 0;  // transmitted zero, validated on receipt
};
static_assert(sizeof(RankHello) == 24, "rank handshake layout drifted");

/// Abstract endpoint mesh: fd lifecycle + buffer sizing for one run
/// topology. Not thread-safe except where noted (mark_dirty may be called
/// from concurrently failing workers; everything else is single-threaded
/// between runs or per-pid during a run).
class Mesh {
 public:
  explicit Mesh(const Config& cfg) : cfg_(cfg) {}
  virtual ~Mesh() = default;

  Mesh(const Mesh&) = delete;
  Mesh& operator=(const Mesh&) = delete;

  [[nodiscard]] virtual const char* name() const = 0;

  /// True when this process owns every rank's endpoints (the in-process
  /// socketpair mesh); false for the process-mode meshes, where this process
  /// is rank Config::rank alone.
  [[nodiscard]] virtual bool hosts_every_rank() const { return false; }

  /// (Re)builds every endpoint this process owns for a p-rank run:
  /// tears down the previous mesh, runs the implementation's bootstrap, and
  /// on success clears the dirty flag and bumps builds(). On failure the
  /// partial mesh is torn down and the mesh stays dirty — reusable: a later
  /// build() starts from scratch.
  void build(int nprocs);

  /// Closes every fd this mesh owns. Idempotent.
  virtual void teardown() = 0;

  /// The local end of pid's full-duplex stream with peer, or -1 for self
  /// (stage 0 is self-delivery and never touches the wire). On a
  /// process-mode mesh, -1 unless pid is the local rank.
  [[nodiscard]] virtual int fd(int pid, int peer) const = 0;

  /// Fault hook: hard-shutdown (not close) of every endpoint `pid` owns, as
  /// if its process died mid-superstep. Peers observe EOF on their next
  /// read. Marks the wire dirty.
  virtual void kill_endpoints(int pid) = 0;

  /// Grow-only SO_SNDBUF/SO_RCVBUF request toward `stage_bytes` for pid's
  /// endpoint with peer (adaptive mode only; no-op when pinned or when the
  /// high-water mark already covers it). Virtual because ShmMesh has no
  /// kernel buffers to size — its fds are a control channel, not the data
  /// path.
  virtual void grow_kernel_buffer(int pid, int peer, bool send_side,
                                  std::size_t stage_bytes);

  /// Shared-memory view of pid's pair with peer, or nullptr for meshes whose
  /// data path is the fds themselves. A non-null view switches the exchange
  /// engine onto the zero-syscall ring pumps (core/shm_ring.hpp).
  [[nodiscard]] virtual ShmPairView* shm_pair(int pid, int peer) {
    (void)pid;
    (void)peer;
    return nullptr;
  }

  /// Marks the wire unusable for reuse; the next build() rebuilds. Safe to
  /// call from concurrently failing workers.
  void mark_dirty() { dirty_.store(true, std::memory_order_relaxed); }
  [[nodiscard]] bool dirty() const {
    return dirty_.load(std::memory_order_relaxed);
  }

  /// How many times this mesh has been (re)built. Clean-run reuse keeps the
  /// count flat.
  [[nodiscard]] std::uint64_t builds() const { return builds_; }

  [[nodiscard]] int nprocs() const { return nprocs_; }

 protected:
  /// Implementation bootstrap: create (and for TCP, connect/accept +
  /// handshake) every endpoint. Throws BspTransportError on failure; build()
  /// handles teardown and bookkeeping.
  virtual void do_build(int nprocs) = 0;

  /// Blocking-with-deadline exact write/read of a RankHello on a freshly
  /// connected process-mode link (the only blocking I/O in the system;
  /// stage traffic is non-blocking). `peer` is -1 when the sender's rank is
  /// not yet known.
  void send_hello(int fd, int peer) const;
  [[nodiscard]] RankHello recv_hello(int fd, int peer) const;
  /// Validates a received hello against this rank's run. `expect_rank` is
  /// the rank a dialer reached, or -1 on the accept side (any
  /// not-yet-connected higher rank is admissible); a dialer's rank mismatch
  /// names the `link` it reached and the likely `cause`.
  void check_hello(const RankHello& h, int expect_rank, const char* link = "",
                   const char* cause = "") const;

  /// Seeds the grow-only marks of (pid, peer) with what the kernel granted
  /// the endpoint at build, so stages that fit the default buffers never
  /// touch setsockopt.
  void seed_buffer_marks(int pid, int peer);

  /// Applies the per-endpoint build-time socket options shared by both
  /// meshes: non-blocking mode and, when Config::socket_buffer_bytes pins
  /// the kernel buffers, one explicit SO_SNDBUF/SO_RCVBUF request.
  void apply_endpoint_options(int fd) const;

  const Config cfg_;
  int nprocs_ = 0;

 private:
  [[nodiscard]] std::size_t mark_index(int pid, int peer) const {
    return static_cast<std::size_t>(pid) * static_cast<std::size_t>(nprocs_) +
           static_cast<std::size_t>(peer);
  }

  // Grow-only high-water marks of requested kernel buffer sizes, indexed
  // pid * nprocs + peer, so adaptive sizing costs at most O(log stage bytes)
  // setsockopt calls per endpoint direction.
  std::vector<std::size_t> snd_grown_to_;
  std::vector<std::size_t> rcv_grown_to_;
  std::atomic<bool> dirty_{true};
  std::uint64_t builds_ = 0;
};

/// In-process mesh: one AF_UNIX SOCK_STREAM socketpair per (i, j) pair,
/// i < j, owned end-to-end by this process. fd(i, j) is i's end.
class SocketpairMesh final : public Mesh {
 public:
  explicit SocketpairMesh(const Config& cfg) : Mesh(cfg) {}
  ~SocketpairMesh() override { SocketpairMesh::teardown(); }

  [[nodiscard]] const char* name() const override { return "socketpair"; }
  [[nodiscard]] bool hosts_every_rank() const override { return true; }
  void teardown() override;
  [[nodiscard]] int fd(int pid, int peer) const override;
  void kill_endpoints(int pid) override;

 protected:
  void do_build(int nprocs) override;

 private:
  // fd_[i * nprocs + j]: rank i's end of the pair with j; -1 on the
  // diagonal.
  std::vector<int> fd_;
};

/// Cross-process mesh: this process is rank Config::rank of an nprocs
/// process run. Bootstrap: every rank listens on tcp_port + rank (numeric
/// IPv4 Config::tcp_host, SO_REUSEADDR); for each pair the higher rank
/// connects to the lower rank's listener, retrying ECONNREFUSED until
/// Config::tcp_connect_timeout_ms, and both ends exchange + validate a
/// RankHello. The listener closes once every expected peer is connected.
class TcpMesh final : public Mesh {
 public:
  explicit TcpMesh(const Config& cfg) : Mesh(cfg) {}
  ~TcpMesh() override { TcpMesh::teardown(); }

  [[nodiscard]] const char* name() const override { return "tcp"; }
  void teardown() override;
  [[nodiscard]] int fd(int pid, int peer) const override;
  void kill_endpoints(int pid) override;

 protected:
  void do_build(int nprocs) override;

 private:
  // fd_[j]: the local rank's stream with rank j; -1 for self and unbuilt.
  std::vector<int> fd_;
  int listen_fd_ = -1;
};

/// Header page of one shm pair segment, written by the creating (lower)
/// rank and validated by the mapping (higher) rank — the shm analogue of the
/// RankHello's bidirectional checks, but for the geometry both ends must
/// agree on byte-for-byte.
struct ShmSegmentHdr {
  static constexpr std::uint64_t kMagic = 0x47454D5350534247ULL;  // "GBSPSMEG"
  static constexpr std::uint32_t kVersion = 1;

  std::uint64_t magic = kMagic;
  std::uint32_t version = kVersion;
  std::uint32_t nprocs = 0;
  std::uint32_t rank_lo = 0;
  std::uint32_t rank_hi = 0;
  std::uint64_t ring_bytes = 0;
  std::uint64_t slab_bytes = 0;
};
static_assert(sizeof(ShmSegmentHdr) == 40, "shm segment header drifted");

/// Cross-process shared-memory mesh: this process is rank Config::rank
/// of an nprocs-process run on ONE host. Bootstrap reuses the TCP mesh's
/// shape over abstract AF_UNIX sockets ("\0gbsp-shm.<shm_name>.<rank>"):
/// the higher rank of each pair dials the lower rank's listener, both ends
/// exchange + validate a RankHello, then the lower rank creates the pair's
/// memfd segment (header + two direction blocks of ring/slab, see
/// core/shm_ring.hpp) and passes the fd over the stream with SCM_RIGHTS.
/// Both ends mmap it and keep the AF_UNIX stream open as a control channel:
/// it carries no data, but EOF on it is how a peer's death (or an injected
/// PeerHangup) is observed without putting a single syscall on the data
/// path, and kill_endpoints() shuts it down. fd(pid, peer) returns that
/// control fd.
class ShmMesh final : public Mesh {
 public:
  explicit ShmMesh(const Config& cfg) : Mesh(cfg) {}
  ~ShmMesh() override { ShmMesh::teardown(); }

  [[nodiscard]] const char* name() const override { return "shm"; }
  void teardown() override;
  [[nodiscard]] int fd(int pid, int peer) const override;
  void kill_endpoints(int pid) override;
  /// The data path is shared memory; there are no kernel buffers to size.
  void grow_kernel_buffer(int, int, bool, std::size_t) override {}
  [[nodiscard]] ShmPairView* shm_pair(int pid, int peer) override;

 protected:
  void do_build(int nprocs) override;

 private:
  struct Mapping {
    void* base = nullptr;
    std::size_t len = 0;
  };

  /// Creates, sizes and maps the pair segment with `peer` (lower-rank side),
  /// initialises its header and control blocks, and returns the memfd (the
  /// caller passes it to the peer and closes it).
  int create_segment(int peer);
  /// Maps a received segment fd (higher-rank side) and validates its header
  /// against this rank's expectations of the pair geometry.
  void adopt_segment(int seg_fd, int peer);
  /// Slices a mapped segment into the two ShmDirViews of `peer`'s pair.
  void wire_views(void* base, int peer);

  // ctrl_[j]: the bootstrap AF_UNIX stream with rank j, kept open as the
  // death-detection control channel; -1 for self and unbuilt.
  std::vector<int> ctrl_;
  std::vector<ShmPairView> pairs_;  // indexed by peer rank
  std::vector<Mapping> maps_;       // indexed by peer rank
  int listen_fd_ = -1;
};

}  // namespace detail
}  // namespace gbsp
