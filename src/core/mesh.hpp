// Mesh/bootstrap layer of the socket-family transports.
//
// A Mesh owns the endpoint fds of the paper's Appendix B.3 interconnect —
// one full-duplex stream per (pid, peer) pair — and everything about their
// lifecycle: build and teardown, the wire-dirty rebuild contract, and the
// endpoint options (non-blocking mode, kernel buffer sizes). It knows
// nothing about the staged exchange protocol; the staged-exchange engine
// (core/exchange_engine.hpp) pumps bytes through whatever fds the mesh hands
// it. This is the seam that lets the same v2 sectioned wire format run over
// in-process AF_UNIX socketpairs, over AF_INET/TCP between separate OS
// processes, and over shared-memory rings.
//
// Three meshes, two bootstraps:
//
//   * SocketpairMesh — the in-process mesh: all p ranks live in this process
//     as threads, and each (i, j) pair is an AF_UNIX SOCK_STREAM socketpair
//     ("loopback TCP" without the port bookkeeping; same syscalls, same
//     partial-I/O behaviour).
//
//   * RankMesh — the base of the two cross-process meshes, where this
//     process is exactly one rank of a p-process run (launched by
//     tools/bsp_launch). It owns the one rank rendezvous (the higher rank of
//     each pair dials, the lower accepts, both validate a RankHello); a
//     medium supplies only where rank r listens, two cause hints for the
//     error texts, and a post-hello link hook:
//
//       - TcpMesh: rank r listens on tcp_host:tcp_port + r; the hook sets
//         TCP_NODELAY (so the staged exchange's small control sections are
//         not Nagle-delayed) and the endpoint options.
//       - ShmMesh: rank r listens on an abstract AF_UNIX socket; the hook
//         hands over the pair's fd-passed memfd segment of SPSC rings, and
//         the stream stays open as the pair's control channel.
//
// Dirty-wire contract (shared with the transports): a mesh starts dirty, so
// the first build() happens on the first reset_run(). A worker that unwinds
// mid-stage calls mark_dirty() (possible half-written stage bytes in kernel
// buffers or, for TCP, a desynchronised peer), and the next reset_run()
// rebuilds from scratch. Clean runs reuse the mesh as-is — builds() stays
// flat, which the reuse tests assert.
//
// Kernel buffers are sized once, at build: every socketpair and TCP
// endpoint requests the same SO_SNDBUF and SO_RCVBUF (4 MiB, which the
// kernel clamps to its limits), so a stage's cost never depends on the
// traffic of earlier stages. ShmMesh's fds carry no data and keep the
// kernel's defaults.
#pragma once

#include <sys/socket.h>

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string>
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

/// Abstract endpoint mesh: the fd lifecycle of one run topology. Not
/// thread-safe except where noted (mark_dirty may be called from
/// concurrently failing workers; everything else is single-threaded between
/// runs or per-pid during a run).
class Mesh {
 public:
  explicit Mesh(const Config& cfg) : cfg_(cfg) {}
  virtual ~Mesh() = default;

  Mesh(const Mesh&) = delete;
  Mesh& operator=(const Mesh&) = delete;

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

  /// Closes every fd this mesh owns. Idempotent. build() sets nprocs_
  /// first, so a teardown also resets per-peer tables for the new run.
  virtual void teardown() = 0;

  /// The local end of pid's full-duplex stream with peer, or -1 for self
  /// (stage 0 is self-delivery and never touches the wire). On a
  /// process-mode mesh, -1 unless pid is the local rank.
  [[nodiscard]] virtual int fd(int pid, int peer) const = 0;

  /// Fault hook: hard-shutdown (not close) of every endpoint `pid` owns, as
  /// if its process died mid-superstep. Peers observe EOF on their next
  /// read. Marks the wire dirty.
  virtual void kill_endpoints(int pid) = 0;

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

 protected:
  /// Implementation bootstrap: create (and in process mode, connect/accept
  /// + handshake) every endpoint. Throws BspTransportError on failure;
  /// build() handles teardown and bookkeeping.
  virtual void do_build(int nprocs) = 0;

  const Config cfg_;
  int nprocs_ = 0;

 private:
  std::atomic<bool> dirty_{true};
  std::uint64_t builds_ = 0;
};

/// In-process mesh: one AF_UNIX SOCK_STREAM socketpair per (i, j) pair,
/// i < j, owned end-to-end by this process. fd(i, j) is i's end.
class SocketpairMesh final : public Mesh {
 public:
  explicit SocketpairMesh(const Config& cfg) : Mesh(cfg) {}
  ~SocketpairMesh() override { SocketpairMesh::teardown(); }

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

/// Base of the process-mode meshes: this process is rank Config::rank of an
/// nprocs-process run and owns one stream per peer. The bootstrap is one
/// loop for every medium:
///   1. listen on listener(rank) first, so across processes nobody blocks
///      in accept before every listener exists (or shortly will);
///   2. dial every lower rank's listener and speak first: send, then
///      receive and validate the RankHello;
///   3. accept every higher rank: receive and validate its hello (which says
///      who dialed in), then answer;
///   4. close the listener, so nothing can dial in mid-run.
/// Each validated link gets the medium's link() hook, then loses the
/// handshake's I/O deadline.
///
/// Retry rule: a dial whose connect is refused or reaches itself (the
/// listener is not up yet), or whose peer resets or closes the link during
/// the hello (it may be tearing down a previous incarnation), is retried
/// every 2 ms until Config::tcp_connect_timeout_ms, the one bootstrap
/// deadline of both media. A hello that times out or fails validation, and
/// any failure in link(), is fatal: build() tears the partial mesh down and
/// the mesh stays dirty.
class RankMesh : public Mesh {
 public:
  ~RankMesh() override { RankMesh::teardown(); }

  void teardown() override;
  [[nodiscard]] int fd(int pid, int peer) const final;
  void kill_endpoints(int pid) final;

 protected:
  /// A rank's listening address, and the name error texts give it.
  struct Endpoint {
    sockaddr_storage addr{};
    socklen_t len = 0;
    std::string name;
  };

  /// `bind_cause` is the likely cause of a failed bind of this rank's
  /// listener; `skew_cause` the likely cause of a dialer reaching the wrong
  /// rank. Both end up in the error texts.
  RankMesh(const Config& cfg, const char* bind_cause, const char* skew_cause)
      : Mesh(cfg), bind_cause_(bind_cause), skew_cause_(skew_cause) {}

  void do_build(int nprocs) final;

  /// Where `rank` listens.
  [[nodiscard]] virtual Endpoint listener(int rank) const = 0;

  /// Post-hello hook on the validated link `fd` with `peer`, already
  /// fd(rank, peer); the higher rank of the pair is the dialer. Runs under
  /// the handshake's I/O deadline; a throw fails the build.
  virtual void link(int fd, int peer) = 0;

 private:
  /// Blocking-with-deadline exact write/read of a RankHello on a fresh link
  /// (the only blocking I/O in the system; stage traffic is non-blocking).
  /// Both return false when the peer reset or closed the link, and throw on
  /// a timeout or any other error. `peer` is -1 while the sender is unknown.
  bool send_hello(int fd, int peer) const;
  bool recv_hello(int fd, int peer, RankHello* h) const;
  /// Validates a received hello against this rank's run. `expect_rank` is
  /// the rank a dialer reached at listener `at`, or -1 on the accept side
  /// (any not-yet-connected higher rank is admissible).
  void check_hello(const RankHello& h, int expect_rank,
                   const std::string& at = "") const;

  // fd_[j]: the local rank's stream with rank j; -1 for self and unbuilt.
  std::vector<int> fd_;
  int listen_fd_ = -1;
  const char* bind_cause_;
  const char* skew_cause_;
};

/// Cross-process TCP mesh: rank r listens on the numeric IPv4
/// Config::tcp_host at tcp_port + r (SO_REUSEADDR, so a rebuild re-binds
/// while the previous incarnation's sockets sit in TIME_WAIT); each pair is
/// one TCP connection with TCP_NODELAY and the endpoint options.
class TcpMesh final : public RankMesh {
 public:
  explicit TcpMesh(const Config& cfg)
      : RankMesh(cfg, "port already in use?", "port map skewed?") {}

 protected:
  [[nodiscard]] Endpoint listener(int rank) const override;
  void link(int fd, int peer) override;
};

/// Header page of one shm pair segment, written by the creating (lower)
/// rank and validated by the mapping (higher) rank — the shm analogue of the
/// RankHello's bidirectional checks, but for the geometry both ends must
/// agree on byte-for-byte. v2: the ring control blocks carry the parked
/// flags (core/shm_ring.hpp), and a v1 peer would never ring a doorbell.
struct ShmSegmentHdr {
  static constexpr std::uint64_t kMagic = 0x47454D5350534247ULL;  // "GBSPSMEG"
  static constexpr std::uint32_t kVersion = 2;

  std::uint64_t magic = kMagic;
  std::uint32_t version = kVersion;
  std::uint32_t nprocs = 0;
  std::uint32_t rank_lo = 0;
  std::uint32_t rank_hi = 0;
  std::uint64_t ring_bytes = 0;
  std::uint64_t slab_bytes = 0;
};
static_assert(sizeof(ShmSegmentHdr) == 40, "shm segment header drifted");

/// Cross-process shared-memory mesh on ONE host: rank r listens on the
/// abstract AF_UNIX socket "\0gbsp-shm.<shm_name>.<r>". Its link hook is the
/// segment handoff: the lower rank of each pair creates the pair's memfd
/// segment (header + two direction blocks of ring/slab, see
/// core/shm_ring.hpp) and passes the fd over the stream with SCM_RIGHTS; the
/// higher rank receives, validates and maps it. Both ends keep the AF_UNIX
/// stream open as a control channel: it carries no data, only one-byte
/// doorbells that wake a parked peer, and EOF on it is how a peer's death
/// (or an injected PeerHangup) is observed without putting a single syscall
/// on the data path; kill_endpoints() shuts it down. fd(pid, peer) returns
/// that control fd.
class ShmMesh final : public RankMesh {
 public:
  explicit ShmMesh(const Config& cfg)
      : RankMesh(cfg, "this rank already running under this shm_name?",
                 "shm_name collision between runs?") {}
  ~ShmMesh() override { ShmMesh::teardown(); }

  void teardown() override;
  [[nodiscard]] ShmPairView* shm_pair(int pid, int peer) override;

 protected:
  [[nodiscard]] Endpoint listener(int rank) const override;
  void link(int fd, int peer) override;

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

  std::vector<ShmPairView> pairs_;  // indexed by peer rank
  std::vector<Mapping> maps_;       // indexed by peer rank
};

}  // namespace detail
}  // namespace gbsp
