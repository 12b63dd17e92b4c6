#include "core/mesh.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/mman.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <new>
#include <string>
#include <thread>
#include <utility>

#include "core/transport.hpp"  // BspTransportError

namespace gbsp {
namespace detail {

namespace {

/// The SO_SNDBUF and SO_RCVBUF every data-path endpoint requests at build.
/// Beyond a few MiB a transfer is syscall-bound anyway and the pumps stream
/// through the buffer; a larger request would just pin memory per endpoint.
constexpr int kKernelBufBytes = 1 << 22;

void set_nonblocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0 || ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) < 0) {
    throw BspTransportError("fcntl(O_NONBLOCK) failed", /*rank=*/-1,
                            /*peer=*/-1, /*superstep=*/-1, /*stage=*/-1,
                            errno, /*bytes_moved=*/0);
  }
}

/// The build-time options of an endpoint of a mesh whose data path is the
/// fds, applied once per endpoint: non-blocking mode and one SO_SNDBUF and
/// one SO_RCVBUF request. Best effort: the kernel clamps the sizes to its
/// wmem/rmem limits, and the partial-I/O pumps are correct at any size. No
/// stage resizes them, so what a stage finds does not depend on earlier
/// traffic.
void apply_endpoint_options(int fd) {
  set_nonblocking(fd);
  (void)::setsockopt(fd, SOL_SOCKET, SO_SNDBUF, &kKernelBufBytes,
                     sizeof(kKernelBufBytes));
  (void)::setsockopt(fd, SOL_SOCKET, SO_RCVBUF, &kKernelBufBytes,
                     sizeof(kKernelBufBytes));
}

using Clock = std::chrono::steady_clock;

/// Milliseconds until `deadline`, floored at 1 so a nearly expired budget
/// still makes one bounded attempt instead of an instant zero-timeout fail.
int remaining_ms(Clock::time_point deadline) {
  const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
      deadline - Clock::now());
  return static_cast<int>(std::max<std::int64_t>(1, left.count()));
}

void set_io_timeout(int fd, int ms) {
  timeval tv{};
  tv.tv_sec = ms / 1000;
  tv.tv_usec = (ms % 1000) * 1000;
  (void)::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  (void)::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));
}

/// Exact-length blocking read. Returns true on success; false with *err == 0
/// on EOF, false with *err == errno on error (EAGAIN after SO_RCVTIMEO means
/// the handshake timed out).
bool read_full(int fd, void* buf, std::size_t n, int* err) {
  std::byte* p = static_cast<std::byte*>(buf);
  std::size_t off = 0;
  while (off < n) {
    const ssize_t r = ::recv(fd, p + off, n - off, 0);
    if (r > 0) {
      off += static_cast<std::size_t>(r);
      continue;
    }
    if (r == 0) {
      *err = 0;
      return false;
    }
    if (errno == EINTR) continue;
    *err = errno;
    return false;
  }
  return true;
}

bool write_full(int fd, const void* buf, std::size_t n, int* err) {
  const std::byte* p = static_cast<const std::byte*>(buf);
  std::size_t off = 0;
  while (off < n) {
    const ssize_t r = ::send(fd, p + off, n - off, MSG_NOSIGNAL);
    if (r >= 0) {
      off += static_cast<std::size_t>(r);
      continue;
    }
    if (errno == EINTR) continue;
    *err = errno;
    return false;
  }
  return true;
}

/// Owns one fd until released; closes it on scope exit (a failed bootstrap
/// step must not leak the link it was working on).
struct FdGuard {
  int fd;
  explicit FdGuard(int f) : fd(f) {}
  FdGuard(const FdGuard&) = delete;
  FdGuard& operator=(const FdGuard&) = delete;
  ~FdGuard() {
    if (fd >= 0) ::close(fd);
  }
  int release() { return std::exchange(fd, -1); }
};

/// A hello I/O error that means the peer went away under the link: EOF
/// (err == 0), a reset, or a write into a closed stream.
bool peer_gone(int err) {
  return err == 0 || err == ECONNRESET || err == EPIPE;
}

/// True when a dial connected to itself: a TCP connect to a port in the
/// kernel's ephemeral range with no listener yet can pick that very port as
/// its source port and complete a simultaneous open with itself. The
/// listener is not up yet; the dialer retries.
bool connected_to_self(int fd) {
  sockaddr_storage self{};
  sockaddr_storage peer{};
  socklen_t self_len = sizeof(self);
  socklen_t peer_len = sizeof(peer);
  return ::getsockname(fd, reinterpret_cast<sockaddr*>(&self), &self_len) ==
             0 &&
         ::getpeername(fd, reinterpret_cast<sockaddr*>(&peer), &peer_len) ==
             0 &&
         self_len == peer_len && std::memcmp(&self, &peer, self_len) == 0;
}

/// connect() errnos that mean the listener is not up yet (refused, or for
/// AF_UNIX not bound yet) or the attempt was cut short; the dialer retries.
bool connect_retryable(int err) {
  return err == ECONNREFUSED || err == ENOENT || err == ETIMEDOUT ||
         err == EINTR || err == EAGAIN || err == EINPROGRESS;
}

}  // namespace

// ---------------------------------------------------------------------- Mesh

void Mesh::build(int nprocs) {
  nprocs_ = nprocs;
  teardown();
  try {
    do_build(nprocs);
  } catch (...) {
    // A partial bootstrap (some endpoints up, some not) must not leak into a
    // later build: tear down and stay dirty. The mesh remains reusable — the
    // next build() starts from scratch.
    teardown();
    throw;
  }
  ++builds_;
  dirty_.store(false, std::memory_order_relaxed);
}

// ------------------------------------------------------------ SocketpairMesh

void SocketpairMesh::teardown() {
  for (int& fd : fd_) {
    if (fd >= 0) ::close(fd);
    fd = -1;
  }
}

int SocketpairMesh::fd(int pid, int peer) const {
  return fd_[static_cast<std::size_t>(pid) *
                 static_cast<std::size_t>(nprocs_) +
             static_cast<std::size_t>(peer)];
}

void SocketpairMesh::do_build(int nprocs) {
  const std::size_t p = static_cast<std::size_t>(nprocs);
  fd_.assign(p * p, -1);
  for (std::size_t i = 0; i < p; ++i) {
    for (std::size_t j = i + 1; j < p; ++j) {
      int sv[2];
      if (::socketpair(AF_UNIX, SOCK_STREAM, 0, sv) != 0) {
        throw BspTransportError("socketpair failed", /*rank=*/-1,
                                static_cast<int>(j), /*superstep=*/-1,
                                /*stage=*/-1, errno, /*bytes_moved=*/0);
      }
      apply_endpoint_options(sv[0]);
      apply_endpoint_options(sv[1]);
      fd_[i * p + j] = sv[0];
      fd_[j * p + i] = sv[1];
    }
  }
}

void SocketpairMesh::kill_endpoints(int pid) {
  // The injected death leaves peers' streams in an undefined half-written
  // state by design: force a mesh rebuild on the next run.
  mark_dirty();
  const std::size_t p = static_cast<std::size_t>(nprocs_);
  for (std::size_t j = 0; j < p; ++j) {
    const int fd = fd_[static_cast<std::size_t>(pid) * p + j];
    // shutdown, not close: peers polling the other end must observe EOF,
    // and the fd number must stay reserved until the rebuild.
    if (fd >= 0) ::shutdown(fd, SHUT_RDWR);
  }
}

// ---------------------------------------------------------------- RankMesh

void RankMesh::teardown() {
  for (int fd : fd_) {
    if (fd >= 0) ::close(fd);
  }
  fd_.assign(static_cast<std::size_t>(nprocs_), -1);
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
}

int RankMesh::fd(int pid, int peer) const {
  if (pid != cfg_.rank) return -1;  // only the local rank has endpoints
  return fd_[static_cast<std::size_t>(peer)];
}

void RankMesh::kill_endpoints(int pid) {
  mark_dirty();
  if (pid != cfg_.rank) return;
  // shutdown, not close: the peer observes EOF on its next read (or, on
  // shm, when a park drains the control stream), exactly as a real process
  // death reads.
  for (int fd : fd_) {
    if (fd >= 0) ::shutdown(fd, SHUT_RDWR);
  }
}

bool RankMesh::send_hello(int fd, int peer) const {
  RankHello h;
  h.rank = static_cast<std::uint32_t>(cfg_.rank);
  h.nprocs = static_cast<std::uint32_t>(nprocs_);
  int err = 0;
  if (write_full(fd, &h, sizeof(h), &err)) return true;
  if (peer_gone(err)) return false;
  throw BspTransportError("failed to send the rank handshake", cfg_.rank, peer,
                          /*superstep=*/-1, /*stage=*/-1, err,
                          /*bytes_moved=*/0);
}

bool RankMesh::recv_hello(int fd, int peer, RankHello* h) const {
  int err = 0;
  if (read_full(fd, h, sizeof(*h), &err)) return true;
  if (peer_gone(err)) return false;
  if (err == EAGAIN || err == EWOULDBLOCK) {
    throw BspTransportError(
        "rank handshake timed out after tcp_connect_timeout_ms=" +
            std::to_string(cfg_.tcp_connect_timeout_ms) + "ms",
        cfg_.rank, peer, /*superstep=*/-1, /*stage=*/-1, /*err=*/0,
        /*bytes_moved=*/0);
  }
  throw BspTransportError("failed to read the rank handshake", cfg_.rank,
                          peer, /*superstep=*/-1, /*stage=*/-1, err,
                          /*bytes_moved=*/0);
}

void RankMesh::check_hello(const RankHello& h, int expect_rank,
                           const std::string& at) const {
  const int me = cfg_.rank;
  if (h.magic != RankHello::kMagic) {
    char hex[32];
    std::snprintf(hex, sizeof(hex), "0x%016llx",
                  static_cast<unsigned long long>(h.magic));
    throw BspTransportError(
        std::string("rank handshake has bad magic ") + hex +
            " — the peer is not a gbsp mesh rank (or a byte-order mismatch)",
        me, expect_rank, /*superstep=*/-1, /*stage=*/-1, /*err=*/0,
        /*bytes_moved=*/0);
  }
  if (h.version != RankHello::kVersion) {
    throw BspTransportError(
        "rank handshake version mismatch: peer speaks mesh protocol v" +
            std::to_string(h.version) + ", this build expects v" +
            std::to_string(RankHello::kVersion),
        me, expect_rank, /*superstep=*/-1, /*stage=*/-1, /*err=*/0,
        /*bytes_moved=*/0);
  }
  if (h.reserved != 0) {
    throw BspTransportError(
        "rank handshake has nonzero reserved field (stream corruption?)", me,
        expect_rank, /*superstep=*/-1, /*stage=*/-1, /*err=*/0,
        /*bytes_moved=*/0);
  }
  if (h.nprocs != static_cast<std::uint32_t>(nprocs_)) {
    throw BspTransportError(
        "rank handshake nprocs mismatch: peer was launched with " +
            std::to_string(h.nprocs) + " ranks, this rank with " +
            std::to_string(nprocs_),
        me, expect_rank, /*superstep=*/-1, /*stage=*/-1, /*err=*/0,
        /*bytes_moved=*/0);
  }
  if (expect_rank >= 0) {
    if (h.rank != static_cast<std::uint32_t>(expect_rank)) {
      throw BspTransportError(
          "rank handshake rank mismatch: expected rank " +
              std::to_string(expect_rank) + " at " + at +
              ", peer claims rank " + std::to_string(h.rank) + " (" +
              skew_cause_ + ")",
          me, expect_rank, /*superstep=*/-1, /*stage=*/-1, /*err=*/0,
          /*bytes_moved=*/0);
    }
    return;
  }
  // Accept side: any higher rank we have not accepted yet.
  if (h.rank >= static_cast<std::uint32_t>(nprocs_) ||
      static_cast<int>(h.rank) <= me) {
    throw BspTransportError(
        "rank handshake rank mismatch: accepted a connection claiming rank " +
            std::to_string(h.rank) + ", but rank " + std::to_string(me) +
            " of " + std::to_string(nprocs_) +
            " only accepts from higher ranks",
        me, static_cast<int>(h.rank), /*superstep=*/-1, /*stage=*/-1,
        /*err=*/0, /*bytes_moved=*/0);
  }
  if (fd_[h.rank] >= 0) {
    throw BspTransportError(
        "duplicate rank handshake: rank " + std::to_string(h.rank) +
            " connected twice (two processes launched with the same "
            "GBSP_RANK?)",
        me, static_cast<int>(h.rank), /*superstep=*/-1, /*stage=*/-1,
        /*err=*/0, /*bytes_moved=*/0);
  }
}

void RankMesh::do_build(int nprocs) {
  const int me = cfg_.rank;
  const auto deadline =
      Clock::now() + std::chrono::milliseconds(cfg_.tcp_connect_timeout_ms);
  const auto timeout = "tcp_connect_timeout_ms=" +
                       std::to_string(cfg_.tcp_connect_timeout_ms) + "ms";
  // Every link joins the mesh the same way: fd(me, peer), the medium's
  // hook, then no I/O deadline (stage I/O is non-blocking, and shm's
  // control-stream drain must never see a timeout errno).
  const auto join = [&](FdGuard& conn, int peer) {
    const int fd = conn.release();
    fd_[static_cast<std::size_t>(peer)] = fd;
    link(fd, peer);
    set_io_timeout(fd, 0);
  };
  const auto died = [&](int peer) {
    return BspTransportError(
        "peer closed the connection during the rank handshake (peer died "
        "during accept?)",
        me, peer, /*superstep=*/-1, /*stage=*/-1, /*err=*/0,
        /*bytes_moved=*/0);
  };

  // 1. Listener first, before any dial: across processes the bootstrap is
  // deadlock-free because every rank's listener exists (or will shortly —
  // dialers retry) before anyone blocks in accept.
  const Endpoint mine = listener(me);
  listen_fd_ = ::socket(mine.addr.ss_family, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    throw BspTransportError("socket() for the listener at " + mine.name +
                                " failed",
                            me, /*peer=*/-1, /*superstep=*/-1, /*stage=*/-1,
                            errno, /*bytes_moved=*/0);
  }
  // SO_REUSEADDR: a TCP rebuild (wire-dirty retry) must re-bind the same
  // port while the previous incarnation's accepted sockets sit in
  // TIME_WAIT. AF_UNIX ignores it.
  const int one = 1;
  (void)::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  if (::bind(listen_fd_, reinterpret_cast<const sockaddr*>(&mine.addr),
             mine.len) != 0) {
    throw BspTransportError("bind(" + mine.name + ") for rank " +
                                std::to_string(me) + " failed (" +
                                bind_cause_ + ")",
                            me, /*peer=*/-1, /*superstep=*/-1, /*stage=*/-1,
                            errno, /*bytes_moved=*/0);
  }
  if (::listen(listen_fd_, nprocs) != 0) {
    throw BspTransportError("listen(" + mine.name + ") failed", me,
                            /*peer=*/-1, /*superstep=*/-1, /*stage=*/-1,
                            errno, /*bytes_moved=*/0);
  }

  // 2. Dial every lower rank's listener (the pair orientation: higher rank
  // dials, lower rank answers); the dialing side speaks first.
  for (int j = 0; j < me; ++j) {
    const Endpoint ep = listener(j);
    // Every `continue` below is a retry, 2 ms after the failed attempt.
    for (;; std::this_thread::sleep_for(std::chrono::milliseconds(2))) {
      if (Clock::now() >= deadline) {
        throw BspTransportError(
            "connect to rank " + std::to_string(j) + " at " + ep.name +
                " timed out after " + timeout +
                " (rank never launched, or died during bootstrap?)",
            me, j, /*superstep=*/-1, /*stage=*/-1, /*err=*/0,
            /*bytes_moved=*/0);
      }
      FdGuard conn{::socket(ep.addr.ss_family, SOCK_STREAM, 0)};
      if (conn.fd < 0) {
        throw BspTransportError("socket() for the link to rank " +
                                    std::to_string(j) + " at " + ep.name +
                                    " failed",
                                me, j, /*superstep=*/-1, /*stage=*/-1, errno,
                                /*bytes_moved=*/0);
      }
      set_io_timeout(conn.fd, remaining_ms(deadline));
      if (::connect(conn.fd, reinterpret_cast<const sockaddr*>(&ep.addr),
                    ep.len) != 0) {
        const int err = errno;
        if (connect_retryable(err)) continue;
        throw BspTransportError(
            "connect to rank " + std::to_string(j) + " at " + ep.name +
                " failed",
            me, j, /*superstep=*/-1, /*stage=*/-1, err, /*bytes_moved=*/0);
      }
      if (connected_to_self(conn.fd)) continue;
      // A peer that resets or closes underneath the hello may be tearing
      // down a previous incarnation: retry like a refused connect.
      RankHello h;
      if (!send_hello(conn.fd, j) || !recv_hello(conn.fd, j, &h)) continue;
      check_hello(h, /*expect_rank=*/j, ep.name);
      join(conn, j);
      break;
    }
  }

  // 3. Accept every higher rank. The hello tells us who dialed in; a link
  // that fails its handshake fails the whole bootstrap — the caller tears
  // down and (on retry) rebuilds from scratch.
  for (int expected = nprocs - 1 - me; expected > 0;) {
    pollfd pfd{listen_fd_, POLLIN, 0};
    const int pr = ::poll(&pfd, 1, remaining_ms(deadline));
    if (pr < 0 && errno == EINTR) continue;
    if (pr < 0) {
      throw BspTransportError("poll on " + mine.name + " failed", me,
                              /*peer=*/-1, /*superstep=*/-1, /*stage=*/-1,
                              errno, /*bytes_moved=*/0);
    }
    if (pr == 0) {
      throw BspTransportError(
          "accept on " + mine.name + " timed out with " +
              std::to_string(expected) + " rank(s) still unconnected (" +
              timeout + ")",
          me, /*peer=*/-1, /*superstep=*/-1, /*stage=*/-1, /*err=*/0,
          /*bytes_moved=*/0);
    }
    FdGuard conn{::accept(listen_fd_, nullptr, nullptr)};
    if (conn.fd < 0) {
      if (errno == EINTR || errno == ECONNABORTED) continue;
      throw BspTransportError("accept on " + mine.name + " failed", me,
                              /*peer=*/-1, /*superstep=*/-1, /*stage=*/-1,
                              errno, /*bytes_moved=*/0);
    }
    set_io_timeout(conn.fd, remaining_ms(deadline));
    RankHello h;
    if (!recv_hello(conn.fd, /*peer=*/-1, &h)) throw died(-1);
    check_hello(h, /*expect_rank=*/-1);
    const int peer = static_cast<int>(h.rank);
    if (!send_hello(conn.fd, peer)) throw died(peer);
    join(conn, peer);
    --expected;
  }
  // 4. Bootstrap complete: close the listener so nothing can dial in mid-run
  // (a skewed retry attempt is refused and keeps retrying until this rank
  // reaches its own rebuild).
  ::close(listen_fd_);
  listen_fd_ = -1;
}

// ----------------------------------------------------------------- TcpMesh

RankMesh::Endpoint TcpMesh::listener(int rank) const {
  Endpoint ep;
  auto* sa = reinterpret_cast<sockaddr_in*>(&ep.addr);
  sa->sin_family = AF_INET;
  sa->sin_port = htons(static_cast<std::uint16_t>(cfg_.tcp_port + rank));
  if (::inet_pton(AF_INET, cfg_.tcp_host.c_str(), &sa->sin_addr) != 1) {
    throw BspTransportError(
        "tcp_host \"" + cfg_.tcp_host + "\" is not a numeric IPv4 address",
        cfg_.rank, /*peer=*/-1, /*superstep=*/-1, /*stage=*/-1, /*err=*/0,
        /*bytes_moved=*/0);
  }
  ep.len = sizeof(sockaddr_in);
  ep.name = cfg_.tcp_host + ":" + std::to_string(cfg_.tcp_port + rank);
  return ep;
}

void TcpMesh::link(int fd, int /*peer*/) {
  // The staged exchange writes small control sections (24 B preamble)
  // followed by bulk payload; Nagle would hold the control bytes hostage to
  // the previous stage's ACKs.
  const int one = 1;
  (void)::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  apply_endpoint_options(fd);
}

// ----------------------------------------------------------------- ShmMesh

namespace {

constexpr std::size_t kShmPage = 4096;

std::size_t page_up(std::size_t n) {
  return (n + kShmPage - 1) & ~(kShmPage - 1);
}

/// One direction block: a control page, the ring, and the zero-copy slab,
/// each page-aligned so the producer and consumer never share a page across
/// role boundaries.
std::size_t shm_dir_bytes(const Config& cfg) {
  return kShmPage + page_up(cfg.shm_ring_bytes) + page_up(cfg.shm_slab_bytes);
}

/// Whole pair segment: header page + both direction blocks.
std::size_t shm_segment_bytes(const Config& cfg) {
  return kShmPage + 2 * shm_dir_bytes(cfg);
}

/// Passes the pair segment's memfd plus its announced byte length over the
/// bootstrap stream. The SCM_RIGHTS cmsg rides the first byte of the length
/// word; any stream-split tail follows as ordinary bytes.
void send_fd_with_len(int sock, int seg_fd, std::uint64_t seg_len, int me,
                      int peer) {
  msghdr msg{};
  iovec iov{&seg_len, sizeof(seg_len)};
  msg.msg_iov = &iov;
  msg.msg_iovlen = 1;
  alignas(cmsghdr) char cbuf[CMSG_SPACE(sizeof(int))];
  std::memset(cbuf, 0, sizeof(cbuf));
  msg.msg_control = cbuf;
  msg.msg_controllen = sizeof(cbuf);
  cmsghdr* cm = CMSG_FIRSTHDR(&msg);
  cm->cmsg_level = SOL_SOCKET;
  cm->cmsg_type = SCM_RIGHTS;
  cm->cmsg_len = CMSG_LEN(sizeof(int));
  std::memcpy(CMSG_DATA(cm), &seg_fd, sizeof(int));
  for (;;) {
    const ssize_t r = ::sendmsg(sock, &msg, MSG_NOSIGNAL);
    if (r >= 0) {
      if (static_cast<std::size_t>(r) < sizeof(seg_len)) {
        int err = 0;
        if (!write_full(sock,
                        reinterpret_cast<const std::byte*>(&seg_len) + r,
                        sizeof(seg_len) - static_cast<std::size_t>(r), &err)) {
          throw BspTransportError("failed to pass the shm segment fd", me,
                                  peer, /*superstep=*/-1, /*stage=*/-1, err,
                                  /*bytes_moved=*/0);
        }
      }
      return;
    }
    if (errno == EINTR) continue;
    throw BspTransportError("failed to pass the shm segment fd", me, peer,
                            /*superstep=*/-1, /*stage=*/-1, errno,
                            /*bytes_moved=*/0);
  }
}

/// Receives the segment fd + announced length from the pair's lower rank.
/// EOF here is its own failure mode (distinct from a handshake-phase close,
/// which the dialer retries): the peer completed the hello but died before
/// — or while — handing the segment over.
int recv_fd_with_len(int sock, std::uint64_t* seg_len, int me, int peer,
                     int timeout_ms) {
  msghdr msg{};
  iovec iov{seg_len, sizeof(*seg_len)};
  msg.msg_iov = &iov;
  msg.msg_iovlen = 1;
  alignas(cmsghdr) char cbuf[CMSG_SPACE(sizeof(int))];
  msg.msg_control = cbuf;
  msg.msg_controllen = sizeof(cbuf);
  ssize_t r;
  for (;;) {
    r = ::recvmsg(sock, &msg, MSG_CMSG_CLOEXEC);
    if (r >= 0) break;
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      throw BspTransportError(
          "shm segment handoff timed out after tcp_connect_timeout_ms=" +
              std::to_string(timeout_ms) + "ms",
          me, peer, /*superstep=*/-1, /*stage=*/-1, /*err=*/0,
          /*bytes_moved=*/0);
    }
    throw BspTransportError("failed to receive the shm segment fd", me, peer,
                            /*superstep=*/-1, /*stage=*/-1, errno,
                            /*bytes_moved=*/0);
  }
  int fd = -1;
  for (cmsghdr* cm = CMSG_FIRSTHDR(&msg); cm != nullptr;
       cm = CMSG_NXTHDR(&msg, cm)) {
    if (cm->cmsg_level == SOL_SOCKET && cm->cmsg_type == SCM_RIGHTS) {
      std::memcpy(&fd, CMSG_DATA(cm), sizeof(int));
    }
  }
  if (r == 0) {
    if (fd >= 0) ::close(fd);
    throw BspTransportError(
        "peer closed during segment handoff (rank " + std::to_string(peer) +
            " died after the handshake?)",
        me, peer, /*superstep=*/-1, /*stage=*/-1, /*err=*/0,
        /*bytes_moved=*/0);
  }
  if (fd < 0) {
    throw BspTransportError(
        "shm segment handoff carried no fd (peer sent data without "
        "SCM_RIGHTS — not a gbsp shm rank?)",
        me, peer, /*superstep=*/-1, /*stage=*/-1, /*err=*/0,
        /*bytes_moved=*/0);
  }
  if (static_cast<std::size_t>(r) < sizeof(*seg_len)) {
    int err = 0;
    if (!read_full(sock, reinterpret_cast<std::byte*>(seg_len) + r,
                   sizeof(*seg_len) - static_cast<std::size_t>(r), &err)) {
      ::close(fd);
      throw BspTransportError(
          "peer closed during segment handoff (rank " + std::to_string(peer) +
              " died mid-handoff?)",
          me, peer, /*superstep=*/-1, /*stage=*/-1, err, /*bytes_moved=*/0);
    }
  }
  return fd;
}

}  // namespace

void ShmMesh::teardown() {
  RankMesh::teardown();
  for (Mapping& m : maps_) {
    if (m.base != nullptr) ::munmap(m.base, m.len);
  }
  maps_.assign(static_cast<std::size_t>(nprocs_), Mapping{});
  pairs_.assign(static_cast<std::size_t>(nprocs_), ShmPairView{});
}

RankMesh::Endpoint ShmMesh::listener(int rank) const {
  // Abstract AF_UNIX namespace ("\0gbsp-shm.<shm_name>.<rank>"): abstract
  // sockets vanish with their owning process, so a crashed run leaves
  // nothing on the filesystem to unlink.
  Endpoint ep;
  auto* sa = reinterpret_cast<sockaddr_un*>(&ep.addr);
  sa->sun_family = AF_UNIX;
  const std::string tag =
      "gbsp-shm." + cfg_.shm_name + "." + std::to_string(rank);
  // sun_path[0] stays NUL (abstract namespace); shm_name is capped at 64
  // bytes by Config::validate, so the tag always fits sun_path.
  std::memcpy(sa->sun_path + 1, tag.data(), tag.size());
  ep.len = static_cast<socklen_t>(offsetof(sockaddr_un, sun_path) + 1 +
                                  tag.size());
  ep.name = "@" + tag;
  return ep;
}

void ShmMesh::link(int fd, int peer) {
  const int me = cfg_.rank;
  const std::uint64_t len = shm_segment_bytes(cfg_);
  if (me < peer) {
    // The pair's lower (accepting) rank creates the segment and passes it.
    const FdGuard seg{create_segment(peer)};
    send_fd_with_len(fd, seg.fd, len, me, peer);
    return;
  }
  // The higher (dialing) rank maps it; the mapping outlives the fd. A close
  // here is fatal: that peer committed to this build with its hello and
  // died.
  std::uint64_t announced = 0;
  const FdGuard seg{recv_fd_with_len(fd, &announced, me, peer,
                                     cfg_.tcp_connect_timeout_ms)};
  if (announced != len) {
    throw BspTransportError(
        "shm segment size mismatch: rank " + std::to_string(peer) +
            " announced " + std::to_string(announced) +
            " bytes, this rank's shm_ring_bytes/shm_slab_bytes expect " +
            std::to_string(len) + " (ranks launched with different configs?)",
        me, peer, /*superstep=*/-1, /*stage=*/-1, /*err=*/0,
        /*bytes_moved=*/0);
  }
  adopt_segment(seg.fd, peer);
}

ShmPairView* ShmMesh::shm_pair(int pid, int peer) {
  if (pid != cfg_.rank || peer == pid) return nullptr;
  if (peer < 0 || peer >= nprocs_) return nullptr;
  if (maps_[static_cast<std::size_t>(peer)].base == nullptr) return nullptr;
  return &pairs_[static_cast<std::size_t>(peer)];
}

int ShmMesh::create_segment(int peer) {
  const int me = cfg_.rank;
  const std::size_t len = shm_segment_bytes(cfg_);
  const std::string tag = "gbsp-shm." + cfg_.shm_name + "." +
                          std::to_string(std::min(me, peer)) + "-" +
                          std::to_string(std::max(me, peer));
  const int seg_fd = ::memfd_create(tag.c_str(), MFD_CLOEXEC);
  if (seg_fd < 0) {
    throw BspTransportError("memfd_create for the shm pair segment failed",
                            me, peer, /*superstep=*/-1, /*stage=*/-1, errno,
                            /*bytes_moved=*/0);
  }
  if (::ftruncate(seg_fd, static_cast<off_t>(len)) != 0) {
    const int err = errno;
    ::close(seg_fd);
    throw BspTransportError(
        "ftruncate of the shm pair segment to " + std::to_string(len) +
            " bytes failed",
        me, peer, /*superstep=*/-1, /*stage=*/-1, err, /*bytes_moved=*/0);
  }
  void* base =
      ::mmap(nullptr, len, PROT_READ | PROT_WRITE, MAP_SHARED, seg_fd, 0);
  if (base == MAP_FAILED) {
    const int err = errno;
    ::close(seg_fd);
    throw BspTransportError("mmap of the shm pair segment failed", me, peer,
                            /*superstep=*/-1, /*stage=*/-1, err,
                            /*bytes_moved=*/0);
  }
  // memfd pages are born zero — already the rings' initial cursor state —
  // but the header and control blocks still get explicit construction.
  auto* hdr = new (base) ShmSegmentHdr;
  hdr->nprocs = static_cast<std::uint32_t>(nprocs_);
  hdr->rank_lo = static_cast<std::uint32_t>(std::min(me, peer));
  hdr->rank_hi = static_cast<std::uint32_t>(std::max(me, peer));
  hdr->ring_bytes = cfg_.shm_ring_bytes;
  hdr->slab_bytes = cfg_.shm_slab_bytes;
  const std::size_t dir = shm_dir_bytes(cfg_);
  new (static_cast<std::byte*>(base) + kShmPage) ShmRingCtl{};
  new (static_cast<std::byte*>(base) + kShmPage + dir) ShmRingCtl{};
  maps_[static_cast<std::size_t>(peer)] = Mapping{base, len};
  wire_views(base, peer);
  return seg_fd;
}

void ShmMesh::adopt_segment(int seg_fd, int peer) {
  const int me = cfg_.rank;
  struct stat st {};
  if (::fstat(seg_fd, &st) != 0) {
    throw BspTransportError("fstat of the received shm segment fd failed", me,
                            peer, /*superstep=*/-1, /*stage=*/-1, errno,
                            /*bytes_moved=*/0);
  }
  const std::size_t want = shm_segment_bytes(cfg_);
  if (static_cast<std::size_t>(st.st_size) != want) {
    throw BspTransportError(
        "shm segment size mismatch: rank " + std::to_string(peer) + " sent " +
            std::to_string(st.st_size) +
            " bytes, this rank's shm_ring_bytes/shm_slab_bytes expect " +
            std::to_string(want) + " (ranks launched with different configs?)",
        me, peer, /*superstep=*/-1, /*stage=*/-1, /*err=*/0,
        /*bytes_moved=*/0);
  }
  void* base =
      ::mmap(nullptr, want, PROT_READ | PROT_WRITE, MAP_SHARED, seg_fd, 0);
  if (base == MAP_FAILED) {
    throw BspTransportError("mmap of the received shm segment failed", me,
                            peer, /*superstep=*/-1, /*stage=*/-1, errno,
                            /*bytes_moved=*/0);
  }
  const auto* hdr = static_cast<const ShmSegmentHdr*>(base);
  std::string why;
  if (hdr->magic != ShmSegmentHdr::kMagic) {
    why = "bad segment magic (not a gbsp shm segment?)";
  } else if (hdr->version != ShmSegmentHdr::kVersion) {
    why = "segment protocol v" + std::to_string(hdr->version) +
          ", this build expects v" + std::to_string(ShmSegmentHdr::kVersion);
  } else if (hdr->nprocs != static_cast<std::uint32_t>(nprocs_)) {
    why = "segment built for " + std::to_string(hdr->nprocs) +
          " ranks, this rank expects " + std::to_string(nprocs_);
  } else if (hdr->rank_lo != static_cast<std::uint32_t>(std::min(me, peer)) ||
             hdr->rank_hi != static_cast<std::uint32_t>(std::max(me, peer))) {
    why = "segment belongs to pair (" + std::to_string(hdr->rank_lo) + ", " +
          std::to_string(hdr->rank_hi) + "), expected (" +
          std::to_string(std::min(me, peer)) + ", " +
          std::to_string(std::max(me, peer)) + ")";
  } else if (hdr->ring_bytes != cfg_.shm_ring_bytes) {
    why = "ring-size mismatch: segment rings are " +
          std::to_string(hdr->ring_bytes) +
          " bytes, this rank's shm_ring_bytes=" +
          std::to_string(cfg_.shm_ring_bytes);
  } else if (hdr->slab_bytes != cfg_.shm_slab_bytes) {
    why = "slab-size mismatch: segment slabs are " +
          std::to_string(hdr->slab_bytes) +
          " bytes, this rank's shm_slab_bytes=" +
          std::to_string(cfg_.shm_slab_bytes);
  }
  if (!why.empty()) {
    ::munmap(base, want);
    throw BspTransportError("shm segment validation failed: " + why, me, peer,
                            /*superstep=*/-1, /*stage=*/-1, /*err=*/0,
                            /*bytes_moved=*/0);
  }
  maps_[static_cast<std::size_t>(peer)] = Mapping{base, want};
  wire_views(base, peer);
}

void ShmMesh::wire_views(void* base, int peer) {
  const int me = cfg_.rank;
  const std::size_t dir = shm_dir_bytes(cfg_);
  std::byte* b = static_cast<std::byte*>(base);
  const auto view = [&](std::size_t off) {
    ShmDirView d;
    d.ctl = reinterpret_cast<ShmRingCtl*>(b + off);
    d.ring = b + off + kShmPage;
    d.ring_cap = cfg_.shm_ring_bytes;
    d.slab = b + off + kShmPage + page_up(cfg_.shm_ring_bytes);
    d.slab_cap = cfg_.shm_slab_bytes;
    return d;
  };
  const ShmDirView d0 = view(kShmPage);        // lo -> hi direction
  const ShmDirView d1 = view(kShmPage + dir);  // hi -> lo direction
  ShmPairView& pv = pairs_[static_cast<std::size_t>(peer)];
  if (me < peer) {
    pv.send = d0;
    pv.recv = d1;
  } else {
    pv.send = d1;
    pv.recv = d0;
  }
}

}  // namespace detail
}  // namespace gbsp
