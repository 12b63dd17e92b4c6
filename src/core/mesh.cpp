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
#include <limits>
#include <new>
#include <string>
#include <thread>

#include "core/transport.hpp"  // BspTransportError

namespace gbsp {
namespace detail {

namespace {

/// Largest kernel buffer the adaptive sizing will ever request. Beyond a few
/// MiB the transfer is syscall-bound anyway and the pumps stream through the
/// buffer; unbounded requests would just pin memory per endpoint.
constexpr std::size_t kMaxKernelBufBytes = std::size_t{1} << 22;

void set_nonblocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0 || ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) < 0) {
    throw BspTransportError("fcntl(O_NONBLOCK) failed", /*rank=*/-1,
                            /*peer=*/-1, /*superstep=*/-1, /*stage=*/-1,
                            errno, /*bytes_moved=*/0);
  }
}

std::size_t kernel_buf_bytes(int fd, int opt) {
  int v = 0;
  socklen_t len = sizeof(v);
  if (::getsockopt(fd, SOL_SOCKET, opt, &v, &len) != 0 || v < 0) return 0;
  return static_cast<std::size_t>(v);
}

void request_kernel_buf(int fd, int opt, std::size_t bytes) {
  const int v = static_cast<int>(std::min(
      bytes, static_cast<std::size_t>(std::numeric_limits<int>::max())));
  // Best effort: the kernel clamps to its rmem/wmem limits, and the
  // partial-I/O pumps are correct at any buffer size.
  (void)::setsockopt(fd, SOL_SOCKET, opt, &v, sizeof(v));
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

std::string endpoint_str(const std::string& host, int port) {
  return host + ":" + std::to_string(port);
}

}  // namespace

// ---------------------------------------------------------------------- Mesh

void Mesh::build(int nprocs) {
  teardown();
  nprocs_ = nprocs;
  const std::size_t n2 =
      static_cast<std::size_t>(nprocs) * static_cast<std::size_t>(nprocs);
  snd_grown_to_.assign(n2, 0);
  rcv_grown_to_.assign(n2, 0);
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

void Mesh::grow_kernel_buffer(int pid, int peer, bool send_side,
                              std::size_t stage_bytes) {
  if (cfg_.socket_buffer_bytes != 0) return;  // pinned at build time
  const std::size_t want = std::min(stage_bytes, kMaxKernelBufBytes);
  std::size_t& mark = send_side ? snd_grown_to_[mark_index(pid, peer)]
                                : rcv_grown_to_[mark_index(pid, peer)];
  if (want <= mark) return;
  mark = want;
  request_kernel_buf(fd(pid, peer), send_side ? SO_SNDBUF : SO_RCVBUF, want);
}

void Mesh::seed_buffer_marks(int pid, int peer) {
  const int f = fd(pid, peer);
  snd_grown_to_[mark_index(pid, peer)] = kernel_buf_bytes(f, SO_SNDBUF);
  rcv_grown_to_[mark_index(pid, peer)] = kernel_buf_bytes(f, SO_RCVBUF);
}

void Mesh::apply_endpoint_options(int fd) const {
  set_nonblocking(fd);
  if (cfg_.socket_buffer_bytes != 0) {
    // Pinned mode: one explicit request per endpoint, no adaptive growth.
    request_kernel_buf(fd, SO_SNDBUF, cfg_.socket_buffer_bytes);
    request_kernel_buf(fd, SO_RCVBUF, cfg_.socket_buffer_bytes);
  }
}

void Mesh::send_hello(int fd, int peer) const {
  RankHello h;
  h.rank = static_cast<std::uint32_t>(cfg_.rank);
  h.nprocs = static_cast<std::uint32_t>(nprocs_);
  int err = 0;
  if (!write_full(fd, &h, sizeof(h), &err)) {
    throw BspTransportError("failed to send the rank handshake",
                            cfg_.rank, peer, /*superstep=*/-1,
                            /*stage=*/-1, err, /*bytes_moved=*/0);
  }
}

RankHello Mesh::recv_hello(int fd, int peer) const {
  RankHello h;
  int err = 0;
  if (!read_full(fd, &h, sizeof(h), &err)) {
    if (err == 0) {
      throw BspTransportError(
          "peer closed the connection during the rank handshake (peer died "
          "during accept?)",
          cfg_.rank, peer, /*superstep=*/-1, /*stage=*/-1, /*err=*/0,
          /*bytes_moved=*/0);
    }
    if (err == EAGAIN || err == EWOULDBLOCK) {
      throw BspTransportError(
          "rank handshake timed out after tcp_connect_timeout_ms=" +
              std::to_string(cfg_.tcp_connect_timeout_ms) + "ms",
          cfg_.rank, peer, /*superstep=*/-1, /*stage=*/-1, /*err=*/0,
          /*bytes_moved=*/0);
    }
    throw BspTransportError("failed to read the rank handshake",
                            cfg_.rank, peer, /*superstep=*/-1,
                            /*stage=*/-1, err, /*bytes_moved=*/0);
  }
  return h;
}

void Mesh::check_hello(const RankHello& h, int expect_rank, const char* link,
                       const char* cause) const {
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
              std::to_string(expect_rank) + " on this " + link +
              ", peer claims rank " + std::to_string(h.rank) + " (" + cause +
              ")",
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
  if (fd(me, static_cast<int>(h.rank)) >= 0) {
    throw BspTransportError(
        "duplicate rank handshake: rank " + std::to_string(h.rank) +
            " connected twice (two processes launched with the same "
            "GBSP_RANK?)",
        me, static_cast<int>(h.rank), /*superstep=*/-1, /*stage=*/-1,
        /*err=*/0, /*bytes_moved=*/0);
  }
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
      seed_buffer_marks(static_cast<int>(i), static_cast<int>(j));
      seed_buffer_marks(static_cast<int>(j), static_cast<int>(i));
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

// ----------------------------------------------------------------- TcpMesh

void TcpMesh::teardown() {
  for (int& fd : fd_) {
    if (fd >= 0) ::close(fd);
    fd = -1;
  }
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
}

int TcpMesh::fd(int pid, int peer) const {
  if (pid != cfg_.rank) return -1;  // only the local rank has endpoints
  return fd_[static_cast<std::size_t>(peer)];
}

void TcpMesh::kill_endpoints(int pid) {
  mark_dirty();
  if (pid != cfg_.rank) return;
  for (int fd : fd_) {
    if (fd >= 0) ::shutdown(fd, SHUT_RDWR);
  }
}

void TcpMesh::do_build(int nprocs) {
  const int me = cfg_.rank;
  fd_.assign(static_cast<std::size_t>(nprocs), -1);

  in_addr host_addr{};
  if (::inet_pton(AF_INET, cfg_.tcp_host.c_str(), &host_addr) != 1) {
    throw BspTransportError(
        "tcp_host \"" + cfg_.tcp_host + "\" is not a numeric IPv4 address",
        me, /*peer=*/-1, /*superstep=*/-1, /*stage=*/-1, /*err=*/0,
        /*bytes_moved=*/0);
  }
  const auto deadline =
      Clock::now() + std::chrono::milliseconds(cfg_.tcp_connect_timeout_ms);

  // 1. Listener first, before any connect: across processes the bootstrap is
  // deadlock-free because every rank's listener exists (or will shortly —
  // connectors retry) before anyone blocks in accept.
  const int my_port = cfg_.tcp_port + me;
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    throw BspTransportError("socket(AF_INET) failed", me, /*peer=*/-1,
                            /*superstep=*/-1, /*stage=*/-1, errno,
                            /*bytes_moved=*/0);
  }
  const int one = 1;
  // SO_REUSEADDR: a rebuild (wire-dirty retry) must re-bind the same port
  // while the previous incarnation's accepted sockets sit in TIME_WAIT.
  (void)::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in sa{};
  sa.sin_family = AF_INET;
  sa.sin_addr = host_addr;
  sa.sin_port = htons(static_cast<std::uint16_t>(my_port));
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&sa), sizeof(sa)) != 0) {
    throw BspTransportError(
        "bind(" + endpoint_str(cfg_.tcp_host, my_port) + ") for rank " +
            std::to_string(me) + " failed (port already in use?)",
        me, /*peer=*/-1, /*superstep=*/-1, /*stage=*/-1, errno,
        /*bytes_moved=*/0);
  }
  if (::listen(listen_fd_, nprocs) != 0) {
    throw BspTransportError(
        "listen(" + endpoint_str(cfg_.tcp_host, my_port) + ") failed", me,
        /*peer=*/-1, /*superstep=*/-1, /*stage=*/-1, errno,
        /*bytes_moved=*/0);
  }

  // 2. Connect to every lower rank's listener (the pair orientation: higher
  // rank dials, lower rank answers). ECONNREFUSED just means that rank's
  // listener is not up yet — retry until the deadline.
  for (int j = 0; j < me; ++j) {
    const int peer_port = cfg_.tcp_port + j;
    int fd = -1;
    for (;;) {
      if (Clock::now() >= deadline) {
        throw BspTransportError(
            "connect to rank " + std::to_string(j) + " at " +
                endpoint_str(cfg_.tcp_host, peer_port) +
                " timed out after tcp_connect_timeout_ms=" +
                std::to_string(cfg_.tcp_connect_timeout_ms) +
                "ms (rank never launched, or died during bootstrap?)",
            me, j, /*superstep=*/-1, /*stage=*/-1, /*err=*/0,
            /*bytes_moved=*/0);
      }
      fd = ::socket(AF_INET, SOCK_STREAM, 0);
      if (fd < 0) {
        throw BspTransportError("socket(AF_INET) failed", me, j,
                                /*superstep=*/-1, /*stage=*/-1, errno,
                                /*bytes_moved=*/0);
      }
      sockaddr_in pa{};
      pa.sin_family = AF_INET;
      pa.sin_addr = host_addr;
      pa.sin_port = htons(static_cast<std::uint16_t>(peer_port));
      set_io_timeout(fd, remaining_ms(deadline));
      if (::connect(fd, reinterpret_cast<sockaddr*>(&pa), sizeof(pa)) == 0) {
        // Handshake: the dialing side speaks first. A peer that resets or
        // closes underneath the handshake is treated like a refused connect
        // (it may be tearing down a previous incarnation) and retried until
        // the deadline; a malformed or mismatched hello is fatal.
        try {
          send_hello(fd, j);
          const RankHello h = recv_hello(fd, j);
          check_hello(h, /*expect_rank=*/j, "port", "port map skewed?");
          break;
        } catch (const BspTransportError& e) {
          ::close(fd);
          fd = -1;
          if (e.err == ECONNRESET || e.err == EPIPE ||
              (e.err == 0 && std::string(e.what()).find("peer closed") !=
                                 std::string::npos)) {
            std::this_thread::sleep_for(std::chrono::milliseconds(2));
            continue;
          }
          throw;
        }
      }
      const int cerr = errno;
      ::close(fd);
      fd = -1;
      if (cerr == ECONNREFUSED || cerr == ETIMEDOUT || cerr == EINTR ||
          cerr == EAGAIN || cerr == EINPROGRESS) {
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
        continue;
      }
      throw BspTransportError(
          "connect to rank " + std::to_string(j) + " at " +
              endpoint_str(cfg_.tcp_host, peer_port) + " failed",
          me, j, /*superstep=*/-1, /*stage=*/-1, cerr, /*bytes_moved=*/0);
    }
    fd_[static_cast<std::size_t>(j)] = fd;
  }

  // 3. Accept every higher rank. The hello tells us who dialed in; a
  // connection that fails its handshake fails the whole bootstrap — the
  // caller tears down and (on retry) rebuilds from scratch.
  int expected = nprocs - 1 - me;
  while (expected > 0) {
    pollfd pfd{listen_fd_, POLLIN, 0};
    const int pr = ::poll(&pfd, 1, remaining_ms(deadline));
    if (pr < 0) {
      if (errno == EINTR) continue;
      throw BspTransportError("poll on the mesh listener failed", me,
                              /*peer=*/-1, /*superstep=*/-1, /*stage=*/-1,
                              errno, /*bytes_moved=*/0);
    }
    if (pr == 0) {
      throw BspTransportError(
          "accept on " + endpoint_str(cfg_.tcp_host, my_port) +
              " timed out with " + std::to_string(expected) +
              " rank(s) still unconnected (tcp_connect_timeout_ms=" +
              std::to_string(cfg_.tcp_connect_timeout_ms) + "ms)",
          me, /*peer=*/-1, /*superstep=*/-1, /*stage=*/-1, /*err=*/0,
          /*bytes_moved=*/0);
    }
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR || errno == ECONNABORTED) continue;
      throw BspTransportError("accept failed", me, /*peer=*/-1,
                              /*superstep=*/-1, /*stage=*/-1, errno,
                              /*bytes_moved=*/0);
    }
    set_io_timeout(fd, remaining_ms(deadline));
    RankHello h;
    try {
      h = recv_hello(fd, /*peer=*/-1);
      check_hello(h, /*expect_rank=*/-1);
      send_hello(fd, static_cast<int>(h.rank));
    } catch (...) {
      ::close(fd);
      throw;
    }
    fd_[h.rank] = fd;
    --expected;
  }
  // Bootstrap complete: close the listener so nothing can dial in mid-run
  // (a skewed retry attempt gets ECONNREFUSED and keeps retrying until this
  // rank reaches its own rebuild).
  ::close(listen_fd_);
  listen_fd_ = -1;

  // 4. Stage-traffic socket options, now that the blocking handshake is done.
  for (int j = 0; j < nprocs; ++j) {
    const int fd = fd_[static_cast<std::size_t>(j)];
    if (fd < 0) continue;
    set_io_timeout(fd, 0);  // back to no-timeout; stage I/O is non-blocking
    // The staged exchange writes small control sections (24 B preamble)
    // followed by bulk payload; Nagle would hold the control bytes hostage
    // to the previous stage's ACKs.
    (void)::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    apply_endpoint_options(fd);
    seed_buffer_marks(me, j);
  }
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

/// Abstract-namespace AF_UNIX address of `rank`'s bootstrap listener:
/// "\0gbsp-shm.<shm_name>.<rank>". Abstract sockets vanish with their owning
/// process, so a crashed run leaves nothing on the filesystem to unlink.
socklen_t shm_abstract_addr(const Config& cfg, int rank, sockaddr_un* sa) {
  std::memset(sa, 0, sizeof(*sa));
  sa->sun_family = AF_UNIX;
  const std::string tag =
      "gbsp-shm." + cfg.shm_name + "." + std::to_string(rank);
  // sun_path[0] stays NUL (abstract namespace); shm_name is capped at 64
  // bytes by Config::validate, so the tag always fits sun_path.
  std::memcpy(sa->sun_path + 1, tag.data(), tag.size());
  return static_cast<socklen_t>(offsetof(sockaddr_un, sun_path) + 1 +
                                tag.size());
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
  for (int& fd : ctrl_) {
    if (fd >= 0) ::close(fd);
    fd = -1;
  }
  for (Mapping& m : maps_) {
    if (m.base != nullptr) ::munmap(m.base, m.len);
    m = Mapping{};
  }
  pairs_.assign(pairs_.size(), ShmPairView{});
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
}

int ShmMesh::fd(int pid, int peer) const {
  if (pid != cfg_.rank) return -1;  // only the local rank has endpoints
  return ctrl_[static_cast<std::size_t>(peer)];
}

void ShmMesh::kill_endpoints(int pid) {
  mark_dirty();
  if (pid != cfg_.rank) return;
  // shutdown, not close: the peer's engine observes EOF on its death-check
  // peek of the control stream, exactly as a real process death reads.
  for (int fd : ctrl_) {
    if (fd >= 0) ::shutdown(fd, SHUT_RDWR);
  }
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

void ShmMesh::do_build(int nprocs) {
  const int me = cfg_.rank;
  const std::size_t p = static_cast<std::size_t>(nprocs);
  ctrl_.assign(p, -1);
  pairs_.assign(p, ShmPairView{});
  maps_.assign(p, Mapping{});

  const auto deadline =
      Clock::now() + std::chrono::milliseconds(cfg_.tcp_connect_timeout_ms);

  // 1. Listener first — the same deadlock-free shape as the TCP bootstrap:
  // every rank's listener exists (or shortly will; dialers retry) before
  // anyone blocks in accept.
  listen_fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    throw BspTransportError("socket(AF_UNIX) failed", me, /*peer=*/-1,
                            /*superstep=*/-1, /*stage=*/-1, errno,
                            /*bytes_moved=*/0);
  }
  sockaddr_un sa;
  const socklen_t salen = shm_abstract_addr(cfg_, me, &sa);
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&sa), salen) != 0) {
    throw BspTransportError(
        "bind of abstract socket \"gbsp-shm." + cfg_.shm_name + "." +
            std::to_string(me) + "\" failed (another rank " +
            std::to_string(me) + " already running under this shm_name?)",
        me, /*peer=*/-1, /*superstep=*/-1, /*stage=*/-1, errno,
        /*bytes_moved=*/0);
  }
  if (::listen(listen_fd_, nprocs) != 0) {
    throw BspTransportError("listen on the shm bootstrap socket failed", me,
                            /*peer=*/-1, /*superstep=*/-1, /*stage=*/-1,
                            errno, /*bytes_moved=*/0);
  }

  // 2. Dial every lower rank's listener; after the hello exchange the lower
  // rank hands over the pair segment's memfd, which this side maps and
  // validates. ECONNREFUSED just means that rank's listener is not up yet.
  for (int j = 0; j < me; ++j) {
    int fd = -1;
    for (;;) {
      if (Clock::now() >= deadline) {
        throw BspTransportError(
            "connect to rank " + std::to_string(j) +
                "'s shm bootstrap socket timed out after "
                "tcp_connect_timeout_ms=" +
                std::to_string(cfg_.tcp_connect_timeout_ms) +
                "ms (rank never launched, or died during bootstrap?)",
            me, j, /*superstep=*/-1, /*stage=*/-1, /*err=*/0,
            /*bytes_moved=*/0);
      }
      fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
      if (fd < 0) {
        throw BspTransportError("socket(AF_UNIX) failed", me, j,
                                /*superstep=*/-1, /*stage=*/-1, errno,
                                /*bytes_moved=*/0);
      }
      sockaddr_un pa;
      const socklen_t palen = shm_abstract_addr(cfg_, j, &pa);
      set_io_timeout(fd, remaining_ms(deadline));
      if (::connect(fd, reinterpret_cast<sockaddr*>(&pa), palen) == 0) {
        // A peer that closes underneath the HANDSHAKE may be tearing down a
        // previous incarnation — retry like a refused connect. A close
        // during the segment HANDOFF (after a validated hello) is fatal:
        // that peer committed to this build and died.
        try {
          send_hello(fd, j);
          const RankHello h = recv_hello(fd, j);
          check_hello(h, /*expect_rank=*/j, "socket",
                      "shm_name collision between runs?");
          std::uint64_t seg_len = 0;
          const int seg_fd = recv_fd_with_len(fd, &seg_len, me, j,
                                              cfg_.tcp_connect_timeout_ms);
          try {
            if (seg_len != shm_segment_bytes(cfg_)) {
              throw BspTransportError(
                  "shm segment size mismatch: rank " + std::to_string(j) +
                      " announced " + std::to_string(seg_len) +
                      " bytes, this rank's shm_ring_bytes/shm_slab_bytes "
                      "expect " +
                      std::to_string(shm_segment_bytes(cfg_)) +
                      " (ranks launched with different configs?)",
                  me, j, /*superstep=*/-1, /*stage=*/-1, /*err=*/0,
                  /*bytes_moved=*/0);
            }
            adopt_segment(seg_fd, j);
          } catch (...) {
            ::close(seg_fd);
            throw;
          }
          ::close(seg_fd);  // the mapping outlives the fd
          break;
        } catch (const BspTransportError& e) {
          ::close(fd);
          fd = -1;
          if (e.err == ECONNRESET || e.err == EPIPE ||
              (e.err == 0 &&
               std::string(e.what()).find(
                   "peer closed the connection during the rank handshake") !=
                   std::string::npos)) {
            std::this_thread::sleep_for(std::chrono::milliseconds(2));
            continue;
          }
          throw;
        }
      }
      const int cerr = errno;
      ::close(fd);
      fd = -1;
      if (cerr == ECONNREFUSED || cerr == ENOENT || cerr == ETIMEDOUT ||
          cerr == EINTR || cerr == EAGAIN) {
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
        continue;
      }
      throw BspTransportError(
          "connect to rank " + std::to_string(j) +
              "'s shm bootstrap socket failed",
          me, j, /*superstep=*/-1, /*stage=*/-1, cerr, /*bytes_moved=*/0);
    }
    ctrl_[static_cast<std::size_t>(j)] = fd;
  }

  // 3. Accept every higher rank; this side creates each pair's segment and
  // passes the fd. A failed handshake or handoff fails the whole bootstrap.
  int expected = nprocs - 1 - me;
  while (expected > 0) {
    pollfd pfd{listen_fd_, POLLIN, 0};
    const int pr = ::poll(&pfd, 1, remaining_ms(deadline));
    if (pr < 0) {
      if (errno == EINTR) continue;
      throw BspTransportError("poll on the shm bootstrap listener failed", me,
                              /*peer=*/-1, /*superstep=*/-1, /*stage=*/-1,
                              errno, /*bytes_moved=*/0);
    }
    if (pr == 0) {
      throw BspTransportError(
          "accept on abstract socket \"gbsp-shm." + cfg_.shm_name + "." +
              std::to_string(me) + "\" timed out with " +
              std::to_string(expected) +
              " rank(s) still unconnected (tcp_connect_timeout_ms=" +
              std::to_string(cfg_.tcp_connect_timeout_ms) + "ms)",
          me, /*peer=*/-1, /*superstep=*/-1, /*stage=*/-1, /*err=*/0,
          /*bytes_moved=*/0);
    }
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR || errno == ECONNABORTED) continue;
      throw BspTransportError("accept on the shm bootstrap socket failed", me,
                              /*peer=*/-1, /*superstep=*/-1, /*stage=*/-1,
                              errno, /*bytes_moved=*/0);
    }
    set_io_timeout(fd, remaining_ms(deadline));
    int seg_fd = -1;
    try {
      const RankHello h = recv_hello(fd, /*peer=*/-1);
      check_hello(h, /*expect_rank=*/-1);
      send_hello(fd, static_cast<int>(h.rank));
      seg_fd = create_segment(static_cast<int>(h.rank));
      send_fd_with_len(fd, seg_fd, shm_segment_bytes(cfg_), me,
                       static_cast<int>(h.rank));
      ::close(seg_fd);
      seg_fd = -1;
      ctrl_[h.rank] = fd;
    } catch (...) {
      if (seg_fd >= 0) ::close(seg_fd);
      ::close(fd);
      throw;
    }
    --expected;
  }
  // Bootstrap complete: close the listener so nothing can dial in mid-run.
  ::close(listen_fd_);
  listen_fd_ = -1;

  // 4. The control streams carry no stage traffic; drop the handshake
  // timeout so the engine's death-detection peek never sees a spurious
  // timeout errno.
  for (std::size_t j = 0; j < p; ++j) {
    if (ctrl_[j] >= 0) set_io_timeout(ctrl_[j], 0);
  }
}

}  // namespace detail
}  // namespace gbsp
