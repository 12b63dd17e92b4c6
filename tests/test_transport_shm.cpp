// The staged transport over the cross-process shared-memory mesh, exercised
// inside ONE test process: abstract AF_UNIX sockets and memfd mappings do
// not care that the p ranks are threads rather than processes, so each
// "rank" here is a thread owning its own rank-r Config, ShmMesh/Runtime, and
// slice of a per-test segment name — exactly what p bsp_launch children
// would own.
// (The true multi-process path is covered by scripts/run_proc_smoke.sh,
// which drives the real launcher.)
//
// Covered seams: the mesh bootstrap (full p-rank build with fd-passed pair
// segments, the failure matrix — the rendezvous rows shared with the tcp
// mesh, fd-pass death, geometry mismatches, rank collisions — each with its
// descriptive BspTransportError), the end-to-end Runtime exchange across
// ranks, mesh reuse across clean runs, peer death mid-stage surfacing
// through the control channel (and a peer's clean end-of-run teardown NOT
// surfacing as one), and the zero-copy slab path (threshold routing, stats,
// epoch recycling, the reuse-after-recycle guard's inline fallback). The
// rows shared with the other meshes live in staged_rows.hpp.
#include <gtest/gtest.h>

#include <sys/mman.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <array>
#include <atomic>
#include <cstddef>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "core/mesh.hpp"
#include "core/runtime.hpp"
#include "core/shm_ring.hpp"
#include "core/transport.hpp"
#include "core/transport_staged.hpp"
#include "staged_rows.hpp"

namespace gbsp {
namespace {

// Per-test segment namespace: the pid isolates parallel ctest invocations
// of this binary, the slot isolates tests within one invocation.
std::string seg_name(int test_slot) {
  return "t" + std::to_string(static_cast<long>(::getpid())) + "s" +
         std::to_string(test_slot);
}

Config rank_cfg(int rank, int nprocs, const std::string& name) {
  Config cfg;
  cfg.nprocs = nprocs;
  cfg.delivery = DeliveryStrategy::Shm;
  cfg.rank = rank;
  cfg.shm_name = name;
  cfg.collect_stats = true;
  return cfg;
}

using staged_rows::on_ranks;

// A raw AF_UNIX client for impersonating a (broken) peer during bootstrap:
// dials `rank`'s abstract listener for segment namespace `name`.
int dial(const std::string& name, int rank) {
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  sockaddr_un sa{};
  sa.sun_family = AF_UNIX;
  const std::string tag = "gbsp-shm." + name + "." + std::to_string(rank);
  std::memcpy(sa.sun_path + 1, tag.data(), tag.size());
  const socklen_t salen =
      static_cast<socklen_t>(offsetof(sockaddr_un, sun_path) + 1 + tag.size());
  int rc = -1;
  for (int tries = 0; tries < 500; ++tries) {
    rc = ::connect(fd, reinterpret_cast<sockaddr*>(&sa), salen);
    if (rc == 0) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  EXPECT_EQ(rc, 0) << "fake peer could not reach the shm bootstrap listener";
  return fd;
}

// A raw listener on `rank`'s abstract bootstrap address for segment
// namespace `name`, for impersonating that rank.
int listen_as(const std::string& name, int rank) {
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  sockaddr_un sa{};
  sa.sun_family = AF_UNIX;
  const std::string tag = "gbsp-shm." + name + "." + std::to_string(rank);
  std::memcpy(sa.sun_path + 1, tag.data(), tag.size());
  const socklen_t salen =
      static_cast<socklen_t>(offsetof(sockaddr_un, sun_path) + 1 + tag.size());
  EXPECT_EQ(::bind(fd, reinterpret_cast<sockaddr*>(&sa), salen), 0);
  EXPECT_EQ(::listen(fd, 4), 0);
  return fd;
}

// Passes `seg_fd` and its announced length `len` over `sock` the way a
// segment's creating rank does: the SCM_RIGHTS cmsg rides the length word.
void pass_segment(int sock, int seg_fd, std::uint64_t len) {
  iovec iov{&len, sizeof(len)};
  alignas(cmsghdr) char cbuf[CMSG_SPACE(sizeof(int))] = {};
  msghdr msg{};
  msg.msg_iov = &iov;
  msg.msg_iovlen = 1;
  msg.msg_control = cbuf;
  msg.msg_controllen = sizeof(cbuf);
  cmsghdr* cm = CMSG_FIRSTHDR(&msg);
  cm->cmsg_level = SOL_SOCKET;
  cm->cmsg_type = SCM_RIGHTS;
  cm->cmsg_len = CMSG_LEN(sizeof(int));
  std::memcpy(CMSG_DATA(cm), &seg_fd, sizeof(int));
  EXPECT_EQ(::sendmsg(sock, &msg, MSG_NOSIGNAL),
            static_cast<ssize_t>(sizeof(len)));
}

// The shm medium of test slot `slot`, for the bootstrap rows shared with the
// tcp mesh (staged_rows.hpp).
staged_rows::Medium shm(int slot) {
  const std::string name = seg_name(slot);
  return {[name](int r, int p) { return rank_cfg(r, p, name); },
          [name] { return dial(name, 0); },
          [name] { return listen_as(name, 0); },
          "shm_name collision between runs?"};
}

// --------------------------------------------------------------------------
// Mesh bootstrap: the happy path.
// --------------------------------------------------------------------------

TEST(ShmMeshBootstrap, FullMeshAcrossFourRanks) {
  const int p = 4;
  const std::string name = seg_name(0);
  on_ranks(p, [&](int r) {
    const Config cfg = rank_cfg(r, p, name);
    detail::ShmMesh mesh(cfg);
    EXPECT_TRUE(mesh.dirty()) << "a fresh mesh must start dirty";
    mesh.build(p);
    EXPECT_FALSE(mesh.dirty());
    EXPECT_EQ(mesh.builds(), 1u);
    EXPECT_EQ(mesh.fd(r, r), -1) << "self-delivery never touches the wire";
    EXPECT_EQ(mesh.shm_pair(r, r), nullptr);
    for (int peer = 0; peer < p; ++peer) {
      if (peer == r) continue;
      EXPECT_GE(mesh.fd(r, peer), 0)
          << "control channel " << r << " <-> " << peer;
      detail::ShmPairView* pv = mesh.shm_pair(r, peer);
      ASSERT_NE(pv, nullptr) << "pair view " << r << " <-> " << peer;
      ASSERT_NE(pv->send.ctl, nullptr);
      ASSERT_NE(pv->recv.ctl, nullptr);
      EXPECT_GT(pv->send.ring_cap, 0u);
      EXPECT_GT(pv->send.slab_cap, 0u);
    }
    // One byte each way per pair through the rings proves both ends mapped
    // the SAME segment with the directions crossed correctly.
    for (int peer = 0; peer < p; ++peer) {
      if (peer == r) continue;
      detail::ShmPairView* pv = mesh.shm_pair(r, peer);
      const std::byte out{static_cast<unsigned char>(0x40 + r)};
      iovec iov{const_cast<std::byte*>(&out), 1};
      ASSERT_EQ(detail::shm_ring_write(pv->send, &iov, 1, mesh.fd(r, peer)),
                1u);
    }
    for (int peer = 0; peer < p; ++peer) {
      if (peer == r) continue;
      detail::ShmPairView* pv = mesh.shm_pair(r, peer);
      std::byte in{};
      iovec iov{&in, 1};
      std::size_t got = 0;
      for (int tries = 0; tries < 2000 && got == 0; ++tries) {
        got = detail::shm_ring_read_iov(pv->recv, &iov, 1, mesh.fd(r, peer));
        if (got == 0) std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
      ASSERT_EQ(got, 1u);
      EXPECT_EQ(static_cast<int>(in), 0x40 + peer);
    }
  });
}

// --------------------------------------------------------------------------
// Mesh bootstrap failure modes. Each must throw a descriptive
// BspTransportError AND leave the mesh reusable (dirty, torn down, ready to
// build again).
// --------------------------------------------------------------------------

TEST(ShmMeshBootstrap, RankCollisionUnderOneNameIsDescriptive) {
  // Two processes launched with the same GBSP_RANK under one shm_name: the
  // second bind of the same abstract address must fail up front.
  const std::string name = seg_name(1);
  Config c0 = rank_cfg(0, 2, name);
  c0.tcp_connect_timeout_ms = 2'000;
  detail::ShmMesh first(c0);
  std::thread holder([&] {
    // Holds rank 0's listener long enough for the duplicate to collide;
    // its own (expected) accept timeout is swallowed.
    EXPECT_THROW(first.build(2), BspTransportError);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  detail::ShmMesh dup(rank_cfg(0, 2, name));
  try {
    dup.build(2);
    FAIL() << "two rank 0s under one shm_name must not both bind";
  } catch (const BspTransportError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("already running under this shm_name"),
              std::string::npos)
        << what;
  }
  EXPECT_TRUE(dup.dirty());
  EXPECT_EQ(dup.builds(), 0u);
  holder.join();
}

TEST(ShmMeshBootstrap, PeerDiesDuringSegmentHandoffIsDescriptive) {
  // Rank 1 dials a fake "rank 0" that completes the hello exchange but dies
  // before passing the segment fd — the committed-then-died case the
  // dialer must NOT retry (unlike a handshake-phase close).
  const std::string name = seg_name(2);
  const int lfd = listen_as(name, 0);
  std::thread fake_rank0([&] {
    const int fd = staged_rows::accept_hello(lfd);
    const detail::RankHello out = staged_rows::hello(0, 2);  // a valid hello
    staged_rows::send_all(fd, &out, sizeof(out));
    ::close(fd);  // die instead of passing the memfd
    ::close(lfd);
  });
  Config cfg = rank_cfg(1, 2, name);
  cfg.tcp_connect_timeout_ms = 5'000;
  detail::ShmMesh mesh(cfg);
  try {
    mesh.build(2);
    FAIL() << "a peer dying between hello and fd-pass must fail the build";
  } catch (const BspTransportError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("peer closed during segment handoff"),
              std::string::npos)
        << what;
  }
  EXPECT_TRUE(mesh.dirty());
  EXPECT_EQ(mesh.builds(), 0u);
  fake_rank0.join();

  // Reusable after failure: with a real rank 0 present, the same mesh
  // object bootstraps.
  std::thread peer([&] {
    Config pc = rank_cfg(0, 2, name);
    detail::ShmMesh pm(pc);
    pm.build(2);
    EXPECT_FALSE(pm.dirty());
  });
  mesh.build(2);
  EXPECT_FALSE(mesh.dirty());
  EXPECT_EQ(mesh.builds(), 1u);
  peer.join();
}

TEST(ShmMeshBootstrap, SegmentDataWithoutFdIsDescriptive) {
  // A fake "rank 0" that sends the 8-byte length word WITHOUT the
  // SCM_RIGHTS cmsg — stream data from something that is not a gbsp shm
  // rank must be diagnosed, not mmap'd.
  const std::string name = seg_name(3);
  const int lfd = listen_as(name, 0);
  std::thread fake_rank0([&] {
    const int fd = staged_rows::accept_hello(lfd);
    const detail::RankHello out = staged_rows::hello(0, 2);
    staged_rows::send_all(fd, &out, sizeof(out));
    const std::uint64_t len = 1 << 20;  // a length word, no cmsg
    staged_rows::send_all(fd, &len, sizeof(len));
    staged_rows::drain_and_close(fd);  // wait for the close
    ::close(lfd);
  });
  Config cfg = rank_cfg(1, 2, name);
  cfg.tcp_connect_timeout_ms = 5'000;
  detail::ShmMesh mesh(cfg);
  try {
    mesh.build(2);
    FAIL() << "segment bytes without SCM_RIGHTS must fail the handoff";
  } catch (const BspTransportError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("carried no fd"), std::string::npos) << what;
  }
  EXPECT_TRUE(mesh.dirty());
  fake_rank0.join();
}

TEST(ShmMeshBootstrap, RingSizeMismatchIsDescriptive) {
  // Ranks launched with different shm_ring_bytes/shm_slab_bytes whose
  // SEGMENT TOTALS happen to coincide: the announced-length check passes,
  // so the header validation must catch the geometry drift.
  const std::string name = seg_name(4);
  Config c0 = rank_cfg(0, 2, name);
  c0.shm_ring_bytes = std::size_t{64} << 10;
  c0.shm_slab_bytes = std::size_t{128} << 10;
  Config c1 = rank_cfg(1, 2, name);
  c1.shm_ring_bytes = std::size_t{128} << 10;  // swapped: same total bytes
  c1.shm_slab_bytes = std::size_t{64} << 10;
  c1.tcp_connect_timeout_ms = 5'000;
  std::thread rank0([&] {
    detail::ShmMesh m0(c0);
    // Rank 1 rejects the segment and aborts its build; rank 0's own build
    // either completes (handoff done before the peer died) or fails on the
    // severed stream — both are acceptable ends for the misconfigured run.
    try {
      m0.build(2);
    } catch (const BspTransportError&) {
    }
  });
  detail::ShmMesh m1(c1);
  try {
    m1.build(2);
    FAIL() << "segments with different ring geometry must not validate";
  } catch (const BspTransportError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("ring-size mismatch"), std::string::npos) << what;
    EXPECT_NE(what.find("shm_ring_bytes=131072"), std::string::npos) << what;
  }
  EXPECT_TRUE(m1.dirty());
  rank0.join();
}

TEST(ShmMeshBootstrap, SegmentSizeMismatchIsDescriptive) {
  // Plainly different segment totals: the announced length is rejected
  // before anything is mapped, naming both sides' expectations.
  const std::string name = seg_name(5);
  Config c0 = rank_cfg(0, 2, name);
  c0.shm_ring_bytes = std::size_t{64} << 10;
  c0.shm_slab_bytes = 0;  // zero-copy disabled on this rank only
  Config c1 = rank_cfg(1, 2, name);
  c1.shm_ring_bytes = std::size_t{64} << 10;
  c1.shm_slab_bytes = std::size_t{1} << 20;
  c1.tcp_connect_timeout_ms = 5'000;
  std::thread rank0([&] {
    detail::ShmMesh m0(c0);
    try {
      m0.build(2);
    } catch (const BspTransportError&) {
    }
  });
  detail::ShmMesh m1(c1);
  try {
    m1.build(2);
    FAIL() << "different segment totals must not validate";
  } catch (const BspTransportError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("shm segment size mismatch"), std::string::npos)
        << what;
    EXPECT_NE(what.find("different configs"), std::string::npos) << what;
  }
  EXPECT_TRUE(m1.dirty());
  rank0.join();
}

TEST(ShmMeshBootstrap, SegmentVersionMismatchIsDescriptive) {
  // A fake rank 0 completes the hello and passes a correctly sized segment
  // whose header speaks protocol v1, whose control blocks have no parked
  // flags and whose ranks never ring a doorbell: rank 1 must not map it.
  const std::string name = seg_name(26);
  Config cfg = rank_cfg(1, 2, name);
  cfg.shm_ring_bytes = std::size_t{64} << 10;
  cfg.shm_slab_bytes = 0;
  cfg.tcp_connect_timeout_ms = 5'000;
  // The header page, then two direction blocks of control page and ring.
  const std::uint64_t len = 4096 + 2 * (4096 + cfg.shm_ring_bytes);
  const int lfd = listen_as(name, 0);
  std::thread fake_rank0([&] {
    const int fd = staged_rows::accept_hello(lfd);
    const detail::RankHello out = staged_rows::hello(0, 2);
    staged_rows::send_all(fd, &out, sizeof(out));
    const int seg = ::memfd_create("gbsp-test-v1-segment", MFD_CLOEXEC);
    EXPECT_EQ(::ftruncate(seg, static_cast<off_t>(len)), 0);
    detail::ShmSegmentHdr hdr;
    hdr.version = 1;
    hdr.nprocs = 2;
    hdr.rank_lo = 0;
    hdr.rank_hi = 1;
    hdr.ring_bytes = cfg.shm_ring_bytes;
    hdr.slab_bytes = cfg.shm_slab_bytes;
    EXPECT_EQ(::pwrite(seg, &hdr, sizeof(hdr), 0),
              static_cast<ssize_t>(sizeof(hdr)));
    pass_segment(fd, seg, len);
    ::close(seg);
    staged_rows::drain_and_close(fd);
    ::close(lfd);
  });
  detail::ShmMesh mesh(cfg);
  staged_rows::expect_build_fails(
      mesh, 2, {"segment protocol v1, this build expects v2"});
  fake_rank0.join();
}

// The rows below run on the tcp mesh too (staged_rows.hpp).

TEST(ShmMeshBootstrap, HandshakeVersionMismatchIsDescriptive) {
  staged_rows::expect_bad_hello_rejected(shm(13),
                                         staged_rows::BadHello::Version);
}

TEST(ShmMeshBootstrap, HandshakeRankMismatchIsDescriptive) {
  staged_rows::expect_bad_hello_rejected(shm(14), staged_rows::BadHello::Rank);
}

TEST(ShmMeshBootstrap, HandshakeNprocsMismatchIsDescriptive) {
  staged_rows::expect_bad_hello_rejected(shm(15),
                                         staged_rows::BadHello::Nprocs);
}

TEST(ShmMeshBootstrap, HandshakeReservedFieldIsDescriptive) {
  staged_rows::expect_bad_hello_rejected(shm(19),
                                         staged_rows::BadHello::Reserved);
}

TEST(ShmMeshBootstrap, StrayClientWithBadMagicIsDescriptive) {
  staged_rows::stray_client_with_bad_magic(shm(6));
}

TEST(ShmMeshBootstrap, PartialConnectTimesOutDescriptively) {
  staged_rows::partial_connect_times_out(shm(16));
}

TEST(ShmMeshBootstrap, PartialAcceptTimesOutDescriptively) {
  staged_rows::partial_accept_times_out(shm(17));
}

TEST(ShmMeshBootstrap, PeerDeathDuringAcceptIsDescriptive) {
  staged_rows::peer_death_during_accept(shm(18));
}

TEST(ShmMeshBootstrap, DuplicateRankHandshakeIsDescriptive) {
  staged_rows::duplicate_rank_rejected(shm(20));
}

TEST(ShmMeshBootstrap, DialerRankMismatchIsDescriptive) {
  staged_rows::dialer_rank_mismatch(shm(21));
}

TEST(ShmMeshBootstrap, CloseDuringHelloIsRetried) {
  staged_rows::close_during_hello_is_retried(shm(22));
}

// --------------------------------------------------------------------------
// Ring doorbells, on one thread: a heap-backed ring direction, with a
// socketpair standing in for the pair's control stream.
// --------------------------------------------------------------------------

struct HeapRing {
  explicit HeapRing(std::size_t cap) : bytes(cap) {
    dir.ctl = &ctl;
    dir.ring = bytes.data();
    dir.ring_cap = cap;
    EXPECT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, bell), 0);
  }
  ~HeapRing() {
    ::close(bell[0]);
    ::close(bell[1]);
  }
  HeapRing(const HeapRing&) = delete;
  HeapRing& operator=(const HeapRing&) = delete;

  // The ring functions' side of the stream: where they ring.
  [[nodiscard]] int bell_fd() const { return bell[0]; }
  // Doorbell bytes waiting at the parked side's end; reading them drains
  // them.
  int rung() {
    char b[8];
    const ssize_t n = ::recv(bell[1], b, sizeof(b), MSG_DONTWAIT);
    return n < 0 ? 0 : static_cast<int>(n);
  }
  std::size_t write(std::size_t n) {
    std::vector<std::byte> out(n);
    iovec iov{out.data(), n};
    return detail::shm_ring_write(dir, &iov, 1, bell_fd());
  }
  std::size_t read(std::size_t n) {
    std::vector<std::byte> in(n);
    iovec iov{in.data(), n};
    return detail::shm_ring_read_iov(dir, &iov, 1, bell_fd());
  }

  detail::ShmRingCtl ctl{};
  std::vector<std::byte> bytes;
  detail::ShmDirView dir;
  int bell[2] = {-1, -1};
};

TEST(ShmRingDoorbell, PublishingWriteWakesAParkedReaderOnce) {
  HeapRing r(64);
  r.ctl.reader_parked.store(1);
  EXPECT_EQ(r.write(16), 16u);
  EXPECT_EQ(r.rung(), 1) << "a parked reader is owed exactly one doorbell";
  EXPECT_EQ(r.ctl.reader_parked.load(), 0u) << "the doorbell clears the flag";
  EXPECT_EQ(r.write(16), 16u);
  EXPECT_EQ(r.rung(), 0) << "with the flag clear, a write owes no doorbell";
}

TEST(ShmRingDoorbell, FreeingReadWakesAParkedWriterOnce) {
  HeapRing r(32);
  ASSERT_EQ(r.write(32), 32u);  // full
  r.ctl.writer_parked.store(1);
  EXPECT_EQ(r.read(8), 8u);
  EXPECT_EQ(r.rung(), 1) << "a parked writer is owed exactly one doorbell";
  EXPECT_EQ(r.ctl.writer_parked.load(), 0u) << "the doorbell clears the flag";
  EXPECT_EQ(r.read(8), 8u);
  EXPECT_EQ(r.rung(), 0) << "with the flag clear, a read owes no doorbell";
}

TEST(ShmRingDoorbell, CallsThatMoveNothingOweNothing) {
  HeapRing r(16);
  r.ctl.writer_parked.store(1);
  EXPECT_EQ(r.read(8), 0u);  // empty
  ASSERT_EQ(r.write(16), 16u);
  r.ctl.reader_parked.store(1);
  EXPECT_EQ(r.write(8), 0u);  // full
  EXPECT_EQ(r.rung(), 0) << "a call that moved no cursor rang a doorbell";
  EXPECT_EQ(r.ctl.reader_parked.load(), 1u);
  EXPECT_EQ(r.ctl.writer_parked.load(), 1u);
}

// --------------------------------------------------------------------------
// End-to-end: p single-rank Runtimes exchanging across the shm mesh.
// --------------------------------------------------------------------------

TEST(ShmRuntime, AllToAllAcrossRanks) {
  const int p = 4;
  const std::string name = seg_name(7);
  const int steps = 20;
  on_ranks(p, [&](int r) {
    Runtime rt(rank_cfg(r, p, name));
    EXPECT_STREQ(rt.transport().name(), "shm");
    const RunStats stats = rt.run([steps](Worker& w) {
      for (int s = 0; s < steps; ++s) {
        for (int d = 0; d < w.nprocs(); ++d) {
          if (d != w.pid()) w.send(d, w.pid() * 1000 + s);
        }
        w.sync();
        int got = 0;
        bool seen[8] = {};
        while (const Message* m = w.get_message()) {
          const int v = m->as<int>();
          EXPECT_EQ(v % 1000, s);
          EXPECT_EQ(v / 1000, static_cast<int>(m->source));
          seen[m->source] = true;
          ++got;
        }
        if (got != w.nprocs() - 1) {
          throw std::logic_error("shm: lost messages");
        }
        for (int src = 0; src < w.nprocs(); ++src) {
          if (src != w.pid() && !seen[src]) {
            throw std::logic_error("shm: missing source");
          }
        }
      }
    });
    EXPECT_EQ(stats.S(), static_cast<std::size_t>(steps) + 1);
    EXPECT_GT(stats.total_wire_bytes(), 0u);
    // The headline property: moving every byte cost zero data-path syscalls.
    EXPECT_EQ(stats.total_wire_syscalls(), 0u);
  });
}

TEST(ShmRuntime, CleanRunsReuseTheMesh) {
  const std::string name = seg_name(8);
  staged_rows::clean_runs_reuse_the_mesh(
      [&name](int r) { return rank_cfg(r, 2, name); });
}

TEST(ShmRuntime, MixedPayloadRunsSurviveTransit) {
  // Zero-copy descriptors join the packed runs here.
  const std::string name = seg_name(24);
  staged_rows::mixed_payload_runs_survive_transit(
      [&name](int r) { return rank_cfg(r, 3, name); });
}

TEST(ShmRuntime, SteadyStateMakesZeroAllocations) {
  const std::string name = seg_name(25);
  staged_rows::steady_state_makes_zero_allocations(
      [&name](int r) { return rank_cfg(r, 3, name); });
}

TEST(ShmRuntime, LargeFramesCrossTheSlab) {
  // 3 MiB each way: far beyond the ring, routed through the zero-copy slab
  // (default 8 MiB halves to 4 MiB epochs), delivered as views into the
  // mapped segment — so stats must show the payload as zc bytes, not ring
  // bytes.
  const int p = 2;
  const std::string name = seg_name(9);
  const std::size_t big = std::size_t{3} << 20;
  on_ranks(p, [&](int r) {
    Runtime rt(rank_cfg(r, p, name));
    const RunStats stats = rt.run([big](Worker& w) {
      std::vector<std::uint8_t> blob(big);
      for (std::size_t i = 0; i < blob.size(); ++i) {
        blob[i] = static_cast<std::uint8_t>((i * 131 + w.pid()) & 0xff);
      }
      w.send_bytes(1 - w.pid(), blob.data(), blob.size());
      w.sync();
      const Message* m = w.get_message();
      if (m == nullptr || m->size() != big) {
        throw std::logic_error("shm: large frame lost or truncated");
      }
      const auto* got = m->payload.data();
      for (std::size_t i = 0; i < big; i += 4097) {
        const auto want =
            static_cast<std::uint8_t>((i * 131 + (1 - w.pid())) & 0xff);
        if (static_cast<std::uint8_t>(got[i]) != want) {
          throw std::logic_error("shm: large frame corrupted");
        }
      }
    });
    EXPECT_GE(stats.total_wire_zc_bytes(), big)
        << "a 3MiB payload must travel the slab, not the ring";
    EXPECT_EQ(stats.total_wire_syscalls(), 0u);
  });
}

TEST(ShmRuntime, ZeroCopyEpochsRecycleAndGuardReuse) {
  // Many supersteps of slab-sized traffic: each boundary flips the epoch
  // half, and the advisory reuse-after-recycle guard (boundaries_opened)
  // must keep every delivered view intact even while its slab half is being
  // rewritten two epochs later. Payloads verify byte-exactly every step;
  // traffic is sized so one superstep's sends exceed half an epoch,
  // exercising the inline-ring fallback when the slab half fills.
  const int p = 2;
  const std::string name = seg_name(10);
  const int steps = 12;
  on_ranks(p, [&](int r) {
    Config cfg = rank_cfg(r, p, name);
    cfg.shm_ring_bytes = std::size_t{256} << 10;
    cfg.shm_slab_bytes = std::size_t{128} << 10;  // 64 KiB epoch halves
    Runtime rt(cfg);
    const RunStats stats = rt.run([steps](Worker& w) {
      // 24 x 4 KiB = 96 KiB staged per superstep: overflows the 64 KiB
      // epoch half, so the tail falls back to the inline ring path.
      constexpr int kMsgs = 24;
      constexpr std::size_t kLen = 4096;
      for (int s = 0; s < steps; ++s) {
        std::vector<std::uint8_t> payload(kLen);
        for (int m = 0; m < kMsgs; ++m) {
          for (std::size_t i = 0; i < kLen; ++i) {
            payload[i] = static_cast<std::uint8_t>(
                (i + static_cast<std::size_t>(s) * 31 +
                 static_cast<std::size_t>(m) * 7 +
                 static_cast<std::size_t>(w.pid()) * 131) &
                0xff);
          }
          w.send_bytes(1 - w.pid(), payload.data(), payload.size());
        }
        w.sync();
        int got = 0;
        while (const Message* m = w.get_message()) {
          if (m->size() != kLen) {
            throw std::logic_error("shm zc: wrong payload size");
          }
          const auto* b = m->payload.data();
          for (std::size_t i = 0; i < kLen; ++i) {
            const auto want = static_cast<std::uint8_t>(
                (i + static_cast<std::size_t>(s) * 31 +
                 static_cast<std::size_t>(got) * 7 +
                 static_cast<std::size_t>(1 - w.pid()) * 131) &
                0xff);
            if (static_cast<std::uint8_t>(b[i]) != want) {
              throw std::logic_error("shm zc: payload corrupted (epoch "
                                     "recycled under a live view?)");
            }
          }
          ++got;
        }
        if (got != kMsgs) throw std::logic_error("shm zc: lost messages");
      }
    });
    // Both paths must have carried traffic: zc for the slab-routed heads,
    // ring bytes for the fallback tails.
    EXPECT_GT(stats.total_wire_zc_bytes(), 0u);
    EXPECT_GT(stats.total_wire_bytes(), 0u);
    EXPECT_EQ(stats.total_wire_syscalls(), 0u);
  });
}

TEST(ShmRuntime, PeerDeathSurfacesAndMeshRebuilds) {
  // Peer death shows as EOF on the control channel, which ends a park; the
  // rebuild maps new segments with a new epoch space.
  const std::string name = seg_name(11);
  staged_rows::peer_death_surfaces_and_mesh_rebuilds(
      [&name](int r) { return rank_cfg(r, 2, name); });
}

TEST(ShmRuntime, PollSiteFiresWhileWaiting) {
  // The shm row of the shared poll-site property: on rings the site guards
  // the park on the control streams, which rank 1's doorbell ends.
  const std::string name = seg_name(23);
  staged_rows::poll_site_fires_while_waiting(
      [&name](int r) { return rank_cfg(r, 2, name); });
}

TEST(ShmRuntime, ParkedRankWakesOnPeerBytes) {
  // On rings only the doorbell ends the park: rank 1 stays alive, so no
  // EOF comes to wake rank 0 instead.
  const std::string name = seg_name(28);
  staged_rows::parked_rank_wakes_on_peer_bytes(
      [&name](int r) { return rank_cfg(r, 2, name); });
}

TEST(ShmRuntime, WatchdogWakesParkedRank) {
  const std::string name = seg_name(27);
  staged_rows::watchdog_wakes_parked_rank(
      [&name](int r) { return rank_cfg(r, 2, name); });
}

TEST(ShmRuntime, PeerTeardownAfterItsLastStageIsNotADeath) {
  // End-of-run teardown race: rank 1 writes its whole last stage into the
  // ring, finishes its run and destroys its Runtime while rank 0 still
  // waits inside that stage. EOF on the control channel then reaches rank
  // 0's wake-up drain before rank 0 has drained the ring; the stage can
  // still complete, so rank 0 must drain it instead of reporting a death.
  // The fault plan pins that interleaving on rank 0: its recv pumps see
  // EAGAIN up to and including the one after its first idle wait, and its
  // first park stalls 200 ms at the poll site — long enough for rank 1,
  // which writes 50 ms in, to finish and tear down. The park's cursor
  // re-check then finds the bytes and skips the poll, and the drain after
  // it finds the EOF.
  const std::string name = seg_name(12);
  on_ranks(2, [&](int r) {
    Runtime rt(rank_cfg(r, 2, name));
    if (r == 0) {
      FaultRule eagain;
      eagain.site = FaultSite::RecvCall;
      eagain.kind = FaultKind::Eagain;
      eagain.rank = 0;
      eagain.count = 4;
      FaultRule stall;
      stall.site = FaultSite::PollCall;
      stall.kind = FaultKind::DelayUs;
      stall.rank = 0;
      stall.arg = 200'000;
      FaultPlan plan;
      plan.rules = {eagain, stall};
      rt.set_fault_plan(plan);
    }
    rt.run([](Worker& w) {
      if (w.pid() == 1) {
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
        w.send(0, 7);
      }
      w.sync();
      if (w.pid() == 0) {
        const Message* m = w.get_message();
        if (m == nullptr || m->as<int>() != 7) {
          throw std::logic_error("shm: rank 1's last stage was lost");
        }
      }
    });
  });  // each rank's Runtime dies with its thread
}

}  // namespace
}  // namespace gbsp
