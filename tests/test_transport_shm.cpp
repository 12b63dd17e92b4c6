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
// segments, the failure matrix — handshake fields, fd-pass death, geometry
// mismatches, rank collisions — each with its descriptive
// BspTransportError), the end-to-end Runtime exchange across ranks, mesh
// reuse across clean runs, peer death mid-stage surfacing through the
// control channel (and a peer's clean end-of-run teardown NOT surfacing as
// one), and the zero-copy slab path (threshold routing, stats, epoch
// recycling, the reuse-after-recycle guard's inline fallback). The rows
// shared with the other meshes live in staged_rows.hpp.
#include <gtest/gtest.h>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

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
      ASSERT_EQ(detail::shm_ring_write(pv->send, &iov, 1, SIZE_MAX), 1u);
    }
    for (int peer = 0; peer < p; ++peer) {
      if (peer == r) continue;
      detail::ShmPairView* pv = mesh.shm_pair(r, peer);
      std::byte in{};
      std::size_t got = 0;
      for (int tries = 0; tries < 2000 && got == 0; ++tries) {
        got = detail::shm_ring_read(pv->recv, &in, 1);
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
  std::thread fake_rank0([&] {
    const int lfd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    ASSERT_GE(lfd, 0);
    sockaddr_un sa{};
    sa.sun_family = AF_UNIX;
    const std::string tag = "gbsp-shm." + name + ".0";
    std::memcpy(sa.sun_path + 1, tag.data(), tag.size());
    const socklen_t salen = static_cast<socklen_t>(
        offsetof(sockaddr_un, sun_path) + 1 + tag.size());
    ASSERT_EQ(::bind(lfd, reinterpret_cast<sockaddr*>(&sa), salen), 0);
    ASSERT_EQ(::listen(lfd, 1), 0);
    const int fd = ::accept(lfd, nullptr, nullptr);
    ASSERT_GE(fd, 0);
    detail::RankHello in;
    ASSERT_EQ(::recv(fd, &in, sizeof(in), MSG_WAITALL),
              static_cast<ssize_t>(sizeof(in)));
    detail::RankHello out;  // valid hello claiming rank 0 of 2
    out.rank = 0;
    out.nprocs = 2;
    ASSERT_EQ(::send(fd, &out, sizeof(out), MSG_NOSIGNAL),
              static_cast<ssize_t>(sizeof(out)));
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
  std::thread fake_rank0([&] {
    const int lfd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    ASSERT_GE(lfd, 0);
    sockaddr_un sa{};
    sa.sun_family = AF_UNIX;
    const std::string tag = "gbsp-shm." + name + ".0";
    std::memcpy(sa.sun_path + 1, tag.data(), tag.size());
    const socklen_t salen = static_cast<socklen_t>(
        offsetof(sockaddr_un, sun_path) + 1 + tag.size());
    ASSERT_EQ(::bind(lfd, reinterpret_cast<sockaddr*>(&sa), salen), 0);
    ASSERT_EQ(::listen(lfd, 1), 0);
    const int fd = ::accept(lfd, nullptr, nullptr);
    ASSERT_GE(fd, 0);
    detail::RankHello in;
    ASSERT_EQ(::recv(fd, &in, sizeof(in), MSG_WAITALL),
              static_cast<ssize_t>(sizeof(in)));
    detail::RankHello out;
    out.rank = 0;
    out.nprocs = 2;
    ASSERT_EQ(::send(fd, &out, sizeof(out), MSG_NOSIGNAL),
              static_cast<ssize_t>(sizeof(out)));
    const std::uint64_t len = 1 << 20;  // a length word, no cmsg
    ASSERT_EQ(::send(fd, &len, sizeof(len), MSG_NOSIGNAL),
              static_cast<ssize_t>(sizeof(len)));
    char sink[16];
    (void)::recv(fd, sink, sizeof(sink), 0);  // wait for the close
    ::close(fd);
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

// The handshake matrix, one row per field, as on the tcp mesh.
void expect_bad_hello_rejected(int slot, staged_rows::BadHello bad) {
  const std::string name = seg_name(slot);
  Config cfg = rank_cfg(0, 2, name);
  cfg.tcp_connect_timeout_ms = 5'000;
  detail::ShmMesh mesh(cfg);
  staged_rows::expect_bad_hello_rejected(
      mesh, [&name] { return dial(name, 0); }, bad);
}

TEST(ShmMeshBootstrap, HandshakeVersionMismatchIsDescriptive) {
  expect_bad_hello_rejected(13, staged_rows::BadHello::Version);
}

TEST(ShmMeshBootstrap, HandshakeRankMismatchIsDescriptive) {
  expect_bad_hello_rejected(14, staged_rows::BadHello::Rank);
}

TEST(ShmMeshBootstrap, HandshakeNprocsMismatchIsDescriptive) {
  expect_bad_hello_rejected(15, staged_rows::BadHello::Nprocs);
}

TEST(ShmMeshBootstrap, StrayClientWithBadMagicIsDescriptive) {
  const std::string name = seg_name(6);
  std::thread fake_peer([&] {
    const int fd = dial(name, 0);
    const char junk[24] = "GET / HTTP/1.1\r\n";  // not a gbsp rank at all
    ASSERT_EQ(::send(fd, junk, sizeof(junk), MSG_NOSIGNAL),
              static_cast<ssize_t>(sizeof(junk)));
    char sink[64];
    (void)::recv(fd, sink, sizeof(sink), 0);
    ::close(fd);
  });
  Config cfg = rank_cfg(0, 2, name);
  cfg.tcp_connect_timeout_ms = 5'000;
  detail::ShmMesh mesh(cfg);
  try {
    mesh.build(2);
    FAIL() << "an HTTP client wandering in must not join the mesh";
  } catch (const BspTransportError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("bad magic"), std::string::npos) << what;
  }
  EXPECT_TRUE(mesh.dirty());
  fake_peer.join();
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
    cfg.shm_inline_threshold = 1024;
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
  // Peer death shows as EOF on the control channel, seen by the idle-path
  // probe; the rebuild maps new segments with a new epoch space.
  const std::string name = seg_name(11);
  staged_rows::peer_death_surfaces_and_mesh_rebuilds(
      [&name](int r) { return rank_cfg(r, 2, name); });
}

TEST(ShmRuntime, PeerTeardownAfterItsLastStageIsNotADeath) {
  // End-of-run teardown race: rank 1 writes its whole last stage into the
  // ring, finishes its run and destroys its Runtime while rank 0 still
  // waits inside that stage. EOF on the control channel then reaches rank
  // 0's idle-path probe before rank 0 has drained the ring; the stage can
  // still complete, so rank 0 must drain it instead of reporting a death.
  // The fault plan pins that interleaving on rank 0: its recv pumps see
  // EAGAIN up to and including the one after its first idle wait, and that
  // wait stalls 200 ms — long enough for rank 1 to finish and tear down.
  const std::string name = seg_name(12);
  on_ranks(2, [&](int r) {
    Config cfg = rank_cfg(r, 2, name);
    if (r == 0) cfg.socket_spin_us = 0;
    Runtime rt(cfg);
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
