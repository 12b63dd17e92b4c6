// The staged transport over the cross-process TCP mesh, exercised inside ONE
// test process: TCP over loopback does not care that the p ranks are threads
// rather than processes, so each "rank" here is a thread owning its own
// rank-r Config, TcpMesh/Runtime, and port — exactly what p bsp_launch
// children would own. (The true multi-process path is covered by
// scripts/run_tcp_smoke.sh, which drives the real launcher.)
//
// Covered seams: the mesh bootstrap (full p-rank build, every failure mode
// with its descriptive BspTransportError, reusability after failure, the
// dialer's retry of a link closed during the hello), the end-to-end Runtime
// exchange across ranks, mesh reuse across clean runs, and peer death
// surfacing as BspTransportError + wire-dirty rebuild. The rows shared with
// the other meshes live in staged_rows.hpp; every bootstrap failure row but
// the port squatter runs on the shm mesh too.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "core/mesh.hpp"
#include "core/runtime.hpp"
#include "core/transport.hpp"
#include "core/transport_staged.hpp"
#include "staged_rows.hpp"

namespace gbsp {
namespace {

// Each test slot gets its own 4-port window (no test runs more than 4
// ranks) inside a 128-port block picked by the pid, so concurrent
// invocations of this binary do not fight over ports. Slots stay below 32,
// so no window spills into a neighbouring block, and `ctest -j` (one process
// per test, each with its own slot) never shares a window. All blocks lie in
// [21000, 32648), below Linux's default ephemeral range (32768-60999): a
// listener port there can be held by some connection's TIME_WAIT source
// port, and a dial to an absent listener there can connect to itself.
int port_base(int test_slot) {
  const int pid_slice = static_cast<int>(::getpid()) % 91;
  return 21000 + pid_slice * 128 + test_slot * 4;
}

Config rank_cfg(int rank, int nprocs, int port) {
  Config cfg;
  cfg.nprocs = nprocs;
  cfg.delivery = DeliveryStrategy::Tcp;
  cfg.rank = rank;
  cfg.tcp_port = port;
  cfg.collect_stats = true;
  return cfg;
}

using staged_rows::on_ranks;

// A raw TCP client for impersonating a (broken) peer during bootstrap.
int dial(int port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  sockaddr_in sa{};
  sa.sin_family = AF_INET;
  sa.sin_port = htons(static_cast<std::uint16_t>(port));
  ::inet_pton(AF_INET, "127.0.0.1", &sa.sin_addr);
  int rc = -1;
  for (int tries = 0; tries < 500; ++tries) {
    rc = ::connect(fd, reinterpret_cast<sockaddr*>(&sa), sizeof(sa));
    if (rc == 0) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  EXPECT_EQ(rc, 0) << "fake peer could not reach the mesh listener";
  return fd;
}

// A raw listener on 127.0.0.1:port, for impersonating a rank (or squatting
// on its port). SO_REUSEADDR, as the mesh's own listener, so the real rank
// can re-bind the port while this one's links sit in TIME_WAIT.
int listen_on(int port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  const int one = 1;
  (void)::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in sa{};
  sa.sin_family = AF_INET;
  sa.sin_port = htons(static_cast<std::uint16_t>(port));
  ::inet_pton(AF_INET, "127.0.0.1", &sa.sin_addr);
  EXPECT_EQ(::bind(fd, reinterpret_cast<sockaddr*>(&sa), sizeof(sa)), 0);
  EXPECT_EQ(::listen(fd, 4), 0);
  return fd;
}

// The tcp medium of test slot `slot`, for the bootstrap rows shared with the
// shm mesh (staged_rows.hpp).
staged_rows::Medium tcp(int slot) {
  const int base = port_base(slot);
  return {[base](int r, int p) { return rank_cfg(r, p, base); },
          [base] { return dial(base); }, [base] { return listen_on(base); },
          "port map skewed?"};
}

// --------------------------------------------------------------------------
// Mesh bootstrap: the happy path.
// --------------------------------------------------------------------------

TEST(TcpMeshBootstrap, FullMeshAcrossFourRanks) {
  const int p = 4;
  const int base = port_base(0);
  on_ranks(p, [&](int r) {
    const Config cfg = rank_cfg(r, p, base);
    detail::TcpMesh mesh(cfg);
    EXPECT_TRUE(mesh.dirty()) << "a fresh mesh must start dirty";
    mesh.build(p);
    EXPECT_FALSE(mesh.dirty());
    EXPECT_EQ(mesh.builds(), 1u);
    EXPECT_EQ(mesh.fd(r, r), -1) << "self-delivery never touches the wire";
    for (int peer = 0; peer < p; ++peer) {
      if (peer == r) continue;
      EXPECT_GE(mesh.fd(r, peer), 0) << "rank " << r << " <-> " << peer;
    }
    // One byte each way per pair proves the streams are the right streams
    // (the handshake already proved who is on the other end).
    for (int peer = 0; peer < p; ++peer) {
      if (peer == r) continue;
      const char out = static_cast<char>(0x40 + r);
      ASSERT_EQ(::send(mesh.fd(r, peer), &out, 1, 0), 1);
    }
    for (int peer = 0; peer < p; ++peer) {
      if (peer == r) continue;
      char in = 0;
      ssize_t got = 0;
      for (int tries = 0; tries < 1000 && got <= 0; ++tries) {
        got = ::recv(mesh.fd(r, peer), &in, 1, 0);
        if (got <= 0) std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
      ASSERT_EQ(got, 1);
      EXPECT_EQ(in, static_cast<char>(0x40 + peer));
    }
  });
}

// --------------------------------------------------------------------------
// Mesh bootstrap failure modes. Each must throw a descriptive
// BspTransportError AND leave the mesh reusable (dirty, torn down, ready to
// build again).
// --------------------------------------------------------------------------

TEST(TcpMeshBootstrap, PortAlreadyInUseIsDescriptive) {
  const int base = port_base(1);
  // Occupy rank 0's port with a plain listener that is NOT a mesh rank.
  const int squatter = listen_on(base);

  Config cfg = rank_cfg(0, 2, base);
  cfg.tcp_connect_timeout_ms = 2'000;
  detail::TcpMesh mesh(cfg);
  try {
    mesh.build(2);
    FAIL() << "bind on an occupied port must fail the bootstrap";
  } catch (const BspTransportError& e) {
    EXPECT_NE(std::string(e.what()).find("port already in use"),
              std::string::npos)
        << e.what();
    EXPECT_NE(std::string(e.what()).find(std::to_string(base)),
              std::string::npos)
        << "error should name the endpoint: " << e.what();
  }
  EXPECT_TRUE(mesh.dirty()) << "failed build must leave the mesh dirty";
  EXPECT_EQ(mesh.builds(), 0u);
  ::close(squatter);

  // Reusable after failure: with the squatter gone and a real peer present,
  // the same mesh object bootstraps.
  std::thread peer([&] {
    Config pc = rank_cfg(1, 2, base);
    detail::TcpMesh pm(pc);
    pm.build(2);
    EXPECT_FALSE(pm.dirty());
  });
  mesh.build(2);
  EXPECT_FALSE(mesh.dirty());
  EXPECT_EQ(mesh.builds(), 1u);
  peer.join();
}

// The failure rows below run on the shm mesh too (staged_rows.hpp).

TEST(TcpMeshBootstrap, PartialConnectTimesOutDescriptively) {
  staged_rows::partial_connect_times_out(tcp(2));
}

TEST(TcpMeshBootstrap, PartialAcceptTimesOutDescriptively) {
  staged_rows::partial_accept_times_out(tcp(3));
}

TEST(TcpMeshBootstrap, HandshakeVersionMismatchIsDescriptive) {
  staged_rows::expect_bad_hello_rejected(tcp(4),
                                         staged_rows::BadHello::Version);
}

TEST(TcpMeshBootstrap, HandshakeRankMismatchIsDescriptive) {
  staged_rows::expect_bad_hello_rejected(tcp(5), staged_rows::BadHello::Rank);
}

TEST(TcpMeshBootstrap, HandshakeNprocsMismatchIsDescriptive) {
  staged_rows::expect_bad_hello_rejected(tcp(6),
                                         staged_rows::BadHello::Nprocs);
}

TEST(TcpMeshBootstrap, HandshakeReservedFieldIsDescriptive) {
  staged_rows::expect_bad_hello_rejected(tcp(14),
                                         staged_rows::BadHello::Reserved);
}

TEST(TcpMeshBootstrap, StrayClientWithBadMagicIsDescriptive) {
  staged_rows::stray_client_with_bad_magic(tcp(7));
}

TEST(TcpMeshBootstrap, PeerDeathDuringAcceptIsDescriptive) {
  staged_rows::peer_death_during_accept(tcp(8));
}

TEST(TcpMeshBootstrap, DuplicateRankHandshakeIsDescriptive) {
  staged_rows::duplicate_rank_rejected(tcp(15));
}

TEST(TcpMeshBootstrap, DialerRankMismatchIsDescriptive) {
  staged_rows::dialer_rank_mismatch(tcp(16));
}

TEST(TcpMeshBootstrap, CloseDuringHelloIsRetried) {
  staged_rows::close_during_hello_is_retried(tcp(17));
}

// --------------------------------------------------------------------------
// End-to-end: p single-rank Runtimes exchanging across the TCP mesh.
// --------------------------------------------------------------------------

TEST(TcpRuntime, AllToAllAcrossRanks) {
  const int p = 4;
  const int base = port_base(9);
  const int steps = 20;
  on_ranks(p, [&](int r) {
    Runtime rt(rank_cfg(r, p, base));
    EXPECT_STREQ(rt.transport().name(), "tcp");
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
          throw std::logic_error("tcp: lost messages");
        }
        for (int src = 0; src < w.nprocs(); ++src) {
          if (src != w.pid() && !seen[src]) {
            throw std::logic_error("tcp: missing source");
          }
        }
      }
    });
    // steps sync() boundaries plus the tail segment after the last sync.
    EXPECT_EQ(stats.S(), static_cast<std::size_t>(steps) + 1);
    EXPECT_GT(stats.total_wire_bytes(), 0u);
  });
}

TEST(TcpRuntime, CleanRunsReuseTheMesh) {
  const int base = port_base(10);
  staged_rows::clean_runs_reuse_the_mesh(
      [base](int r) { return rank_cfg(r, 2, base); });
}

TEST(TcpRuntime, MixedPayloadRunsSurviveTransit) {
  const int base = port_base(18);
  staged_rows::mixed_payload_runs_survive_transit(
      [base](int r) { return rank_cfg(r, 3, base); });
}

TEST(TcpRuntime, SteadyStateMakesZeroAllocations) {
  const int base = port_base(19);
  staged_rows::steady_state_makes_zero_allocations(
      [base](int r) { return rank_cfg(r, 3, base); });
}

TEST(TcpRuntime, KernelBuffersAreHistoryIndependent) {
  const int base = port_base(23);
  staged_rows::kernel_buffers_are_history_independent(
      [base](int r) { return rank_cfg(r, 2, base); });
}

TEST(TcpRuntime, LargeFramesCrossTheMesh) {
  // Each way carries three times the SO_SNDBUF the kernel granted the
  // endpoint at build, so the partial-I/O resume paths run.
  const int p = 2;
  const int base = port_base(11);
  std::atomic<std::uint64_t> syscalls{0};
  on_ranks(p, [&](int r) {
    Runtime rt(rank_cfg(r, p, base));
    rt.run(staged_rows::ping(1));  // builds the mesh
    const std::size_t big =
        3 * static_cast<std::size_t>(staged_rows::socket_option(
                staged_rows::staged(rt).debug_raw_fd(r, 1 - r), SO_SNDBUF));
    const RunStats stats = rt.run([big](Worker& w) {
      std::vector<std::uint8_t> blob(big);
      for (std::size_t i = 0; i < blob.size(); ++i) {
        blob[i] = static_cast<std::uint8_t>((i * 131 + w.pid()) & 0xff);
      }
      w.send_bytes(1 - w.pid(), blob.data(), blob.size());
      w.sync();
      const Message* m = w.get_message();
      if (m == nullptr || m->size() != big) {
        throw std::logic_error("tcp: large frame lost or truncated");
      }
      const auto* got = m->payload.data();
      for (std::size_t i = 0; i < big; i += 4097) {
        const auto want =
            static_cast<std::uint8_t>((i * 131 + (1 - w.pid())) & 0xff);
        if (static_cast<std::uint8_t>(got[i]) != want) {
          throw std::logic_error("tcp: large frame corrupted");
        }
      }
    });
    syscalls += stats.total_wire_syscalls();
  });
  // A direction that fits its buffers takes four byte-moving calls: one
  // sendmsg, then reads of the preamble, the header block and the payload.
  EXPECT_GT(syscalls.load(), 2u * 4u)
      << "the stage crossed without partial I/O";
}

TEST(TcpRuntime, PollSiteFiresWhileWaiting) {
  // The tcp row of the shared poll-site property (staged_rows.hpp).
  const int base = port_base(20);
  staged_rows::poll_site_fires_while_waiting(
      [base](int r) { return rank_cfg(r, 2, base); });
}

TEST(TcpRuntime, ParkedRankWakesOnPeerBytes) {
  const int base = port_base(22);
  staged_rows::parked_rank_wakes_on_peer_bytes(
      [base](int r) { return rank_cfg(r, 2, base); });
}

TEST(TcpRuntime, WatchdogWakesParkedRank) {
  const int base = port_base(21);
  staged_rows::watchdog_wakes_parked_rank(
      [base](int r) { return rank_cfg(r, 2, base); });
}

TEST(TcpRuntime, PeerDeathSurfacesAndMeshRebuilds) {
  // Peer death shows as EOF/ECONNRESET on the stream.
  const int base = port_base(12);
  staged_rows::peer_death_surfaces_and_mesh_rebuilds(
      [base](int r) { return rank_cfg(r, 2, base); });
}

TEST(TcpRuntime, RetryPathRecoversFromPeerRestart) {
  // Same scenario, but rank 0 is configured with max_run_retries: the
  // recovery machinery (PR 5) must absorb the BspTransportError, rebuild
  // the wire, and replay the run without the caller seeing the failure.
  const int base = port_base(13);
  std::atomic<int> rank1_phase{0};
  const auto ping = staged_rows::ping(9);

  std::thread rank0([&] {
    Config cfg = rank_cfg(0, 2, base);
    cfg.max_run_retries = 3;
    cfg.retry_backoff_us = 50'000;
    cfg.tcp_connect_timeout_ms = 20'000;
    cfg.socket_stage_timeout_ms = 20'000;
    Runtime rt(cfg);
    rt.run(ping);                       // phase 1: clean
    while (rank1_phase.load() < 1) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    const RunStats stats = rt.run(ping);  // phase 2: dies, retries, succeeds
    EXPECT_GE(stats.recoveries, 1u)
        << "the peer restart must be absorbed as a recovery, not a failure";
  });

  std::thread rank1([&] {
    {
      Runtime rt(rank_cfg(1, 2, base));
      rt.run(ping);  // phase 1
    }
    rank1_phase.store(1);
    // Give rank 0 time to slam into the dead endpoints and start retrying,
    // then come back up as the restarted incarnation.
    std::this_thread::sleep_for(std::chrono::milliseconds(200));
    Config cfg = rank_cfg(1, 2, base);
    cfg.tcp_connect_timeout_ms = 20'000;
    Runtime rt(cfg);
    rt.run(ping);  // phase 2 replay partner
  });
  rank0.join();
  rank1.join();
}

}  // namespace
}  // namespace gbsp
