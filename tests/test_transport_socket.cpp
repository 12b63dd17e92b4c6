// Socket transport specifics: wire-byte accounting, the staged-exchange
// framing, kernel-buffer-exceeding transfers, and fault injection (peer
// death, endpoint EOF, stage timeout). Conformance with BSP semantics is
// covered by the parameterized suites in test_runtime*.cpp; this file tests
// what only the socket transport does.
#include <gtest/gtest.h>
#include <sys/socket.h>

#include <chrono>
#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/runtime.hpp"
#include "core/transport.hpp"
#include "core/transport_staged.hpp"
#include "staged_rows.hpp"

namespace gbsp {
namespace {

Config socket_config(int nprocs,
                     Scheduling sched = Scheduling::Parallel) {
  Config cfg;
  cfg.nprocs = nprocs;
  cfg.scheduling = sched;
  cfg.delivery = DeliveryStrategy::Socket;
  return cfg;
}

// Wire framing per stage (v2, sectioned): preamble {count:u64
// header_bytes:u64 payload_bytes:u64}, then the packed header block
// ({seq:u32 pad:u32 len:u64} * count), then the payload block. These
// constants pin the grammar; if the framing changes, the expected byte
// counts below change with it.
constexpr std::uint64_t kPreambleBytes = 24;
constexpr std::uint64_t kHeaderBytes = 16;

TEST(SocketWireBytes, ExactAccountingForPairExchange) {
  // p = 2: each boundary runs one stage per worker, carrying exactly one
  // 100-byte message — 24 (preamble) + 16 (header) + 100 (payload) bytes on
  // the wire per worker per boundary.
  Runtime rt(socket_config(2));
  RunStats stats = rt.run([](Worker& w) {
    for (int r = 0; r < 2; ++r) {
      std::vector<std::uint8_t> buf(100,
                                    static_cast<std::uint8_t>(w.pid() + r));
      w.send_bytes(1 - w.pid(), buf.data(), buf.size());
      w.sync();
      const Message* m = w.get_message();
      ASSERT_NE(m, nullptr);
      ASSERT_EQ(m->size(), 100u);
    }
  });
  const std::uint64_t per_boundary = 2 * (kPreambleBytes + kHeaderBytes + 100);
  EXPECT_EQ(stats.total_wire_bytes(), 2 * per_boundary);
  // Charged like recv_packets, to the superstep the boundary opened.
  ASSERT_EQ(stats.S(), 3u);
  EXPECT_EQ(stats.supersteps[0].total_wire_bytes, 0u);
  EXPECT_EQ(stats.supersteps[1].total_wire_bytes, per_boundary);
  EXPECT_EQ(stats.supersteps[2].total_wire_bytes, per_boundary);
}

TEST(SocketWireBytes, InMemoryTransportsReportZero) {
  for (auto del : {DeliveryStrategy::Deferred, DeliveryStrategy::Eager}) {
    Config cfg;
    cfg.nprocs = 2;
    cfg.delivery = del;
    RunStats stats = Runtime(cfg).run([](Worker& w) {
      std::vector<std::uint8_t> buf(100, 7);
      w.send_bytes(1 - w.pid(), buf.data(), buf.size());
      w.sync();
      while (w.get_message() != nullptr) {
      }
    });
    EXPECT_EQ(stats.total_wire_bytes(), 0u) << to_string(del);
    EXPECT_EQ(stats.total_wire_syscalls(), 0u) << to_string(del);
  }
}

TEST(SocketWireBytes, SelfSendsBypassTheWire) {
  // Self-delivery is stage 0 of the schedule: whole-arena splice, no socket.
  // Peers still exchange their (empty) stage counts.
  const int p = 3;
  Runtime rt(socket_config(p));
  RunStats stats = rt.run([](Worker& w) {
    w.send(w.pid(), std::uint64_t{42});
    w.sync();
    const Message* m = w.get_message();
    ASSERT_NE(m, nullptr);
    EXPECT_EQ(m->as<std::uint64_t>(), 42u);
  });
  // One boundary: every worker sends one empty stage (bare preamble) per
  // peer.
  EXPECT_EQ(stats.total_wire_bytes(),
            static_cast<std::uint64_t>(p) * (p - 1) * kPreambleBytes);
}

TEST(SocketWireBytes, SectionedStagesUseFewSyscalls) {
  // 1024 16-byte messages each way, p = 2. The v1 per-frame receive state
  // machine paid ~2 recv syscalls per frame (~4000 per worker per boundary);
  // the sectioned format moves the same traffic in a handful of bulk
  // sendmsg/recv/readv calls. The bound is deliberately loose — partial
  // reads and writes legitimately split calls — but sits far below the
  // per-frame regime.
  Runtime rt(socket_config(2));
  RunStats stats = rt.run([](Worker& w) {
    for (std::uint64_t i = 0; i < 1024; ++i) {
      const std::uint64_t v[2] = {i, static_cast<std::uint64_t>(w.pid())};
      w.send_bytes(1 - w.pid(), v, sizeof(v));
    }
    w.sync();
    std::size_t got = 0;
    while (w.get_message() != nullptr) ++got;
    ASSERT_EQ(got, 1024u);
  });
  EXPECT_GT(stats.total_wire_syscalls(), 0u);
  EXPECT_LT(stats.total_wire_syscalls(), 256u)
      << "bulk sectioned I/O regressed toward per-frame syscalls";
}

TEST(SocketWireBytes, SerializedDriverReportsTheSameWireTraffic) {
  // The single-threaded serialized driver speaks the identical wire
  // protocol, so byte-for-byte accounting must match the parallel run.
  auto program = [](Worker& w) {
    const int p = w.nprocs();
    for (int d = 0; d < p; ++d) {
      std::vector<std::uint8_t> buf(static_cast<std::size_t>(40 + d), 1);
      w.send_bytes(d, buf.data(), buf.size());
    }
    w.sync();
    while (w.get_message() != nullptr) {
    }
  };
  RunStats par = Runtime(socket_config(4, Scheduling::Parallel)).run(program);
  RunStats ser =
      Runtime(socket_config(4, Scheduling::Serialized)).run(program);
  EXPECT_GT(par.total_wire_bytes(), 0u);
  EXPECT_EQ(par.total_wire_bytes(), ser.total_wire_bytes());
}

TEST(SocketLargeTransfers, ExceedKernelBuffersWithoutDeadlock) {
  // 2 MiB per direction dwarfs an AF_UNIX socket buffer, forcing many
  // partial writes interleaved with reads — the full-duplex pump must never
  // deadlock on a full send buffer. Run both scheduling modes.
  for (auto sched : {Scheduling::Parallel, Scheduling::Serialized}) {
    Runtime rt(socket_config(2, sched));
    rt.run([](Worker& w) {
      std::vector<std::uint64_t> big((2u << 20) / sizeof(std::uint64_t));
      for (std::size_t i = 0; i < big.size(); ++i) {
        big[i] = i * 2654435761u + static_cast<std::uint64_t>(w.pid());
      }
      w.send_array(1 - w.pid(), big);
      w.sync();
      const Message* m = w.get_message();
      ASSERT_NE(m, nullptr);
      ASSERT_EQ(m->size(), big.size() * sizeof(std::uint64_t));
      const std::uint64_t* got =
          reinterpret_cast<const std::uint64_t*>(m->payload.data());
      const std::uint64_t other = static_cast<std::uint64_t>(1 - w.pid());
      for (std::size_t i = 0; i < big.size(); i += 1009) {
        ASSERT_EQ(got[i], i * 2654435761u + other) << i;
      }
    });
  }
}

TEST(SocketFaultInjection, PeerDeathMidSuperstepUnblocksSurvivors) {
  // Worker 3 dies after the survivors are already blocked inside the staged
  // exchange. They must unwind via the abort flag well before the 10 s stage
  // timeout, and the injected error must surface from run().
  Runtime rt(socket_config(4));
  const auto t0 = std::chrono::steady_clock::now();
  EXPECT_THROW(rt.run([](Worker& w) {
                 if (w.pid() == 3) {
                   std::this_thread::sleep_for(
                       std::chrono::milliseconds(100));
                   throw std::runtime_error("injected peer death");
                 }
                 w.sync();  // blocks awaiting worker 3's stage data
                 w.sync();
               }),
               std::runtime_error);
  const auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
      std::chrono::steady_clock::now() - t0);
  EXPECT_LT(elapsed.count(), 5000) << "survivors hung until the timeout "
                                      "instead of aborting";
}

TEST(SocketFaultInjection, KilledEndpointsSurfaceAsTransportError) {
  // Hard-close one worker's endpoints mid-run, as if its process died: the
  // peer observes EOF on the shared stream and diagnoses it.
  Runtime rt(socket_config(2));
  auto* sock = dynamic_cast<StagedTransport*>(&rt.transport());
  ASSERT_NE(sock, nullptr);
  EXPECT_THROW(rt.run([&](Worker& w) {
                 if (w.pid() == 0) {
                   sock->debug_kill_endpoints(0);
                 }
                 w.sync();
               }),
               BspTransportError);
}

TEST(SocketFaultInjection, StageTimeoutFiresOnWedgedPeer) {
  // Worker 0 stops syncing (finishes early); worker 1's next exchange waits
  // on stage data that will never come and must abort within the configured
  // timeout rather than hang.
  Config cfg = socket_config(2);
  cfg.socket_stage_timeout_ms = 200;
  cfg.socket_backoff_max_ms = 10;
  Runtime rt(cfg);
  const auto t0 = std::chrono::steady_clock::now();
  EXPECT_THROW(rt.run([](Worker& w) {
                 w.sync();
                 if (w.pid() == 1) w.sync();
               }),
               BspTransportError);
  const auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
      std::chrono::steady_clock::now() - t0);
  EXPECT_LT(elapsed.count(), 5000);
}

TEST(SocketFaultInjection, RuntimeIsReusableAfterAFailedRun) {
  // reset_run() rebuilds sockets from scratch, so a run that died mid-stage
  // (half-written frames in kernel buffers) must not poison the next run.
  Config cfg = socket_config(2);
  cfg.socket_stage_timeout_ms = 200;
  cfg.socket_backoff_max_ms = 10;
  Runtime rt(cfg);
  EXPECT_THROW(rt.run([](Worker& w) {
                 w.send(1 - w.pid(), 1);
                 w.sync();
                 if (w.pid() == 1) w.sync();  // wedge -> timeout
               }),
               BspTransportError);
  RunStats stats = rt.run([](Worker& w) {
    w.send(1 - w.pid(), 7);
    w.sync();
    const Message* m = w.get_message();
    ASSERT_NE(m, nullptr);
    EXPECT_EQ(m->as<int>(), 7);
  });
  EXPECT_EQ(stats.S(), 2u);
}

TEST(SocketLifecycle, CleanRunsReuseTheSocketMesh) {
  // The socketpair row of the shared reuse property (staged_rows.hpp).
  staged_rows::clean_runs_reuse_the_mesh(
      [](int) { return socket_config(2); });
}

TEST(SocketLifecycle, FailedRunForcesAMeshRebuild) {
  // A run that unwinds mid-stage may strand half-written stage bytes in
  // kernel buffers; the next run must get fresh sockets, and runs after
  // that reuse again.
  Config cfg = socket_config(2);
  cfg.socket_stage_timeout_ms = 200;
  cfg.socket_backoff_max_ms = 10;
  Runtime rt(cfg);
  StagedTransport& sock = staged_rows::staged(rt);
  EXPECT_THROW(rt.run([](Worker& w) {
                 w.send(1 - w.pid(), 1);
                 w.sync();
                 if (w.pid() == 1) w.sync();  // wedge -> timeout
               }),
               BspTransportError);
  EXPECT_EQ(sock.debug_mesh_builds(), 1u);
  rt.run(staged_rows::ping(7));
  EXPECT_EQ(sock.debug_mesh_builds(), 2u) << "dirty wire must rebuild";
  rt.run(staged_rows::ping(7));
  EXPECT_EQ(sock.debug_mesh_builds(), 2u) << "clean again: reuse resumes";
}

// --------------------------------------------------------- stream corruption

void inject_bytes(int fd, const void* data, std::size_t n) {
  const char* p = static_cast<const char*>(data);
  while (n != 0) {
    const ssize_t w = ::send(fd, p, n, MSG_NOSIGNAL);
    ASSERT_GT(w, 0) << "test injection write failed";
    p += w;
    n -= static_cast<std::size_t>(w);
  }
}

// Runs a p = 2 program where pid 0 injects `garbage` into its stream toward
// pid 1 before syncing, and returns the BspTransportError message pid 1's
// receive path diagnoses.
std::string garbled_stream_error(Config cfg,
                                 const std::vector<std::uint8_t>& garbage) {
  Runtime rt(cfg);
  auto* sock = dynamic_cast<StagedTransport*>(&rt.transport());
  if (sock == nullptr) return "not a staged transport";
  try {
    rt.run([&](Worker& w) {
      if (w.pid() == 0) {
        inject_bytes(sock->debug_raw_fd(0, 1), garbage.data(),
                     garbage.size());
      }
      w.sync();
    });
  } catch (const BspTransportError& e) {
    return e.what();
  }
  return "";
}

void put_u64(std::vector<std::uint8_t>& buf, std::uint64_t v) {
  const std::size_t at = buf.size();
  buf.resize(at + sizeof(v));
  std::memcpy(buf.data() + at, &v, sizeof(v));
}

void put_u32(std::vector<std::uint8_t>& buf, std::uint32_t v) {
  const std::size_t at = buf.size();
  buf.resize(at + sizeof(v));
  std::memcpy(buf.data() + at, &v, sizeof(v));
}

TEST(SocketValidation, NonzeroHeaderPadIsDiagnosed) {
  // A deliberately garbled frame header: valid preamble, then pad != 0 —
  // the receiver must refuse the stage before touching its inbox arena.
  std::vector<std::uint8_t> garbage;
  put_u64(garbage, 1);   // count
  put_u64(garbage, 16);  // header_bytes
  put_u64(garbage, 4);   // payload_bytes
  put_u32(garbage, 0);   // seq
  put_u32(garbage, 0xDEADBEEF);  // pad — the corruption
  put_u64(garbage, 4);   // len
  const std::string what = garbled_stream_error(socket_config(2), garbage);
  EXPECT_NE(what.find("pad"), std::string::npos) << what;
}

TEST(SocketValidation, OversizedFrameLenIsDiagnosed) {
  // A header claiming more payload than socket_max_frame_bytes allows must
  // be rejected as corruption instead of sizing an arena append from it.
  Config cfg = socket_config(2);
  cfg.socket_max_frame_bytes = 4096;
  std::vector<std::uint8_t> garbage;
  put_u64(garbage, 1);     // count
  put_u64(garbage, 16);    // header_bytes
  put_u64(garbage, 8192);  // payload_bytes
  put_u32(garbage, 0);     // seq
  put_u32(garbage, 0);     // pad
  put_u64(garbage, 8192);  // len — above the cap
  const std::string what = garbled_stream_error(cfg, garbage);
  EXPECT_NE(what.find("socket_max_frame_bytes"), std::string::npos) << what;
}

TEST(SocketValidation, InconsistentPreambleIsDiagnosed) {
  // count and header_bytes disagree: the cross-check must fire before the
  // receiver allocates anything from the preamble's numbers.
  std::vector<std::uint8_t> garbage;
  put_u64(garbage, 2);   // count
  put_u64(garbage, 16);  // header_bytes: room for one header, not two
  put_u64(garbage, 0);   // payload_bytes
  const std::string what = garbled_stream_error(socket_config(2), garbage);
  EXPECT_NE(what.find("inconsistent"), std::string::npos) << what;
}

TEST(SocketValidation, OversizedSendIsRejectedAtTheSendCall) {
  // The sender-side mirror of the receive cap: the offending send() throws
  // in the worker that issued it, not as corruption on the peer.
  Config cfg = socket_config(2);
  cfg.socket_max_frame_bytes = 1024;
  Runtime rt(cfg);
  try {
    rt.run([](Worker& w) {
      std::vector<std::uint8_t> big(2048, 1);
      if (w.pid() == 0) w.send_bytes(1, big.data(), big.size());
      w.sync();
    });
    FAIL() << "oversized send was not rejected";
  } catch (const BspTransportError& e) {
    EXPECT_NE(std::string(e.what()).find("socket_max_frame_bytes"),
              std::string::npos)
        << e.what();
  }
}

TEST(SocketLargeTransfers, TinyKernelBuffersStillDeliverExactly) {
  // socket_buffer_bytes = 1 pins SO_SNDBUF/SO_RCVBUF at the kernel's floor
  // (a few KiB), so every section of the wire format tears: torn preambles,
  // header blocks split across reads, and payload iovecs consumed a few
  // entries per syscall. Contents must still arrive byte-exact, in both
  // scheduling modes.
  for (auto sched : {Scheduling::Parallel, Scheduling::Serialized}) {
    Config cfg = socket_config(2, sched);
    cfg.socket_buffer_bytes = 1;
    Runtime rt(cfg);
    rt.run([](Worker& w) {
      const int me = w.pid();
      const int peer = 1 - me;
      for (int r = 0; r < 3; ++r) {
        std::vector<std::uint32_t> big(40000);
        for (std::size_t i = 0; i < big.size(); ++i) {
          big[i] = static_cast<std::uint32_t>(i * 2654435761u + me + r);
        }
        w.send_array(peer, big);
        for (std::uint32_t i = 0; i < 200; ++i) {
          const std::uint32_t v[4] = {i, static_cast<std::uint32_t>(me),
                                      static_cast<std::uint32_t>(r), ~i};
          w.send_bytes(peer, v, sizeof(v));
        }
        w.sync();
        std::size_t got_small = 0;
        bool got_big = false;
        const Message* m;
        while ((m = w.get_message()) != nullptr) {
          if (m->size() == big.size() * sizeof(std::uint32_t)) {
            got_big = true;
            const std::uint32_t* d =
                reinterpret_cast<const std::uint32_t*>(m->payload.data());
            for (std::size_t i = 0; i < big.size(); i += 997) {
              ASSERT_EQ(d[i], static_cast<std::uint32_t>(
                                  i * 2654435761u + peer + r))
                  << i;
            }
          } else {
            ASSERT_EQ(m->size(), 16u);
            const std::uint32_t* d =
                reinterpret_cast<const std::uint32_t*>(m->payload.data());
            ASSERT_EQ(d[1], static_cast<std::uint32_t>(peer));
            ASSERT_EQ(d[2], static_cast<std::uint32_t>(r));
            ASSERT_EQ(d[3], ~d[0]);
            ++got_small;
          }
        }
        ASSERT_TRUE(got_big) << "round " << r;
        ASSERT_EQ(got_small, 200u) << "round " << r;
      }
    });
  }
}

TEST(SocketTransportCapabilities, DeclaresItsContract) {
  Runtime rt(socket_config(2));
  EXPECT_STREQ(rt.transport().name(), "socket");
  EXPECT_FALSE(rt.transport().needs_boundary_barriers());
  EXPECT_FALSE(rt.transport().steady_state_zero_alloc());
}

}  // namespace
}  // namespace gbsp
