// Rows shared by the staged-transport suites (test_transport_socket.cpp,
// test_transport_tcp.cpp, test_transport_shm.cpp). One StagedTransport class
// runs over every mesh, so each property below has one body, and each suite
// runs it as one row for its own mesh.
//
// A process-mode "rank" is a thread owning its own rank-r Config and
// Runtime — exactly what p bsp_launch children would own; the true
// multi-process path is scripts/run_proc_smoke.sh.
#pragma once

#include <gtest/gtest.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <exception>
#include <functional>
#include <future>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/mesh.hpp"
#include "core/runtime.hpp"
#include "core/transport_staged.hpp"

namespace gbsp::staged_rows {

/// Rank r's Config of a run.
using RankConfig = std::function<Config(int rank)>;

/// Runs fn(rank) on one thread per rank and rethrows the first failure after
/// every thread has joined (a bootstrap error on one rank typically also
/// unblocks/errors the others; joining first keeps the test deterministic).
inline void on_ranks(int nprocs, const std::function<void(int)>& fn) {
  std::vector<std::thread> threads;
  std::vector<std::exception_ptr> errors(static_cast<std::size_t>(nprocs));
  for (int r = 0; r < nprocs; ++r) {
    threads.emplace_back([&, r] {
      try {
        fn(r);
      } catch (...) {
        errors[static_cast<std::size_t>(r)] = std::current_exception();
      }
    });
  }
  for (auto& t : threads) t.join();
  for (auto& e : errors) {
    if (e) std::rethrow_exception(e);
  }
}

/// The Runtimes of one p-rank run: one Runtime hosting every rank on the
/// in-process socketpair mesh, one Runtime per rank thread in process mode.
inline void on_runtimes(int nprocs, const RankConfig& cfg_of,
                        const std::function<void(Runtime&)>& fn) {
  if (cfg_of(0).delivery == DeliveryStrategy::Socket) {
    Runtime rt(cfg_of(0));
    fn(rt);
    return;
  }
  on_ranks(nprocs, [&](int r) {
    Runtime rt(cfg_of(r));
    fn(rt);
  });
}

inline StagedTransport& staged(Runtime& rt) {
  auto* t = dynamic_cast<StagedTransport*>(&rt.transport());
  if (t == nullptr) throw std::logic_error("not a StagedTransport");
  return *t;
}

/// One p = 2 boundary carrying `value` each way, checked on arrival.
inline std::function<void(Worker&)> ping(int value) {
  return [value](Worker& w) {
    w.send(1 - w.pid(), value);
    w.sync();
    const Message* m = w.get_message();
    if (m == nullptr || m->as<int>() != value) {
      throw std::logic_error("staged: missing or wrong message");
    }
  };
}

/// A run whose every exchange completed leaves every stream drained, so
/// consecutive run() calls keep the mesh of the first build.
inline void clean_runs_reuse_the_mesh(const RankConfig& cfg_of) {
  on_runtimes(2, cfg_of, [](Runtime& rt) {
    rt.run(ping(10));
    EXPECT_EQ(staged(rt).debug_mesh_builds(), 1u);
    rt.run(ping(11));
    rt.run(ping(12));
    EXPECT_EQ(staged(rt).debug_mesh_builds(), 1u)
        << "clean runs must reuse the bootstrapped mesh";
  });
}

/// How many ranks `rt` hosts: all of them on the socketpair mesh, one in
/// process mode.
inline int hosted_ranks(const Runtime& rt) {
  return rt.config().delivery == DeliveryStrategy::Socket
             ? rt.config().nprocs
             : 1;
}

/// Sends `len` bytes of a payload that names its sender, destination and
/// superstep and its index k in that superstep's sends to `dest`.
inline void send_marked(Worker& w, int dest, int step, std::size_t k,
                        std::size_t len) {
  std::vector<std::uint8_t> buf(len);
  for (std::size_t i = 0; i < len; ++i) {
    buf[i] = static_cast<std::uint8_t>(i * 13 + w.pid() * 71 + dest * 29 +
                                       step * 7 + k * 3);
  }
  w.send_bytes(dest, buf.data(), buf.size());
}

/// Checks one received payload of send_marked (8-byte alignment, then every
/// byte) and throws a description of the first fault.
inline void check_marked(const Message& m, int dest, int step, std::size_t k,
                         std::size_t len) {
  const std::string where = "message " + std::to_string(k) + " from " +
                            std::to_string(m.source) + " in superstep " +
                            std::to_string(step);
  if (m.size() != len) {
    throw std::logic_error("staged: " + where + " has " +
                           std::to_string(m.size()) + " bytes, want " +
                           std::to_string(len) + " (order lost?)");
  }
  if (reinterpret_cast<std::uintptr_t>(m.payload.data()) % 8 != 0) {
    throw std::logic_error("staged: " + where + " is not 8-byte aligned");
  }
  const auto* got = reinterpret_cast<const std::uint8_t*>(m.payload.data());
  for (std::size_t i = 0; i < len; ++i) {
    if (got[i] != static_cast<std::uint8_t>(i * 13 + m.source * 71 +
                                            dest * 29 + step * 7 + k * 3)) {
      throw std::logic_error("staged: " + where + " corrupt at byte " +
                             std::to_string(i));
    }
  }
}

/// One superstep of the rows below: every len of `lens` to every rank,
/// itself included, interleaved over the destinations; then every received
/// message is checked against its source's send order.
inline void marked_superstep(Worker& w, int step,
                             const std::vector<std::size_t>& lens) {
  const int p = w.nprocs();
  for (std::size_t k = 0; k < lens.size(); ++k) {
    for (int d = 0; d < p; ++d) send_marked(w, d, step, k, lens[k]);
  }
  w.sync();
  std::vector<std::size_t> next(static_cast<std::size_t>(p), 0);
  while (const Message* m = w.get_message()) {
    std::size_t& k = next[m->source];
    if (k == lens.size()) {
      throw std::logic_error("staged: surplus message from " +
                             std::to_string(m->source));
    }
    check_marked(*m, w.pid(), step, k, lens[k]);
    ++k;
  }
  for (int src = 0; src < p; ++src) {
    if (next[static_cast<std::size_t>(src)] != lens.size()) {
      throw std::logic_error("staged: lost messages from " +
                             std::to_string(src));
    }
  }
}

/// Inline-sized payloads (at most MessageArena::kInlineCapacity bytes, so
/// packed into runs on the wire) alternating with out-of-line ones, which
/// split the runs; on shm the 4096 and 65536 B ones cross the slab, and
/// their 16-byte descriptors join the packed runs instead.
inline const std::vector<std::size_t> kMixedLens = {
    0, 1, 16, 33, 31, 32, 4095, 1, 16, 4096, 31, 65536, 32};

/// Packed payload runs keep every message intact, clean and under short
/// I/O: the mixed payloads cross three supersteps, then cross them again
/// under a counter-mode plan whose first 64 send and 64 receive calls per
/// rank move at most 5 and 7 bytes. Those calls end in the payload block of
/// the first stage, so they split its packed runs mid-payload on both ends.
inline void mixed_payload_runs_survive_transit(const RankConfig& cfg_of) {
  const auto program = [](Worker& w) {
    for (int s = 0; s < 3; ++s) marked_superstep(w, s, kMixedLens);
  };
  on_runtimes(cfg_of(0).nprocs, cfg_of, [&](Runtime& rt) {
    const RunStats clean = rt.run(program);
    rt.set_fault_plan(parse_fault_plan(
        "site=send,kind=short,arg=5,count=64;"
        "site=recv,kind=short,arg=7,count=64"));
    const RunStats faulted = rt.run(program);
    EXPECT_EQ(rt.fault_injector()->fired(),
              128u * static_cast<std::uint64_t>(hosted_ranks(rt)));
    EXPECT_EQ(faulted.recoveries, 0u);
    EXPECT_EQ(faulted.total_wire_bytes(), clean.total_wire_bytes());
  });
}

/// A staged steady state allocates no slab: once warm, every superstep's
/// outboxes, self arena and inbox arena recycle in place, and a second run()
/// serves every arena from the first run's slabs. 16 B and 100 B payloads
/// sit inline and out of line; 8 KiB and 64 KiB are out of line (on shm
/// they cross the slab, and only self-sends stage them in an arena).
inline void steady_state_makes_zero_allocations(const RankConfig& cfg_of) {
  const std::vector<std::size_t> lens = {16, 100, 8192, 65536};
  on_runtimes(cfg_of(0).nprocs, cfg_of, [&](Runtime& rt) {
    std::atomic<std::uint64_t> warm{0};
    rt.run([&](Worker& w) {
      for (int s = 0; s < 4; ++s) marked_superstep(w, s, lens);
      if (w.pid() == rt.config().rank) {
        warm = rt.slab_pool().fresh_allocations();
      }
      for (int s = 4; s < 24; ++s) marked_superstep(w, s, lens);
    });
    EXPECT_EQ(rt.slab_pool().fresh_allocations(), warm.load());
    rt.run([&](Worker& w) {
      for (int s = 0; s < 24; ++s) marked_superstep(w, s, lens);
    });
    EXPECT_EQ(rt.slab_pool().fresh_allocations(), warm.load())
        << "a second run() must reuse the first run's slabs";
  });
}

/// One SOL_SOCKET option of `fd`, read as an int.
inline int socket_option(int fd, int opt) {
  int v = 0;
  socklen_t len = sizeof(v);
  EXPECT_EQ(::getsockopt(fd, SOL_SOCKET, opt, &v, &len), 0);
  return v;
}

/// SO_SNDBUF, then SO_RCVBUF, of every endpoint `rt` owns, in (pid, peer)
/// order.
inline std::vector<int> kernel_buffers(Runtime& rt) {
  std::vector<int> out;
  const int p = rt.config().nprocs;
  for (int pid = 0; pid < p; ++pid) {
    for (int peer = 0; peer < p; ++peer) {
      const int fd = staged(rt).debug_raw_fd(pid, peer);
      if (fd < 0) continue;  // self, or a rank another process owns
      out.push_back(socket_option(fd, SO_SNDBUF));
      out.push_back(socket_option(fd, SO_RCVBUF));
    }
  }
  return out;
}

/// Kernel buffers carry no history. p = 2: every endpoint's SO_SNDBUF and
/// SO_RCVBUF read the same after eight supersteps of small messages as
/// after one more superstep whose stages exceed the 4 MiB the mesh requests
/// at build, and no reading is below what a fresh stream socket of the
/// endpoint's family gets by default.
inline void kernel_buffers_are_history_independent(const RankConfig& cfg_of) {
  on_runtimes(2, cfg_of, [](Runtime& rt) {
    rt.run([](Worker& w) {
      for (int s = 0; s < 8; ++s) marked_superstep(w, s, {16, 100});
    });
    const std::vector<int> after_small = kernel_buffers(rt);
    rt.run([](Worker& w) {
      marked_superstep(w, 0, {(std::size_t{4} << 20) + 4096});
    });
    EXPECT_EQ(kernel_buffers(rt), after_small)
        << "a stage above the buffer request resized the kernel buffers";

    const int me = rt.config().rank;
    const int fd = staged(rt).debug_raw_fd(me, 1 - me);
    const int fresh = ::socket(socket_option(fd, SO_DOMAIN), SOCK_STREAM, 0);
    ASSERT_GE(fresh, 0);
    const int fresh_buf[2] = {socket_option(fresh, SO_SNDBUF),
                              socket_option(fresh, SO_RCVBUF)};
    ::close(fresh);
    for (std::size_t i = 0; i < after_small.size(); ++i) {
      EXPECT_GE(after_small[i], fresh_buf[i % 2])
          << (i % 2 == 0 ? "SO_SNDBUF" : "SO_RCVBUF") << " of endpoint "
          << i / 2 << " is below a fresh socket's default";
    }
  });
}

/// A plan with one rule: an injected EINTR at rank 0's PollCall site.
inline FaultPlan poll_eintr_on_rank0() {
  FaultRule r;
  r.site = FaultSite::PollCall;
  r.kind = FaultKind::Eintr;
  r.rank = 0;
  FaultPlan plan;
  plan.rules = {r};
  return plan;
}

/// The PollCall site sits in the one idle-wait step both scheduling modes
/// share, in front of every park. p = 2; rank 1 holds back its sync until
/// rank 0's injector has fired, so rank 0 must idle past its spin until its
/// wait reaches the site (rank 1 gives up after 10 s, and the row fails).
/// The injected EINTR must be absorbed there: no retry, and the same
/// message and wire traffic as a fault-free run on the same Runtime.
inline void poll_site_fires_while_waiting(const RankConfig& cfg_of) {
  // Installed on rank 0's transport and owned here, so it outlives both
  // ranks' Runtimes and rank 1 may watch it.
  FaultInjector rank0_faults(poll_eintr_on_rank0());
  const auto held_ping = [&rank0_faults](Worker& w) {
    const auto give_up =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (w.pid() == 1 && rank0_faults.fired() == 0 &&
           std::chrono::steady_clock::now() < give_up) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    ping(7)(w);
  };
  on_runtimes(2, cfg_of, [&](Runtime& rt) {
    const RunStats clean = rt.run(ping(7));
    if (rt.config().rank == 0) {
      rt.transport().set_fault_injector(&rank0_faults);
    }
    const RunStats faulted = rt.run(held_ping);
    EXPECT_EQ(faulted.recoveries, 0u);
    EXPECT_EQ(faulted.total_wire_bytes(), clean.total_wire_bytes());
  });
  EXPECT_EQ(rank0_faults.fired(), 1u)
      << "rank 0's idle wait never reached the poll site";
}

/// A parked rank wakes when its peer's bytes land, not at the stage timeout.
/// p = 2, three supersteps; in each, rank 1 sleeps 20 ms and then sends, so
/// rank 0 spins out and parks (on rings, until rank 1's write rings the
/// doorbell). Rank 1 stays in the run, waiting on rank 0's next stage, so a
/// lost wake-up stalls the run into the stage timeout (3 s here) once per
/// superstep, and the row fails on time.
inline void parked_rank_wakes_on_peer_bytes(const RankConfig& cfg_of) {
  const auto program = [](Worker& w) {
    for (int s = 0; s < 3; ++s) {
      if (w.pid() == 1) {
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
        w.send(0, s);
      }
      w.sync();
      const Message* m = w.get_message();
      if (w.pid() == 0 && (m == nullptr || m->as<int>() != s)) {
        throw std::logic_error("staged: rank 1's message was lost");
      }
    }
  };
  on_runtimes(
      2,
      [&cfg_of](int r) {
        Config cfg = cfg_of(r);
        cfg.socket_stage_timeout_ms = 3'000;
        return cfg;
      },
      [&](Runtime& rt) {
        const auto t0 = std::chrono::steady_clock::now();
        rt.run(program);
        EXPECT_LT(std::chrono::steady_clock::now() - t0,
                  std::chrono::seconds(2))
            << "a parked rank slept past its peer's bytes";
      });
}

/// An abort wakes a parked wait at once. Socket, Parallel, p = 4: ranks 0-2
/// sync and park on rank 3, which sleeps 200 ms and then throws. run() must
/// rethrow rank 3's error within 2 s, long before the stage timeout (10 s
/// by default) that would otherwise end the parks. Only a mesh that hosts
/// every rank shares one abort between them, so the row is socket's.
inline void abort_wakes_parked_waiter(const Config& cfg) {
  Runtime rt(cfg);
  const auto t0 = std::chrono::steady_clock::now();
  try {
    rt.run([](Worker& w) {
      if (w.pid() == 3) {
        std::this_thread::sleep_for(std::chrono::milliseconds(200));
        throw std::runtime_error("rank 3 failed");
      }
      w.sync();
    });
    ADD_FAILURE() << "rank 3's error must surface";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "rank 3 failed");
  }
  EXPECT_LT(std::chrono::steady_clock::now() - t0, std::chrono::seconds(2))
      << "the abort did not wake the parked ranks";
}

/// The watchdog's abort wakes a parked rank. Process mode, p = 2: rank 0 has
/// superstep_deadline_ms = 200 and parks on rank 1, which sleeps 3 s before
/// its sync. Rank 0 must throw the watchdog's error within 2 s, not the
/// stage timeout's. Rank 1 then exchanges with a peer that is gone; either
/// end of its run is fine.
inline void watchdog_wakes_parked_rank(const RankConfig& cfg_of) {
  on_ranks(2, [&](int r) {
    Config cfg = cfg_of(r);
    if (r == 0) cfg.superstep_deadline_ms = 200;
    Runtime rt(cfg);
    const auto t0 = std::chrono::steady_clock::now();
    try {
      rt.run([](Worker& w) {
        if (w.pid() == 1) std::this_thread::sleep_for(std::chrono::seconds(3));
        w.sync();
      });
      if (r == 0) ADD_FAILURE() << "rank 0's watchdog must fire";
    } catch (const BspTransportError& e) {
      if (r == 0) {
        EXPECT_NE(std::string(e.what()).find("watchdog"), std::string::npos)
            << e.what();
      }
    }
    if (r == 0) {
      EXPECT_LT(std::chrono::steady_clock::now() - t0,
                std::chrono::seconds(2))
          << "the watchdog's abort did not wake rank 0's park";
    }
  });
}

/// Process mode, p = 2. Phase 1: both ranks run clean. Phase 2: rank 1's
/// process "dies" (its Runtime is destroyed, closing its endpoints); rank
/// 0's next exchange must surface BspTransportError, not hang. Phase 3: a
/// fresh rank-1 incarnation appears and rank 0's SAME Runtime — wire marked
/// dirty by the failure — rebuilds the mesh and completes.
inline void peer_death_surfaces_and_mesh_rebuilds(const RankConfig& cfg_of) {
  std::promise<void> rank1_dead;
  std::promise<void> rank0_failed;
  std::thread rank0([&] {
    Config cfg = cfg_of(0);
    cfg.socket_stage_timeout_ms = 20'000;
    Runtime rt(cfg);
    rt.run(ping(7));  // phase 1
    rank1_dead.get_future().wait();
    try {
      rt.run(ping(7));  // phase 2: peer is gone
      ADD_FAILURE() << "exchange against a dead peer must throw";
    } catch (const BspTransportError& e) {
      // expected: EOF on the stream or control channel, wire now dirty —
      // not the stage timeout, which would mean the dead rank's endpoints
      // outlived its Runtime
      EXPECT_EQ(std::string(e.what()).find("made no progress"),
                std::string::npos)
          << e.what();
    }
    rank0_failed.set_value();
    rt.run(ping(7));  // phase 3: rebuild against the new incarnation
    EXPECT_EQ(staged(rt).debug_mesh_builds(), 2u)
        << "the failed run must force exactly one mesh rebuild";
  });
  std::thread rank1([&] {
    {
      Runtime rt(cfg_of(1));
      rt.run(ping(7));  // phase 1
    }  // Runtime destroyed: endpoints closed, "process death"
    rank1_dead.set_value();
    rank0_failed.get_future().wait();
    Config cfg = cfg_of(1);
    cfg.tcp_connect_timeout_ms = 20'000;
    Runtime rt(cfg);
    rt.run(ping(7));  // phase 3
  });
  rank0.join();
  rank1.join();
}

// ---------------------------------------------------------------------------
// Process-mode bootstrap rows. TcpMesh and ShmMesh run one rendezvous (the
// RankMesh base), so every failure mode below is one body run on both media.
// ---------------------------------------------------------------------------

/// One process-mode medium as the bootstrap rows see it.
struct Medium {
  /// Rank r's Config of an nprocs-rank run on this medium.
  std::function<Config(int rank, int nprocs)> cfg;
  /// A raw client link to rank 0's listener (an impersonated peer); retries
  /// until the listener is up.
  std::function<int()> dial;
  /// A raw listener on rank 0's endpoint (an impersonated rank 0).
  std::function<int()> listen;
  /// What the medium's dialer-side rank mismatch names as the likely cause.
  std::string skew_cause;
};

/// The process-mode mesh `cfg.delivery` names, for rank cfg.rank.
inline std::unique_ptr<detail::Mesh> make_mesh(const Config& cfg) {
  if (cfg.delivery == DeliveryStrategy::Tcp) {
    return std::make_unique<detail::TcpMesh>(cfg);
  }
  return std::make_unique<detail::ShmMesh>(cfg);
}

/// A valid hello of rank `rank` in an nprocs-rank run.
inline detail::RankHello hello(int rank, int nprocs) {
  detail::RankHello h;
  h.rank = static_cast<std::uint32_t>(rank);
  h.nprocs = static_cast<std::uint32_t>(nprocs);
  return h;
}

/// Writes the n bytes at `buf` to `fd` in one send.
inline void send_all(int fd, const void* buf, std::size_t n) {
  EXPECT_EQ(::send(fd, buf, n, MSG_NOSIGNAL), static_cast<ssize_t>(n));
}

/// Reads from `fd` until the other end closes it, then closes `fd`: a fake
/// peer's way to stay on the link until the mesh under test gives up on it.
inline void drain_and_close(int fd) {
  char sink[64];
  while (::recv(fd, sink, sizeof(sink), 0) > 0) {
  }
  ::close(fd);
}

/// Accepts one link on an impersonated rank 0's listener `lfd` and reads the
/// dialer's hello (the dialer speaks first). Returns the link.
inline int accept_hello(int lfd) {
  const int fd = ::accept(lfd, nullptr, nullptr);
  EXPECT_GE(fd, 0);
  detail::RankHello in;
  EXPECT_EQ(::recv(fd, &in, sizeof(in), MSG_WAITALL),
            static_cast<ssize_t>(sizeof(in)));
  return fd;
}

/// Runs `mesh.build(nprocs)`, which must fail with a BspTransportError whose
/// text contains every needle, and leave the mesh dirty.
inline void expect_build_fails(detail::Mesh& mesh, int nprocs,
                               const std::vector<std::string>& needles) {
  try {
    mesh.build(nprocs);
    ADD_FAILURE() << "the bootstrap must fail";
  } catch (const BspTransportError& e) {
    const std::string what = e.what();
    for (const std::string& n : needles) {
      EXPECT_NE(what.find(n), std::string::npos) << what;
    }
  }
  EXPECT_TRUE(mesh.dirty()) << "a failed build must leave the mesh dirty";
}

/// The hello every process-mode mesh must refuse, one row per field.
enum class BadHello { Version, Rank, Nprocs, Reserved };

/// Builds rank 0 of 2 against a fake rank-1 peer that speaks a hello that is
/// wrong in `bad`. The build must fail with a descriptive BspTransportError
/// and leave the mesh dirty.
inline void expect_bad_hello_rejected(const Medium& m, BadHello bad) {
  detail::RankHello h = hello(1, 2);
  std::vector<std::string> needles;
  switch (bad) {
    case BadHello::Version:
      h.version = 99;  // wrong protocol version, correct magic
      needles = {"version mismatch", "v99"};
      break;
    case BadHello::Rank:
      h.rank = 7;  // far outside a 2-rank run
      needles = {"rank mismatch", "rank 7"};
      break;
    case BadHello::Nprocs:
      h.nprocs = 8;  // launched with a different -p than us
      needles = {"nprocs mismatch", "8 ranks"};
      break;
    case BadHello::Reserved:
      h.reserved = 1;  // transmitted zero by every gbsp rank
      needles = {"nonzero reserved field"};
      break;
  }
  Config cfg = m.cfg(0, 2);
  cfg.tcp_connect_timeout_ms = 5'000;
  const auto mesh = make_mesh(cfg);
  std::thread fake_peer([&] {
    const int fd = m.dial();
    send_all(fd, &h, sizeof(h));
    drain_and_close(fd);
  });
  expect_build_fails(*mesh, 2, needles);
  fake_peer.join();
}

/// Rank 1 of 2 dials a rank 0 that never launches: the dial retry loop must
/// give up at tcp_connect_timeout_ms with a message that names the missing
/// rank and the knob, not hang.
inline void partial_connect_times_out(const Medium& m) {
  Config cfg = m.cfg(1, 2);
  cfg.tcp_connect_timeout_ms = 300;
  const auto mesh = make_mesh(cfg);
  expect_build_fails(*mesh, 2,
                     {"connect to rank 0", "timed out",
                      "tcp_connect_timeout_ms=300"});
}

/// Rank 0 of 3 sees rank 1 arrive but rank 2 never does: the accept loop
/// must report how many ranks are missing.
inline void partial_accept_times_out(const Medium& m) {
  Config c0 = m.cfg(0, 3);
  c0.tcp_connect_timeout_ms = 1'500;
  const auto mesh = make_mesh(c0);
  std::thread half_peer([&] {
    // Rank 1 dials rank 0 and then waits for rank 2 forever (bounded by its
    // own timeout); its failure is expected and swallowed.
    Config c1 = m.cfg(1, 3);
    c1.tcp_connect_timeout_ms = 2'000;
    EXPECT_THROW(make_mesh(c1)->build(3), BspTransportError);
  });
  expect_build_fails(*mesh, 3, {"timed out", "still unconnected"});
  half_peer.join();
}

/// A peer that connects and dies before its hello fails the accepting
/// rank's build descriptively; the same mesh object then builds clean with
/// a real rank 1.
inline void peer_death_during_accept(const Medium& m) {
  Config cfg = m.cfg(0, 2);
  cfg.tcp_connect_timeout_ms = 2'000;
  const auto mesh = make_mesh(cfg);
  std::thread fake_peer([&] {
    ::close(m.dial());  // connect, then die before speaking
  });
  expect_build_fails(*mesh, 2, {"peer died during accept"});
  fake_peer.join();

  std::thread peer([&] {
    const auto pm = make_mesh(m.cfg(1, 2));
    pm->build(2);
    EXPECT_FALSE(pm->dirty());
  });
  mesh->build(2);
  EXPECT_FALSE(mesh->dirty());
  peer.join();
}

/// An HTTP client wandering into rank 0's listener must not join the mesh.
inline void stray_client_with_bad_magic(const Medium& m) {
  Config cfg = m.cfg(0, 2);
  cfg.tcp_connect_timeout_ms = 5'000;
  const auto mesh = make_mesh(cfg);
  std::thread fake_peer([&] {
    const int fd = m.dial();
    const char junk[24] = "GET / HTTP/1.1\r\n";  // not a gbsp rank at all
    send_all(fd, junk, sizeof(junk));
    drain_and_close(fd);
  });
  expect_build_fails(*mesh, 2, {"bad magic", "not a gbsp mesh rank"});
  fake_peer.join();
}

/// Rank 0 of 3 is dialed by two fake peers that both claim rank 1 (two
/// processes launched with the same rank): the second hello must fail the
/// build, whichever of the two is accepted first.
inline void duplicate_rank_rejected(const Medium& m) {
  Config cfg = m.cfg(0, 3);
  cfg.tcp_connect_timeout_ms = 5'000;
  const auto mesh = make_mesh(cfg);
  const auto fake_rank1 = [&] {
    const int fd = m.dial();
    const detail::RankHello h = hello(1, 3);
    send_all(fd, &h, sizeof(h));
    drain_and_close(fd);
  };
  std::thread a(fake_rank1);
  std::thread b(fake_rank1);
  expect_build_fails(*mesh, 3, {"duplicate rank handshake", "rank 1"});
  a.join();
  b.join();
}

/// Rank 1 dials a fake rank 0 that answers claiming rank 1: the dialer must
/// fail with the medium's likely cause (a skewed port map, or an shm_name
/// shared by two runs) instead of joining the wrong rank.
inline void dialer_rank_mismatch(const Medium& m) {
  const int lfd = m.listen();
  std::thread fake_rank0([&] {
    const int fd = accept_hello(lfd);
    const detail::RankHello h = hello(1, 2);
    send_all(fd, &h, sizeof(h));
    drain_and_close(fd);
    ::close(lfd);
  });
  Config cfg = m.cfg(1, 2);
  cfg.tcp_connect_timeout_ms = 5'000;
  const auto mesh = make_mesh(cfg);
  expect_build_fails(*mesh, 2, {"rank mismatch", m.skew_cause});
  fake_rank0.join();
}

/// A dial whose peer closes the link during the hello is retried, not
/// fatal: the peer may be a previous incarnation tearing down. A fake rank
/// 0 accepts rank 1's first dial, reads its hello, closes the link without
/// answering and goes away; then the real rank 0 starts, and the SAME
/// build() call on rank 1 completes against it.
inline void close_during_hello_is_retried(const Medium& m) {
  const int lfd = m.listen();
  Config cfg = m.cfg(1, 2);
  cfg.tcp_connect_timeout_ms = 10'000;
  const auto mesh = make_mesh(cfg);
  on_ranks(2, [&](int r) {
    if (r == 1) {
      mesh->build(2);
      return;
    }
    ::close(accept_hello(lfd));
    ::close(lfd);
    Config c0 = m.cfg(0, 2);
    c0.tcp_connect_timeout_ms = 5'000;
    make_mesh(c0)->build(2);
  });
  EXPECT_FALSE(mesh->dirty());
  EXPECT_EQ(mesh->builds(), 1u);
}

}  // namespace gbsp::staged_rows
