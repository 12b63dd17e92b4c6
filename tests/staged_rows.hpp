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

#include <exception>
#include <functional>
#include <future>
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
    } catch (const BspTransportError&) {
      // expected: EOF on the stream or control channel, wire now dirty
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

/// The hello every process-mode mesh must refuse, one row per field.
enum class BadHello { Version, Rank, Nprocs };

/// Builds `mesh`, rank 0 of 2, against a fake rank-1 peer that reaches its
/// listener through `dial()` and speaks a hello that is wrong in `bad`. The
/// build must fail with a descriptive BspTransportError and leave the mesh
/// dirty.
inline void expect_bad_hello_rejected(detail::Mesh& mesh,
                                      const std::function<int()>& dial,
                                      BadHello bad) {
  detail::RankHello h;
  h.rank = 1;
  h.nprocs = 2;
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
  }
  std::thread fake_peer([&] {
    const int fd = dial();
    ASSERT_EQ(::send(fd, &h, sizeof(h), MSG_NOSIGNAL),
              static_cast<ssize_t>(sizeof(h)));
    char sink[64];
    (void)::recv(fd, sink, sizeof(sink), 0);  // wait for the close
    ::close(fd);
  });
  try {
    mesh.build(2);
    ADD_FAILURE() << "a bad hello must fail the handshake";
  } catch (const BspTransportError& e) {
    const std::string what = e.what();
    for (const std::string& n : needles) {
      EXPECT_NE(what.find(n), std::string::npos) << what;
    }
  }
  EXPECT_TRUE(mesh.dirty());
  fake_peer.join();
}

}  // namespace gbsp::staged_rows
