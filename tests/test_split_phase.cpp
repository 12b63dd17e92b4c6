// The split-phase boundary contract (Worker::sync_begin()/sync_end()),
// tested as a matrix over every transport:
//
//   * a bare sync_begin()+sync_end() pair is semantically one sync() —
//     message delivery, boundary counting, and multi-superstep results are
//     bit-identical to the rigid program;
//   * compute placed inside the window runs to completion before delivery
//     is observed, and is charged to the superstep the window closed;
//   * the window forbids sending, inbox access, a second sync_begin(), a
//     plain sync(), and returning from the SPMD function — all diagnosed
//     with std::logic_error naming the offense;
//   * rigid and split workers can meet at the same boundary;
//   * a transport fault inside the window recovers bit-identically under
//     both checkpoint-resume and whole-run replay, exactly like a fault
//     during a rigid sync() (test_fault.cpp's contract).
#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdint>
#include <stdexcept>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "core/fault.hpp"
#include "core/runtime.hpp"
#include "core/transport.hpp"

namespace gbsp {
namespace {

constexpr int kProcs = 4;
constexpr std::uint64_t kSteps = 6;

Config base_config(DeliveryStrategy delivery) {
  Config cfg;
  cfg.nprocs = kProcs;
  cfg.delivery = delivery;
  cfg.deterministic_delivery = true;
  if (delivery == DeliveryStrategy::Socket) {
    cfg.socket_stage_timeout_ms = 2000;
  }
  return cfg;
}

/// How the ring program crosses its boundaries.
enum class Boundary {
  Rigid,          ///< w.sync()
  SplitEmpty,     ///< sync_begin(); sync_end() — nothing in the window
  SplitCompute,   ///< sync_begin(); local compute + sync_progress(); sync_end()
};

/// The same multiplicative ring accumulator as test_fault.cpp — every
/// superstep's value depends on every prior message on every rank, so
/// equality of the final accumulators is a bit-identity assertion over the
/// whole message history. Resume-aware per the Worker recovery API.
std::vector<std::uint64_t> run_ring(Runtime& rt, Boundary boundary,
                                    RunStats* stats_out) {
  std::vector<std::uint64_t> accs(
      static_cast<std::size_t>(rt.config().nprocs), 0);
  RunStats stats = rt.run([&accs, boundary](Worker& w) {
    const int p = w.nprocs();
    std::uint64_t& acc = accs[static_cast<std::size_t>(w.pid())];
    w.register_checkpoint_region(&acc, sizeof(acc));
    if (!w.resumed()) acc = 1000 + static_cast<std::uint64_t>(w.pid());
    for (std::uint64_t s = w.resume_superstep(); s < kSteps; ++s) {
      if (s > 0) {
        const Message* m = w.get_message();
        ASSERT_NE(m, nullptr);
        acc = acc * 31 + m->as<std::uint64_t>() + (s - 1);
      }
      w.send((w.pid() + 1) % p, acc);
      switch (boundary) {
        case Boundary::Rigid:
          w.sync();
          break;
        case Boundary::SplitEmpty:
          w.sync_begin();
          w.sync_end();
          break;
        case Boundary::SplitCompute: {
          w.sync_begin();
          // Local-only busywork inside the window, long enough to register
          // in the overlap stats, interleaved with progress pumping.
          volatile std::uint64_t sink = acc;
          for (int i = 0; i < 20000; ++i) {
            sink = sink * 6364136223846793005ULL + 1442695040888963407ULL;
            if (i % 5000 == 0) (void)w.sync_progress();
          }
          w.sync_end();
          break;
        }
      }
    }
    const Message* last = w.get_message();
    ASSERT_NE(last, nullptr);
    acc = acc * 31 + last->as<std::uint64_t>() + (kSteps - 1);
  });
  if (stats_out != nullptr) *stats_out = std::move(stats);
  return accs;
}

std::vector<std::uint64_t> reference_result(DeliveryStrategy delivery) {
  Runtime rt(base_config(delivery));
  return run_ring(rt, Boundary::Rigid, nullptr);
}

class SplitPhaseMatrix : public ::testing::TestWithParam<DeliveryStrategy> {};

TEST_P(SplitPhaseMatrix, BareSplitPairMatchesRigidBitIdentically) {
  const std::vector<std::uint64_t> expected = reference_result(GetParam());
  Runtime rt(base_config(GetParam()));
  EXPECT_EQ(run_ring(rt, Boundary::SplitEmpty, nullptr), expected);
}

TEST_P(SplitPhaseMatrix, ComputeInsideWindowMatchesRigidBitIdentically) {
  const std::vector<std::uint64_t> expected = reference_result(GetParam());
  Runtime rt(base_config(GetParam()));
  RunStats stats;
  EXPECT_EQ(run_ring(rt, Boundary::SplitCompute, &stats), expected);
  // The window's compute must register: at least one superstep saw a
  // nonzero overlap window on some worker.
  EXPECT_GT(stats.overlap_s(), 0.0);
}

TEST_P(SplitPhaseMatrix, SendInsideWindowIsDiagnosed) {
  Runtime rt(base_config(GetParam()));
  try {
    rt.run([](Worker& w) {
      w.send((w.pid() + 1) % w.nprocs(), std::uint64_t{1});
      w.sync_begin();
      if (w.pid() == 0) w.send(1, std::uint64_t{2});  // forbidden
      w.sync_end();
      while (w.get_message() != nullptr) {
      }
    });
    FAIL() << "expected std::logic_error";
  } catch (const std::logic_error& e) {
    EXPECT_NE(std::string(e.what()).find("split-phase window"),
              std::string::npos)
        << e.what();
  }
}

TEST_P(SplitPhaseMatrix, InboxAccessInsideWindowIsDiagnosed) {
  Runtime rt(base_config(GetParam()));
  EXPECT_THROW(rt.run([](Worker& w) {
                 w.sync_begin();
                 if (w.pid() == 0) (void)w.get_message();
                 w.sync_end();
               }),
               std::logic_error);
  EXPECT_THROW(rt.run([](Worker& w) {
                 w.sync_begin();
                 if (w.pid() == 0) (void)w.pending();
                 w.sync_end();
               }),
               std::logic_error);
  EXPECT_THROW(rt.run([](Worker& w) {
                 w.sync_begin();
                 if (w.pid() == 0) (void)w.inbox();
                 w.sync_end();
               }),
               std::logic_error);
}

TEST_P(SplitPhaseMatrix, DoubleBeginIsDiagnosed) {
  Runtime rt(base_config(GetParam()));
  EXPECT_THROW(rt.run([](Worker& w) {
                 w.sync_begin();
                 if (w.pid() == 0) w.sync_begin();  // forbidden
                 w.sync_end();
               }),
               std::logic_error);
}

TEST_P(SplitPhaseMatrix, RigidSyncInsideWindowIsDiagnosed) {
  Runtime rt(base_config(GetParam()));
  EXPECT_THROW(rt.run([](Worker& w) {
                 w.sync_begin();
                 if (w.pid() == 0) w.sync();  // forbidden
                 w.sync_end();
               }),
               std::logic_error);
}

TEST_P(SplitPhaseMatrix, SyncEndWithoutBeginIsDiagnosed) {
  Runtime rt(base_config(GetParam()));
  EXPECT_THROW(rt.run([](Worker& w) {
                 if (w.pid() == 0) {
                   w.sync_end();  // no matching sync_begin
                 } else {
                   w.sync();
                 }
               }),
               std::logic_error);
}

TEST_P(SplitPhaseMatrix, ReturningInsideWindowIsDiagnosed) {
  Runtime rt(base_config(GetParam()));
  try {
    rt.run([](Worker& w) {
      w.sync_begin();
      if (w.pid() != 0) w.sync_end();
      // pid 0 returns mid-window: missing sync_end.
    });
    FAIL() << "expected std::logic_error";
  } catch (const std::logic_error& e) {
    EXPECT_NE(std::string(e.what()).find("sync_end"), std::string::npos)
        << e.what();
  }
}

TEST_P(SplitPhaseMatrix, MixedRigidAndSplitWorkersMeetAtOneBoundary) {
  // Even pids cross with the split pair, odd pids with rigid sync(); the
  // pair counts as exactly one boundary, so the ring still closes.
  const std::vector<std::uint64_t> expected = reference_result(GetParam());
  Runtime rt(base_config(GetParam()));
  std::vector<std::uint64_t> accs(kProcs, 0);
  rt.run([&accs](Worker& w) {
    const int p = w.nprocs();
    std::uint64_t& acc = accs[static_cast<std::size_t>(w.pid())];
    w.register_checkpoint_region(&acc, sizeof(acc));
    if (!w.resumed()) acc = 1000 + static_cast<std::uint64_t>(w.pid());
    for (std::uint64_t s = w.resume_superstep(); s < kSteps; ++s) {
      if (s > 0) {
        const Message* m = w.get_message();
        ASSERT_NE(m, nullptr);
        acc = acc * 31 + m->as<std::uint64_t>() + (s - 1);
      }
      w.send((w.pid() + 1) % p, acc);
      if (w.pid() % 2 == 0) {
        w.sync_begin();
        w.sync_end();
      } else {
        w.sync();
      }
    }
    const Message* last = w.get_message();
    ASSERT_NE(last, nullptr);
    acc = acc * 31 + last->as<std::uint64_t>() + (kSteps - 1);
  });
  EXPECT_EQ(accs, expected);
}

TEST_P(SplitPhaseMatrix, SerializedSchedulingSupportsSplitBoundaries) {
  Config cfg = base_config(GetParam());
  cfg.scheduling = Scheduling::Serialized;
  const std::vector<std::uint64_t> expected = [&] {
    Runtime ref(cfg);
    return run_ring(ref, Boundary::Rigid, nullptr);
  }();
  Runtime rt(cfg);
  EXPECT_EQ(run_ring(rt, Boundary::SplitCompute, nullptr), expected);
}

TEST_P(SplitPhaseMatrix, ProgressOutsideWindowIsANoOp) {
  Runtime rt(base_config(GetParam()));
  rt.run([](Worker& w) {
    EXPECT_FALSE(w.sync_progress());  // no window open
    w.sync();
  });
}

std::string transport_name(
    const ::testing::TestParamInfo<DeliveryStrategy>& info) {
  return info.param == DeliveryStrategy::Deferred ? "Deferred"
         : info.param == DeliveryStrategy::Eager  ? "Eager"
                                                  : "Socket";
}

INSTANTIATE_TEST_SUITE_P(AllTransports, SplitPhaseMatrix,
                         ::testing::Values(DeliveryStrategy::Deferred,
                                           DeliveryStrategy::Eager,
                                           DeliveryStrategy::Socket),
                         transport_name);

// ------------------------------------------------------------------ socket

TEST(SplitPhaseSocket, ProgressEventuallyReportsDrained) {
  // With real incremental progress, a long-enough window must see
  // sync_progress() reach the drained state on every worker before
  // sync_end() — on loopback the 4-rank exchange of one small message per
  // peer completes far faster than the spin below.
  Config cfg = base_config(DeliveryStrategy::Socket);
  Runtime rt(cfg);
  std::vector<int> drained(kProcs, 0);
  rt.run([&drained](Worker& w) {
    const int p = w.nprocs();
    for (int d = 0; d < p; ++d) w.send(d, std::uint64_t{42});
    w.sync_begin();
    for (int i = 0; i < 1000000 && !w.sync_progress(); ++i) {
    }
    drained[static_cast<std::size_t>(w.pid())] =
        w.sync_progress() ? 1 : 0;
    w.sync_end();
    EXPECT_EQ(w.pending(), static_cast<std::size_t>(p));
    while (w.get_message() != nullptr) {
    }
  });
  for (int r = 0; r < kProcs; ++r) {
    EXPECT_EQ(drained[static_cast<std::size_t>(r)], 1)
        << "rank " << r << " never drained its window";
  }
}

TEST(SplitPhaseSocket, OverlapMovesWireBytes) {
  // The tentpole's observable: with compute in the window, some wire bytes
  // must move *during* the window (counted separately from the boundary
  // total), proving the exchange really overlapped the compute.
  Config cfg = base_config(DeliveryStrategy::Socket);
  Runtime rt(cfg);
  RunStats stats;
  run_ring(rt, Boundary::SplitCompute, &stats);
  std::uint64_t overlapped = 0;
  for (const SuperstepStats& s : stats.supersteps) {
    overlapped += s.total_overlap_wire_bytes;
  }
  EXPECT_GT(overlapped, 0u) << "no wire bytes moved inside any window";
  // Window bytes are a (possibly complete) subset of the boundary totals.
  EXPECT_GE(stats.total_wire_bytes(), overlapped);
}

// Faults inside the split-phase window: same recovery contract as
// test_fault.cpp's rigid-sync matrix — bit-identical results under both
// checkpoint-resume and whole-run replay.
class SplitPhaseFault : public ::testing::TestWithParam<bool /*checkpoint*/> {
};

TEST_P(SplitPhaseFault, FaultInWindowRecoversBitIdentical) {
  const bool checkpointing = GetParam();
  const std::vector<std::uint64_t> expected =
      reference_result(DeliveryStrategy::Socket);

  Config cfg = base_config(DeliveryStrategy::Socket);
  cfg.checkpoint_every = checkpointing ? 1 : 0;
  cfg.max_run_retries = 3;
  cfg.retry_backoff_us = 100;
  cfg.superstep_deadline_ms = 150;
  Runtime rt(cfg);

  // Peer death mid-exchange at superstep 2: with split boundaries the
  // injection lands inside rank 1's overlap window (begin_exchange or the
  // progress pumps), the place the rigid matrix can never reach.
  FaultPlan plan;
  FaultRule r;
  r.site = FaultSite::SendCall;
  r.kind = FaultKind::PeerHangup;
  r.rank = 1;
  r.superstep = 2;
  plan.rules.push_back(r);
  rt.set_fault_plan(plan);

  RunStats stats;
  std::vector<std::uint64_t> got = run_ring(rt, Boundary::SplitCompute, &stats);
  EXPECT_EQ(got, expected) << "split-phase recovery diverged";
  EXPECT_GE(stats.recoveries, 1u) << "the fault never actually fired";
  EXPECT_GE(rt.fault_injector()->fired(), 1u);

  // The recovered runtime must still be clean: a fault-free split re-run
  // reproduces the result without growing the slab pool.
  rt.clear_fault_plan();
  std::vector<std::uint64_t> warm = run_ring(rt, Boundary::SplitCompute, nullptr);
  EXPECT_EQ(warm, expected);
  const std::uint64_t fresh_warm = rt.slab_pool().fresh_allocations();
  std::vector<std::uint64_t> again = run_ring(rt, Boundary::SplitCompute, nullptr);
  EXPECT_EQ(again, expected);
  EXPECT_EQ(rt.slab_pool().fresh_allocations(), fresh_warm)
      << "steady-state split re-run allocated fresh slabs";
}

INSTANTIATE_TEST_SUITE_P(CkptAndReplay, SplitPhaseFault, ::testing::Bool(),
                         [](const ::testing::TestParamInfo<bool>& info) {
                           return info.param ? std::string("Ckpt")
                                             : std::string("Replay");
                         });

// --------------------------------------------------------------- shm ranks

TEST(SplitPhaseShm, SplitWindowMatchesRigidAcrossRanks) {
  // The split-phase contract over the cross-process shm transport: each
  // rank is a thread owning its own rank-r Runtime (as in
  // test_transport_shm.cpp), the compute-in-window variant must be
  // bit-identical to the rigid run on the SAME mesh, and the whole exchange
  // must stay zero-syscall while overlapping.
  const int p = 2;
  const std::string name =
      "sp" + std::to_string(static_cast<long>(::getpid()));
  std::vector<std::uint64_t> rigid(static_cast<std::size_t>(p), 0);
  std::vector<std::uint64_t> split(static_cast<std::size_t>(p), 0);
  std::vector<std::thread> ranks;
  std::vector<std::exception_ptr> errors(static_cast<std::size_t>(p));
  for (int r = 0; r < p; ++r) {
    ranks.emplace_back([&, r] {
      try {
        Config cfg;
        cfg.nprocs = p;
        cfg.delivery = DeliveryStrategy::Shm;
        cfg.rank = r;
        cfg.shm_name = name;
        cfg.deterministic_delivery = true;
        cfg.collect_stats = true;
        cfg.socket_stage_timeout_ms = 20'000;
        cfg.tcp_connect_timeout_ms = 20'000;
        Runtime rt(cfg);
        rigid[static_cast<std::size_t>(r)] =
            run_ring(rt, Boundary::Rigid, nullptr)[static_cast<std::size_t>(r)];
        RunStats stats;
        split[static_cast<std::size_t>(r)] = run_ring(
            rt, Boundary::SplitCompute, &stats)[static_cast<std::size_t>(r)];
        EXPECT_EQ(stats.total_wire_syscalls(), 0u)
            << "rank " << r << " paid syscalls inside the overlap window";
      } catch (...) {
        errors[static_cast<std::size_t>(r)] = std::current_exception();
      }
    });
  }
  for (auto& t : ranks) t.join();
  for (auto& e : errors) {
    if (e) std::rethrow_exception(e);
  }
  EXPECT_EQ(split, rigid)
      << "split-phase shm run diverged from the rigid run on the same mesh";
}

}  // namespace
}  // namespace gbsp
