// The recovery contract, tested as a matrix: every transport x every fault
// class x {with, without} checkpointing must complete Runtime::run() with
// results bit-identical to a fault-free execution, without leaking slabs and
// without masking program errors.
//
// The SPMD program is a multiplicative ring accumulator: superstep s sends
// the accumulator to the successor and folds the predecessor's value in at
// the top of superstep s+1. Every superstep's value depends on every prior
// message on every rank, so a replay that dropped, duplicated, or reordered
// one message anywhere diverges by the end — equality of the final
// accumulators IS the bit-identity assertion.
//
// The program is written against the resume contract (runtime.hpp): it
// registers its accumulator as a checkpoint region, initializes only on a
// fresh start, and fast-forwards its loop to resume_superstep(). With
// checkpointing off it degrades to whole-run replay automatically
// (resume_superstep() is 0 and registration restores nothing).
#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdint>
#include <mutex>
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
    // A wedged stage must diagnose quickly so recovery tests stay fast.
    cfg.socket_stage_timeout_ms = 2000;
  }
  return cfg;
}

/// Runs the ring program; returns the final per-rank accumulators.
/// Resume-aware per the Worker recovery API contract.
std::vector<std::uint64_t> run_ring(Runtime& rt, RunStats* stats_out) {
  std::vector<std::uint64_t> accs(
      static_cast<std::size_t>(rt.config().nprocs), 0);
  RunStats stats = rt.run([&accs](Worker& w) {
    const int p = w.nprocs();
    std::uint64_t& acc = accs[static_cast<std::size_t>(w.pid())];
    // Prologue: (re-)register state. On a resume this restores acc to the
    // checkpointed cut; on a fresh start (or whole-run replay) we init.
    w.register_checkpoint_region(&acc, sizeof(acc));
    if (!w.resumed()) acc = 1000 + static_cast<std::uint64_t>(w.pid());
    for (std::uint64_t s = w.resume_superstep(); s < kSteps; ++s) {
      if (s > 0) {
        // Fold in the message delivered at the boundary that opened s (the
        // predecessor's superstep s-1 accumulator). On a resume this very
        // message comes out of the checkpointed inbox.
        const Message* m = w.get_message();
        ASSERT_NE(m, nullptr);
        acc = acc * 31 + m->as<std::uint64_t>() + (s - 1);
      }
      w.send((w.pid() + 1) % p, acc);
      w.sync();
    }
    const Message* last = w.get_message();
    ASSERT_NE(last, nullptr);
    acc = acc * 31 + last->as<std::uint64_t>() + (kSteps - 1);
  });
  if (stats_out != nullptr) *stats_out = std::move(stats);
  return accs;
}

/// The fault-free reference result (computed once per delivery strategy).
std::vector<std::uint64_t> reference_result(DeliveryStrategy delivery) {
  Runtime rt(base_config(delivery));
  return run_ring(rt, nullptr);
}

struct FaultArm {
  const char* name;
  /// Builds the plan for this fault class on this transport. The in-memory
  /// transports have no wire, so syscall-site faults map to their boundary
  /// equivalents (documented per arm below).
  FaultPlan (*plan)(DeliveryStrategy);
  bool lethal;  ///< expects at least one recovery
};

// Peer death. Socket: rank 1 shuts down one of its endpoints mid-exchange
// (SHUT_RDWR, as if the process died) — it then fails its own send with
// EPIPE while the peer reads EOF. In-memory: a simulated death (Abort) at
// rank 1's delivery boundary.
FaultPlan peer_death_plan(DeliveryStrategy d) {
  FaultPlan plan;
  FaultRule r;
  if (d == DeliveryStrategy::Socket) {
    r.site = FaultSite::SendCall;
    r.kind = FaultKind::PeerHangup;
  } else {
    r.site = FaultSite::Deliver;
    r.kind = FaultKind::Abort;
  }
  r.rank = 1;
  r.superstep = 2;
  plan.rules.push_back(r);
  return plan;
}

// Wedge: rank 1 stalls inside boundary delivery for far longer than the
// superstep deadline; the watchdog must diagnose the hang as a transport
// error and recovery must absorb it. Uniform across transports — the
// Deliver hook exists on all three.
FaultPlan wedge_plan(DeliveryStrategy) {
  FaultPlan plan;
  FaultRule r;
  r.site = FaultSite::Deliver;
  r.kind = FaultKind::DelayUs;
  r.arg = 900'000;  // 900ms asleep vs a 150ms deadline
  r.rank = 1;
  r.superstep = 2;
  plan.rules.push_back(r);
  return plan;
}

// Corruption. Socket: XOR 0xA5 into byte 0 of a received stage preamble
// (the message-count LSB) — guaranteed detectable by the section
// cross-checks, unlike payload corruption, which the wire format cannot
// detect (DESIGN.md section 11). In-memory: a flush-site Abort stands in
// (there are no bytes to garble).
FaultPlan corruption_plan(DeliveryStrategy d) {
  FaultPlan plan;
  FaultRule r;
  if (d == DeliveryStrategy::Socket) {
    r.site = FaultSite::RecvCall;
    r.kind = FaultKind::CorruptByte;
    r.arg = 0;
  } else {
    r.site = FaultSite::Flush;
    r.kind = FaultKind::Abort;
  }
  r.rank = 1;
  r.superstep = 2;
  plan.rules.push_back(r);
  return plan;
}

// EINTR storm: benign. Socket: 50 simulated EINTRs across send/recv/poll
// sites; the audited retry loops must absorb them all with zero recoveries.
// In-memory: short delivery delays (the only benign fault with a site
// there).
FaultPlan eintr_storm_plan(DeliveryStrategy d) {
  FaultPlan plan;
  if (d == DeliveryStrategy::Socket) {
    for (FaultSite site :
         {FaultSite::SendCall, FaultSite::RecvCall, FaultSite::PollCall}) {
      FaultRule r;
      r.site = site;
      r.kind = FaultKind::Eintr;
      r.count = 50;
      plan.rules.push_back(r);
    }
  } else {
    FaultRule r;
    r.site = FaultSite::Deliver;
    r.kind = FaultKind::DelayUs;
    r.arg = 1000;
    r.count = 4;
    plan.rules.push_back(r);
  }
  return plan;
}

const FaultArm kArms[] = {
    {"PeerDeath", peer_death_plan, true},
    {"Wedge", wedge_plan, true},
    {"Corruption", corruption_plan, true},
    {"EintrStorm", eintr_storm_plan, false},
};

class FaultMatrix
    : public ::testing::TestWithParam<
          std::tuple<DeliveryStrategy, int /*arm*/, bool /*checkpoint*/>> {};

TEST_P(FaultMatrix, RecoversBitIdentical) {
  const DeliveryStrategy delivery = std::get<0>(GetParam());
  const FaultArm& arm = kArms[std::get<1>(GetParam())];
  const bool checkpointing = std::get<2>(GetParam());

  const std::vector<std::uint64_t> expected = reference_result(delivery);

  Config cfg = base_config(delivery);
  cfg.checkpoint_every = checkpointing ? 1 : 0;
  cfg.max_run_retries = 3;
  cfg.retry_backoff_us = 100;
  // The wedge arm needs the watchdog; it is harmless elsewhere and having
  // it on everywhere also proves a healthy run never trips it.
  cfg.superstep_deadline_ms = 150;
  Runtime rt(cfg);
  rt.set_fault_plan(arm.plan(delivery));

  const std::uint64_t fresh_before = rt.slab_pool().fresh_allocations();

  RunStats stats;
  std::vector<std::uint64_t> got = run_ring(rt, &stats);
  EXPECT_EQ(got, expected) << arm.name << " diverged from fault-free run";
  if (arm.lethal) {
    EXPECT_GE(stats.recoveries, 1u) << arm.name << " never actually failed";
    EXPECT_GE(rt.fault_injector()->fired(), 1u);
  } else {
    EXPECT_EQ(stats.recoveries, 0u)
        << arm.name << " is benign; the run must absorb it without retrying";
    EXPECT_GE(stats.total_injected_faults(), 1u);
  }

  // Zero leaked slabs: after the faulted run warmed every arena (transport,
  // inbox, checkpoint slots), a clean re-run on the same Runtime must
  // recycle slabs instead of growing the pool's fresh-allocation count.
  rt.clear_fault_plan();
  std::vector<std::uint64_t> warm = run_ring(rt, nullptr);
  EXPECT_EQ(warm, expected);
  const std::uint64_t fresh_warm = rt.slab_pool().fresh_allocations();
  std::vector<std::uint64_t> again = run_ring(rt, nullptr);
  EXPECT_EQ(again, expected);
  EXPECT_EQ(rt.slab_pool().fresh_allocations(), fresh_warm)
      << "steady-state re-run allocated fresh slabs (leak): started at "
      << fresh_before;
}

std::string matrix_name(
    const ::testing::TestParamInfo<FaultMatrix::ParamType>& info) {
  const char* transport =
      std::get<0>(info.param) == DeliveryStrategy::Deferred ? "Deferred"
      : std::get<0>(info.param) == DeliveryStrategy::Eager  ? "Eager"
                                                            : "Socket";
  return std::string(transport) + kArms[std::get<1>(info.param)].name +
         (std::get<2>(info.param) ? "Ckpt" : "Replay");
}

INSTANTIATE_TEST_SUITE_P(
    AllTransports, FaultMatrix,
    ::testing::Combine(::testing::Values(DeliveryStrategy::Deferred,
                                         DeliveryStrategy::Eager,
                                         DeliveryStrategy::Socket),
                       ::testing::Range(0, 4), ::testing::Bool()),
    matrix_name);

// ---------------------------------------------------------------------------
// Serialized mode: every rank crosses its own boundary, as in Parallel mode,
// with the compute token given up first. An error raised by that exchange
// (here a deliver-site abort on rank 1) is the run's error like any other —
// run() rethrows it, or retries it under max_run_retries — never a run that
// returns truncated.

class SerializedExchangeFault
    : public ::testing::TestWithParam<DeliveryStrategy> {
 protected:
  static Config config() {
    Config cfg = base_config(GetParam());
    cfg.nprocs = 3;
    cfg.scheduling = Scheduling::Serialized;
    return cfg;
  }
  static FaultPlan deliver_abort() {
    FaultRule r;
    r.site = FaultSite::Deliver;
    r.kind = FaultKind::Abort;
    r.rank = 1;
    r.superstep = 1;
    FaultPlan plan;
    plan.rules = {r};
    return plan;
  }
};

TEST_P(SerializedExchangeFault, RunThrowsWithoutRetries) {
  Runtime rt(config());
  rt.set_fault_plan(deliver_abort());
  try {
    run_ring(rt, nullptr);
    FAIL() << "the failed exchange was swallowed";
  } catch (const BspTransportError& e) {
    EXPECT_EQ(e.rank, 1);
    EXPECT_NE(std::string(e.what()).find("injected abort at deliver"),
              std::string::npos)
        << e.what();
  }
  EXPECT_EQ(rt.fault_injector()->fired(), 1u);
}

TEST_P(SerializedExchangeFault, RetryMatchesTheFaultFreeRun) {
  Runtime clean(config());
  const std::vector<std::uint64_t> expected = run_ring(clean, nullptr);
  Config cfg = config();
  cfg.max_run_retries = 1;
  cfg.retry_backoff_us = 100;
  Runtime rt(cfg);
  rt.set_fault_plan(deliver_abort());
  RunStats stats;
  EXPECT_EQ(run_ring(rt, &stats), expected);
  EXPECT_EQ(stats.recoveries, 1u);
  EXPECT_EQ(stats.S(), kSteps + 1);
}

INSTANTIATE_TEST_SUITE_P(AllTransports, SerializedExchangeFault,
                         ::testing::Values(DeliveryStrategy::Deferred,
                                           DeliveryStrategy::Eager,
                                           DeliveryStrategy::Socket),
                         [](const auto& info) {
                           return info.param == DeliveryStrategy::Deferred
                                      ? "Deferred"
                                  : info.param == DeliveryStrategy::Eager
                                      ? "Eager"
                                      : "Socket";
                         });

// ---------------------------------------------------------------------------
// Exception safety: a user functor throw must propagate as the program
// error (never masked by the secondary transport errors it causes in
// peers), must not leak staged arenas, and must leave the Runtime reusable.

class UserThrow : public ::testing::TestWithParam<DeliveryStrategy> {};

TEST_P(UserThrow, PropagatesAndRuntimeStaysUsable) {
  Config cfg = base_config(GetParam());
  Runtime rt(cfg);

  const std::vector<std::uint64_t> expected = reference_result(GetParam());

  for (int round = 0; round < 2; ++round) {
    try {
      rt.run([](Worker& w) {
        // Stage sends first so the throw strands data in transport arenas —
        // the hard case for leak-freedom.
        w.send((w.pid() + 1) % w.nprocs(), std::uint64_t{42});
        w.sync();
        w.send((w.pid() + 1) % w.nprocs(), std::uint64_t{43});
        if (w.pid() == 2) throw std::runtime_error("functor boom");
        w.sync();
      });
      FAIL() << "user throw did not propagate";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "functor boom")
          << "program error was masked by a secondary failure";
    }
    // The same Runtime must run cleanly afterwards, bit-identically.
    EXPECT_EQ(run_ring(rt, nullptr), expected);
  }

  // With the arenas warm, failure + clean-run cycles must not grow the pool.
  const std::uint64_t fresh = rt.slab_pool().fresh_allocations();
  EXPECT_THROW(rt.run([](Worker& w) {
    w.send((w.pid() + 1) % w.nprocs(), std::uint64_t{7});
    if (w.pid() == 1) throw std::runtime_error("functor boom");
    w.sync();
  }),
               std::runtime_error);
  EXPECT_EQ(run_ring(rt, nullptr), expected);
  EXPECT_EQ(rt.slab_pool().fresh_allocations(), fresh)
      << "failed run leaked staged slabs";
}

INSTANTIATE_TEST_SUITE_P(AllTransports, UserThrow,
                         ::testing::Values(DeliveryStrategy::Deferred,
                                           DeliveryStrategy::Eager,
                                           DeliveryStrategy::Socket),
                         [](const auto& info) {
                           return info.param == DeliveryStrategy::Deferred
                                      ? "Deferred"
                                  : info.param == DeliveryStrategy::Eager
                                      ? "Eager"
                                      : "Socket";
                         });

// A user throw must beat transport retries too: with retries configured, a
// program error must rethrow immediately, not burn the retry budget.
TEST(UserThrow, IsNeverRetried) {
  Config cfg = base_config(DeliveryStrategy::Deferred);
  cfg.max_run_retries = 5;
  cfg.retry_backoff_us = 100;
  Runtime rt(cfg);
  int invocations = 0;
  std::mutex mu;
  EXPECT_THROW(rt.run([&](Worker& w) {
    {
      std::lock_guard<std::mutex> lock(mu);
      if (w.pid() == 0) invocations += 1;
    }
    w.sync();
    if (w.pid() == 0) throw std::logic_error("deterministic bug");
  }),
               std::logic_error);
  EXPECT_EQ(invocations, 1) << "a program error was retried";
}

// ---------------------------------------------------------------------------
// FaultPlan parsing (the bsp_probe / run_chaos.sh entry point).

TEST(FaultPlanParse, RoundTripsTheDocumentedForm) {
  const FaultPlan plan = parse_fault_plan(
      "seed=7,site=recv,kind=corrupt,rank=1,step=2,nth=0,arg=0;"
      "site=deliver,kind=abort,rank=0,step=3,count=2;"
      "site=send,kind=delay,arg=250,prob=0.5");
  EXPECT_EQ(plan.seed, 7u);
  ASSERT_EQ(plan.rules.size(), 3u);
  EXPECT_EQ(plan.rules[0].site, FaultSite::RecvCall);
  EXPECT_EQ(plan.rules[0].kind, FaultKind::CorruptByte);
  EXPECT_EQ(plan.rules[0].rank, 1);
  EXPECT_EQ(plan.rules[0].superstep, 2);
  EXPECT_EQ(plan.rules[1].kind, FaultKind::Abort);
  EXPECT_EQ(plan.rules[1].count, 2u);
  EXPECT_EQ(plan.rules[2].site, FaultSite::SendCall);
  EXPECT_DOUBLE_EQ(plan.rules[2].prob, 0.5);
}

TEST(FaultPlanParse, DiagnosesMalformedInput) {
  EXPECT_THROW(parse_fault_plan("kind=abort"), std::invalid_argument);
  EXPECT_THROW(parse_fault_plan("site=warp"), std::invalid_argument);
  EXPECT_THROW(parse_fault_plan("site=send,kind=nope"),
               std::invalid_argument);
  EXPECT_THROW(parse_fault_plan("site=send,kind=abort,rank=x"),
               std::invalid_argument);
}

TEST(FaultInjector, CounterRulesAreDeterministic) {
  FaultPlan plan;
  FaultRule r;
  r.site = FaultSite::SendCall;
  r.kind = FaultKind::Eintr;
  r.nth = 2;
  r.count = 3;
  plan.rules.push_back(r);
  for (int repeat = 0; repeat < 2; ++repeat) {
    FaultInjector inj(plan);
    FaultContext ctx;
    ctx.rank = 0;
    std::vector<bool> firings;
    for (int i = 0; i < 8; ++i) {
      firings.push_back(
          inj.before_call(FaultSite::SendCall, ctx).has_value());
    }
    EXPECT_EQ(firings, (std::vector<bool>{false, false, true, true, true,
                                          false, false, false}));
    inj.reset();
    EXPECT_FALSE(inj.before_call(FaultSite::RecvCall, ctx).has_value())
        << "site filter leaked";
    EXPECT_FALSE(inj.before_call(FaultSite::SendCall, ctx).has_value());
    EXPECT_FALSE(inj.before_call(FaultSite::SendCall, ctx).has_value());
    EXPECT_TRUE(inj.before_call(FaultSite::SendCall, ctx).has_value())
        << "reset() did not re-arm the schedule";
  }
}

// Transport errors carry uniform context (rank/peer/superstep/stage/errno/
// bytes-moved) — spot-check via the injector's Abort path.
// ---------------------------------------------------------------------------
// Cross-process shm: the one fault the memory data path can never observe on
// its own is a severed peer — an injected PeerHangup must shut the control
// channel down AND throw immediately on the injecting rank, the surviving
// rank must notice via its idle-path death probe, and both ranks' retry
// machinery must rebuild the mesh (fresh segments, fresh zero-copy epochs)
// and replay to the bit-identical result. Each rank is a thread owning its
// own rank-r Runtime, as in test_transport_shm.cpp.

TEST(ShmFault, InjectedPeerHangupRecoversAcrossRanks) {
  const int p = 2;
  const std::string name =
      "flt" + std::to_string(static_cast<long>(::getpid()));
  std::vector<std::uint64_t> expected(static_cast<std::size_t>(p), 0);
  std::vector<std::uint64_t> got(static_cast<std::size_t>(p), 0);
  std::vector<std::uint64_t> recoveries(static_cast<std::size_t>(p), 0);
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
        cfg.max_run_retries = 5;
        cfg.retry_backoff_us = 50'000;
        cfg.socket_stage_timeout_ms = 20'000;
        cfg.tcp_connect_timeout_ms = 20'000;
        Runtime rt(cfg);
        expected[static_cast<std::size_t>(r)] =
            run_ring(rt, nullptr)[static_cast<std::size_t>(r)];
        if (r == 1) {
          FaultPlan plan;
          FaultRule rule;
          rule.site = FaultSite::SendCall;
          rule.kind = FaultKind::PeerHangup;
          rule.rank = 1;
          rule.superstep = 2;
          plan.rules.push_back(rule);
          rt.set_fault_plan(plan);
        }
        RunStats stats;
        got[static_cast<std::size_t>(r)] =
            run_ring(rt, &stats)[static_cast<std::size_t>(r)];
        recoveries[static_cast<std::size_t>(r)] = stats.recoveries;
      } catch (...) {
        errors[static_cast<std::size_t>(r)] = std::current_exception();
      }
    });
  }
  for (auto& t : ranks) t.join();
  for (auto& e : errors) {
    if (e) std::rethrow_exception(e);
  }
  EXPECT_EQ(got, expected) << "faulted shm run diverged from fault-free run";
  EXPECT_GE(recoveries[1], 1u)
      << "the injected hangup never actually failed rank 1";
  EXPECT_GE(recoveries[0], 1u)
      << "rank 0 never observed its peer's death through the control channel";
}

TEST(FaultInjector, AbortErrorsCarryContext) {
  Config cfg = base_config(DeliveryStrategy::Socket);
  Runtime rt(cfg);
  FaultPlan plan;
  FaultRule r;
  r.site = FaultSite::SendCall;
  r.kind = FaultKind::Abort;
  r.rank = 1;
  r.superstep = 1;
  plan.rules.push_back(r);
  rt.set_fault_plan(plan);
  try {
    run_ring(rt, nullptr);
    FAIL() << "injected abort did not surface";
  } catch (const BspTransportError& e) {
    EXPECT_EQ(e.rank, 1);
    EXPECT_EQ(e.superstep, 1);
    const std::string what = e.what();
    EXPECT_NE(what.find("rank=1"), std::string::npos) << what;
    EXPECT_NE(what.find("superstep=1"), std::string::npos) << what;
  }
}

}  // namespace
}  // namespace gbsp
