// Collectives built on the BSP primitives, verified against sequential
// oracles for both algorithms and a range of processor counts.
#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <mutex>
#include <numeric>
#include <string>
#include <vector>

#include "core/collectives.hpp"
#include "core/runtime.hpp"

namespace gbsp {
namespace {

// The schedule axis, kept test-local so every instance keeps its parameter
// bytes (Direct = 0, Tree = 1) in its ctest name.
enum class Alg { Direct, Tree };

struct CollParam {
  int nprocs;
  Alg alg;
};

std::string coll_name(const testing::TestParamInfo<CollParam>& info) {
  return std::string(info.param.alg == Alg::Direct ? "Direct" : "Tree") +
         "P" + std::to_string(info.param.nprocs);
}

class Collectives : public testing::TestWithParam<CollParam> {
 protected:
  RunStats run(const std::function<void(Worker&)>& fn) {
    Config cfg;
    cfg.nprocs = GetParam().nprocs;
    return Runtime(cfg).run(fn);
  }
  [[nodiscard]] CollectiveSchedule alg() const {
    return GetParam().alg == Alg::Direct ? CollectiveSchedule::Direct
                                         : CollectiveSchedule::Tree;
  }
  [[nodiscard]] int p() const { return GetParam().nprocs; }
};

TEST_P(Collectives, BroadcastFromEveryRoot) {
  for (int root = 0; root < p(); ++root) {
    run([&, root](Worker& w) {
      const std::int64_t value =
          (w.pid() == root) ? 4242 + root : -1;
      const std::int64_t got = broadcast(w, root, value, alg());
      EXPECT_EQ(got, 4242 + root);
    });
  }
}

TEST_P(Collectives, ReduceSumToEveryRoot) {
  const std::int64_t expect =
      static_cast<std::int64_t>(p()) * (p() - 1) / 2;  // sum of pids
  for (int root = 0; root < p(); ++root) {
    run([&, root](Worker& w) {
      const std::int64_t got =
          reduce(w, root, static_cast<std::int64_t>(w.pid()),
                 std::plus<std::int64_t>{}, alg());
      if (w.pid() == root) {
        EXPECT_EQ(got, expect);
      }
    });
  }
}

TEST_P(Collectives, ReduceMax) {
  run([&](Worker& w) {
    // Value pattern with the max at an interior pid.
    const int v = 100 - std::abs(2 * w.pid() - (p() - 1));
    const int got = reduce(
        w, 0, v, [](int a, int b) { return a > b ? a : b; }, alg());
    if (w.pid() == 0) {
      EXPECT_EQ(got, 100 - ((p() - 1) % 2));
    }
  });
}

TEST_P(Collectives, AllreduceSumEverywhere) {
  const std::int64_t expect =
      static_cast<std::int64_t>(p()) * (p() - 1) / 2;
  run([&](Worker& w) {
    const std::int64_t got = allreduce(
        w, static_cast<std::int64_t>(w.pid()), std::plus<std::int64_t>{},
        alg());
    EXPECT_EQ(got, expect);
  });
}

TEST_P(Collectives, GatherCollectsPidIndexed) {
  run([&](Worker& w) {
    const auto got = gather(w, 0, w.pid() * 7);
    if (w.pid() == 0) {
      ASSERT_EQ(got.size(), static_cast<std::size_t>(p()));
      for (int i = 0; i < p(); ++i) {
        EXPECT_EQ(got[static_cast<std::size_t>(i)], i * 7);
      }
    } else {
      EXPECT_TRUE(got.empty());
    }
  });
}

TEST_P(Collectives, AllgatherEverywhere) {
  run([&](Worker& w) {
    const auto got = allgather(w, w.pid() + 1000);
    ASSERT_EQ(got.size(), static_cast<std::size_t>(p()));
    for (int i = 0; i < p(); ++i) {
      EXPECT_EQ(got[static_cast<std::size_t>(i)], i + 1000);
    }
  });
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, Collectives,
    testing::ValuesIn(std::vector<CollParam>{
        {1, Alg::Direct},
        {2, Alg::Direct},
        {5, Alg::Direct},
        {8, Alg::Direct},
        {1, Alg::Tree},
        {2, Alg::Tree},
        {3, Alg::Tree},
        {5, Alg::Tree},
        {8, Alg::Tree},
    }),
    coll_name);

// --------------------------------------------------------------- unparamed

TEST(CollectivesExtra, InclusiveScanMatchesPrefixSums) {
  for (int p : {1, 2, 3, 6, 8}) {
    Config cfg;
    cfg.nprocs = p;
    Runtime rt(cfg);
    rt.run([](Worker& w) {
      const std::int64_t mine = (w.pid() + 1) * (w.pid() + 1);
      const std::int64_t got =
          inclusive_scan(w, mine, std::plus<std::int64_t>{});
      std::int64_t want = 0;
      for (int i = 0; i <= w.pid(); ++i) {
        want += static_cast<std::int64_t>(i + 1) * (i + 1);
      }
      EXPECT_EQ(got, want);
    });
  }
}

TEST(CollectivesExtra, ScanWithNonCommutativeOp) {
  // Affine-map composition is associative but not commutative; the scan must
  // compose f_0, f_1, ... in pid order. op(f, g) = "f then g".
  struct Affine {
    std::int64_t m, c;
  };
  auto compose = [](Affine f, Affine g) {
    return Affine{g.m * f.m, g.m * f.c + g.c};
  };
  Config cfg;
  cfg.nprocs = 5;
  Runtime rt(cfg);
  rt.run([&](Worker& w) {
    // f_i(x) = (i + 2) * x + i.
    const Affine mine{w.pid() + 2, w.pid()};
    const Affine got = inclusive_scan(w, mine, compose);
    Affine want{1, 0};
    for (int i = 0; i <= w.pid(); ++i) {
      want = compose(want, Affine{i + 2, i});
    }
    EXPECT_EQ(got.m, want.m);
    EXPECT_EQ(got.c, want.c);
  });
}

TEST(CollectivesExtra, AlltoallvMovesPersonalizedArrays) {
  Config cfg;
  cfg.nprocs = 4;
  Runtime rt(cfg);
  rt.run([](Worker& w) {
    const int p = w.nprocs();
    std::vector<std::vector<int>> out(static_cast<std::size_t>(p));
    for (int d = 0; d < p; ++d) {
      // w.pid() sends d+1 copies of (pid*10 + d) to d; empty to self+1.
      if (d == (w.pid() + 1) % p) continue;
      out[static_cast<std::size_t>(d)].assign(
          static_cast<std::size_t>(d) + 1, w.pid() * 10 + d);
    }
    auto in = alltoallv(w, std::move(out));
    ASSERT_EQ(in.size(), static_cast<std::size_t>(p));
    for (int s = 0; s < p; ++s) {
      const auto& v = in[static_cast<std::size_t>(s)];
      if (w.pid() == (s + 1) % p) {
        EXPECT_TRUE(v.empty());
        continue;
      }
      ASSERT_EQ(v.size(), static_cast<std::size_t>(w.pid()) + 1);
      for (int x : v) EXPECT_EQ(x, s * 10 + w.pid());
    }
  });
}

TEST(CollectivesExtra, DirtyInboxIsDiagnosed) {
  Config cfg;
  cfg.nprocs = 2;
  Runtime rt(cfg);
  try {
    rt.run([](Worker& w) {
      w.send(1 - w.pid(), 1);
      w.sync();
      // inbox not drained
      broadcast(w, 0, 5);
    });
    FAIL() << "expected std::logic_error";
  } catch (const std::logic_error& e) {
    // The diagnostic names the collective, the offending rank, and how many
    // messages were still pending.
    const std::string msg = e.what();
    EXPECT_NE(msg.find("broadcast"), std::string::npos) << msg;
    EXPECT_NE(msg.find("rank"), std::string::npos) << msg;
    EXPECT_NE(msg.find("1 message pending"), std::string::npos) << msg;
  }
}

TEST(CollectivesExtra, SuperstepCostsMatchTheAdvertisedTradeoff) {
  // Direct: one superstep, h up to p-1. Tree: log2(p) supersteps, h = 1 per
  // step. This is the BSP h-vs-S trade-off the paper discusses. Each row
  // pins S and every superstep's h at p = 8 (a receive is charged to the
  // superstep it is delivered in, so the tail carries the last one): a
  // one-value collective routed through its block twin must not move a
  // message.
  using Steps = std::vector<std::uint64_t>;
  auto h_per_step = [](const std::function<void(Worker&)>& fn) {
    Config cfg;
    cfg.nprocs = 8;
    Runtime rt(cfg);
    const RunStats s = rt.run(fn);
    Steps h;  // one entry per superstep: h.size() is S
    for (const auto& step : s.supersteps) h.push_back(step.h_packets);
    return h;
  };
  const std::plus<double> plus;
  for (const auto alg :
       {CollectiveSchedule::Direct, CollectiveSchedule::Tree}) {
    const bool direct = alg == CollectiveSchedule::Direct;
    const Steps tree{1, 1, 1, 1};  // log2(8) syncs + tail
    EXPECT_EQ(h_per_step([&](Worker& w) { broadcast(w, 0, 1.25, alg); }),
              direct ? Steps({7, 1}) : tree);
    EXPECT_EQ(h_per_step([&](Worker& w) { reduce(w, 0, 1.25, plus, alg); }),
              direct ? Steps({1, 7}) : tree);
    // Direct allreduce is reduce onto 0, then broadcast: two syncs + tail.
    EXPECT_EQ(h_per_step([&](Worker& w) { allreduce(w, 1.25, plus, alg); }),
              direct ? Steps({1, 7, 1}) : tree);
  }
  EXPECT_EQ(h_per_step([](Worker& w) { gather(w, 0, 1.25); }), Steps({1, 7}));
  EXPECT_EQ(h_per_step([](Worker& w) { allgather(w, 1.25); }), Steps({7, 7}));
}

TEST(CollectivesExtra, RootedAutoRunsTheSelectorsChoice) {
  // Auto resolves per call through evaluate_rooted_schedule under the
  // transport's default g/L: a one-packet broadcast stays Direct, a 32 KiB
  // block goes Tree on the in-memory transport at p = 8. TwoPhase is an
  // alltoallv route and is rejected.
  Config cfg;
  cfg.nprocs = 8;
  for (const std::size_t count : {std::size_t{1}, std::size_t{4096}}) {
    const ScheduleChoice c = evaluate_rooted_schedule(
        cfg.nprocs, count * sizeof(double),
        default_collective_g_us(cfg.delivery, cfg.nprocs),
        default_collective_l_us(cfg.delivery, cfg.nprocs), kPacketBytes);
    EXPECT_EQ(c.schedule, count == 1 ? CollectiveSchedule::Direct
                                     : CollectiveSchedule::Tree);
    Runtime rt(cfg);
    const RunStats s = rt.run([count](Worker& w) {
      std::vector<double> block(count, w.pid() == 0 ? 2.5 : 0.0);
      broadcast_span(w, 0, block, CollectiveSchedule::Auto);
      EXPECT_EQ(block.back(), 2.5);
    });
    EXPECT_EQ(s.S(), c.schedule == CollectiveSchedule::Tree ? 4u : 2u)
        << count << " elements";
  }
  const auto two_phase = [](Worker& w) {
    broadcast(w, 0, 1.25, CollectiveSchedule::TwoPhase);
  };
  Runtime rt(cfg);
  EXPECT_THROW(rt.run(two_phase), std::invalid_argument);
}

// ------------------------------------------------------------ bulk (v2)

TEST_P(Collectives, BroadcastSpanDeliversWholeBlock) {
  for (int root = 0; root < p(); ++root) {
    run([&, root](Worker& w) {
      std::vector<std::uint64_t> block(337);
      if (w.pid() == root) {
        for (std::size_t i = 0; i < block.size(); ++i) {
          block[i] = 1000u * static_cast<std::uint64_t>(root) + i;
        }
      }
      broadcast_span(w, root, block, alg());
      for (std::size_t i = 0; i < block.size(); ++i) {
        ASSERT_EQ(block[i], 1000u * static_cast<std::uint64_t>(root) + i);
      }
    });
  }
}

TEST_P(Collectives, AllreduceSpanElementwiseSum) {
  run([&](Worker& w) {
    std::vector<std::int64_t> v(97);
    for (std::size_t i = 0; i < v.size(); ++i) {
      v[i] = static_cast<std::int64_t>(i) * (w.pid() + 1);
    }
    allreduce_span(w, v.data(), v.size(), std::plus<std::int64_t>{}, alg());
    const std::int64_t scale =
        static_cast<std::int64_t>(p()) * (p() + 1) / 2;  // sum of pid+1
    for (std::size_t i = 0; i < v.size(); ++i) {
      ASSERT_EQ(v[i], static_cast<std::int64_t>(i) * scale);
    }
  });
}

TEST(CollectivesExtra, AllreduceSpanBitIdenticalAcrossRanksForDoubles) {
  // The Direct fold runs strictly in pid order on every rank, so even
  // non-associative floating-point addition yields one answer everywhere.
  for (const auto alg :
       {CollectiveSchedule::Direct, CollectiveSchedule::Tree}) {
    Config cfg;
    cfg.nprocs = 8;
    Runtime rt(cfg);
    std::vector<std::vector<double>> per_rank(8);
    std::mutex mu;
    rt.run([&](Worker& w) {
      std::vector<double> v(33);
      for (std::size_t i = 0; i < v.size(); ++i) {
        v[i] = 1.0 / (1.0 + static_cast<double>(w.pid()) +
                      static_cast<double>(i) * 0.125);
      }
      allreduce_span(w, v.data(), v.size(), std::plus<double>{}, alg);
      std::lock_guard<std::mutex> lk(mu);
      per_rank[static_cast<std::size_t>(w.pid())] = std::move(v);
    });
    for (int r = 1; r < 8; ++r) {
      ASSERT_EQ(per_rank[static_cast<std::size_t>(r)], per_rank[0])
          << "rank " << r << " diverged";
    }
  }
}

TEST(CollectivesExtra, GathervAndAllgathervRaggedBlocks) {
  for (int p : {1, 3, 6}) {
    Config cfg;
    cfg.nprocs = p;
    Runtime rt(cfg);
    rt.run([p](Worker& w) {
      // Rank r contributes r*r elements (rank 1 contributes zero... use
      // (r+1)%3 sizes so one rank is genuinely empty past p=1).
      std::vector<std::uint32_t> mine(
          static_cast<std::size_t>((w.pid() * w.pid()) % 5),
          static_cast<std::uint32_t>(0xA0 + w.pid()));
      std::vector<std::uint32_t> expect;
      for (int r = 0; r < p; ++r) {
        expect.insert(expect.end(), static_cast<std::size_t>((r * r) % 5),
                      static_cast<std::uint32_t>(0xA0 + r));
      }
      std::vector<std::size_t> counts;
      const auto everywhere = allgatherv(w, mine, &counts);
      EXPECT_EQ(everywhere, expect);
      ASSERT_EQ(counts.size(), static_cast<std::size_t>(p));
      for (int r = 0; r < p; ++r) {
        EXPECT_EQ(counts[static_cast<std::size_t>(r)],
                  static_cast<std::size_t>((r * r) % 5));
      }
      const auto rooted = gatherv(w, 0, mine);
      if (w.pid() == 0) {
        EXPECT_EQ(rooted, expect);
      } else {
        EXPECT_TRUE(rooted.empty());
      }
    });
  }
}

// --------------------------------------------- two-phase alltoallv (v2)

/// Personalized traffic patterns of the h-relation skew sweep. Every entry
/// is keyed (source, dest, index) so misrouted or reordered elements are
/// detectable, not just miscounted.
std::vector<std::vector<std::uint64_t>> make_traffic(int pid, int p,
                                                     int pattern) {
  std::vector<std::vector<std::uint64_t>> out(static_cast<std::size_t>(p));
  auto fill = [&](int d, std::size_t n) {
    auto& v = out[static_cast<std::size_t>(d)];
    v.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
      v[i] = (static_cast<std::uint64_t>(pid) << 48) |
             (static_cast<std::uint64_t>(d) << 32) | i;
    }
  };
  switch (pattern) {
    case 0:  // uniform: everyone sends ~the same to everyone
      for (int d = 0; d < p; ++d) fill(d, 64 + static_cast<std::size_t>(d));
      break;
    case 1:  // one-hot: each rank fires one big block at a single partner
      fill((pid * 3 + 1) % p, 1500);
      break;
    case 2:  // zipf-ish: block to dest d shrinks as 1/(1+d-pid mod p)
      for (int d = 0; d < p; ++d) {
        fill(d, 900 / (1 + static_cast<std::size_t>((d - pid + p) % p)));
      }
      break;
    default:  // ragged with holes: some blocks empty, sizes vary
      for (int d = 0; d < p; ++d) {
        if ((pid + d) % 3 == 0) continue;
        fill(d, static_cast<std::size_t>(1 + (pid * 7 + d * 13) % 41));
      }
      break;
  }
  return out;
}

struct SkewParam {
  DeliveryStrategy delivery;
  SyncMode mode;
};

class SkewedAlltoallv : public testing::TestWithParam<SkewParam> {};

TEST_P(SkewedAlltoallv, TwoPhaseBitIdenticalToDirect) {
  // Across every transport and sync mode: the two-phase (Valiant-style)
  // route must deliver exactly what the direct schedule delivers, byte for
  // byte, for each skew pattern of the sweep.
  const auto& sp = GetParam();
  const int p = 6;
  for (int pattern = 0; pattern < 4; ++pattern) {
    std::vector<std::vector<std::vector<std::uint64_t>>> direct_in(
        static_cast<std::size_t>(p)),
        two_phase_in(static_cast<std::size_t>(p));
    std::mutex mu;
    for (const auto schedule :
         {CollectiveSchedule::Direct, CollectiveSchedule::TwoPhase}) {
      Config cfg;
      cfg.nprocs = p;
      cfg.delivery = sp.delivery;
      Runtime rt(cfg);
      auto& sink = schedule == CollectiveSchedule::Direct ? direct_in
                                                         : two_phase_in;
      rt.run([&](Worker& w) {
        auto in = alltoallv(w, make_traffic(w.pid(), p, pattern), schedule,
                            sp.mode);
        std::lock_guard<std::mutex> lk(mu);
        sink[static_cast<std::size_t>(w.pid())] = std::move(in);
      });
    }
    ASSERT_EQ(two_phase_in, direct_in) << "pattern " << pattern;
    // And both match the oracle: what s built for d is what d got from s.
    for (int d = 0; d < p; ++d) {
      for (int s = 0; s < p; ++s) {
        const auto want = make_traffic(s, p, pattern);
        ASSERT_EQ(direct_in[static_cast<std::size_t>(d)]
                           [static_cast<std::size_t>(s)],
                  want[static_cast<std::size_t>(d)])
            << "pattern " << pattern << " s=" << s << " d=" << d;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    TransportsAndModes, SkewedAlltoallv,
    testing::ValuesIn(std::vector<SkewParam>{
        {DeliveryStrategy::Deferred, SyncMode::Rigid},
        {DeliveryStrategy::Deferred, SyncMode::SplitPhase},
        {DeliveryStrategy::Eager, SyncMode::Rigid},
        {DeliveryStrategy::Eager, SyncMode::SplitPhase},
        {DeliveryStrategy::Socket, SyncMode::Rigid},
        {DeliveryStrategy::Socket, SyncMode::SplitPhase},
    }),
    [](const testing::TestParamInfo<SkewParam>& info) {
      std::string name;
      switch (info.param.delivery) {
        case DeliveryStrategy::Deferred: name = "Deferred"; break;
        case DeliveryStrategy::Eager: name = "Eager"; break;
        case DeliveryStrategy::Socket: name = "Socket"; break;
        case DeliveryStrategy::Tcp: name = "Tcp"; break;
        case DeliveryStrategy::Shm: name = "Shm"; break;
      }
      return name + (info.param.mode == SyncMode::Rigid ? "Rigid" : "Split");
    });

TEST(CollectivesExtra, AlltoallvScheduleSuperstepCounts) {
  // Forced Direct: one boundary. Forced TwoPhase: two. Auto: the byte-count
  // allgather adds one boundary before the chosen schedule.
  Config cfg;
  cfg.nprocs = 4;
  auto steps = [&cfg](CollectiveSchedule s) {
    Runtime rt(cfg);
    return rt
        .run([s](Worker& w) {
          alltoallv(w, make_traffic(w.pid(), w.nprocs(), 0), s);
        })
        .S();
  };
  EXPECT_EQ(steps(CollectiveSchedule::Direct), 2u);    // boundary + tail
  EXPECT_EQ(steps(CollectiveSchedule::TwoPhase), 3u);  // 2 boundaries + tail
  // Uniform traffic on an in-memory transport: Auto must pick Direct.
  EXPECT_EQ(steps(CollectiveSchedule::Auto), 3u);  // counts + direct + tail
}

TEST(CollectivesExtra, SelectorPrefersTwoPhaseForOneHotOnStagedTransport) {
  // One-hot traffic on the staged (socket) exchange: the direct schedule
  // serializes the whole block through one round, while two-phase spreads
  // it across intermediates — the selector must see that.
  const int p = 8;
  const std::size_t sp = static_cast<std::size_t>(p);
  std::vector<std::vector<std::uint64_t>> one_hot(
      sp, std::vector<std::uint64_t>(sp, 0));
  for (int i = 0; i < p; ++i) {
    one_hot[static_cast<std::size_t>(i)][static_cast<std::size_t>(
        (i * 3 + 1) % p)] = 512 * 1024;
  }
  const ScheduleChoice skew = evaluate_alltoallv_schedule(
      one_hot, /*staged=*/true, /*g_us=*/1.0, /*l_us=*/50.0, 16);
  EXPECT_EQ(skew.schedule, CollectiveSchedule::TwoPhase);
  EXPECT_LT(skew.two_phase_us, skew.direct_us);

  // Uniform traffic: direct is already balanced; repacking cannot win.
  std::vector<std::vector<std::uint64_t>> uniform(
      sp, std::vector<std::uint64_t>(sp, 64 * 1024));
  const ScheduleChoice flat = evaluate_alltoallv_schedule(
      uniform, /*staged=*/true, /*g_us=*/1.0, /*l_us=*/50.0, 16);
  EXPECT_EQ(flat.schedule, CollectiveSchedule::Direct);

  // Barrier-transport pricing: one-hot is already a perfect h-relation
  // (h = block), so adding a second boundary only costs.
  const ScheduleChoice barrier = evaluate_alltoallv_schedule(
      one_hot, /*staged=*/false, /*g_us=*/1.0, /*l_us=*/50.0, 16);
  EXPECT_EQ(barrier.schedule, CollectiveSchedule::Direct);
}

TEST(CollectivesExtra, RootedSelectorTradesLatencyAgainstBandwidth) {
  // Tiny payload, high L: direct's single boundary wins. Big payload,
  // cheap L: the tree's log p rounds of h=m beat direct's h=(p-1)m.
  const ScheduleChoice tiny =
      evaluate_rooted_schedule(8, 8, /*g_us=*/0.1, /*l_us=*/100.0, 16);
  EXPECT_EQ(tiny.schedule, CollectiveSchedule::Direct);
  const ScheduleChoice big =
      evaluate_rooted_schedule(8, 1 << 20, /*g_us=*/0.1, /*l_us=*/100.0, 16);
  EXPECT_EQ(big.schedule, CollectiveSchedule::Tree);
  EXPECT_LT(big.tree_us, big.direct_us);
}

TEST(CollectivesExtra, ShmSelectorDefaultsTrackTheMeasuredFits) {
  // The Shm rows are linear fits of the bsp_probe medians in BENCH_shm.json
  // (g 0.13/0.31us, L 7.8/26.6us at p=2/4). Pin the fit so a constant edit
  // without fresh measurements trips a test, not just a stale comment.
  EXPECT_NEAR(default_collective_g_us(DeliveryStrategy::Shm, 2), 0.14, 0.05);
  EXPECT_NEAR(default_collective_g_us(DeliveryStrategy::Shm, 4), 0.28, 0.06);
  EXPECT_NEAR(default_collective_l_us(DeliveryStrategy::Shm, 2), 9.0, 2.5);
  EXPECT_NEAR(default_collective_l_us(DeliveryStrategy::Shm, 4), 27.0, 3.0);

  // Orderings the measurements establish: the shm boundary undercuts both
  // socket transports (spin-then-yield vs poll wake-ups), and its per-byte
  // cost sits at or below theirs (one memcpy each way, no kernel).
  for (int p : {2, 4, 8}) {
    EXPECT_LT(default_collective_l_us(DeliveryStrategy::Shm, p),
              default_collective_l_us(DeliveryStrategy::Socket, p));
    EXPECT_LT(default_collective_l_us(DeliveryStrategy::Shm, p),
              default_collective_l_us(DeliveryStrategy::Tcp, p));
    EXPECT_LE(default_collective_g_us(DeliveryStrategy::Shm, p),
              default_collective_g_us(DeliveryStrategy::Tcp, p));
    EXPECT_LT(default_collective_g_us(DeliveryStrategy::Shm, p),
              default_collective_g_us(DeliveryStrategy::Socket, p));
  }

  // A staged boundary still costs more than the in-memory transports'
  // flat L, so explicit g/L overrides keep beating the default on
  // thread-backed runs.
  EXPECT_GT(default_collective_l_us(DeliveryStrategy::Shm, 4),
            default_collective_l_us(DeliveryStrategy::Deferred, 4));
}

}  // namespace
}  // namespace gbsp
