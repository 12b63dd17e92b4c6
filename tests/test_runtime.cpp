// Conformance tests for the Green BSP runtime, parameterized over every
// combination of scheduling mode, delivery strategy, and barrier algorithm —
// all combinations must implement identical BSP semantics.
#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <cstdint>
#include <map>
#include <numeric>
#include <set>
#include <stdexcept>
#include <vector>

#include "core/collectives.hpp"
#include "core/runtime.hpp"
#include "core/transport.hpp"

namespace gbsp {
namespace {

struct RuntimeParam {
  Scheduling scheduling;
  DeliveryStrategy delivery;
  BarrierKind barrier;
  int nprocs;
};

std::string param_name(const testing::TestParamInfo<RuntimeParam>& info) {
  const RuntimeParam& p = info.param;
  std::string s;
  s += p.scheduling == Scheduling::Parallel ? "Par" : "Ser";
  switch (p.delivery) {
    case DeliveryStrategy::Deferred: s += "Def"; break;
    case DeliveryStrategy::Eager: s += "Eag"; break;
    case DeliveryStrategy::Socket: s += "Sock"; break;
    case DeliveryStrategy::Tcp: s += "Tcp"; break;
    case DeliveryStrategy::Shm: s += "Shm"; break;
  }
  switch (p.barrier) {
    case BarrierKind::CentralSpin: s += "Spin"; break;
    case BarrierKind::CentralBlocking: s += "Block"; break;
    case BarrierKind::Dissemination: s += "Diss"; break;
  }
  s += "P" + std::to_string(p.nprocs);
  return s;
}

std::vector<RuntimeParam> all_params() {
  std::vector<RuntimeParam> out;
  for (auto sched : {Scheduling::Parallel, Scheduling::Serialized}) {
    for (auto del : {DeliveryStrategy::Deferred, DeliveryStrategy::Eager,
                     DeliveryStrategy::Socket}) {
      for (auto bar : {BarrierKind::CentralSpin, BarrierKind::CentralBlocking,
                       BarrierKind::Dissemination}) {
        // Barriers are unused by the serialized scheduler and by the
        // self-synchronising socket transport; testing one kind suffices.
        if ((sched == Scheduling::Serialized ||
             del == DeliveryStrategy::Socket) &&
            bar != BarrierKind::CentralBlocking) {
          continue;
        }
        for (int p : {1, 2, 3, 4, 7}) {
          out.push_back({sched, del, bar, p});
        }
      }
    }
  }
  return out;
}

class RuntimeSemantics : public testing::TestWithParam<RuntimeParam> {
 protected:
  [[nodiscard]] Config make_config(bool deterministic = false) const {
    const RuntimeParam& p = GetParam();
    Config cfg;
    cfg.nprocs = p.nprocs;
    cfg.scheduling = p.scheduling;
    cfg.delivery = p.delivery;
    cfg.barrier = p.barrier;
    cfg.deterministic_delivery = deterministic;
    return cfg;
  }
};

TEST_P(RuntimeSemantics, RingDeliversFromLeftNeighbor) {
  Runtime rt(make_config());
  const int p = rt.config().nprocs;
  rt.run([p](Worker& w) {
    const int value = 1000 + w.pid();
    w.send((w.pid() + 1) % p, value);
    w.sync();
    if (p == 1) {
      // Self-send: the single processor receives its own packet.
      const Message* m = w.get_message();
      ASSERT_NE(m, nullptr);
      EXPECT_EQ(m->as<int>(), 1000);
      return;
    }
    const Message* m = w.get_message();
    ASSERT_NE(m, nullptr);
    EXPECT_EQ(static_cast<int>(m->source), (w.pid() + p - 1) % p);
    EXPECT_EQ(m->as<int>(), 1000 + (w.pid() + p - 1) % p);
    EXPECT_EQ(w.get_message(), nullptr);
  });
}

TEST_P(RuntimeSemantics, TotalExchangeDeliversEverything) {
  Runtime rt(make_config());
  const int p = rt.config().nprocs;
  rt.run([p](Worker& w) {
    for (int d = 0; d < p; ++d) {
      if (d == w.pid()) continue;
      const std::int64_t tag =
          static_cast<std::int64_t>(w.pid()) * 1000 + d;
      w.send(d, tag);
    }
    w.sync();
    std::set<int> sources;
    while (const Message* m = w.get_message()) {
      sources.insert(static_cast<int>(m->source));
      EXPECT_EQ(m->as<std::int64_t>(),
                static_cast<std::int64_t>(m->source) * 1000 + w.pid());
    }
    EXPECT_EQ(sources.size(), static_cast<std::size_t>(p - 1));
  });
}

TEST_P(RuntimeSemantics, MessagesInvisibleUntilSync) {
  Runtime rt(make_config());
  const int p = rt.config().nprocs;
  rt.run([p](Worker& w) {
    w.send((w.pid() + 1) % p, 7);
    EXPECT_EQ(w.pending(), 0u);
    EXPECT_EQ(w.get_message(), nullptr);
    w.sync();
    EXPECT_EQ(w.pending(), 1u);
  });
}

TEST_P(RuntimeSemantics, DeterministicDeliveryOrdersBySourceThenSeq) {
  Runtime rt(make_config(/*deterministic=*/true));
  const int p = rt.config().nprocs;
  rt.run([p](Worker& w) {
    // Everyone sends three sequenced messages to processor 0.
    for (int k = 0; k < 3; ++k) {
      w.send(0, w.pid() * 10 + k);
    }
    w.sync();
    if (w.pid() != 0) return;
    int expect_src = 0, expect_k = 0;
    while (const Message* m = w.get_message()) {
      EXPECT_EQ(static_cast<int>(m->source), expect_src);
      EXPECT_EQ(m->as<int>(), expect_src * 10 + expect_k);
      if (++expect_k == 3) {
        expect_k = 0;
        ++expect_src;
      }
    }
    EXPECT_EQ(expect_src, p);
  });
}

TEST_P(RuntimeSemantics, PerSourceOrderPreservedEvenWithoutDeterminism) {
  // The runtime does not promise inter-source order, but messages from one
  // source must not be reordered relative to each other.
  Runtime rt(make_config());
  const int p = rt.config().nprocs;
  rt.run([p](Worker& w) {
    for (int k = 0; k < 20; ++k) w.send((w.pid() + 1) % p, k);
    w.sync();
    std::map<int, int> next_per_source;
    while (const Message* m = w.get_message()) {
      int& next = next_per_source[static_cast<int>(m->source)];
      EXPECT_EQ(m->as<int>(), next);
      ++next;
    }
  });
}

TEST_P(RuntimeSemantics, VariableLengthArraysSurviveTransit) {
  Runtime rt(make_config());
  const int p = rt.config().nprocs;
  rt.run([p](Worker& w) {
    std::vector<double> data(static_cast<std::size_t>(w.pid()) * 3 + 1);
    std::iota(data.begin(), data.end(), w.pid() * 100.0);
    w.send_array((w.pid() + 1) % p, data);
    w.sync();
    const Message* m = w.get_message();
    ASSERT_NE(m, nullptr);
    std::vector<double> got;
    m->copy_array(got);
    const int src = static_cast<int>(m->source);
    ASSERT_EQ(got.size(), static_cast<std::size_t>(src) * 3 + 1);
    for (std::size_t i = 0; i < got.size(); ++i) {
      EXPECT_DOUBLE_EQ(got[i], src * 100.0 + static_cast<double>(i));
    }
  });
}

TEST_P(RuntimeSemantics, MultiSuperstepPipeline) {
  // Pass a counter around the ring for `rounds` supersteps; each hop adds 1.
  Runtime rt(make_config());
  const int p = rt.config().nprocs;
  const int rounds = 10;
  rt.run([p, rounds](Worker& w) {
    std::int64_t token = (w.pid() == 0) ? 0 : -1;
    for (int r = 0; r < rounds; ++r) {
      if (token >= 0) {
        w.send((w.pid() + 1) % p, token + 1);
        token = -1;
      }
      w.sync();
      if (const Message* m = w.get_message()) {
        token = m->as<std::int64_t>();
      }
    }
    // After `rounds` hops the token sits on processor rounds % p.
    if (w.pid() == rounds % p) {
      EXPECT_EQ(token, rounds);
    } else {
      EXPECT_EQ(token, -1);
    }
  });
}

TEST_P(RuntimeSemantics, SuperstepCounterAdvances) {
  Runtime rt(make_config());
  rt.run([](Worker& w) {
    EXPECT_EQ(w.superstep(), 0u);
    w.sync();
    EXPECT_EQ(w.superstep(), 1u);
    w.sync();
    w.sync();
    EXPECT_EQ(w.superstep(), 3u);
  });
}

TEST_P(RuntimeSemantics, StatsCountSupersteps) {
  Runtime rt(make_config());
  RunStats stats = rt.run([](Worker& w) {
    w.sync();
    w.sync();
    w.sync();
  });
  // Three syncs plus the tail slice.
  EXPECT_EQ(stats.S(), 4u);
  EXPECT_EQ(stats.H(), 0u);
  EXPECT_EQ(stats.nprocs, rt.config().nprocs);
}

TEST_P(RuntimeSemantics, StatsPacketAccounting) {
  // Each processor sends one 40-byte message (= 3 packets of 16 bytes) to its
  // right neighbor: h = 3 for superstep 0.
  Runtime rt(make_config());
  const int p = rt.config().nprocs;
  RunStats stats = rt.run([p](Worker& w) {
    char buf[40] = {};
    w.send_bytes((w.pid() + 1) % p, buf, sizeof(buf));
    w.sync();
    while (w.get_message() != nullptr) {
    }
  });
  ASSERT_EQ(stats.S(), 2u);
  EXPECT_EQ(stats.supersteps[0].h_packets, 3u);
  EXPECT_EQ(stats.supersteps[0].total_packets, 3u * static_cast<unsigned>(p));
  EXPECT_EQ(stats.supersteps[0].total_bytes, 40u * static_cast<unsigned>(p));
  // Received packets are charged to the superstep that reads them (the
  // paper's convention), so the drain superstep carries h = 3 and H = 6.
  EXPECT_EQ(stats.supersteps[1].h_packets, 3u);
  EXPECT_EQ(stats.H(), 6u);
}

TEST_P(RuntimeSemantics, ZeroLengthMessageCountsOnePacket) {
  Runtime rt(make_config());
  const int p = rt.config().nprocs;
  RunStats stats = rt.run([p](Worker& w) {
    w.send_bytes((w.pid() + 1) % p, nullptr, 0);
    w.sync();
    const Message* m = w.get_message();
    ASSERT_NE(m, nullptr);
    EXPECT_EQ(m->size(), 0u);
  });
  EXPECT_EQ(stats.supersteps[0].h_packets, 1u);
}

TEST_P(RuntimeSemantics, WorkerExceptionPropagatesWithoutDeadlock) {
  Runtime rt(make_config());
  const int p = rt.config().nprocs;
  EXPECT_THROW(
      rt.run([p](Worker& w) {
        if (w.pid() == p - 1) {
          throw std::runtime_error("injected failure");
        }
        // The survivors head into a barrier the failed worker never reaches.
        w.sync();
        w.sync();
      }),
      std::runtime_error);
}

TEST_P(RuntimeSemantics, LowestPidErrorWins) {
  if (GetParam().nprocs < 2) GTEST_SKIP();
  Runtime rt(make_config());
  try {
    rt.run([](Worker& w) {
      throw std::runtime_error("boom from " + std::to_string(w.pid()));
    });
    FAIL() << "expected throw";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "boom from 0");
  }
}

TEST_P(RuntimeSemantics, SendAfterFinalSyncIsDiagnosed) {
  Runtime rt(make_config());
  const int p = rt.config().nprocs;
  EXPECT_THROW(rt.run([p](Worker& w) {
                 w.sync();
                 w.send((w.pid() + 1) % p, 1);
                 // no sync before return
               }),
               std::logic_error);
}

TEST_P(RuntimeSemantics, SendToInvalidDestinationThrows) {
  Runtime rt(make_config());
  const int p = rt.config().nprocs;
  EXPECT_THROW(rt.run([p](Worker& w) {
                 w.send(p, 1);
                 w.sync();
               }),
               std::out_of_range);
  EXPECT_THROW(rt.run([](Worker& w) {
                 w.send(-1, 1);
                 w.sync();
               }),
               std::out_of_range);
}

TEST_P(RuntimeSemantics, RuntimeIsReusableAcrossRuns) {
  Runtime rt(make_config());
  const int p = rt.config().nprocs;
  for (int round = 0; round < 3; ++round) {
    RunStats stats = rt.run([p, round](Worker& w) {
      w.send((w.pid() + 1) % p, round);
      w.sync();
      const Message* m = w.get_message();
      ASSERT_NE(m, nullptr);
      EXPECT_EQ(m->as<int>(), round);
    });
    EXPECT_EQ(stats.S(), 2u);
  }
}

TEST_P(RuntimeSemantics, InboxBulkViewMatchesGetMessage) {
  Runtime rt(make_config(/*deterministic=*/true));
  const int p = rt.config().nprocs;
  rt.run([p](Worker& w) {
    for (int k = 0; k < 5; ++k) w.send((w.pid() + 1) % p, k);
    w.sync();
    EXPECT_EQ(w.inbox().size(), 5u);
    std::size_t n = 0;
    while (w.get_message() != nullptr) ++n;
    EXPECT_EQ(n, 5u);
    EXPECT_EQ(w.pending(), 0u);
  });
}

TEST_P(RuntimeSemantics, WorkIsMeasuredPerSuperstep) {
  Runtime rt(make_config());
  RunStats stats = rt.run([](Worker& w) {
    volatile double sink = 0;
    for (int i = 0; i < 3'000'000; ++i) sink = sink + 1.0;
    w.sync();
    (void)w;
  });
  ASSERT_EQ(stats.S(), 2u);
  // The busy loop runs in superstep 0 on every processor.
  EXPECT_GT(stats.supersteps[0].w_max_us, 200.0);
  EXPECT_GE(stats.supersteps[0].w_total_us,
            stats.supersteps[0].w_max_us);
  // W <= total work <= p * W.
  EXPECT_LE(stats.W_s(), stats.total_work_s() + 1e-9);
  EXPECT_LE(stats.total_work_s(),
            stats.W_s() * rt.config().nprocs + 1e-9);
}

TEST_P(RuntimeSemantics, InlineThresholdStraddlePayloadsSurviveTransit) {
  // Payload sizes straddling the arena's 32-byte inline threshold, plus
  // slab-boundary-crossing large ones. Contents must survive transit intact
  // and payload pointers must be at least 8-byte aligned (apps overlay
  // doubles directly on the received bytes).
  Runtime rt(make_config(/*deterministic=*/true));
  const int p = rt.config().nprocs;
  const std::vector<std::size_t> lens = {0, 1, 16, 31, 32, 33,
                                         64, 4096, 65536};
  rt.run([p, &lens](Worker& w) {
    for (std::size_t k = 0; k < lens.size(); ++k) {
      std::vector<std::uint8_t> buf(lens[k]);
      for (std::size_t i = 0; i < buf.size(); ++i) {
        buf[i] = static_cast<std::uint8_t>(i * 13 + w.pid() + k);
      }
      w.send_bytes((w.pid() + 1) % p, buf.data(), buf.size());
    }
    w.sync();
    const int src = (w.pid() + p - 1) % p;
    for (std::size_t k = 0; k < lens.size(); ++k) {
      const Message* m = w.get_message();
      ASSERT_NE(m, nullptr) << "message " << k;
      EXPECT_EQ(static_cast<int>(m->source), src);
      ASSERT_EQ(m->size(), lens[k]);
      EXPECT_EQ(
          reinterpret_cast<std::uintptr_t>(m->payload.data()) % 8, 0u)
          << "len " << lens[k];
      const std::uint8_t* got =
          reinterpret_cast<const std::uint8_t*>(m->payload.data());
      for (std::size_t i = 0; i < lens[k]; ++i) {
        ASSERT_EQ(got[i], static_cast<std::uint8_t>(i * 13 + src + k))
            << "len " << lens[k] << " byte " << i;
      }
    }
    EXPECT_EQ(w.get_message(), nullptr);
  });
}

TEST_P(RuntimeSemantics, SteadyStateSuperstepsMakeZeroAllocations) {
  // After a few warm-up supersteps every arena in the send/deliver cycle has
  // its slabs, so identical later supersteps must be served entirely by
  // recycling — the pool's fresh-allocation counter freezes.
  Runtime rt(make_config());
  if (!rt.transport().steady_state_zero_alloc()) {
    GTEST_SKIP() << "transport " << rt.transport().name()
                 << " does not promise a zero-allocation steady state";
  }
  const int p = rt.config().nprocs;
  std::atomic<std::uint64_t> fresh_after_warmup{0};
  auto step = [p](Worker& w) {
    for (int d = 0; d < p; ++d) {
      std::uint64_t v = static_cast<std::uint64_t>(w.pid());
      w.send(d, v);
    }
    w.sync();
    while (w.get_message() != nullptr) {
    }
  };
  rt.run([&](Worker& w) {
    for (int s = 0; s < 4; ++s) step(w);  // warm up both eager parities
    if (w.pid() == 0) {
      fresh_after_warmup = rt.slab_pool().fresh_allocations();
    }
    for (int s = 0; s < 20; ++s) step(w);
  });
  EXPECT_EQ(rt.slab_pool().fresh_allocations(), fresh_after_warmup.load());
}

TEST_P(RuntimeSemantics, ArenasAreRecycledAcrossRunCalls) {
  // The pool outlives worker state, so a second identical run() reuses the
  // first run's slabs instead of allocating fresh ones.
  Runtime rt(make_config());
  const int p = rt.config().nprocs;
  auto program = [p](Worker& w) {
    for (int s = 0; s < 6; ++s) {
      std::vector<double> data(100, 1.0 * w.pid());
      w.send_array((w.pid() + 1) % p, data);
      w.sync();
      while (w.get_message() != nullptr) {
      }
    }
  };
  rt.run(program);
  const std::uint64_t fresh_after_first = rt.slab_pool().fresh_allocations();
  rt.run(program);
  EXPECT_EQ(rt.slab_pool().fresh_allocations(), fresh_after_first);
  EXPECT_GT(rt.slab_pool().reuses(), 0u);
}

TEST_P(RuntimeSemantics, DeterministicOrderSurvivesChunkedEagerFlushes) {
  // A tiny eager chunk size forces many interleaved mid-superstep splices
  // into the receiver's parity buffer; deterministic delivery must still
  // present (source, seq) order.
  Config cfg = make_config(/*deterministic=*/true);
  cfg.eager_chunk_messages = 2;
  Runtime rt(cfg);
  const int p = rt.config().nprocs;
  rt.run([p](Worker& w) {
    for (int k = 0; k < 9; ++k) w.send(0, w.pid() * 100 + k);
    w.sync();
    if (w.pid() != 0) return;
    int expect_src = 0, expect_k = 0;
    while (const Message* m = w.get_message()) {
      EXPECT_EQ(static_cast<int>(m->source), expect_src);
      EXPECT_EQ(m->as<int>(), expect_src * 100 + expect_k);
      if (++expect_k == 9) {
        expect_k = 0;
        ++expect_src;
      }
    }
    EXPECT_EQ(expect_src, p);
  });
}

INSTANTIATE_TEST_SUITE_P(AllModes, RuntimeSemantics,
                         testing::ValuesIn(all_params()), param_name);

// ------------------------------------------------- non-parameterized extras

TEST(Runtime, RejectsNonPositiveProcs) {
  Config cfg;
  cfg.nprocs = 0;
  EXPECT_THROW(Runtime rt(cfg), std::invalid_argument);
}

TEST(Runtime, RejectsZeroPacketUnit) {
  Config cfg;
  cfg.nprocs = 1;
  cfg.packet_unit_bytes = 0;
  EXPECT_THROW(Runtime rt(cfg), std::invalid_argument);
}

TEST(Runtime, RunBspConvenienceWrapper) {
  RunStats stats = run_bsp(3, [](Worker& w) {
    EXPECT_EQ(w.nprocs(), 3);
    w.sync();
  });
  EXPECT_EQ(stats.nprocs, 3);
  EXPECT_EQ(stats.S(), 2u);
}

TEST(Runtime, SerializedAndParallelProduceIdenticalMessageFlow) {
  // The same deterministic program must deliver the same multiset of
  // messages (and the same H/S) under both schedulers.
  auto program = [](Worker& w) -> std::uint64_t {
    const int p = w.nprocs();
    std::uint64_t checksum = 0;
    for (int round = 0; round < 8; ++round) {
      for (int d = 0; d < p; ++d) {
        if (d != w.pid()) {
          w.send(d, static_cast<std::uint64_t>(round * 100 + w.pid()));
        }
      }
      w.sync();
      while (const Message* m = w.get_message()) {
        checksum += m->as<std::uint64_t>() * (m->source + 1);
      }
    }
    return checksum;
  };
  std::atomic<std::uint64_t> sum_parallel{0}, sum_serial{0};

  Config par;
  par.nprocs = 5;
  RunStats sp = Runtime(par).run(
      [&](Worker& w) { sum_parallel += program(w); });

  Config ser = par;
  ser.scheduling = Scheduling::Serialized;
  RunStats ss = Runtime(ser).run(
      [&](Worker& w) { sum_serial += program(w); });

  EXPECT_EQ(sum_parallel.load(), sum_serial.load());
  EXPECT_EQ(sp.S(), ss.S());
  EXPECT_EQ(sp.H(), ss.H());
  EXPECT_EQ(sp.total_packets(), ss.total_packets());
}

TEST(Runtime, CommMatrixRecordsPerDestinationPackets) {
  Config cfg;
  cfg.nprocs = 4;
  cfg.collect_comm_matrix = true;
  Runtime rt(cfg);
  RunStats stats = rt.run([](Worker& w) {
    // pid 0 sends 2 packets to 1 and 1 packet to 2.
    if (w.pid() == 0) {
      char buf[32] = {};
      w.send_bytes(1, buf, sizeof(buf));
      w.send_bytes(2, buf, 16);
    }
    w.sync();
    while (w.get_message() != nullptr) {
    }
  });
  const auto& rec = stats.traces[0][0];
  ASSERT_EQ(rec.sent_to_packets.size(), 4u);
  EXPECT_EQ(rec.sent_to_packets[1], 2u);
  EXPECT_EQ(rec.sent_to_packets[2], 1u);
  EXPECT_EQ(rec.sent_to_packets[0], 0u);
  EXPECT_EQ(rec.sent_to_packets[3], 0u);
}

TEST(Runtime, ShmIsProcessModeWithOneLocalWorker) {
  // The shm transport, like tcp, makes the Runtime a single-rank process:
  // one local worker whose pid is Config::rank, peers living in other
  // processes. The degenerate single-rank run exercises the whole
  // process-mode plumbing (mesh build with no peers, self-delivery only)
  // without needing a peer process. Cross-rank coverage lives in
  // test_transport_shm.cpp and scripts/run_proc_smoke.sh.
  Config cfg;
  cfg.nprocs = 1;
  cfg.delivery = DeliveryStrategy::Shm;
  cfg.rank = 0;
  cfg.shm_name = "rt" + std::to_string(static_cast<long>(::getpid()));
  cfg.collect_stats = true;
  Runtime rt(cfg);
  EXPECT_STREQ(rt.transport().name(), "shm");
  const RunStats stats = rt.run([](Worker& w) {
    EXPECT_EQ(w.pid(), 0);
    EXPECT_EQ(w.nprocs(), 1);
    w.send(0, 42);
    w.sync();
    const Message* m = w.get_message();
    ASSERT_NE(m, nullptr);
    EXPECT_EQ(m->as<int>(), 42);
  });
  EXPECT_EQ(stats.total_wire_syscalls(), 0u)
      << "self-delivery must never touch a wire";
}

TEST(Runtime, UnequalSyncCountsAreToleratedInSerializedMode) {
  // The serialized scheduler drops finished workers from the rotation, so a
  // worker may stop syncing earlier as long as nobody waits for its data.
  Config cfg;
  cfg.nprocs = 3;
  cfg.scheduling = Scheduling::Serialized;
  Runtime rt(cfg);
  RunStats stats = rt.run([](Worker& w) {
    const int extra = w.pid();  // pid 0 syncs once, pid 2 syncs thrice
    for (int i = 0; i <= extra; ++i) w.sync();
  });
  EXPECT_GE(stats.S(), 4u);
}

}  // namespace
}  // namespace gbsp
