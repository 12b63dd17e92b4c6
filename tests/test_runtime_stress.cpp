// Randomized stress and cross-mode equivalence tests: many supersteps of
// random communication, verified against an independently computed oracle.
#include <gtest/gtest.h>

#include <cstdint>
#include <mutex>
#include <vector>

#include "core/runtime.hpp"
#include "util/rng.hpp"

namespace gbsp {
namespace {

// Deterministic description of what (src -> dst) traffic round r carries:
// message k from src to dst has value mix(r, src, dst, k).
std::uint64_t mix(std::uint64_t r, std::uint64_t src, std::uint64_t dst,
                  std::uint64_t k) {
  SplitMix64 sm((r << 40) ^ (src << 26) ^ (dst << 12) ^ k);
  return sm.next();
}

// How many messages src sends to dst in round r (0..3, deterministic).
int fanout(std::uint64_t seed, int r, int src, int dst) {
  SplitMix64 sm(seed ^ mix(static_cast<std::uint64_t>(r) + 101,
                           static_cast<std::uint64_t>(src),
                           static_cast<std::uint64_t>(dst), 77));
  return static_cast<int>(sm.next() % 4);
}

struct StressParam {
  Scheduling scheduling;
  DeliveryStrategy delivery;
  int nprocs;
  int rounds;
  std::uint64_t seed;
};

class RandomTraffic : public testing::TestWithParam<StressParam> {};

TEST_P(RandomTraffic, EveryMessageArrivesExactlyOnceWithCorrectContent) {
  const StressParam& sp = GetParam();
  Config cfg;
  cfg.nprocs = sp.nprocs;
  cfg.scheduling = sp.scheduling;
  cfg.delivery = sp.delivery;
  cfg.eager_chunk_messages = 2;  // force frequent chunk flushes in eager mode

  std::mutex mu;
  std::uint64_t grand_checksum = 0;
  std::uint64_t grand_count = 0;

  Runtime rt(cfg);
  RunStats stats = rt.run([&](Worker& w) {
    const int p = w.nprocs();
    std::uint64_t checksum = 0, count = 0;
    for (int r = 0; r < sp.rounds; ++r) {
      for (int d = 0; d < p; ++d) {
        const int n = fanout(sp.seed, r, w.pid(), d);
        for (int k = 0; k < n; ++k) {
          w.send(d, mix(static_cast<std::uint64_t>(r),
                        static_cast<std::uint64_t>(w.pid()),
                        static_cast<std::uint64_t>(d),
                        static_cast<std::uint64_t>(k)));
        }
      }
      w.sync();
      // Verify each incoming message against the oracle for (r, src, me).
      std::vector<int> seen(static_cast<std::size_t>(p), 0);
      while (const Message* m = w.get_message()) {
        const int src = static_cast<int>(m->source);
        bool matched = false;
        const int n = fanout(sp.seed, r, src, w.pid());
        const std::uint64_t v = m->as<std::uint64_t>();
        for (int k = 0; k < n; ++k) {
          if (v == mix(static_cast<std::uint64_t>(r),
                       static_cast<std::uint64_t>(src),
                       static_cast<std::uint64_t>(w.pid()),
                       static_cast<std::uint64_t>(k))) {
            matched = true;
            break;
          }
        }
        EXPECT_TRUE(matched) << "round " << r << " src " << src;
        ++seen[static_cast<std::size_t>(src)];
        checksum ^= v;
        ++count;
      }
      for (int s = 0; s < p; ++s) {
        EXPECT_EQ(seen[static_cast<std::size_t>(s)],
                  fanout(sp.seed, r, s, w.pid()))
            << "round " << r << " src " << s << " dst " << w.pid();
      }
    }
    std::lock_guard<std::mutex> lock(mu);
    grand_checksum ^= checksum;
    grand_count += count;
  });

  // Oracle totals.
  std::uint64_t want_checksum = 0, want_count = 0;
  for (int r = 0; r < sp.rounds; ++r) {
    for (int s = 0; s < sp.nprocs; ++s) {
      for (int d = 0; d < sp.nprocs; ++d) {
        const int n = fanout(sp.seed, r, s, d);
        for (int k = 0; k < n; ++k) {
          want_checksum ^= mix(static_cast<std::uint64_t>(r),
                               static_cast<std::uint64_t>(s),
                               static_cast<std::uint64_t>(d),
                               static_cast<std::uint64_t>(k));
          ++want_count;
        }
      }
    }
  }
  EXPECT_EQ(grand_checksum, want_checksum);
  EXPECT_EQ(grand_count, want_count);
  EXPECT_EQ(stats.S(), static_cast<std::size_t>(sp.rounds) + 1);
}

std::vector<StressParam> stress_params() {
  std::vector<StressParam> out;
  int which = 0;
  for (auto sched : {Scheduling::Parallel, Scheduling::Serialized}) {
    for (auto del : {DeliveryStrategy::Deferred, DeliveryStrategy::Eager,
                     DeliveryStrategy::Socket}) {
      for (int p : {2, 4, 6, 8}) {
        out.push_back({sched, del, p, 25,
                       0xabcdef00ull + static_cast<std::uint64_t>(which++)});
      }
    }
  }
  return out;
}

std::string stress_name(const testing::TestParamInfo<StressParam>& info) {
  const StressParam& p = info.param;
  std::string s;
  s += p.scheduling == Scheduling::Parallel ? "Par" : "Ser";
  switch (p.delivery) {
    case DeliveryStrategy::Deferred: s += "Def"; break;
    case DeliveryStrategy::Eager: s += "Eag"; break;
    case DeliveryStrategy::Socket: s += "Sock"; break;
    case DeliveryStrategy::Tcp: s += "Tcp"; break;
    case DeliveryStrategy::Shm: s += "Shm"; break;
  }
  s += 'P';
  s += std::to_string(p.nprocs);
  return s;
}

INSTANTIATE_TEST_SUITE_P(Traffic, RandomTraffic,
                         testing::ValuesIn(stress_params()), stress_name);

TEST(Stress, ManySuperstepsNoLeakage) {
  // 500 supersteps with a single round-trip message each; verifies no
  // cross-superstep leakage and S accounting at scale.
  Config cfg;
  cfg.nprocs = 3;
  Runtime rt(cfg);
  RunStats stats = rt.run([](Worker& w) {
    for (int r = 0; r < 500; ++r) {
      w.send((w.pid() + 1) % w.nprocs(), r);
      w.sync();
      const Message* m = w.get_message();
      ASSERT_NE(m, nullptr);
      ASSERT_EQ(m->as<int>(), r);
      ASSERT_EQ(w.get_message(), nullptr);
    }
  });
  EXPECT_EQ(stats.S(), 501u);
  // Steady-state ring: every superstep sends one packet and reads the one
  // delivered at its opening boundary, plus the tail read: H = 501.
  EXPECT_EQ(stats.H(), 501u);
}

TEST(Stress, LargePayloadsMoveIntact) {
  Config cfg;
  cfg.nprocs = 2;
  Runtime rt(cfg);
  rt.run([](Worker& w) {
    std::vector<std::uint64_t> big(1 << 16);  // 512 KiB
    for (std::size_t i = 0; i < big.size(); ++i) {
      big[i] = i * 2654435761u + static_cast<std::uint64_t>(w.pid());
    }
    w.send_array(1 - w.pid(), big);
    w.sync();
    const Message* m = w.get_message();
    ASSERT_NE(m, nullptr);
    std::vector<std::uint64_t> got;
    m->copy_array(got);
    ASSERT_EQ(got.size(), big.size());
    const std::uint64_t other = static_cast<std::uint64_t>(1 - w.pid());
    for (std::size_t i = 0; i < got.size(); i += 4097) {
      ASSERT_EQ(got[i], i * 2654435761u + other);
    }
  });
}

TEST(Stress, RandomSizedPayloadsStraddleInlineThreshold) {
  // Random payload lengths in 0..120 — hammering both sides of the arena's
  // 32-byte inline threshold within single supersteps — with every byte
  // verified against a deterministic oracle. Runs every delivery strategy
  // (eager with tiny chunks, so splices interleave mid-superstep; socket
  // with real staged wire exchanges).
  for (auto del : {DeliveryStrategy::Deferred, DeliveryStrategy::Eager,
                   DeliveryStrategy::Socket}) {
    Config cfg;
    cfg.nprocs = 4;
    cfg.delivery = del;
    cfg.eager_chunk_messages = 3;
    Runtime rt(cfg);
    rt.run([](Worker& w) {
      const int p = w.nprocs();
      for (int r = 0; r < 40; ++r) {
        for (int d = 0; d < p; ++d) {
          SplitMix64 sm(mix(static_cast<std::uint64_t>(r),
                            static_cast<std::uint64_t>(w.pid()),
                            static_cast<std::uint64_t>(d), 5));
          const std::size_t len = sm.next() % 121;
          std::vector<std::uint8_t> buf(len);
          for (std::size_t i = 0; i < len; ++i) {
            buf[i] = static_cast<std::uint8_t>(sm.next());
          }
          w.send_bytes(d, buf.data(), buf.size());
        }
        w.sync();
        int received = 0;
        while (const Message* m = w.get_message()) {
          const int src = static_cast<int>(m->source);
          SplitMix64 sm(mix(static_cast<std::uint64_t>(r),
                            static_cast<std::uint64_t>(src),
                            static_cast<std::uint64_t>(w.pid()), 5));
          const std::size_t len = sm.next() % 121;
          ASSERT_EQ(m->size(), len) << "round " << r << " src " << src;
          const std::uint8_t* got =
              reinterpret_cast<const std::uint8_t*>(m->payload.data());
          for (std::size_t i = 0; i < len; ++i) {
            ASSERT_EQ(got[i], static_cast<std::uint8_t>(sm.next()))
                << "round " << r << " src " << src << " byte " << i;
          }
          ++received;
        }
        ASSERT_EQ(received, p) << "round " << r;
      }
    });
  }
}

TEST(Stress, EagerChunkBoundaryExactMultiples) {
  // Message counts exactly at, below, and above the chunk size.
  for (std::size_t chunk : {1u, 2u, 7u}) {
    for (int extra : {-1, 0, 1}) {
      const int n = static_cast<int>(chunk) * 3 + extra;
      if (n <= 0) continue;
      Config cfg;
      cfg.nprocs = 2;
      cfg.delivery = DeliveryStrategy::Eager;
      cfg.eager_chunk_messages = chunk;
      Runtime rt(cfg);
      rt.run([n](Worker& w) {
        for (int k = 0; k < n; ++k) w.send(1 - w.pid(), k);
        w.sync();
        int count = 0;
        while (w.get_message() != nullptr) ++count;
        ASSERT_EQ(count, n);
      });
    }
  }
}

}  // namespace
}  // namespace gbsp
