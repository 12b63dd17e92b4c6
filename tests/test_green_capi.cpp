// Tests for the paper-faithful C interface (green_bsp.h, Appendix A).
#include <gtest/gtest.h>

#include <cstring>
#include <set>
#include <stdexcept>

#include "core/green_bsp.h"
#include "core/runtime.hpp"

namespace gbsp {
namespace {

TEST(GreenCApi, PidAndNProcs) {
  std::set<int> pids;
  std::mutex mu;
  run_bsp(4, [&](Worker& w) {
    EXPECT_EQ(bspPid(), w.pid());
    EXPECT_EQ(bspNProcs(), 4);
    std::lock_guard<std::mutex> lock(mu);
    pids.insert(bspPid());
  });
  EXPECT_EQ(pids.size(), 4u);
}

TEST(GreenCApi, PacketRingRoundTrip) {
  run_bsp(5, [](Worker& w) {
    const int p = bspNProcs();
    bspPkt pkt;
    std::memset(pkt.data, 0, sizeof(pkt.data));
    std::snprintf(pkt.data, sizeof(pkt.data), "from %d", bspPid());
    bspSendPkt((bspPid() + 1) % p, &pkt);
    bspSynch();
    bspPkt* got = bspGetPkt();
    ASSERT_NE(got, nullptr);
    char want[32];
    std::snprintf(want, sizeof(want), "from %d", (bspPid() + p - 1) % p);
    EXPECT_STREQ(got->data, want);
    EXPECT_EQ(bspGetPkt(), nullptr);
    (void)w;
  });
}

TEST(GreenCApi, NumPktsTracksDrain) {
  run_bsp(3, [](Worker&) {
    const int p = bspNProcs();
    bspPkt pkt{};
    for (int k = 0; k < 4; ++k) {
      pkt.data[0] = static_cast<char>(k);
      bspSendPkt((bspPid() + 1) % p, &pkt);
    }
    EXPECT_EQ(bspNumPkts(), 0);
    bspSynch();
    EXPECT_EQ(bspNumPkts(), 4);
    ASSERT_NE(bspGetPkt(), nullptr);
    EXPECT_EQ(bspNumPkts(), 3);
    while (bspGetPkt() != nullptr) {
    }
    EXPECT_EQ(bspNumPkts(), 0);
  });
}

TEST(GreenCApi, PacketsArriveInArbitraryOrderButComplete) {
  // All processors send 3 packets to 0; 0 must see 3*(p-1) packets with each
  // (source, index) pair exactly once, in whatever order.
  run_bsp(4, [](Worker&) {
    const int p = bspNProcs();
    bspPkt pkt{};
    if (bspPid() != 0) {
      for (int k = 0; k < 3; ++k) {
        pkt.data[0] = static_cast<char>(bspPid());
        pkt.data[1] = static_cast<char>(k);
        bspSendPkt(0, &pkt);
      }
    }
    bspSynch();
    if (bspPid() == 0) {
      std::set<std::pair<int, int>> seen;
      while (bspPkt* got = bspGetPkt()) {
        seen.emplace(got->data[0], got->data[1]);
      }
      EXPECT_EQ(seen.size(), static_cast<std::size_t>(3 * (p - 1)));
    }
  });
}

TEST(GreenCApi, SplitPhaseRingRoundTrip) {
  // Same ring as PacketRingRoundTrip, but crossing the boundary with the
  // split pair: compute between bspSynchBegin and bspSynchEnd, then read.
  run_bsp(5, [](Worker& w) {
    const int p = bspNProcs();
    bspPkt pkt;
    std::memset(pkt.data, 0, sizeof(pkt.data));
    std::snprintf(pkt.data, sizeof(pkt.data), "from %d", bspPid());
    bspSendPkt((bspPid() + 1) % p, &pkt);
    bspSynchBegin();
    char want[32];
    std::snprintf(want, sizeof(want), "from %d", (bspPid() + p - 1) % p);
    bspSynchEnd();
    bspPkt* got = bspGetPkt();
    ASSERT_NE(got, nullptr);
    EXPECT_STREQ(got->data, want);
    EXPECT_EQ(bspGetPkt(), nullptr);
    (void)w;
  });
}

TEST(GreenCApi, MixingWithVariableLengthSendsIsDiagnosed) {
  Config cfg;
  cfg.nprocs = 2;
  Runtime rt(cfg);
  EXPECT_THROW(rt.run([](Worker& w) {
                 double big[4] = {1, 2, 3, 4};  // 32 bytes, not a bspPkt
                 w.send_array(1 - w.pid(), big, 4);
                 w.sync();
                 bspGetPkt();
               }),
               std::logic_error);
}

TEST(GreenCApi, OutsideRunIsDiagnosed) {
  EXPECT_THROW(bspPid(), std::logic_error);
  EXPECT_THROW(bspSynch(), std::logic_error);
  EXPECT_THROW(bspGetPkt(), std::logic_error);
}

// ------------------------------------------- BSPlib-style DRMA extension

TEST(GreenCApiDrma, PutIntoRegisteredNeighborWindow) {
  run_bsp(4, [](Worker&) {
    const int p = bspNProcs();
    double window[4] = {-1, -1, -1, -1};
    bspPushReg(window, sizeof(window));
    const double value = 10.0 + bspPid();
    bspPut((bspPid() + 1) % p, &value, window, 2 * sizeof(double),
           sizeof(double));
    EXPECT_DOUBLE_EQ(window[2], -1.0);  // not yet delivered
    bspDrmaSync();
    EXPECT_DOUBLE_EQ(window[2], 10.0 + (bspPid() + p - 1) % p);
    EXPECT_DOUBLE_EQ(window[1], -1.0);
    bspPopReg();
  });
}

TEST(GreenCApiDrma, GetFromNeighbor) {
  run_bsp(3, [](Worker&) {
    const int p = bspNProcs();
    int cell = 100 * (bspPid() + 1);
    bspPushReg(&cell, sizeof(cell));
    int got = -1;
    bspGet((bspPid() + 1) % p, &cell, 0, &got, sizeof(got));
    bspDrmaSync();
    EXPECT_EQ(got, 100 * ((bspPid() + 1) % p + 1));
    bspPopReg();
  });
}

TEST(GreenCApiDrma, UnregisteredAddressIsDiagnosed) {
  Config cfg;
  cfg.nprocs = 2;
  Runtime rt(cfg);
  EXPECT_THROW(rt.run([](Worker&) {
                 double x = 0, v = 1;
                 bspPut(1 - bspPid(), &v, &x, 0, sizeof(v));
               }),
               std::logic_error);
  EXPECT_THROW(rt.run([](Worker&) { bspPopReg(); }), std::logic_error);
}

TEST(GreenCApiDrma, MixesWithPacketApiInSeparateSupersteps) {
  run_bsp(2, [](Worker&) {
    // Packet superstep first...
    bspPkt pkt{};
    pkt.data[0] = 42;
    bspSendPkt(1 - bspPid(), &pkt);
    bspSynch();
    ASSERT_NE(bspGetPkt(), nullptr);
    // ...then a dedicated DRMA superstep.
    double slot = 0;
    bspPushReg(&slot, sizeof(slot));
    const double v = 2.5;
    bspPut(1 - bspPid(), &v, &slot, 0, sizeof(v));
    bspDrmaSync();
    EXPECT_DOUBLE_EQ(slot, 2.5);
  });
}

TEST(GreenCApi, PacketPayloadIsWritableScratch) {
  // The paper's bspGetPkt returns a mutable packet; callers may scribble.
  run_bsp(2, [](Worker&) {
    bspPkt pkt{};
    pkt.data[0] = 42;
    bspSendPkt(1 - bspPid(), &pkt);
    bspSynch();
    bspPkt* got = bspGetPkt();
    ASSERT_NE(got, nullptr);
    got->data[0] += 1;
    EXPECT_EQ(got->data[0], 43);
  });
}

}  // namespace
}  // namespace gbsp
