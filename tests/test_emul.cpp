// Machine-emulator tests: trace capture, pricing under the three transport
// models, determinism, and calibration.
#include <gtest/gtest.h>

#include <cmath>

#include "emul/emulator.hpp"

namespace gbsp {
namespace {

// A small deterministic program: `rounds` supersteps; each processor does a
// spin of `work_iters` and sends `msgs` packets to its right neighbor.
std::function<void(Worker&)> make_program(int rounds, int work_iters,
                                          int msgs) {
  return [rounds, work_iters, msgs](Worker& w) {
    const int p = w.nprocs();
    for (int r = 0; r < rounds; ++r) {
      volatile double sink = 0;
      for (int i = 0; i < work_iters; ++i) sink = sink + 1.0;
      for (int k = 0; k < msgs; ++k) {
        if (p > 1) w.send((w.pid() + 1) % p, k);
      }
      w.sync();
      while (w.get_message() != nullptr) {
      }
    }
  };
}

TEST(Emulator, ExecuteTracedCapturesTraceAndMatrix) {
  RunStats stats = execute_traced(4, make_program(3, 1000, 2));
  EXPECT_EQ(stats.nprocs, 4);
  EXPECT_EQ(stats.S(), 4u);  // 3 syncs + tail
  // 2 packets sent per superstep for 3 supersteps; reads charged to the
  // following supersteps overlap except at the ends: H = 2*(3 + 1).
  EXPECT_EQ(stats.H(), 8u);
  ASSERT_EQ(stats.traces.size(), 4u);
  const auto& rec = stats.traces[1][0];
  ASSERT_EQ(rec.sent_to_packets.size(), 4u);
  EXPECT_EQ(rec.sent_to_packets[2], 2u);  // pid 1 -> pid 2
}

TEST(Emulator, MachineFactoriesWireTheRightProfiles) {
  EXPECT_EQ(emulated_sgi().name(), "SGI");
  EXPECT_EQ(emulated_sgi().transport, TransportModel::SharedMemory);
  EXPECT_GT(emulated_sgi().mem_contention_us_per_byte, 0.0);
  EXPECT_EQ(emulated_cenju().name(), "Cenju");
  EXPECT_EQ(emulated_cenju().transport, TransportModel::MpiAllToAll);
  EXPECT_EQ(emulated_pc().name(), "PC");
  EXPECT_EQ(emulated_pc().transport, TransportModel::TcpStaged);
  EXPECT_EQ(emulated_machines().size(), 3u);
}

TEST(Emulator, PricingIsDeterministic) {
  RunStats stats = execute_traced(4, make_program(5, 2000, 3));
  const auto m = emulated_cenju();
  const double a = price_trace(stats, m, 1.0);
  const double b = price_trace(stats, m, 1.0);
  EXPECT_DOUBLE_EQ(a, b);
  EXPECT_GT(a, 0.0);
}

TEST(Emulator, HigherLatencyMachineChargesMoreForSyncHeavyPrograms) {
  // 50 communication-free supersteps: cost ~ 50 * L, so Cenju (L=470us at
  // p=4) must far exceed SGI (L=29us at p=4).
  RunStats stats = execute_traced(4, make_program(50, 0, 0));
  const double sgi = price_trace(stats, emulated_sgi(), 1.0);
  const double cenju = price_trace(stats, emulated_cenju(), 1.0);
  EXPECT_GT(cenju, sgi * 5);
}

TEST(Emulator, CpuScaleScalesTheWorkComponent) {
  RunStats stats = execute_traced(2, make_program(2, 200000, 0));
  const auto m = emulated_sgi();
  const double t1 = price_trace(stats, m, 1.0);
  const double t10 = price_trace(stats, m, 10.0);
  // Work dominates this program, so 10x cpu_scale is close to 10x time.
  EXPECT_GT(t10, t1 * 5);
}

TEST(Emulator, TcpStagedPenalizesSkewedPatterns) {
  // Balanced: each of 4 procs sends 30 packets spread over all others.
  // Skewed: proc 0 sends 90 packets to proc 1 only. Same h? Balanced h = 30
  // sent = 30 recv; skewed h = 90. Normalize by comparing against the coarse
  // g*h charge: the staged model should be close to g*h for balanced
  // traffic and *worse* than g*h for skewed traffic.
  auto balanced = [](Worker& w) {
    const int p = w.nprocs();
    for (int d = 0; d < p; ++d) {
      if (d == w.pid()) continue;
      for (int k = 0; k < 10; ++k) w.send(d, k);
    }
    w.sync();
    while (w.get_message() != nullptr) {
    }
  };
  auto skewed = [](Worker& w) {
    if (w.pid() == 0) {
      for (int k = 0; k < 90; ++k) w.send(1, k);
    }
    w.sync();
    while (w.get_message() != nullptr) {
    }
  };
  auto pc = emulated_pc();
  pc.noise_amplitude = 0;  // exact comparison
  const MachineParams mp = pc.profile->params_for(4);

  RunStats sb = execute_traced(4, balanced);
  RunStats ss = execute_traced(4, skewed);
  const double priced_b = price_trace(sb, pc, 0.0);
  const double priced_s = price_trace(ss, pc, 0.0);
  const double coarse_b =
      (mp.g_us * static_cast<double>(sb.H()) + mp.L_us * sb.S()) * 1e-6;
  const double coarse_s =
      (mp.g_us * static_cast<double>(ss.H()) + mp.L_us * ss.S()) * 1e-6;
  // Balanced traffic: staged schedule within ~1% of the coarse model.
  EXPECT_NEAR(priced_b, coarse_b, coarse_b * 0.01);
  // Skewed traffic: all 90 packets cross in one stage while other stages
  // idle, but the coarse model sees the same thing (h = 90); the rigid
  // schedule is no *better* than coarse.
  EXPECT_GE(priced_s, coarse_s * 0.99);
}

TEST(Emulator, SharedMemoryContentionGrowsWithVolume) {
  // Two programs with identical h (in packets) but different per-message
  // volume; the SGI model charges the larger-volume one more.
  auto small = make_program(1, 0, 64);  // 64 x 4-byte messages = 64 packets
  auto big = [](Worker& w) {           // 64 x 16-byte messages = 64 packets
    const int p = w.nprocs();
    for (int k = 0; k < 64; ++k) {
      double payload[2] = {1.0, 2.0};
      w.send((w.pid() + 1) % p, payload);
    }
    w.sync();
    while (w.get_message() != nullptr) {
    }
  };
  auto sgi = emulated_sgi();
  sgi.noise_amplitude = 0;
  RunStats s1 = execute_traced(4, small);
  RunStats s2 = execute_traced(4, big);
  ASSERT_EQ(s1.H(), s2.H());
  EXPECT_GT(price_trace(s2, sgi, 0.0), price_trace(s1, sgi, 0.0));
}

TEST(Emulator, EmulateBundlesPredictionAndPricing) {
  EmulationResult r = emulate(4, emulated_sgi(), 1.0, make_program(4, 5000, 2));
  EXPECT_GT(r.emulated_time_s, 0.0);
  EXPECT_GT(r.predicted_time_s, 0.0);
  EXPECT_DOUBLE_EQ(r.predicted_time_s, r.predicted.total_s());
  // The detailed model and the coarse model should agree to within ~35% for
  // this well-behaved program (noise 3%, contention small).
  EXPECT_NEAR(r.emulated_time_s, r.predicted_time_s,
              0.35 * r.predicted_time_s + 1e-4);
}

TEST(Emulator, CalibrationMapsOurWorkToPaperSeconds) {
  EXPECT_DOUBLE_EQ(calibrate_cpu_scale(37.87, 0.5), 75.74);
  EXPECT_THROW(calibrate_cpu_scale(1.0, 0.0), std::invalid_argument);
}

TEST(Emulator, SerializedExecutionWorkExcludesPeers) {
  // In Serialized mode each worker's measured work must be its own compute
  // only, never the time it waited for the compute token while its peers
  // ran. One run, so that host load moves every slice alike: worker k
  // spins k + 1 slices, so W (the max) is worker 3's 4 slices and the total
  // is 10 of worker 0's. A worker charged with its wait would also carry
  // the slices of the workers ahead of it: worker 3 would read 10.
  const int slice = 400000;
  RunStats s = execute_traced(4, [](Worker& w) {
    volatile double sink = 0;
    for (int i = 0; i < (w.pid() + 1) * slice; ++i) sink = sink + 1.0;
    w.sync();
  });
  const double w0 = s.traces[0][0].work_us * 1e-6;
  EXPECT_NEAR(s.W_s(), 4 * w0, 4 * w0 * 0.8);
  EXPECT_NEAR(s.total_work_s(), 10 * w0, 10 * w0 * 0.8);
}

}  // namespace
}  // namespace gbsp
