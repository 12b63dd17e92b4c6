// Cost-model tests: machine tables (paper Fig 2.1), the Equation 1
// predictor, and (g, L) fitting.
#include <gtest/gtest.h>

#include "cost/fit.hpp"
#include "cost/machine.hpp"
#include "cost/predictor.hpp"
#include "cost/scaling.hpp"

namespace gbsp {
namespace {

// ----------------------------------------------------------------- machines

TEST(Machine, PaperTablesMatchFigure21) {
  // Spot-check the embedded Figure 2.1 values.
  EXPECT_DOUBLE_EQ(paper_sgi().params_for(1).g_us, 0.77);
  EXPECT_DOUBLE_EQ(paper_sgi().params_for(1).L_us, 3);
  EXPECT_DOUBLE_EQ(paper_sgi().params_for(16).g_us, 0.95);
  EXPECT_DOUBLE_EQ(paper_sgi().params_for(16).L_us, 105);
  EXPECT_DOUBLE_EQ(paper_cenju().params_for(8).g_us, 2.5);
  EXPECT_DOUBLE_EQ(paper_cenju().params_for(8).L_us, 1470);
  EXPECT_DOUBLE_EQ(paper_cenju().params_for(16).L_us, 2880);
  EXPECT_DOUBLE_EQ(paper_pc().params_for(2).g_us, 3.3);
  EXPECT_DOUBLE_EQ(paper_pc().params_for(8).L_us, 3715);
}

TEST(Machine, MaxProcsMatchThePaperPlatforms) {
  EXPECT_EQ(paper_sgi().max_procs(), 16);
  EXPECT_EQ(paper_cenju().max_procs(), 16);
  EXPECT_EQ(paper_pc().max_procs(), 8);
  EXPECT_TRUE(paper_sgi().supports(16));
  EXPECT_FALSE(paper_pc().supports(16));
}

TEST(Machine, InterpolatesBetweenTableEntries) {
  // Cenju at 12 procs: halfway between (8: g=2.5, L=1470) and
  // (16: g=3.6, L=2880)... 12 is halfway between 9 and 16? No: entries are
  // 8, 9, 16; 12 interpolates between 9 (2.7, 1680) and 16 (3.6, 2880).
  const MachineParams mp = paper_cenju().params_for(12);
  const double t = (12.0 - 9.0) / (16.0 - 9.0);
  EXPECT_NEAR(mp.g_us, 2.7 + t * (3.6 - 2.7), 1e-12);
  EXPECT_NEAR(mp.L_us, 1680 + t * (2880 - 1680), 1e-9);
}

TEST(Machine, ClampsOutsideTheTable) {
  const MachineParams above = paper_pc().params_for(32);
  EXPECT_DOUBLE_EQ(above.g_us, 8.6);
  EXPECT_DOUBLE_EQ(above.L_us, 3715);
  EXPECT_THROW((void)paper_pc().params_for(0), std::invalid_argument);
}

TEST(Machine, PaperMachinesInPresentationOrder) {
  const auto machines = paper_machines();
  ASSERT_EQ(machines.size(), 3u);
  EXPECT_EQ(machines[0]->name(), "SGI");
  EXPECT_EQ(machines[1]->name(), "Cenju");
  EXPECT_EQ(machines[2]->name(), "PC");
}

TEST(Machine, EmptyTableRejected) {
  EXPECT_THROW(MachineProfile("x", {}, 4), std::invalid_argument);
}

// ---------------------------------------------------------------- predictor

TEST(Predictor, Equation1Arithmetic) {
  // W = 2s, H = 1e6 packets, S = 100, g = 2us, L = 1000us:
  // T = 2 + 2.0 + 0.1 = 4.1 s.
  MachineParams mp{2.0, 1000.0};
  const CostBreakdown c = predict_cost(2.0, 1'000'000, 100, mp);
  EXPECT_DOUBLE_EQ(c.work_s, 2.0);
  EXPECT_DOUBLE_EQ(c.bandwidth_s, 2.0);
  EXPECT_DOUBLE_EQ(c.latency_s, 0.1);
  EXPECT_DOUBLE_EQ(c.total_s(), 4.1);
  EXPECT_DOUBLE_EQ(c.comm_s(), 2.1);
}

TEST(Predictor, CpuScaleRescalesOnlyWork) {
  MachineParams mp{1.0, 100.0};
  const CostBreakdown c = predict_cost(1.0, 1000, 10, mp, 3.0);
  EXPECT_DOUBLE_EQ(c.work_s, 3.0);
  EXPECT_DOUBLE_EQ(c.bandwidth_s, 1e-3);
  EXPECT_DOUBLE_EQ(c.latency_s, 1e-3);
}

TEST(Predictor, StepwiseEqualsAggregateForUniformSteps) {
  RunStats stats;
  stats.nprocs = 4;
  for (int i = 0; i < 5; ++i) {
    SuperstepStats s;
    s.w_max_us = 100.0;
    s.h_packets = 50;
    stats.supersteps.push_back(s);
  }
  MachineParams mp{2.0, 30.0};
  const double agg = predict_cost(stats, mp).total_s();
  const double step = predict_cost_stepwise_s(stats, mp);
  EXPECT_NEAR(agg, step, 1e-12);
}

// ---------------------------------------------------------------------- fit

TEST(Fit, RecoversExactLinearRelation) {
  std::vector<ProbeSample> samples;
  const double g = 2.2, L = 470.0;
  for (std::uint64_t h : {1u, 10u, 100u, 1000u, 5000u}) {
    samples.push_back({h, g * static_cast<double>(h) + L});
  }
  const MachineParams mp = fit_g_L(samples);
  EXPECT_NEAR(mp.g_us, g, 1e-9);
  EXPECT_NEAR(mp.L_us, L, 1e-6);
}

TEST(Fit, ToleratesNoise) {
  std::vector<ProbeSample> samples;
  const double g = 0.95, L = 105.0;
  int sign = 1;
  for (std::uint64_t h = 1; h <= 4000; h += 250) {
    samples.push_back(
        {h, g * static_cast<double>(h) + L + sign * 3.0});
    sign = -sign;
  }
  const MachineParams mp = fit_g_L(samples);
  EXPECT_NEAR(mp.g_us, g, 0.05);
  EXPECT_NEAR(mp.L_us, L, 10.0);
}

TEST(Fit, RequiresTwoDistinctH) {
  EXPECT_THROW(fit_g_L({}), std::invalid_argument);
  EXPECT_THROW(fit_g_L({{5, 1.0}}), std::invalid_argument);
  EXPECT_THROW(fit_g_L({{5, 1.0}, {5, 2.0}}), std::invalid_argument);
}

TEST(Fit, ClampsNegativeIntercept) {
  // Data through the origin with negative slope-induced intercept noise.
  std::vector<ProbeSample> samples{{10, 9.0}, {20, 21.0}};
  const MachineParams mp = fit_g_L(samples);
  EXPECT_GE(mp.L_us, 0.0);
  EXPECT_GE(mp.g_us, 0.0);
}

// ------------------------------------------------------------------ scaling

TEST(Scaling, ExtrapolationPreservesMeasuredEntriesAndGrows) {
  const MachineProfile big = extrapolate_profile(paper_cenju(), {32, 64});
  EXPECT_EQ(big.max_procs(), 64);
  EXPECT_EQ(big.name(), "Cenju+");
  // Measured entries untouched.
  EXPECT_DOUBLE_EQ(big.params_for(8).g_us, 2.5);
  EXPECT_DOUBLE_EQ(big.params_for(16).L_us, 2880);
  // Extrapolated entries monotone beyond the table.
  EXPECT_GE(big.params_for(32).L_us, big.params_for(16).L_us);
  EXPECT_GE(big.params_for(64).L_us, big.params_for(32).L_us);
  EXPECT_GE(big.params_for(64).g_us, big.params_for(16).g_us);
  // The Cenju latency trend is strongly superlinear in the table; the
  // linear fit must land far above the p=16 value by p=64.
  EXPECT_GT(big.params_for(64).L_us, 2.0 * 2880);
}

TEST(Scaling, ExistingEntriesAreNotDuplicated) {
  const MachineProfile same = extrapolate_profile(paper_sgi(), {8, 16});
  EXPECT_EQ(same.max_procs(), 16);
  EXPECT_DOUBLE_EQ(same.params_for(8).g_us, 0.97);
}

TEST(Scaling, SeriesAnalysisFindsBreakpoints) {
  const std::vector<SeriesPoint> series{
      {1, 10.0}, {2, 6.0}, {4, 3.5}, {8, 3.0}, {16, 4.5}};
  EXPECT_EQ(best_processor_count(series), 8);
  EXPECT_EQ(degradation_point(series), 16);
  EXPECT_NEAR(efficiency_at(series, 8), 10.0 / (8 * 3.0), 1e-12);
  EXPECT_NEAR(efficiency_at(series, 1), 1.0, 1e-12);

  const std::vector<SeriesPoint> monotone{{1, 8.0}, {2, 4.0}, {4, 2.0}};
  EXPECT_EQ(degradation_point(monotone), 0);
  EXPECT_EQ(best_processor_count(monotone), 4);

  EXPECT_THROW(best_processor_count({}), std::invalid_argument);
  EXPECT_THROW(efficiency_at(monotone, 16), std::invalid_argument);
}

TEST(Fit, EndpointEstimatorMatchesThePaperRecipe) {
  // "L corresponds to the time for a superstep in which each processor sends
  // a single packet"; g from the marginal cost of a large exchange.
  std::vector<ProbeSample> samples{{1, 130.0}, {10000, 130.0 + 2.2 * 10000}};
  const MachineParams mp = estimate_g_L_endpoints(samples);
  EXPECT_NEAR(mp.L_us, 130.0, 1e-9);
  EXPECT_NEAR(mp.g_us, 2.2, 1e-6);
  EXPECT_THROW(estimate_g_L_endpoints({}), std::invalid_argument);
}

}  // namespace
}  // namespace gbsp
