// Matrix multiplication: kernel and blocked baseline against the naive
// oracle, and Cannon's algorithm against both, across processor grids.
#include <gtest/gtest.h>

#include "apps/matmul/matmul.hpp"
#include "core/collectives.hpp"
#include "core/runtime.hpp"

namespace gbsp {
namespace {

TEST(MatmulSeq, NaiveKnownProduct) {
  Matrix A(2), B(2);
  A.at(0, 0) = 1;
  A.at(0, 1) = 2;
  A.at(1, 0) = 3;
  A.at(1, 1) = 4;
  B.at(0, 0) = 5;
  B.at(0, 1) = 6;
  B.at(1, 0) = 7;
  B.at(1, 1) = 8;
  Matrix C = matmul_naive(A, B);
  EXPECT_DOUBLE_EQ(C.at(0, 0), 19);
  EXPECT_DOUBLE_EQ(C.at(0, 1), 22);
  EXPECT_DOUBLE_EQ(C.at(1, 0), 43);
  EXPECT_DOUBLE_EQ(C.at(1, 1), 50);
}

TEST(MatmulSeq, BlockedMatchesNaive) {
  for (int n : {1, 7, 48, 96, 130}) {
    Matrix A = random_matrix(n, 1), B = random_matrix(n, 2);
    Matrix ref = matmul_naive(A, B);
    Matrix got = matmul_blocked(A, B);
    EXPECT_LT(got.max_abs_diff(ref), 1e-10 * n) << "n=" << n;
  }
}

TEST(MatmulSeq, KernelAccumulates) {
  const int bn = 5;
  Matrix A = random_matrix(bn, 3), B = random_matrix(bn, 4);
  std::vector<double> C(static_cast<std::size_t>(bn) * bn, 1.0);
  block_multiply_add(A.data(), B.data(), C.data(), bn);
  Matrix ref = matmul_naive(A, B);
  for (int i = 0; i < bn; ++i) {
    for (int j = 0; j < bn; ++j) {
      EXPECT_NEAR(C[static_cast<std::size_t>(i) * bn + j],
                  1.0 + ref.at(i, j), 1e-12);
    }
  }
}

TEST(MatmulSeq, RandomMatrixDeterministicSeeded) {
  Matrix a = random_matrix(10, 5), b = random_matrix(10, 5),
         c = random_matrix(10, 6);
  EXPECT_DOUBLE_EQ(a.max_abs_diff(b), 0.0);
  EXPECT_GT(a.max_abs_diff(c), 0.0);
}

TEST(MatmulSeq, SizeMismatchThrows) {
  Matrix A(3), B(4);
  EXPECT_THROW(matmul_naive(A, B), std::invalid_argument);
  EXPECT_THROW((void)A.max_abs_diff(B), std::invalid_argument);
}

TEST(Cannon, GridDimValidation) {
  EXPECT_EQ(cannon_grid_dim(1, 12), 1);
  EXPECT_EQ(cannon_grid_dim(4, 12), 2);
  EXPECT_EQ(cannon_grid_dim(9, 12), 3);
  EXPECT_EQ(cannon_grid_dim(16, 12), 4);
  EXPECT_THROW(cannon_grid_dim(8, 12), std::invalid_argument);
  EXPECT_THROW(cannon_grid_dim(4, 13), std::invalid_argument);
}

TEST(Cannon, ActiveGridDim) {
  EXPECT_EQ(cannon_active_grid_dim(1, 12), 1);
  EXPECT_EQ(cannon_active_grid_dim(3, 12), 1);
  EXPECT_EQ(cannon_active_grid_dim(4, 12), 2);
  EXPECT_EQ(cannon_active_grid_dim(5, 12), 2);
  EXPECT_EQ(cannon_active_grid_dim(8, 12), 2);
  EXPECT_EQ(cannon_active_grid_dim(9, 12), 3);
  EXPECT_EQ(cannon_active_grid_dim(15, 12), 3);
  EXPECT_EQ(cannon_active_grid_dim(16, 12), 4);
  EXPECT_THROW(cannon_active_grid_dim(0, 12), std::invalid_argument);
  EXPECT_THROW(cannon_active_grid_dim(9, 13), std::invalid_argument);
}

// Regression: non-perfect-square processor counts used to deadlock/throw —
// the processors beyond the q x q grid never reached the matching sync()s.
// They must now idle through the same superstep structure and the active
// q x q sub-grid must still produce the full product.
TEST(Cannon, NonSquareProcessorCounts) {
  const int n = 12;
  for (int p : {3, 5, 6, 8}) {
    Matrix A = random_matrix(n, 31), B = random_matrix(n, 32);
    Matrix C(n);
    Config cfg;
    cfg.nprocs = p;
    Runtime rt(cfg);
    rt.run(make_cannon_program(A, B, &C));
    EXPECT_LT(C.max_abs_diff(matmul_naive(A, B)), 1e-10 * n) << "p=" << p;
  }
}

struct CannonParam {
  int nprocs;
  int n;
  Scheduling scheduling;
};

class CannonCorrectness : public testing::TestWithParam<CannonParam> {};

TEST_P(CannonCorrectness, MatchesNaiveProduct) {
  const auto& cp = GetParam();
  Matrix A = random_matrix(cp.n, 11), B = random_matrix(cp.n, 22);
  Matrix C(cp.n);
  Config cfg;
  cfg.nprocs = cp.nprocs;
  cfg.scheduling = cp.scheduling;
  Runtime rt(cfg);
  rt.run(make_cannon_program(A, B, &C));
  Matrix ref = matmul_naive(A, B);
  EXPECT_LT(C.max_abs_diff(ref), 1e-10 * cp.n);
}

INSTANTIATE_TEST_SUITE_P(
    Grids, CannonCorrectness,
    testing::ValuesIn(std::vector<CannonParam>{
        {1, 12, Scheduling::Parallel},
        {4, 12, Scheduling::Parallel},
        {9, 12, Scheduling::Parallel},
        {16, 16, Scheduling::Parallel},
        {4, 48, Scheduling::Parallel},
        {9, 36, Scheduling::Parallel},
        {4, 12, Scheduling::Serialized},
        {16, 32, Scheduling::Serialized},
    }),
    [](const testing::TestParamInfo<CannonParam>& info) {
      return "P" + std::to_string(info.param.nprocs) + "N" +
             std::to_string(info.param.n) +
             (info.param.scheduling == Scheduling::Serialized ? "Ser" : "Par");
    });

TEST_P(CannonCorrectness, SplitPhaseMatchesRigidBitIdentically) {
  // Same kernel on the same operands in the same order: the split-phase
  // schedule must reproduce the rigid C exactly, not just within tolerance.
  const auto& cp = GetParam();
  Matrix A = random_matrix(cp.n, 11), B = random_matrix(cp.n, 22);
  Matrix rigid(cp.n), split(cp.n);
  Config cfg;
  cfg.nprocs = cp.nprocs;
  cfg.scheduling = cp.scheduling;
  {
    Runtime rt(cfg);
    rt.run(make_cannon_program(A, B, &rigid, SyncMode::Rigid));
  }
  {
    Runtime rt(cfg);
    rt.run(make_cannon_program(A, B, &split, SyncMode::SplitPhase));
  }
  EXPECT_EQ(split.max_abs_diff(rigid), 0.0);
}

TEST(Cannon, SplitPhaseWorksOverSocketTransport) {
  const int n = 24;
  Matrix A = random_matrix(n, 33), B = random_matrix(n, 44);
  Matrix rigid(n), split(n);
  Config cfg;
  cfg.nprocs = 4;
  cfg.delivery = DeliveryStrategy::Socket;
  {
    Runtime rt(cfg);
    rt.run(make_cannon_program(A, B, &rigid, SyncMode::Rigid));
  }
  {
    Runtime rt(cfg);
    rt.run(make_cannon_program(A, B, &split, SyncMode::SplitPhase));
  }
  EXPECT_EQ(split.max_abs_diff(rigid), 0.0);
  EXPECT_LT(rigid.max_abs_diff(matmul_naive(A, B)), 1e-10 * n);
}

TEST(Cannon, SuperstepCountMatchesThePaper) {
  // Paper Figure C.3 reports S = 1, 3, 5, 7 for p = 1, 4, 9, 16: 2*sqrt(p)-1.
  for (int p : {1, 4, 9, 16}) {
    const int n = 24;
    Matrix A = random_matrix(n, 1), B = random_matrix(n, 2), C(n);
    Config cfg;
    cfg.nprocs = p;
    Runtime rt(cfg);
    RunStats stats = rt.run(make_cannon_program(A, B, &C));
    const int q = cannon_grid_dim(p, n);
    EXPECT_EQ(stats.S(), static_cast<std::size_t>(2 * q - 1)) << "p=" << p;
  }
}

TEST(Cannon, HRelationIsTwoBlocksPerShiftStep) {
  const int n = 24, p = 4;
  Matrix A = random_matrix(n, 1), B = random_matrix(n, 2), C(n);
  Config cfg;
  cfg.nprocs = p;
  Runtime rt(cfg);
  RunStats stats = rt.run(make_cannon_program(A, B, &C));
  // Block = (n/2)^2 doubles = 144 * 8 / 16 = 72 packets; each processor
  // sends A and B blocks (two messages, 144 packets) in the shift superstep.
  EXPECT_EQ(stats.supersteps[0].h_packets, 144u);
  // The unpack superstep sends nothing.
  EXPECT_EQ(stats.supersteps[1].total_packets, 0u);
}

TEST(Cannon, WorksUnderEagerDelivery) {
  Matrix A = random_matrix(24, 7), B = random_matrix(24, 8), C(24);
  Config cfg;
  cfg.nprocs = 4;
  cfg.delivery = DeliveryStrategy::Eager;
  Runtime rt(cfg);
  rt.run(make_cannon_program(A, B, &C));
  EXPECT_LT(C.max_abs_diff(matmul_naive(A, B)), 1e-10 * 24);
}

// The broadcast-layout entry point distributes the operands through the
// bulk collective instead of reading shared inputs; the Cannon body after
// distribution is the same code on the same operands, so the product must
// be BIT-identical (max_abs_diff exactly 0.0), not merely close.
TEST(Cannon, BroadcastLayoutBitIdentical) {
  const int n = 24;
  Matrix A = random_matrix(n, 41), B = random_matrix(n, 42);
  for (int p : {1, 4, 6, 9}) {
    Matrix shared_c(n), bcast_c(n);
    Config cfg;
    cfg.nprocs = p;
    Runtime rt(cfg);
    rt.run(make_cannon_program(A, B, &shared_c));
    rt.run(make_cannon_broadcast_program(A, B, &bcast_c));
    EXPECT_DOUBLE_EQ(shared_c.max_abs_diff(bcast_c), 0.0) << "p=" << p;
  }
}

TEST(Cannon, BroadcastLayoutBitIdenticalUnderForcedTree) {
  // The tree schedule reroutes the operand broadcast through relays; the
  // delivered bytes — and therefore C — must not change. Only rank 0's
  // copies of A and B are filled before the broadcasts.
  const int n = 24;
  const int p = 9;
  Matrix A = random_matrix(n, 43), B = random_matrix(n, 44);
  Matrix shared_c(n), tree_c(n);
  Config cfg;
  cfg.nprocs = p;
  Runtime rt(cfg);
  const RunStats shared = rt.run(make_cannon_program(A, B, &shared_c));
  std::vector<Matrix> a_copy(p, Matrix(n)), b_copy(p, Matrix(n));
  a_copy[0] = A;
  b_copy[0] = B;
  const std::size_t total = static_cast<std::size_t>(n) * n;
  const RunStats tree = rt.run([&](Worker& w) {
    Matrix& a = a_copy[static_cast<std::size_t>(w.pid())];
    Matrix& b = b_copy[static_cast<std::size_t>(w.pid())];
    broadcast_span(w, 0, a.data(), total, CollectiveSchedule::Tree);
    broadcast_span(w, 0, b.data(), total, CollectiveSchedule::Tree);
    make_cannon_program(a, b, &tree_c)(w);
  });
  EXPECT_DOUBLE_EQ(shared_c.max_abs_diff(tree_c), 0.0);
  // Two tree broadcasts of ceil(log2 9) = 4 boundaries each.
  EXPECT_EQ(tree.S(), shared.S() + 8);
}

TEST(Cannon, BroadcastLayoutBitIdenticalOverSocketSplitPhase) {
  // The distribution rewrite must compose with the other layouts: staged
  // socket delivery underneath, split-phase overlap inside the shifts.
  const int n = 24;
  Matrix A = random_matrix(n, 45), B = random_matrix(n, 46);
  Matrix shared_c(n), bcast_c(n);
  Config cfg;
  cfg.nprocs = 4;
  Runtime rt(cfg);
  rt.run(make_cannon_program(A, B, &shared_c));
  cfg.delivery = DeliveryStrategy::Socket;
  Runtime sock_rt(cfg);
  sock_rt.run(
      make_cannon_broadcast_program(A, B, &bcast_c, SyncMode::SplitPhase));
  EXPECT_DOUBLE_EQ(shared_c.max_abs_diff(bcast_c), 0.0);
}

}  // namespace
}  // namespace gbsp
