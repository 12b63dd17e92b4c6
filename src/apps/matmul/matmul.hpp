// Dense matrix multiplication with Cannon's algorithm (paper Section 3.6).
//
// The input matrices are distributed in the paper's pre-skewed block layout:
// with p = q^2 processors and blocks of size n/q, processor i = (x, y)
// (x = floor(i/q), y = i mod q) initially holds block (x, (x+y) mod q) of A
// and block ((x+y) mod q, y) of B. The algorithm runs q iterations; each
// multiplies the two resident blocks into C(x, y), then sends the A block to
// the right neighbor and the B block to the neighbor below (mod q).
//
// Superstep structure matches the paper's counts (S = 2*sqrt(p) - 1): every
// iteration except the last is [multiply+send | sync | unpack | sync]; the
// final multiply is the tail superstep.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "core/runtime.hpp"

namespace gbsp {

/// Dense row-major square matrix.
class Matrix {
 public:
  Matrix() = default;
  explicit Matrix(int n) : n_(n), a_(static_cast<std::size_t>(n) * n, 0.0) {}

  [[nodiscard]] int n() const { return n_; }
  [[nodiscard]] double& at(int i, int j) {
    return a_[static_cast<std::size_t>(i) * n_ + j];
  }
  [[nodiscard]] double at(int i, int j) const {
    return a_[static_cast<std::size_t>(i) * n_ + j];
  }
  [[nodiscard]] double* data() { return a_.data(); }
  [[nodiscard]] const double* data() const { return a_.data(); }

  [[nodiscard]] double max_abs_diff(const Matrix& other) const;

 private:
  int n_ = 0;
  std::vector<double> a_;
};

/// Matrix with entries uniform in [-1, 1), deterministic in `seed`.
Matrix random_matrix(int n, std::uint64_t seed);

/// Unblocked i-j-k product (test oracle).
Matrix matmul_naive(const Matrix& A, const Matrix& B);

/// The sequential baseline — the "sequential blocked matrix multiplication
/// algorithm" each processor also uses on its local blocks.  Since the
/// kernel-layer rework this is the packed, register-blocked
/// kernels::dgemm_add over the whole matrix.
Matrix matmul_blocked(const Matrix& A, const Matrix& B);

/// C[0..bn,0..bn] += Ablk * Bblk for row-major bn x bn blocks: the scalar
/// i-k-j reference kernel.  Production paths (Cannon's per-superstep
/// multiply, matmul_blocked) use kernels::dgemm_add; this stays as the
/// equivalence/benchmark baseline.
void block_multiply_add(const double* Ablk, const double* Bblk, double* Cblk,
                        int bn);

/// Number of Cannon iterations = sqrt(p); throws unless p is a perfect
/// square and sqrt(p) divides n (the paper's stated precondition).
int cannon_grid_dim(int nprocs, int n);

/// Side length of the active compute grid actually used by
/// make_cannon_program: the largest q with q*q <= nprocs.  Throws if q does
/// not divide n.  Equal to cannon_grid_dim when nprocs is a perfect square.
int cannon_active_grid_dim(int nprocs, int n);

/// SPMD program computing C = A * B on a q x q processor grid
/// (q = cannon_active_grid_dim).  A and B are shared read-only inputs; each
/// worker writes its C block into the shared output (disjoint regions, so
/// no synchronization is needed). The output matrix must be pre-sized to
/// n x n.  When nprocs is not a perfect square, the processors beyond the
/// q x q grid idle through the same 2*(q-1) sync()s as the active ones.
///
/// SyncMode::SplitPhase reorders each shift iteration to ship the resident
/// A/B blocks *before* multiplying them (send copies, so the blocks
/// stay readable), then runs the O((n/q)^3) dgemm inside the split-phase
/// window while they travel.  Same boundary count, same message bytes, and —
/// because the same kernel runs on the same operands in the same order —
/// a bit-identical C.
std::function<void(Worker&)> make_cannon_program(const Matrix& A,
                                                 const Matrix& B, Matrix* C,
                                                 SyncMode mode = SyncMode::Rigid);

/// Broadcast-layout Cannon: only rank 0's A and B values are read; every
/// other rank receives its operand replica up front through the bulk
/// collective broadcast_span (core/collectives.hpp — one combined message
/// per destination, Direct vs Tree picked by the (g, L) selector, or forced
/// by Config::collective_schedule). This is the distribution Cannon needs on
/// a cross-process mesh, where there is no shared input matrix to read.
/// After the two broadcasts the identical Cannon body runs on the identical
/// operands, so C is bit-identical to make_cannon_program's.
std::function<void(Worker&)> make_cannon_broadcast_program(
    const Matrix& A, const Matrix& B, Matrix* C,
    SyncMode mode = SyncMode::Rigid);

}  // namespace gbsp
