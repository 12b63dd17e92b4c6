#include "apps/matmul/matmul.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <stdexcept>

#include "core/collectives.hpp"
#include "util/kernels.hpp"
#include "util/rng.hpp"

namespace gbsp {

double Matrix::max_abs_diff(const Matrix& other) const {
  if (other.n_ != n_) throw std::invalid_argument("max_abs_diff: size mismatch");
  double m = 0.0;
  for (std::size_t i = 0; i < a_.size(); ++i) {
    m = std::max(m, std::abs(a_[i] - other.a_[i]));
  }
  return m;
}

Matrix random_matrix(int n, std::uint64_t seed) {
  Matrix m(n);
  Xoshiro256 rng(seed);
  double* p = m.data();
  for (std::size_t i = 0; i < static_cast<std::size_t>(n) * n; ++i) {
    p[i] = rng.uniform(-1.0, 1.0);
  }
  return m;
}

Matrix matmul_naive(const Matrix& A, const Matrix& B) {
  const int n = A.n();
  if (B.n() != n) throw std::invalid_argument("matmul: size mismatch");
  Matrix C(n);
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j < n; ++j) {
      double acc = 0.0;
      for (int k = 0; k < n; ++k) acc += A.at(i, k) * B.at(k, j);
      C.at(i, j) = acc;
    }
  }
  return C;
}

void block_multiply_add(const double* Ablk, const double* Bblk, double* Cblk,
                        int bn) {
  // i-k-j: streams B and C rows, the standard cache-friendly order.
  // Retained as the scalar reference kernel (tests and the before/after
  // rows of bench_kernels); production paths call kernels::dgemm_add.
  for (int i = 0; i < bn; ++i) {
    double* crow = Cblk + static_cast<std::size_t>(i) * bn;
    for (int k = 0; k < bn; ++k) {
      const double aik = Ablk[static_cast<std::size_t>(i) * bn + k];
      const double* brow = Bblk + static_cast<std::size_t>(k) * bn;
      for (int j = 0; j < bn; ++j) crow[j] += aik * brow[j];
    }
  }
}

Matrix matmul_blocked(const Matrix& A, const Matrix& B) {
  const int n = A.n();
  if (B.n() != n) throw std::invalid_argument("matmul: size mismatch");
  Matrix C(n);
  kernels::dgemm_add(A.data(), n, B.data(), n, C.data(), n, n, n, n);
  return C;
}

int cannon_grid_dim(int nprocs, int n) {
  const int q = static_cast<int>(std::lround(std::sqrt(nprocs)));
  if (q * q != nprocs) {
    throw std::invalid_argument("cannon: nprocs must be a perfect square");
  }
  if (n % q != 0) {
    throw std::invalid_argument("cannon: sqrt(p) must divide n");
  }
  return q;
}

int cannon_active_grid_dim(int nprocs, int n) {
  if (nprocs < 1) throw std::invalid_argument("cannon: nprocs must be >= 1");
  int q = static_cast<int>(std::floor(std::sqrt(static_cast<double>(nprocs))));
  while (q * q > nprocs) --q;       // guard against sqrt rounding up
  while ((q + 1) * (q + 1) <= nprocs) ++q;
  if (n % q != 0) {
    throw std::invalid_argument("cannon: grid dimension must divide n");
  }
  return q;
}

namespace {

void copy_block_in(const double* src, int n, int bx, int by, int bn,
                   double* dst) {
  for (int i = 0; i < bn; ++i) {
    const double* row = src + static_cast<std::size_t>(bx * bn + i) * n +
                        static_cast<std::size_t>(by) * bn;
    std::copy(row, row + bn, dst + static_cast<std::size_t>(i) * bn);
  }
}

void copy_block_out(const double* src, int bx, int by, int bn, Matrix* dst) {
  for (int i = 0; i < bn; ++i) {
    double* row = dst->data() +
                  static_cast<std::size_t>(bx * bn + i) * dst->n() +
                  static_cast<std::size_t>(by) * bn;
    std::copy(src + static_cast<std::size_t>(i) * bn,
              src + static_cast<std::size_t>(i + 1) * bn, row);
  }
}

// The shared Cannon body: both entry points (shared-layout and
// broadcast-layout) land here with row-major n x n operand arrays, so they
// execute the identical kernel sequence on identical operands — the
// bit-identical-C guarantee the regression tests pin down.
void cannon_body(Worker& w, const double* Aflat, const double* Bflat, int n,
                 Matrix* C, SyncMode mode) {
  const int q = cannon_active_grid_dim(w.nprocs(), n);
  if (w.pid() >= q * q) {
    // Processor outside the q x q compute grid (non-perfect-square p):
    // idle through the grid's superstep structure — two sync()s per shift
    // iteration — so the global barriers stay matched.
    for (int t = 1; t < q; ++t) {
      w.sync();
      w.sync();
    }
    return;
  }
  const int bn = n / q;
  const std::size_t bsz = static_cast<std::size_t>(bn) * bn;
  const int x = w.pid() / q;
  const int y = w.pid() % q;

  // The paper's pre-skewed initial layout.
  std::vector<double> a(bsz), b(bsz), c(bsz, 0.0), a_in(bsz), b_in(bsz);
  copy_block_in(Aflat, n, x, (x + y) % q, bn, a.data());
  copy_block_in(Bflat, n, (x + y) % q, y, bn, b.data());

  const int right = x * q + (y + 1) % q;      // A travels right
  const int below = ((x + 1) % q) * q + y;    // B travels down

  for (int t = 0; t < q; ++t) {
    if (mode == SyncMode::SplitPhase && t + 1 < q) {
      // Ship the resident blocks first (send copies them out), then
      // multiply inside the window while the shift travels. Same kernel,
      // same operands, same order as the rigid iteration below.
      w.send_array(right, a);
      w.send_array(below, b);
      w.sync_begin();
      kernels::dgemm_add(a.data(), b.data(), c.data(), bn);
      w.sync_end();
    } else {
      kernels::dgemm_add(a.data(), b.data(), c.data(), bn);
      if (t + 1 == q) break;
      // Superstep boundary 1: ship the blocks onward.
      w.send_array(right, a);
      w.send_array(below, b);
      w.sync();
    }
    // Unpack superstep: read the two incoming blocks (the paper's
    // message-passing "read messages" step), then a second boundary.
    int got = 0;
    while (const Message* m = w.get_message()) {
      // A blocks come from the left neighbor, B blocks from above.
      const int from_left = x * q + (y + q - 1) % q;
      if (static_cast<int>(m->source) == from_left) {
        std::memcpy(a_in.data(), m->payload.data(), bsz * sizeof(double));
      } else {
        std::memcpy(b_in.data(), m->payload.data(), bsz * sizeof(double));
      }
      ++got;
    }
    if (got != (w.nprocs() > 1 ? 2 : 0)) {
      throw std::logic_error("cannon: expected exactly two blocks");
    }
    a.swap(a_in);
    b.swap(b_in);
    w.sync();
  }
  copy_block_out(c.data(), x, y, bn, C);
}

}  // namespace

std::function<void(Worker&)> make_cannon_program(const Matrix& A,
                                                 const Matrix& B, Matrix* C,
                                                 SyncMode mode) {
  const int n = A.n();
  if (B.n() != n || C->n() != n) {
    throw std::invalid_argument("cannon: size mismatch");
  }
  return [&A, &B, C, n, mode](Worker& w) {
    cannon_body(w, A.data(), B.data(), n, C, mode);
  };
}

std::function<void(Worker&)> make_cannon_broadcast_program(const Matrix& A,
                                                           const Matrix& B,
                                                           Matrix* C,
                                                           SyncMode mode) {
  const int n = A.n();
  if (B.n() != n || C->n() != n) {
    throw std::invalid_argument("cannon: size mismatch");
  }
  return [&A, &B, C, n, mode](Worker& w) {
    // Rank 0 is the only rank that reads the operand values; everyone else
    // receives its replica through the bulk collective (one combined
    // message per destination, Direct vs Tree chosen by the (g, L)
    // selector). Idle ranks outside the compute grid participate too —
    // broadcast_span is collective over the whole run.
    const std::size_t total = static_cast<std::size_t>(n) * n;
    std::vector<double> a_all(total), b_all(total);
    if (w.pid() == 0) {
      std::copy(A.data(), A.data() + total, a_all.begin());
      std::copy(B.data(), B.data() + total, b_all.begin());
    }
    broadcast_span(w, 0, a_all.data(), total);
    broadcast_span(w, 0, b_all.data(), total);
    cannon_body(w, a_all.data(), b_all.data(), n, C, mode);
  };
}

}  // namespace gbsp
