// bsp_app_suite: runs the application suite (Cannon matmul, parallel MST,
// sample sort) on ONE Runtime and verifies every output — the binary that
// proves the cross-process backends (TCP and shared-memory) carry real
// application traffic, not just microbenchmarks.
//
//   bsp_launch -p 4 -- bsp_app_suite --transport tcp      # one process/rank
//   bsp_launch -p 4 --transport shm -- bsp_app_suite --transport shm
//   bsp_app_suite --procs 4 [--transport socket]          # in-process
//
// Under bsp_launch each rank is a separate OS process, so "shared" inputs
// are shared by CONSTRUCTION: every rank builds bit-identical inputs from
// the same seeds, and each rank verifies the output region it owns (plus a
// collective cross-check where ownership is data-dependent). In-process,
// the inputs genuinely are shared and the single process verifies all of
// the output. Exit status 0 only if every app verifies.
#include <algorithm>
#include <cstdio>
#include <vector>

#include "apps/matmul/matmul.hpp"
#include "apps/mst/mst.hpp"
#include "apps/sort/sample_sort.hpp"
#include "core/collectives.hpp"
#include "core/runtime.hpp"
#include "core/transport.hpp"
#include "graph/geometric.hpp"
#include "graph/kruskal.hpp"
#include "graph/partition.hpp"
#include "util/cli.hpp"
#include "util/rng.hpp"

namespace {

int g_failures = 0;

void check(bool ok, const char* app, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "bsp_app_suite: %s: FAILED — %s\n", app, what);
    ++g_failures;
  }
}

}  // namespace

int main(int argc, char** argv) {
  using namespace gbsp;
  CliArgs args(argc, argv);
  Config cfg;
  int rank = 0;
  bool process_mode = false;
  try {
    cfg.delivery = delivery_from_string(args.get_string("transport", "deferred"));
    if (cfg.delivery == DeliveryStrategy::Tcp ||
        cfg.delivery == DeliveryStrategy::Shm) {
      const DeliveryStrategy want = cfg.delivery;
      if (!configure_proc_from_env(cfg) || cfg.delivery != want) {
        std::fprintf(stderr,
                     "--transport %s needs the matching bsp_launch rank "
                     "environment; run e.g.\n  bsp_launch -p 4 --transport "
                     "%s -- %s --transport %s\n",
                     to_string(want), to_string(want), argv[0],
                     to_string(want));
        return 1;
      }
      rank = cfg.rank;
      process_mode = true;
    } else {
      cfg.nprocs = static_cast<int>(args.get_int("procs", 4));
    }
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "%s\n", e.what());
    return 1;
  }
  const int p = cfg.nprocs;
  const bool chatty = rank == 0;
  Runtime rt(cfg);
  if (chatty) {
    std::printf("app suite: p=%d, transport=%s (%s)\n", p,
                rt.transport().name(),
                process_mode ? "one OS process per rank" : "in-process");
  }

  // ---- 1. Cannon matmul, broadcast operand layout -------------------------
  // Every rank constructs the same A and B from the same seeds; only rank
  // 0's values are read (the broadcast layout), making this the layout that
  // works when there is no shared memory to read the operands from.
  {
    const int n = 48;
    const Matrix A = random_matrix(n, 1001);
    const Matrix B = random_matrix(n, 1002);
    Matrix C(n);
    rt.run(make_cannon_broadcast_program(A, B, &C));
    const Matrix ref = matmul_blocked(A, B);
    const int q = cannon_active_grid_dim(p, n);
    const int bn = n / q;
    double err = 0.0;
    if (process_mode) {
      // This process holds only its own C block (or none, outside the grid).
      if (rank < q * q) {
        const int x = rank / q, y = rank % q;
        for (int i = x * bn; i < (x + 1) * bn; ++i) {
          for (int j = y * bn; j < (y + 1) * bn; ++j) {
            err = std::max(err, std::abs(C.at(i, j) - ref.at(i, j)));
          }
        }
      }
    } else {
      err = C.max_abs_diff(ref);
    }
    check(err < 1e-10 * n, "cannon", "block product deviates from reference");
    if (chatty) std::printf("  cannon %dx%d on a %dx%d grid: ok\n", n, n, q, q);
  }

  // ---- 2. Parallel MST ----------------------------------------------------
  // Same geometric graph on every rank (seeded), stripes partition; the
  // endgame gathers onto rank 0, which verifies against local Kruskal.
  {
    const int nodes = 800;
    const GeometricGraph gg = make_geometric_graph(nodes, 77);
    const GraphPartition part = partition_by_stripes(gg.graph, gg.points, p);
    MstParallelResult result;
    rt.run(make_mst_program(part, MstConfig{}, &result));
    if (rank == 0) {
      const MstResult ref = kruskal_mst(gg.graph);
      check(result.edge_count == nodes - 1, "mst", "wrong edge count");
      check(std::abs(result.total_weight - ref.total_weight) <
                1e-9 * std::max(1.0, ref.total_weight),
            "mst", "weight deviates from Kruskal");
      std::printf("  mst over %d nodes: ok (weight %.6f)\n", nodes,
                  result.total_weight);
    }
  }

  // ---- 3. Sample sort -----------------------------------------------------
  // Shared-by-construction input; each rank writes its bucket's run at the
  // correct global offset. Keys are forced odd (nonzero) so unwritten zeros
  // are distinguishable, letting each rank verify its written region against
  // the reference and the run collectively verify full coverage.
  {
    const std::size_t n = std::size_t{1} << 14;
    std::vector<std::uint64_t> input(n);
    Xoshiro256 rng(4242);
    for (auto& k : input) k = rng.next() | 1;
    std::vector<std::uint64_t> ref = input;
    std::sort(ref.begin(), ref.end());
    std::vector<std::uint64_t> out(n, 0);
    rt.run(make_sample_sort_program(input, &out));
    bool region_ok = true;
    std::int64_t written = 0;
    for (std::size_t i = 0; i < n; ++i) {
      if (out[i] == 0) continue;
      ++written;
      if (out[i] != ref[i]) region_ok = false;
    }
    check(region_ok, "sort", "a written key disagrees with the reference");
    // Coverage cross-check. In-process every rank writes into the one shared
    // output, so `written` is already the full count; across processes each
    // rank holds only its own run, and the per-rank counts must tile n.
    std::int64_t total = written;
    if (process_mode && p > 1) {
      rt.run([&](Worker& w) {
        const auto counts = allgather(w, written);
        total = 0;
        for (const auto c : counts) total += c;
      });
    }
    check(total == static_cast<std::int64_t>(n), "sort",
          "ranks' written regions do not cover the input");
    if (chatty) std::printf("  sample sort of %zu keys: ok\n", n);
  }

  if (g_failures != 0) {
    std::fprintf(stderr, "bsp_app_suite: rank %d: %d failure(s)\n", rank,
                 g_failures);
    return 1;
  }
  if (chatty) std::printf("app suite: all apps verified\n");
  return 0;
}
