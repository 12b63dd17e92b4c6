// Parallel MST against Kruskal across graph sizes, processor counts, and
// configurations; the weight AND the explicit edge set must form a minimum
// spanning tree.
#include <gtest/gtest.h>

#include <set>

#include "apps/mst/mst.hpp"
#include "core/transport.hpp"
#include "graph/geometric.hpp"
#include "graph/kruskal.hpp"
#include "graph/union_find.hpp"

namespace gbsp {
namespace {

struct MstParam {
  int n;
  int nprocs;
  std::uint64_t seed;
  int endgame;  // endgame threshold (small forces more Boruvka rounds)
};

class MstCorrectness : public testing::TestWithParam<MstParam> {};

TEST_P(MstCorrectness, WeightMatchesKruskal) {
  const auto& mp = GetParam();
  const GeometricGraph gg = make_geometric_graph(mp.n, mp.seed);
  const MstResult ref = kruskal_mst(gg.graph);
  MstConfig cfg;
  cfg.endgame_components = mp.endgame;
  cfg.collect_edges = true;
  const MstParallelResult got = bsp_mst(gg.graph, gg.points, mp.nprocs, cfg);

  EXPECT_EQ(got.edge_count, mp.n - 1);
  EXPECT_NEAR(got.total_weight, ref.total_weight,
              1e-9 * std::max(1.0, ref.total_weight));

  // The collected edges must form a spanning tree of exactly that weight.
  ASSERT_EQ(got.edges.size(), static_cast<std::size_t>(mp.n - 1));
  UnionFind uf(mp.n);
  double w = 0;
  for (const auto& e : got.edges) {
    EXPECT_TRUE(uf.unite(e.u, e.v)) << "cycle edge " << e.u << "-" << e.v;
    w += e.w;
  }
  EXPECT_EQ(uf.components(), 1);
  EXPECT_NEAR(w, got.total_weight, 1e-9);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, MstCorrectness,
    testing::ValuesIn(std::vector<MstParam>{
        {100, 1, 1, 64},
        {100, 2, 2, 64},
        {100, 4, 3, 64},
        {300, 3, 4, 64},
        {300, 8, 5, 64},
        {300, 8, 6, 1},    // endgame only when fully merged: max Boruvka
        {1000, 4, 7, 64},
        {1000, 7, 8, 8},
        {2000, 16, 9, 64},
    }),
    [](const testing::TestParamInfo<MstParam>& info) {
      std::string name = "N";
      name += std::to_string(info.param.n);
      name += 'P';
      name += std::to_string(info.param.nprocs);
      name += 'E';
      name += std::to_string(info.param.endgame);
      name += 'S';
      name += std::to_string(info.param.seed);
      return name;
    });

TEST(Mst, EveryEdgeIsARealGraphEdge) {
  const GeometricGraph gg = make_geometric_graph(200, 42);
  MstConfig cfg;
  cfg.collect_edges = true;
  const MstParallelResult got = bsp_mst(gg.graph, gg.points, 4, cfg);
  std::set<std::pair<int, int>> real;
  for (const auto& e : gg.graph.edge_list()) {
    real.emplace(e.u, e.v);
  }
  for (const auto& e : got.edges) {
    const auto key = std::minmax(e.u, e.v);
    EXPECT_TRUE(real.count({key.first, key.second}))
        << e.u << "-" << e.v << " not in graph";
  }
}

TEST(Mst, SerializedSchedulerSameWeight) {
  const GeometricGraph gg = make_geometric_graph(500, 13);
  const MstResult ref = kruskal_mst(gg.graph);
  const GraphPartition part = partition_by_stripes(gg.graph, gg.points, 6);
  MstParallelResult result;
  Config rc;
  rc.nprocs = 6;
  rc.scheduling = Scheduling::Serialized;
  Runtime rt(rc);
  rt.run(make_mst_program(part, MstConfig{}, &result));
  EXPECT_NEAR(result.total_weight, ref.total_weight, 1e-9);
  EXPECT_EQ(result.edge_count, 499);
}

// The endgame now rides the bulk collectives (gatherv onto rank 0, Direct
// broadcast_span of the final result). gatherv hands rank 0 the
// contributions concatenated in pid order no matter which transport carried
// them, so the floating-point reduction order — and therefore the result
// bits — must be identical across transports, runs, and schedulers.
TEST(Mst, CollectiveEndgameBitIdenticalAcrossTransports) {
  const GeometricGraph gg = make_geometric_graph(400, 21);
  const GraphPartition part = partition_by_stripes(gg.graph, gg.points, 4);
  MstConfig mcfg;
  mcfg.collect_edges = true;
  const auto run_with = [&](DeliveryStrategy d, Scheduling s) {
    MstParallelResult r;
    Config rc;
    rc.nprocs = 4;
    rc.delivery = d;
    rc.scheduling = s;
    Runtime rt(rc);
    rt.run(make_mst_program(part, mcfg, &r));
    rt.run(make_mst_program(part, mcfg, &r));  // second run: reuse path
    return r;
  };
  const MstParallelResult ref =
      run_with(DeliveryStrategy::Deferred, Scheduling::Parallel);
  ASSERT_EQ(ref.edge_count, 399);
  const std::pair<DeliveryStrategy, Scheduling> variants[] = {
      {DeliveryStrategy::Deferred, Scheduling::Parallel},
      {DeliveryStrategy::Eager, Scheduling::Parallel},
      {DeliveryStrategy::Socket, Scheduling::Parallel},
      {DeliveryStrategy::Deferred, Scheduling::Serialized},
  };
  for (const auto& [d, s] : variants) {
    const MstParallelResult got = run_with(d, s);
    EXPECT_EQ(got.total_weight, ref.total_weight)
        << "transport " << to_string(d);  // EQ, not NEAR: identical bits
    EXPECT_EQ(got.edge_count, ref.edge_count);
    ASSERT_EQ(got.edges.size(), ref.edges.size());
    for (std::size_t i = 0; i < ref.edges.size(); ++i) {
      EXPECT_EQ(got.edges[i].u, ref.edges[i].u) << i;
      EXPECT_EQ(got.edges[i].v, ref.edges[i].v) << i;
      EXPECT_EQ(got.edges[i].w, ref.edges[i].w) << i;
    }
  }
}

TEST(Mst, DuplicateWeightsResolvedConsistently) {
  // A grid-like graph where all edges have identical weight: the total MST
  // weight is forced, and the tie-breaking by ids must never double-count.
  const int side = 12;
  const int n = side * side;
  std::vector<Edge> edges;
  std::vector<Point2> pts(static_cast<std::size_t>(n));
  for (int y = 0; y < side; ++y) {
    for (int x = 0; x < side; ++x) {
      const int u = y * side + x;
      pts[static_cast<std::size_t>(u)] = {
          (x + 0.5) / side, (y + 0.5) / side};
      if (x + 1 < side) edges.push_back({u, u + 1, 1.0});
      if (y + 1 < side) edges.push_back({u, u + side, 1.0});
    }
  }
  Graph g(n, edges);
  for (int p : {1, 2, 4, 5}) {
    MstConfig cfg;
    cfg.collect_edges = true;
    MstParallelResult result;
    const GraphPartition part = partition_by_stripes(g, pts, p);
    Config rc;
    rc.nprocs = p;
    Runtime rt(rc);
    rt.run(make_mst_program(part, cfg, &result));
    EXPECT_EQ(result.edge_count, n - 1) << "p=" << p;
    EXPECT_NEAR(result.total_weight, n - 1, 1e-9) << "p=" << p;
    UnionFind uf(n);
    for (const auto& e : result.edges) {
      EXPECT_TRUE(uf.unite(e.u, e.v)) << "p=" << p;
    }
  }
}

TEST(Mst, SuperstepsGrowSlowlyWithSize) {
  // Paper Section 3.3: "the number of supersteps required for this
  // computation grows quite slowly with the problem size".
  auto steps_for = [&](int n) {
    const GeometricGraph gg =
        make_geometric_graph(n, static_cast<std::uint64_t>(n));
    const GraphPartition part = partition_by_stripes(gg.graph, gg.points, 4);
    MstParallelResult result;
    Config rc;
    rc.nprocs = 4;
    Runtime rt(rc);
    const RunStats stats = rt.run(make_mst_program(part, MstConfig{}, &result));
    return stats.S();
  };
  const std::size_t s_small = steps_for(250);
  const std::size_t s_large = steps_for(4000);
  EXPECT_LE(s_large, s_small * 4);  // 16x nodes, <= 4x supersteps
}

TEST(Mst, ConservativeMessageBound) {
  // Per superstep, a processor's update traffic is bounded by its border
  // structure; globally, messages per superstep stay far below n.
  const int n = 2000;
  const GeometricGraph gg = make_geometric_graph(n, 3);
  const GraphPartition part = partition_by_stripes(gg.graph, gg.points, 8);
  MstParallelResult result;
  Config rc;
  rc.nprocs = 8;
  rc.collect_comm_matrix = false;
  Runtime rt(rc);
  const RunStats stats = rt.run(make_mst_program(part, MstConfig{}, &result));
  std::int64_t total_border = 0;
  for (const auto& gp : part.parts) {
    total_border += gp.num_local - gp.num_home;
  }
  // Allowance for endgame candidates (bounded by component adjacencies) and
  // the p^2 termination/count messages.
  for (const auto& s : stats.supersteps) {
    EXPECT_LE(s.total_messages,
              static_cast<std::uint64_t>(2 * total_border + 4096))
        << "superstep message bound";
  }
}

}  // namespace
}  // namespace gbsp
