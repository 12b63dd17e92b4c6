// The six applications of the paper's suite, their seeded inputs and
// sequential references, the skeleton recorder, and the kernel probes.
#include <algorithm>
#include <cmath>
#include <cstring>
#include <future>
#include <stdexcept>

#include "apps/matmul/matmul.hpp"
#include "apps/mst/mst.hpp"
#include "apps/nbody/nbody.hpp"
#include "apps/nbody/orb.hpp"
#include "apps/nbody/plummer.hpp"
#include "apps/ocean/kernels.hpp"
#include "apps/ocean/ocean_bsp.hpp"
#include "apps/ocean/ocean_seq.hpp"
#include "apps/sort/sample_sort.hpp"
#include "apps/sp/shortest_paths.hpp"
#include "bench.hpp"
#include "graph/dijkstra.hpp"
#include "graph/geometric.hpp"
#include "graph/kruskal.hpp"
#include "graph/partition.hpp"
#include "util/kernels.hpp"
#include "util/rng.hpp"

namespace pb {
namespace {

using gbsp::Runtime;
using gbsp::RunStats;
using gbsp::Worker;
using Program = std::function<void(Worker&)>;

constexpr int kCannonN = 576;
constexpr std::size_t kSortKeys = std::size_t{1} << 20;
constexpr int kGraphNodes = 50'000;
// G(delta)'s edge count follows its most isolated node and varies by about
// +-15% between seeds, so MST and SSSP run over several seeded graphs per
// sample and report the mean run: the metric then follows the code, not the
// draw. MST's time follows the edge count: over 4 graphs, mst_ms relative to
// sort_ms still spread 13% from seed to seed, so it runs 8. SSSP's follows
// S, which the corner source keeps near 500 on every graph (4% over 4
// graphs); it runs the first 4.
constexpr int kGraphs = 8;
constexpr int kSsspGraphs = 4;
constexpr int kOceanN = 130;
constexpr int kOceanSteps = 4;
constexpr int kBodies = 16'384;

/// One seeded G(delta) instance, its stripe partition, and the SSSP source:
/// the node nearest a corner of the unit square, so the search always
/// crosses the whole graph and S follows the graph's geometry rather than
/// where a random source happens to fall.
struct GraphInput {
  gbsp::GeometricGraph gg;
  gbsp::GraphPartition part;
  int source = 0;

  GraphInput(std::uint64_t seed, int p)
      : gg(gbsp::make_geometric_graph(kGraphNodes, seed)),
        part(gbsp::partition_by_stripes(gg.graph, gg.points, p)) {
    for (int v = 1; v < kGraphNodes; ++v) {
      const auto& a = gg.points[static_cast<std::size_t>(v)];
      const auto& b = gg.points[static_cast<std::size_t>(source)];
      if (a.x + a.y < b.x + b.y) source = v;
    }
  }
};

/// Seeded inputs of all six applications, built once per process.
struct Inputs {
  gbsp::Matrix A, B;
  std::vector<std::uint64_t> keys;
  std::vector<GraphInput> graphs;
  gbsp::OceanConfig ocean;
  std::vector<gbsp::Body> bodies;
  std::vector<int> assign;
  gbsp::NbodyConfig nbody;

  Inputs(std::uint64_t seed, int p)
      : A(gbsp::random_matrix(kCannonN, seed * 4 + 1)),
        B(gbsp::random_matrix(kCannonN, seed * 4 + 2)),
        keys(kSortKeys),
        bodies(gbsp::plummer_model(kBodies, seed * 4 + 4)),
        assign(gbsp::orb_assign(bodies, p)) {
    gbsp::Xoshiro256 rng(seed);
    for (auto& k : keys) k = rng.next();
    // One thread per graph: generation dominates a process's set-up, and
    // every untraced run starts several processes.
    std::vector<std::future<GraphInput>> pending;
    for (int g = 0; g < kGraphs; ++g) {
      pending.push_back(std::async(std::launch::async,
                                   [seed, g, p] { return GraphInput(seed * 16 + 3 + g, p); }));
    }
    for (auto& f : pending) graphs.push_back(f.get());
    ocean.n = kOceanN;
    ocean.timesteps = kOceanSteps;
    nbody.iterations = 1;
  }
};

/// One application: its program over reset outputs for input instance i,
/// and the check of instance i's outputs.
struct App {
  std::string name;
  std::function<Program(int)> program;  ///< resets the outputs, returns the program
  std::function<std::string(int)> check;
  int instances = 1;
  double seq_ms = 0.0;  ///< mean sequential reference time per instance
};

double time_ms(const std::function<void()>& fn) {
  const double t0 = now_us();
  fn();
  return (now_us() - t0) / 1e3;
}

/// Outputs and references of all six applications.
struct Suite {
  Inputs in;
  gbsp::Matrix C, C_ref;
  std::vector<std::uint64_t> sorted, sorted_ref;
  gbsp::MstParallelResult mst;
  std::vector<gbsp::MstResult> mst_ref;
  std::vector<std::vector<double>> dist;
  std::vector<std::vector<double>> dist_ref;
  std::vector<double> psi, zeta;
  gbsp::OceanRunInfo ocean_info;
  std::vector<double> psi_ref, zeta_ref;
  std::vector<gbsp::Body> bodies_out, bodies_ref;
  std::vector<App> apps;

  Suite(std::uint64_t seed, int p, bool references, bool corrupt)
      : in(seed, p), C(kCannonN) {
    const std::size_t cells = static_cast<std::size_t>(kOceanN) * kOceanN;
    apps.push_back({"cannon",
                    [this](int) {
                      std::fill(C.data(), C.data() + std::size_t(kCannonN) * kCannonN, 0.0);
                      return gbsp::make_cannon_program(in.A, in.B, &C);
                    },
                    [this](int) {
                      return C.max_abs_diff(C_ref) < 1e-10 * kCannonN
                                 ? std::string()
                                 : "cannon: product deviates from matmul_blocked";
                    }});
    apps.push_back({"sort",
                    [this](int) {
                      sorted.assign(in.keys.size(), 0);
                      return gbsp::make_sample_sort_program(in.keys, &sorted);
                    },
                    [this](int) {
                      return sorted == sorted_ref ? std::string()
                                                  : "sort: output differs from std::sort";
                    }});
    apps.push_back({"mst",
                    [this](int g) {
                      mst = {};
                      return gbsp::make_mst_program(in.graphs[g].part, gbsp::MstConfig{}, &mst);
                    },
                    [this](int g) {
                      const gbsp::MstResult& ref = mst_ref[static_cast<std::size_t>(g)];
                      const double w = ref.total_weight;
                      const bool ok =
                          mst.edge_count == static_cast<std::int64_t>(ref.edges.size()) &&
                          std::abs(mst.total_weight - w) < 1e-9 * std::max(1.0, w);
                      return ok ? std::string() : "mst: edge count or weight differs from kruskal_mst";
                    },
                    kGraphs});
    apps.push_back({"sssp",
                    [this](int g) {
                      dist.assign(1, std::vector<double>(static_cast<std::size_t>(kGraphNodes), 0.0));
                      const GraphInput& gi = in.graphs[static_cast<std::size_t>(g)];
                      return gbsp::make_sp_program(gi.part, {gi.source}, gbsp::SpConfig{}, &dist);
                    },
                    [this](int g) {
                      const auto& d = dist[0];
                      const auto& ref = dist_ref[static_cast<std::size_t>(g)];
                      for (std::size_t i = 0; i < d.size(); ++i) {
                        if (!(d[i] == ref[i] || std::abs(d[i] - ref[i]) <= 1e-9)) {
                          return std::string("sssp: label differs from dijkstra");
                        }
                      }
                      return std::string();
                    },
                    kSsspGraphs});
    apps.push_back({"ocean",
                    [this, cells](int) {
                      psi.assign(cells, 0.0);
                      zeta.assign(cells, 0.0);
                      return gbsp::make_ocean_program(in.ocean, &psi, &zeta, &ocean_info);
                    },
                    [this](int) {
                      // Interior cells, bit for bit (the ghost ring is the
                      // sequential solver's own bookkeeping).
                      const std::size_t n = kOceanN;
                      for (std::size_t i = 1; i + 1 < n; ++i) {
                        const std::size_t row = i * n + 1;
                        const std::size_t bytes = (n - 2) * sizeof(double);
                        if (std::memcmp(psi.data() + row, psi_ref.data() + row, bytes) != 0 ||
                            std::memcmp(zeta.data() + row, zeta_ref.data() + row, bytes) != 0) {
                          return std::string("ocean: interior differs bitwise from OceanSequential");
                        }
                      }
                      return std::string();
                    }});
    apps.push_back({"nbody",
                    [this](int) {
                      bodies_out.assign(in.bodies.size(), gbsp::Body{});
                      return gbsp::make_nbody_program(in.bodies, in.assign, in.nbody, &bodies_out);
                    },
                    [this](int) {
                      double dev = 0;
                      for (std::size_t i = 0; i < bodies_out.size(); ++i) {
                        if (bodies_out[i].mass != in.bodies[i].mass) {
                          return std::string("nbody: a body's mass changed");
                        }
                        dev = std::max(dev, (bodies_out[i].pos - bodies_ref[i].pos).norm());
                      }
                      return dev < 5e-3 * in.nbody.iterations
                                 ? std::string()
                                 : "nbody: positions deviate from sequential_nbody_steps";
                    }});
    if (!references) return;
    // Sequential references, computed once and timed: the plain p = 1
    // baselines of <app>.seq_ms.
    apps[0].seq_ms = time_ms([this] { C_ref = gbsp::matmul_blocked(in.A, in.B); });
    apps[1].seq_ms = time_ms([this] {
      sorted_ref = in.keys;
      std::sort(sorted_ref.begin(), sorted_ref.end());
    });
    apps[2].seq_ms = time_ms([this] {
      for (const GraphInput& g : in.graphs) mst_ref.push_back(gbsp::kruskal_mst(g.gg.graph));
    }) / kGraphs;
    apps[3].seq_ms = time_ms([this] {
      for (int g = 0; g < kSsspGraphs; ++g) {
        const GraphInput& gi = in.graphs[static_cast<std::size_t>(g)];
        dist_ref.push_back(gbsp::dijkstra(gi.gg.graph, gi.source));
      }
    }) / kSsspGraphs;
    apps[4].seq_ms = time_ms([this] {
      gbsp::OceanSequential seq(in.ocean);
      seq.run();
      psi_ref = seq.psi();
      zeta_ref = seq.zeta();
    });
    apps[5].seq_ms = time_ms([this] {
      bodies_ref = in.bodies;
      gbsp::sequential_nbody_steps(bodies_ref, in.nbody);
    });
    if (corrupt) {
      C_ref.at(0, 0) += 1.0;
      sorted_ref[0] ^= 1;
      for (auto& r : mst_ref) r.total_weight += 1.0;
      for (std::size_t g = 0; g < dist_ref.size(); ++g) {
        dist_ref[g][static_cast<std::size_t>(in.graphs[g].source)] += 1.0;
      }
      psi_ref[(kOceanN / 2) * (kOceanN + 1)] += 1.0;
      bodies_ref[0].pos.x += 1.0;
    }
  }
};

class AppOp final : public Op {
 public:
  AppOp(std::shared_ptr<Suite> suite, std::size_t index)
      : suite_(std::move(suite)), app_(&suite_->apps[index]) {}

  [[nodiscard]] std::string metric() const override { return app_->name + "_ms"; }

  /// One sample: a checked Runtime::run per input instance; the sample is
  /// the mean run's wall time.
  void run(Runtime& rt, Ctx& ctx) override {
    Scope op(ctx.rec, "app." + app_->name, kCallerTrack, ctx.round_span);
    op.arg("seq_ms", app_->seq_ms);
    double total_us = 0;
    bool ok = true;
    for (int i = 0; i < app_->instances; ++i) {
      const Program prog = app_->program(i);
      ctx.rec.attempt(metric());
      double wall_us = 0;
      try {
        traced_run(rt, ctx, "run", op.id(), prog, &wall_us);
      } catch (const std::exception& e) {
        ctx.rec.fail(app_->name + ": " + e.what());
        ok = false;
        continue;
      }
      const std::string err = app_->check(i);
      if (!err.empty()) {
        ctx.rec.fail(err);
        ok = false;
      }
      total_us += wall_us;
    }
    if (ok && ctx.rec.round >= 0) {
      ctx.rec.sample(metric(), total_us / app_->instances / 1e3);
    }
  }

 private:
  std::shared_ptr<Suite> suite_;
  App* app_;
};

// ---------------------------------------------------------------------------
// Kernel probes: direct calls, timed in batches of a few milliseconds.

class DgemmProbeOp final : public Op {
 public:
  static constexpr int kN = kCannonN / 2;  // one block of the 2 x 2 Cannon grid
  explicit DgemmProbeOp(std::uint64_t seed)
      : a_(gbsp::random_matrix(kN, seed + 11)), b_(gbsp::random_matrix(kN, seed + 12)), c_(kN) {}
  [[nodiscard]] std::string metric() const override { return ""; }
  [[nodiscard]] bool traced_only() const override { return true; }
  void run(Runtime&, Ctx& ctx) override {
    if (ctx.rank != 0) return;
    constexpr int kCalls = 3;
    const double t0 = now_us();
    for (int i = 0; i < kCalls; ++i) gbsp::kernels::dgemm_add(a_.data(), b_.data(), c_.data(), kN);
    const double t1 = now_us();
    ctx.rec.span("kernel.dgemm", kCallerTrack, ctx.round_span, t0, t1,
                 {{"flops", 2.0 * kN * kN * kN * kCalls}});
  }

 private:
  gbsp::Matrix a_, b_, c_;
};

class AccelProbeOp final : public Op {
 public:
  static constexpr std::size_t kSources = 4096;
  static constexpr std::size_t kTargets = 256;
  explicit AccelProbeOp(std::uint64_t seed) {
    gbsp::Xoshiro256 rng(seed + 13);
    for (std::size_t i = 0; i < kSources; ++i) {
      soa_.push_back(rng.uniform(-1, 1), rng.uniform(-1, 1), rng.uniform(-1, 1), rng.uniform());
    }
  }
  [[nodiscard]] std::string metric() const override { return ""; }
  [[nodiscard]] bool traced_only() const override { return true; }
  void run(Runtime&, Ctx& ctx) override {
    if (ctx.rank != 0) return;
    double ax = 0, ay = 0, az = 0;
    const double t0 = now_us();
    for (std::size_t t = 0; t < kTargets; ++t) {
      gbsp::kernels::accumulate_accel(soa_.x.data(), soa_.y.data(), soa_.z.data(),
                                      soa_.m.data(), kSources, soa_.x[t], soa_.y[t],
                                      soa_.z[t], 0.0025, &ax, &ay, &az);
    }
    const double t1 = now_us();
    ctx.rec.span("kernel.accel", kCallerTrack, ctx.round_span, t0, t1,
                 {{"interactions", double(kSources * kTargets)}, {"sink", ax + ay + az}});
  }

 private:
  gbsp::kernels::InteractionSoA soa_;
};

/// The residual row kernel on the workload's own ocean grid: kOceanN x
/// kOceanN fields (m = kOceanN - 2 interior columns), small enough to stay
/// in cache as the app's fields do, swept until the batch lasts a few ms.
class OceanRowProbeOp final : public Op {
 public:
  static constexpr int kM = kOceanN - 2;
  static constexpr int kSweeps = 192;
  OceanRowProbeOp()
      : u_(static_cast<std::size_t>(kOceanN) * kOceanN),
        f_(u_.size(), 0.25),
        r_(u_.size(), 0.0) {
    for (std::size_t i = 0; i < u_.size(); ++i) u_[i] = static_cast<double>(i % 97) * 0.01;
  }
  [[nodiscard]] std::string metric() const override { return ""; }
  [[nodiscard]] bool traced_only() const override { return true; }
  void run(Runtime&, Ctx& ctx) override {
    if (ctx.rank != 0) return;
    constexpr std::size_t w = kOceanN;
    const double t0 = now_us();
    for (int s = 0; s < kSweeps; ++s) {
      for (int i = 1; i <= kM; ++i) {
        gbsp::ocean_kernels::residual_row(r_.data() + i * w, u_.data() + i * w,
                                          u_.data() + (i - 1) * w, u_.data() + (i + 1) * w,
                                          f_.data() + i * w, kM, 1.0 / 64.0);
      }
      gbsp::ocean_kernels::keep(r_.data());
    }
    const double t1 = now_us();
    // Computed bytes: four input rows read and one row written per row.
    ctx.rec.span("kernel.ocean_row", kCallerTrack, ctx.round_span, t0, t1,
                 {{"bytes", 5.0 * 8.0 * kM * kM * kSweeps}, {"sink", r_[w + 1]}});
  }

 private:
  std::vector<double> u_, f_, r_;
};

}  // namespace

std::vector<std::unique_ptr<Op>> make_app_ops(Ctx& ctx) {
  auto suite = std::make_shared<Suite>(ctx.seed, ctx.cfg.nprocs, true, ctx.corrupt);
  std::vector<std::unique_ptr<Op>> ops;
  for (std::size_t i = 0; i < suite->apps.size(); ++i) {
    ops.push_back(std::make_unique<AppOp>(suite, i));
  }
  return ops;
}

std::vector<std::unique_ptr<Op>> make_kernel_probe_ops(Ctx& ctx) {
  std::vector<std::unique_ptr<Op>> ops;
  ops.push_back(std::make_unique<DgemmProbeOp>(ctx.seed));
  ops.push_back(std::make_unique<AccelProbeOp>(ctx.seed));
  ops.push_back(std::make_unique<OceanRowProbeOp>());
  return ops;
}

std::vector<Skeleton> record_skeletons(std::uint64_t seed, int p,
                                       bool time_references) {
  Suite suite(seed, p, time_references, false);
  gbsp::Config cfg;
  cfg.nprocs = p;
  cfg.collect_comm_matrix = true;
  Runtime rt(cfg);
  std::vector<Skeleton> out;
  for (const App& app : suite.apps) {
    for (int i = 0; i < app.instances; ++i) {
      const RunStats st = rt.run(app.program(i));
      if (time_references) {
        const std::string err = app.check(i);
        if (!err.empty()) throw std::runtime_error("skeleton recording: " + err);
      }
      Skeleton sk;
      sk.app = app.name;
      sk.p = p;
      sk.seq_ms = app.seq_ms;
      const std::size_t cells = static_cast<std::size_t>(p * p);
      sk.packets.assign(st.S(), std::vector<std::uint64_t>(cells, 0));
      sk.messages.assign(st.S(), std::vector<std::uint64_t>(cells, 0));
      for (int src = 0; src < p; ++src) {
        const auto& trace = st.traces[static_cast<std::size_t>(src)];
        for (std::size_t s = 0; s < trace.size() && s < st.S(); ++s) {
          const auto& row = trace[s].sent_to_packets;
          std::uint64_t total = 0;
          for (std::size_t d = 0; d < row.size() && d < static_cast<std::size_t>(p); ++d) {
            sk.packets[s][static_cast<std::size_t>(src * p) + d] = row[d];
            total += row[d];
          }
          // Every message carries at least one packet, so a pair gets at
          // least one message and at most one per packet.
          const double per_packet =
              total == 0 ? 0.0 : static_cast<double>(trace[s].sent_messages) / static_cast<double>(total);
          for (std::size_t d = 0; d < row.size() && d < static_cast<std::size_t>(p); ++d) {
            if (row[d] == 0) continue;
            const auto m = static_cast<std::uint64_t>(std::llround(per_packet * static_cast<double>(row[d])));
            sk.messages[s][static_cast<std::size_t>(src * p) + d] =
                std::clamp<std::uint64_t>(m, 1, row[d]);
          }
        }
      }
      out.push_back(std::move(sk));
    }
  }
  return out;
}

}  // namespace pb
