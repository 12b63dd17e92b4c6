// perfbench: the repository benchmark's measuring program. run.py builds and
// drives it; it prints nothing on success and writes one JSON record per
// process (see record.hpp).
//
//   perfbench skeleton --seed N --out F [--trace]
//       Runs the six applications once on the in-memory transport with the
//       communication matrix recorded and writes their skeletons to F (with
//       --trace, also the sequential reference times).
//   perfbench apps --seed N --seconds T --out F [--trace] [--corrupt]
//       Workload apps_deferred: six checked applications plus the
//       communication phases, p = 4 threads, deferred transport.
//   perfbench exchange --transport socket|shm --skeleton F --seed N
//                      --seconds T --out F [--trace] [--corrupt]
//       Workloads exchange_socket / exchange_shm: communication phases and
//       application skeleton replays, no local compute. shm runs one rank per
//       process under `bsp_launch --transport shm`.
//
// --trace alternates traced and untraced rounds: spans and per-layer probes
// are recorded in the even rounds only, so the record carries both sides of
// the tracing overhead. --corrupt perturbs every reference (harness
// self-test): each checked operation must then be reported as failed.
//
// Every process writes its own record; an operation every rank checks has
// failed if any rank saw it fail (run.py merges the ranks' failures).
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>
#include <utility>
#include <vector>

#include "bench.hpp"
#include "core/collectives.hpp"
#include "core/transport.hpp"

namespace {

struct Options {
  std::string mode;
  std::string transport = "deferred";
  std::string out;
  std::string skeleton;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool corrupt = false;
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench skeleton|apps|exchange "
               "[--transport socket|shm] [--skeleton F] --seed N "
               "[--seconds T] --out F [--trace] [--corrupt]\n",
               why);
  std::exit(2);
}

Options parse(int argc, char** argv) {
  if (argc < 2) usage("missing mode");
  Options o;
  o.mode = argv[1];
  for (int i = 2; i < argc; ++i) {
    const std::string a = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage(("missing value for " + a).c_str());
      return argv[++i];
    };
    try {
      if (a == "--transport") {
        o.transport = value();
      } else if (a == "--out") {
        o.out = value();
      } else if (a == "--skeleton") {
        o.skeleton = value();
      } else if (a == "--seed") {
        o.seed = std::stoull(value());
      } else if (a == "--seconds") {
        o.seconds = std::stod(value());
      } else if (a == "--trace") {
        o.trace = true;
      } else if (a == "--corrupt") {
        o.corrupt = true;
      } else {
        usage(("unknown flag " + a).c_str());
      }
    } catch (const std::logic_error&) {
      usage(("bad value for " + a).c_str());
    }
  }
  if (o.out.empty()) usage("--out is required");
  if (o.mode != "skeleton" && o.mode != "apps" && o.mode != "exchange") {
    usage(("unknown mode " + o.mode).c_str());
  }
  if (o.mode == "exchange" && o.skeleton.empty()) usage("exchange needs --skeleton");
  return o;
}

/// Rank 0's verdict, agreed by every rank (process mode only).
bool agree(gbsp::Runtime& rt, const pb::Ctx& ctx, bool mine) {
  if (!ctx.process_mode) return mine;
  bool all = mine;
  rt.run([&](gbsp::Worker& w) { all = gbsp::broadcast(w, 0, mine); });
  return all;
}

/// Per-rank totals gathered to rank 0 in a final, untimed run.
struct RankTotals {
  double peak_rss_mb = 0;
  double cpu_us = 0;
  double mesh_builds = 0;
};

int run_workload(const Options& o) {
  pb::Recorder rec;
  gbsp::Config cfg;
  cfg.nprocs = 4;
  bool process_mode = false;
  int rank = 0;
  std::string shm_base;
  if (o.mode == "apps") {
    cfg.delivery = gbsp::DeliveryStrategy::Deferred;
  } else if (o.transport == "socket") {
    cfg.delivery = gbsp::DeliveryStrategy::Socket;
  } else if (o.transport == "shm") {
    if (!gbsp::configure_proc_from_env(cfg) ||
        cfg.delivery != gbsp::DeliveryStrategy::Shm) {
      std::fprintf(stderr, "perfbench: --transport shm must run under "
                           "bsp_launch --transport shm\n");
      return 2;
    }
    process_mode = true;
    rank = std::atoi(std::getenv("GBSP_RANK"));
    if (const char* n = std::getenv("GBSP_SHM_NAME")) shm_base = n;
  } else {
    usage(("unknown transport " + o.transport).c_str());
  }
  pb::Ctx ctx{rec, cfg, rank, process_mode, o.seed, o.corrupt, shm_base};

  // The applications (or their skeletons) and the communication phases run
  // on Runtimes of their own. What an exchange leaves in its Runtime (slab
  // pool, engine buffers) changes later exchanges' timings, and the apps'
  // traffic follows the seed; sharing one Runtime moved hrel_small_us on
  // socket between two levels about 30 % apart from seed to seed.
  std::vector<std::unique_ptr<pb::Op>> app_ops;
  if (o.mode == "apps") {
    app_ops = pb::make_app_ops(ctx);
  } else {
    app_ops = pb::make_skeleton_ops(ctx, pb::read_skeletons(o.skeleton));
  }
  std::vector<std::unique_ptr<pb::Op>> ops;
  ops.push_back(pb::make_setup_op());
  for (auto& op : pb::make_phase_ops(ctx)) ops.push_back(std::move(op));
  if (o.trace) {
    for (auto& op : pb::make_layer_probe_ops()) ops.push_back(std::move(op));
    for (auto& op : pb::make_kernel_probe_ops(ctx)) ops.push_back(std::move(op));
  }

  gbsp::Runtime rt(cfg);  // phases, probes, and the ranks' agreement
  gbsp::Runtime rt_apps(pb::fresh_config(ctx));
  const std::vector<std::pair<pb::Op*, gbsp::Runtime*>> schedule = [&] {
    std::vector<std::pair<pb::Op*, gbsp::Runtime*>> s;
    for (auto& op : app_ops) s.emplace_back(op.get(), &rt_apps);
    for (auto& op : ops) s.emplace_back(op.get(), &rt);
    return s;
  }();
  constexpr int kWarmupRounds = 2;
  constexpr int kMinRounds = 4;
  double start = 0;
  double cpu0 = 0;
  for (int r = -kWarmupRounds;; ++r) {
    if (r == 0) {
      start = pb::now_us();
      cpu0 = pb::process_cpu_us();
    }
    rec.round = r;
    rec.tracing = o.trace && r >= 0 && r % 2 == 0;
    pb::set_alloc_counting(rec.tracing);
    pb::Scope round(rec, "round", pb::kCallerTrack, 0);
    round.arg("round", r);
    ctx.round_span = round.id();
    for (const auto& [op, op_rt] : schedule) {
      if (op->traced_only() && !rec.tracing) continue;
      const std::uint64_t attempted = rec.attempted();
      try {
        op->run(*op_rt, ctx);
      } catch (const std::exception& e) {
        const std::string name = op->metric().empty() ? "layer probe" : op->metric();
        if (rec.attempted() == attempted) rec.attempt(name);  // threw before its check
        rec.fail(name + ": " + e.what());
      }
    }
    const bool more = r < kMinRounds || pb::now_us() - start < o.seconds * 1e6;
    if (!agree(rt, ctx, more)) break;
  }
  pb::set_alloc_counting(false);
  rec.tracing = false;
  const double wall_us = pb::now_us() - start;

  const double builds = std::max(pb::mesh_builds(rt), pb::mesh_builds(rt_apps));
  if (o.mode == "exchange") {
    // Each of the workload's Runtimes builds its mesh once. Another count
    // means the transport rebuilt one mid-run, which a clean run never does.
    rec.attempt("mesh.builds");
    const std::uint64_t want = o.corrupt ? 2 : 1;
    for (gbsp::Runtime* r : {&rt, &rt_apps}) {
      const auto built = static_cast<std::uint64_t>(pb::mesh_builds(*r));
      if (built != want) {
        rec.fail("mesh.builds: " + std::to_string(built) + " meshes built, expected " +
                 std::to_string(want));
      }
    }
  }
  RankTotals mine{pb::peak_rss_mb(), pb::process_cpu_us() - cpu0, builds};
  RankTotals total = mine;
  if (process_mode) {
    std::vector<RankTotals> all;
    rt.run([&](gbsp::Worker& w) { all = gbsp::gather(w, 0, mine); });
    if (rank == 0) {
      total.cpu_us = 0;
      for (const RankTotals& t : all) {
        total.peak_rss_mb = std::max(total.peak_rss_mb, t.peak_rss_mb);
        total.cpu_us += t.cpu_us;
        total.mesh_builds = std::max(total.mesh_builds, t.mesh_builds);
      }
    }
  }
  rec.set("peak_rss_mb", total.peak_rss_mb);
  rec.set("cpu_per_wall", total.cpu_us / wall_us);
  rec.set("mesh.builds", total.mesh_builds);
  rec.set("p", cfg.nprocs);
  rec.write(rank == 0 ? o.out : o.out + ".rank" + std::to_string(rank), rank);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const Options o = parse(argc, argv);
  try {
    if (o.mode == "skeleton") {
      pb::write_skeletons(o.out, pb::record_skeletons(o.seed, 4, o.trace));
      return 0;
    }
    return run_workload(o);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
