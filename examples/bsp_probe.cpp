// bsp_probe: measure THIS machine's BSP parameters (g, L) with the paper's
// Figure 2.1 recipe, using the native thread backend.
//
//   $ bsp_probe [--procs 1,2,4,8] [--steps 200]
//               [--transport deferred|eager|socket|tcp|shm] [--overlap]
//               [--fault-plan "site=...,kind=...;..."] [--fault-seed N]
//               [--retries N] [--checkpoint-every N]
//
// L is estimated from supersteps where each processor sends a single
// 16-byte packet; g from the marginal per-packet cost of large
// total-exchange supersteps; both via a least-squares fit across h sizes.
// --transport probes a specific Transport: the socket transport's g and L
// are this machine's loopback analogue of the paper's PC-LAN column.
// --transport tcp and --transport shm must run under the rank runner —
//   bsp_launch -p 4 [--transport shm] -- bsp_probe --transport tcp|shm
// — each rank is a separate OS process; nprocs comes from GBSP_NPROCS (the
// --procs list is ignored) and only rank 0 prints. The shm rows are the
// zero-syscall shared-memory backend's g and L on this host.
// --overlap drives every boundary through the split-phase pair
// (sync_begin()/sync_end() with no compute in the window), measuring the
// pure protocol overhead of split-phase synchronization against the rigid
// sync() numbers.
//
// The fault flags turn the probe into an ops-grade chaos driver: the plan
// (core/fault.hpp textual form) is injected into every probed run, retries
// bound the recovery budget, and the probe reports injected-fault and
// recovery counts next to the fit — measuring g and L *under fire*.
//
// --collectives feeds each fitted (g, L) into the collectives-layer
// schedule selector (core/collectives.hpp) and prints what it would pick on
// THIS machine for representative requests — small/large broadcast
// (direct vs tree) and uniform/one-hot alltoallv (direct vs two-phase) —
// next to the selector's baked-in per-transport defaults.
#include <cstdio>
#include <iostream>
#include <thread>

#include "core/collectives.hpp"
#include "core/fault.hpp"
#include "core/runtime.hpp"
#include "core/transport.hpp"
#include "cost/fit.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"

namespace {

const char* schedule_name(gbsp::CollectiveSchedule s) {
  switch (s) {
    case gbsp::CollectiveSchedule::Direct: return "direct";
    case gbsp::CollectiveSchedule::Tree: return "tree";
    case gbsp::CollectiveSchedule::TwoPhase: return "two-phase";
    case gbsp::CollectiveSchedule::Auto: break;
  }
  return "auto";
}

}  // namespace

int main(int argc, char** argv) {
  using namespace gbsp;
  CliArgs args(argc, argv);
  const int steps = static_cast<int>(args.get_int("steps", 200));
  auto procs = args.get_int_list("procs", {1, 2, 4, 8});
  DeliveryStrategy delivery;
  FaultPlan fault_plan;
  Config tcp_base;  // delivery/nprocs/tcp_*/shm_* from bsp_launch's env
  try {
    delivery = delivery_from_string(args.get_string("transport", "deferred"));
    const std::string plan_spec = args.get_string("fault-plan", "");
    if (!plan_spec.empty()) fault_plan = parse_fault_plan(plan_spec);
    fault_plan.seed = static_cast<std::uint64_t>(args.get_int(
        "fault-seed", static_cast<std::int64_t>(fault_plan.seed)));
    if (delivery == DeliveryStrategy::Tcp ||
        delivery == DeliveryStrategy::Shm) {
      if (!configure_proc_from_env(tcp_base) ||
          tcp_base.delivery != delivery) {
        std::fprintf(stderr,
                     "--transport %s needs the matching bsp_launch rank "
                     "environment (GBSP_RANK/GBSP_NPROCS/GBSP_TRANSPORT); "
                     "run e.g.\n"
                     "  bsp_launch -p 4 --transport %s -- %s --transport %s\n",
                     to_string(delivery), to_string(delivery), argv[0],
                     to_string(delivery));
        return 1;
      }
      // One process == one rank: the run size is the launcher's, and every
      // rank must execute the same probe sequence in lockstep.
      procs = {tcp_base.nprocs};
    }
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "%s\n", e.what());
    return 1;
  }
  const bool chatty = (delivery != DeliveryStrategy::Tcp &&
                       delivery != DeliveryStrategy::Shm) ||
                      tcp_base.rank == 0;
  const auto retries =
      static_cast<std::size_t>(args.get_int("retries", 0));
  const auto checkpoint_every =
      static_cast<std::size_t>(args.get_int("checkpoint-every", 0));
  const bool overlap = args.has_flag("overlap");
  const bool collectives = args.has_flag("collectives");

  if (chatty) {
    if (delivery == DeliveryStrategy::Tcp ||
        delivery == DeliveryStrategy::Shm) {
      std::printf(
          "probing the cross-process %s backend (%d ranks via bsp_launch), "
          "sync=%s\n",
          to_string(delivery), tcp_base.nprocs,
          overlap ? "split-phase" : "rigid");
    } else {
      std::printf(
          "probing the native thread backend (%u hardware threads), "
          "transport=%s, sync=%s\n",
          std::thread::hardware_concurrency(), to_string(delivery),
          overlap ? "split-phase" : "rigid");
    }
  }
  TextTable t({"nprocs", "g (us / 16B packet)", "L (us)"});
  std::vector<std::pair<int, MachineParams>> fitted;
  std::uint64_t total_injected = 0;
  std::uint64_t total_recoveries = 0;
  for (auto np64 : procs) {
    const int np = static_cast<int>(np64);
    std::vector<ProbeSample> samples;
    Config cfg = tcp_base;  // default-constructed unless --transport tcp
    cfg.nprocs = np;
    cfg.delivery = delivery;
    cfg.collect_stats = false;
    cfg.max_run_retries = retries;
    cfg.checkpoint_every = checkpoint_every;
    Runtime rt(cfg);
    if (!fault_plan.empty()) rt.set_fault_plan(fault_plan);
    for (int per_peer : {1, 4, 16, 64, 256}) {
      WallTimer timer;
      const RunStats stats = rt.run([steps, per_peer, overlap](Worker& w) {
        const int p = w.nprocs();
        char pkt[16] = {};
        for (int s = 0; s < steps; ++s) {
          const int fanout = (p == 1) ? 1 : p - 1;
          for (int d = 0; d < fanout; ++d) {
            const int dest = (p == 1) ? 0 : (w.pid() + 1 + d) % p;
            for (int k = 0; k < per_peer; ++k) {
              w.send_bytes(dest, pkt, sizeof(pkt));
            }
          }
          if (overlap) {
            w.sync_begin();
            w.sync_end();
          } else {
            w.sync();
          }
          while (w.get_message() != nullptr) {
          }
        }
      });
      const std::uint64_t h =
          static_cast<std::uint64_t>(per_peer) * (np == 1 ? 1 : np - 1);
      samples.push_back({h, timer.elapsed_us() / steps});
      total_recoveries += stats.recoveries;
      // fired() re-arms at each run() start, so tally it per run.
      if (rt.fault_injector() != nullptr) {
        total_injected += rt.fault_injector()->fired();
      }
    }
    const MachineParams mp = fit_g_L(samples);
    t.row().add(std::int64_t{np}).add(mp.g_us, 3).add(mp.L_us, 1);
    fitted.push_back({np, mp});
  }
  if (chatty) t.render(std::cout);

  if (collectives && chatty) {
    std::printf(
        "\nschedule selector on the measured (g, L) — the default column "
        "is the baked-in per-transport fit the selector uses when no probe "
        "has run:\n");
    TextTable ct({"nprocs", "g/L used (us)", "g/L default (us)",
                  "bcast 16B", "bcast 1MiB", "a2a uniform", "a2a one-hot"});
    for (const auto& [np, mp] : fitted) {
      if (np < 2) continue;  // every schedule degenerates at p = 1
      const std::size_t sp = static_cast<std::size_t>(np);
      const bool staged = delivery == DeliveryStrategy::Socket ||
                          delivery == DeliveryStrategy::Tcp ||
                          delivery == DeliveryStrategy::Shm;
      const double g = mp.g_us > 0.0 ? mp.g_us : 0.001;
      const double l = mp.L_us > 0.0 ? mp.L_us : 0.001;
      // Representative h-relations: 512 KiB per rank, spread vs focused.
      std::vector<std::vector<std::uint64_t>> uniform(
          sp, std::vector<std::uint64_t>(sp, 0));
      auto one_hot = uniform;
      constexpr std::uint64_t kVolume = 512 * 1024;
      for (int i = 0; i < np; ++i) {
        for (int d = 0; d < np; ++d) {
          if (i == d) continue;
          uniform[static_cast<std::size_t>(i)][static_cast<std::size_t>(d)] =
              kVolume / static_cast<std::uint64_t>(np - 1);
        }
        one_hot[static_cast<std::size_t>(i)]
               [static_cast<std::size_t>((i * 3 + 1) % np)] = kVolume;
      }
      const ScheduleChoice small_bcast =
          evaluate_rooted_schedule(np, 16, g, l, 16);
      const ScheduleChoice big_bcast =
          evaluate_rooted_schedule(np, 1 << 20, g, l, 16);
      const ScheduleChoice flat =
          evaluate_alltoallv_schedule(uniform, staged, g, l, 16);
      const ScheduleChoice skew =
          evaluate_alltoallv_schedule(one_hot, staged, g, l, 16);
      char used[64], dflt[64];
      std::snprintf(used, sizeof(used), "%.3f / %.1f", g, l);
      std::snprintf(dflt, sizeof(dflt), "%.3f / %.1f",
                    default_collective_g_us(delivery, np),
                    default_collective_l_us(delivery, np));
      ct.row()
          .add(std::int64_t{np})
          .add(used)
          .add(dflt)
          .add(schedule_name(small_bcast.schedule))
          .add(schedule_name(big_bcast.schedule))
          .add(schedule_name(flat.schedule))
          .add(schedule_name(skew.schedule));
    }
    ct.render(std::cout);
  }
  if (!fault_plan.empty() && chatty) {
    std::printf("fault plan: %zu rule(s), seed %llu -> %llu injected, "
                "%llu recover%s\n",
                fault_plan.rules.size(),
                static_cast<unsigned long long>(fault_plan.seed),
                static_cast<unsigned long long>(total_injected),
                static_cast<unsigned long long>(total_recoveries),
                total_recoveries == 1 ? "y" : "ies");
  }
  if (chatty) {
    std::printf(
        "\ncompare with the paper's Figure 2.1: SGI g=0.77-0.95, L=3-105; "
        "Cenju g=2.2-3.6, L=130-2880; PC-LAN g=0.92-8.6, L=2-3715.\n");
  }
  return 0;
}
