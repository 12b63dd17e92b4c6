// Ablation of the h-vs-S trade-off at the heart of BSP programming (paper
// Section 1: minimizing h-relations and minimizing supersteps "can
// conflict, and trade-offs must be made ... by taking into account the g
// and L parameters of the underlying machine").
//
// Part 1 — rooted broadcast: Direct costs one superstep with h = p-1; Tree
// costs ceil(log2 p) supersteps with h = 1. Under Equation 1 the winner
// flips with L/g — visible across the three machine profiles.
//
// Part 2 — h-relation skew sweep for alltoallv: uniform / one-hot / zipf
// traffic at a fixed p, direct vs two-phase (Valiant-style) routing. For
// each point: messages actually sent (the combining column: v2 packs each
// destination's blocks into one message, so msgs << blocks), real host
// wall-clock on the requested transport, the emulated PC-LAN staged price
// of the same trace (the regime the two-phase route targets: a skewed
// relation serializes the staged exchange, spreading it over intermediates
// parallelizes it), and the selector's own cost estimates.
//
// Usage: bench_ablation_collectives [--procs N] [--elems N] [--reps N]
//          [--transport deferred|eager|socket] [--json PATH] [--quiet]
#include <algorithm>
#include <fstream>
#include <iostream>
#include <mutex>
#include <vector>

#include "core/collectives.hpp"
#include "emul/emulator.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

namespace {

using namespace gbsp;

std::function<void(Worker&)> bcaster(CollectiveSchedule schedule, int reps) {
  return [schedule, reps](Worker& w) {
    for (int r = 0; r < reps; ++r) {
      const double v = broadcast(w, 0, 3.14, schedule);
      if (v != 3.14) throw std::logic_error("broadcast ablation: bad value");
    }
  };
}

/// Skew patterns of the sweep. `elems` scales the heaviest block; every
/// pattern moves roughly the same total volume so rows are comparable.
struct SkewPattern {
  const char* name;
  // elements rank `pid` sends to rank `d`
  std::size_t (*block)(int pid, int d, int p, std::size_t elems);
};

const SkewPattern kPatterns[] = {
    {"uniform",
     [](int, int, int p, std::size_t elems) {
       return elems / static_cast<std::size_t>(p);
     }},
    // Scattered permutation (3 coprime to any even p keeps it a
    // derangement): each rank fires its whole volume at one partner — the
    // h-relation equals the full block and the staged exchange serializes.
    {"one-hot",
     [](int pid, int d, int p, std::size_t elems) {
       return d == (pid * 3 + 1) % p ? elems : std::size_t{0};
     }},
    // Zipf-ish decay with distance: dominated by the nearest destination
    // but never degenerate.
    {"zipf",
     [](int pid, int d, int p, std::size_t elems) {
       if (d == pid) return std::size_t{0};
       return elems / (2 * static_cast<std::size_t>((d - pid + p) % p));
     }},
};

std::vector<std::vector<std::uint64_t>> make_traffic(int pid, int p,
                                                     const SkewPattern& pat,
                                                     std::size_t elems) {
  std::vector<std::vector<std::uint64_t>> out(static_cast<std::size_t>(p));
  for (int d = 0; d < p; ++d) {
    if (d == pid) continue;
    const std::size_t n = pat.block(pid, d, p, elems);
    auto& v = out[static_cast<std::size_t>(d)];
    v.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
      v[i] = (static_cast<std::uint64_t>(pid) << 48) | i;
    }
  }
  return out;
}

std::function<void(Worker&)> mover(const SkewPattern& pat, std::size_t elems,
                                   CollectiveSchedule schedule) {
  return [&pat, elems, schedule](Worker& w) {
    auto in =
        alltoallv(w, make_traffic(w.pid(), w.nprocs(), pat, elems), schedule);
    // Touch the result so delivery cannot be optimized away.
    std::uint64_t sum = 0;
    for (const auto& v : in) {
      if (!v.empty()) sum += v.front() + v.back();
    }
    if (sum == 0xdeadbeef) std::cerr << "";
  };
}

struct SweepRow {
  const char* pattern;
  const char* schedule;
  std::uint64_t blocks = 0;    // nonempty src->dest (or segment) legs
  std::uint64_t msgs = 0;      // combined messages actually sent
  double wall_ms = 0.0;        // real host wall-clock, median of reps
  double pc_emul_ms = 0.0;     // emulated PC-LAN staged price of the trace
  double selector_us = 0.0;    // the selector's own estimate for this route
};

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return v[v.size() / 2];
}

}  // namespace

int main(int argc, char** argv) {
  using namespace gbsp;
  CliArgs args(argc, argv);
  const int np = static_cast<int>(args.get_int("procs", 8));
  const std::size_t elems =
      static_cast<std::size_t>(args.get_int("elems", 65536));
  const int reps = static_cast<int>(args.get_int("reps", 3));
  const std::string transport = args.get_string("transport", "socket");
  const std::string json_path = args.get_string("json", "");
  const bool quiet = args.has_flag("quiet");

  DeliveryStrategy delivery = DeliveryStrategy::Socket;
  if (transport == "deferred") delivery = DeliveryStrategy::Deferred;
  else if (transport == "eager") delivery = DeliveryStrategy::Eager;
  else if (transport != "socket") {
    std::cerr << "unknown --transport " << transport << "\n";
    return 1;
  }

  // ---- part 1: rooted broadcast, direct vs tree on the machine profiles --
  constexpr int kBcastReps = 50;
  if (!quiet) {
    std::cout << "== collective-algorithm ablation: broadcast, emulated us "
                 "per operation ==\n";
    TextTable t({"nprocs", "alg", "S/op", "h/op", "SGI", "Cenju", "PC"});
    for (int p : {4, 8, 16}) {
      for (auto schedule :
           {CollectiveSchedule::Direct, CollectiveSchedule::Tree}) {
        const RunStats trace =
            execute_traced(p, bcaster(schedule, kBcastReps));
        t.row().add(std::int64_t{p}).add(
            schedule == CollectiveSchedule::Direct ? "direct" : "tree");
        t.add(static_cast<std::int64_t>((trace.S() - 1) / kBcastReps));
        t.add(static_cast<std::int64_t>(trace.H() / kBcastReps));
        for (const auto& machine : emulated_machines()) {
          if (p > machine.max_procs()) {
            t.add_missing();
            continue;
          }
          t.add(price_trace(trace, machine, 0.0) * 1e6 / kBcastReps, 1);
        }
      }
    }
    t.render(std::cout);
    std::cout << "\nexpected shape: on the high-latency Cenju/PC the direct "
                 "form (1 superstep) wins at these h; as p grows the tree "
                 "form gains on bandwidth-bound machines.\n\n";
  }

  // ---- part 2: alltoallv skew sweep, direct vs two-phase -----------------
  const EmulatedMachine pc = emulated_pc();
  const double sel_g = default_collective_g_us(delivery, np);
  const double sel_l = default_collective_l_us(delivery, np);
  std::vector<SweepRow> rows;
  for (const SkewPattern& pat : kPatterns) {
    // The byte matrix (same on every rank by construction) prices the
    // selector's two estimates once per pattern.
    const std::size_t sp = static_cast<std::size_t>(np);
    std::vector<std::vector<std::uint64_t>> bytes(
        sp, std::vector<std::uint64_t>(sp, 0));
    std::uint64_t blocks = 0;
    for (int i = 0; i < np; ++i) {
      for (int d = 0; d < np; ++d) {
        if (i == d) continue;
        const std::uint64_t b = 8 * static_cast<std::uint64_t>(
                                        pat.block(i, d, np, elems));
        bytes[static_cast<std::size_t>(i)][static_cast<std::size_t>(d)] = b;
        if (b != 0) ++blocks;
      }
    }
    const ScheduleChoice choice = evaluate_alltoallv_schedule(
        bytes, delivery == DeliveryStrategy::Socket, sel_g, sel_l, 16);

    for (const auto schedule :
         {CollectiveSchedule::Direct, CollectiveSchedule::TwoPhase}) {
      SweepRow row;
      row.pattern = pat.name;
      row.schedule =
          schedule == CollectiveSchedule::Direct ? "direct" : "two-phase";
      row.selector_us = schedule == CollectiveSchedule::Direct
                            ? choice.direct_us
                            : choice.two_phase_us;

      Config cfg;
      cfg.nprocs = np;
      cfg.delivery = delivery;
      Runtime rt(cfg);
      std::vector<double> walls;
      RunStats stats;
      for (int r = 0; r < reps; ++r) {
        stats = rt.run(mover(pat, elems, schedule));
        walls.push_back(stats.wall_s);
      }
      row.wall_ms = median(walls) * 1e3;
      for (const auto& step : stats.supersteps) {
        row.msgs += step.total_messages;
      }
      row.blocks = blocks;
      // Price the same schedule's trace on the emulated PC LAN (staged
      // TCP): the regime where routing skew through intermediates pays.
      const RunStats trace =
          execute_traced(np, mover(pat, elems, schedule));
      if (np <= pc.max_procs()) {
        row.pc_emul_ms = price_trace(trace, pc, 0.0) * 1e3;
      }
      rows.push_back(row);
    }
  }

  if (!quiet) {
    std::cout << "== alltoallv skew sweep: p=" << np << " elems=" << elems
              << " transport=" << transport << " ==\n";
    TextTable t({"pattern", "schedule", "blocks", "msgs", "wall ms",
                 "PC-LAN ms", "selector us"});
    for (const SweepRow& r : rows) {
      t.row()
          .add(r.pattern)
          .add(r.schedule)
          .add(static_cast<std::int64_t>(r.blocks))
          .add(static_cast<std::int64_t>(r.msgs))
          .add(r.wall_ms, 3)
          .add(r.pc_emul_ms, 3)
          .add(r.selector_us, 1);
    }
    t.render(std::cout);
    std::cout << "\n(blocks = nonempty src->dest legs; msgs = combined "
                 "messages actually sent — v2 packs each destination's "
                 "traffic into one message. On the one-hot permutation the "
                 "staged PC-LAN price collapses under two-phase routing: "
                 "the direct schedule pushes the whole block through one "
                 "shift round while the intermediates spread it across all "
                 "p-1. On this host's single-core transports the direct "
                 "route stays ahead on wall-clock — which is exactly what "
                 "the selector's measured-g/L estimates conclude.)\n";
  }

  if (!json_path.empty()) {
    std::ofstream os(json_path);
    os.precision(6);
    os << "{\n  \"bench\": \"collectives\",\n"
       << "  \"config\": {\"procs\": " << np << ", \"elems\": " << elems
       << ", \"reps\": " << reps << ", \"transport\": \"" << transport
       << "\", \"selector_g_us\": " << sel_g << ", \"selector_l_us\": "
       << sel_l << "},\n  \"skew_sweep\": [\n";
    for (std::size_t i = 0; i < rows.size(); ++i) {
      const SweepRow& r = rows[i];
      os << "    {\"pattern\": \"" << r.pattern << "\", \"schedule\": \""
         << r.schedule << "\", \"blocks\": " << r.blocks
         << ", \"msgs_combined\": " << r.msgs << ", \"wall_ms\": "
         << r.wall_ms << ", \"pc_lan_staged_ms\": " << r.pc_emul_ms
         << ", \"selector_us\": " << r.selector_us << "}"
         << (i + 1 < rows.size() ? "," : "") << "\n";
    }
    os << "  ]\n}\n";
    if (!os) {
      std::cerr << "failed to write " << json_path << "\n";
      return 1;
    }
  }
  return 0;
}
