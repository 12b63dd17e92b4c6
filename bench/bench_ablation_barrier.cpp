// Ablation of the superstep barrier (paper Appendix B.1 uses spin-flag
// synchronization on the SGI). Measures the wall-clock cost per empty
// superstep of the one barrier on the native thread backend, on both shapes
// of host it chooses its wait for: the CPUs this process may use, and one
// CPU shared by every worker.
//
// The barrier sizes its wait from the affinity mask of the thread that runs
// the computation, and the workers inherit that mask. So the one-CPU column
// narrows only this bench's own thread, with sched_setaffinity, and restores
// its mask afterwards.
#include <sched.h>

#include <iostream>
#include <stdexcept>
#include <string>

#include "core/runtime.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"

namespace {

void set_affinity(const cpu_set_t& mask) {
  if (sched_setaffinity(0, sizeof(mask), &mask) != 0) {
    throw std::runtime_error("sched_setaffinity failed");
  }
}

double us_per_empty_superstep(int nprocs, int steps) {
  gbsp::Config cfg;
  cfg.nprocs = nprocs;
  cfg.collect_stats = false;
  gbsp::Runtime rt(cfg);
  gbsp::WallTimer timer;
  rt.run([steps](gbsp::Worker& w) {
    for (int s = 0; s < steps; ++s) w.sync();
  });
  return timer.elapsed_us() / steps;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace gbsp;
  CliArgs args(argc, argv);
  const int steps = static_cast<int>(args.get_int("steps", 2000));

  cpu_set_t own;
  CPU_ZERO(&own);
  if (sched_getaffinity(0, sizeof(own), &own) != 0) {
    throw std::runtime_error("sched_getaffinity failed");
  }
  const int here = sched_getcpu();
  if (here < 0) throw std::runtime_error("sched_getcpu failed");
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(here, &one);

  std::cout << "== barrier ablation: wall-clock us per empty superstep ==\n"
            << "(native thread backend, deferred transport)\n";
  TextTable t({"nprocs", "own CPUs (" + std::to_string(CPU_COUNT(&own)) + ")",
               "one CPU"});
  for (int np : {2, 4, 8}) {
    t.row().add(std::int64_t{np});
    t.add(us_per_empty_superstep(np, steps), 2);
    set_affinity(one);
    t.add(us_per_empty_superstep(np, steps), 2);
    set_affinity(own);
  }
  t.render(std::cout);
  return 0;
}
