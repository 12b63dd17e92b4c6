#include "emul/emulator.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "util/rng.hpp"

namespace gbsp {

namespace {

// Memory-bus contention for the shared-memory model, tuned so that the
// bulk-data application (matmul) shows the paper's ~15% actual-over-predicted
// gap on the SGI while the low-volume applications are barely affected.
constexpr double kSgiMemContentionUsPerByte = 1.3e-4;

double jitter_factor(const EmulatedMachine& m, int nprocs, std::size_t step) {
  if (m.noise_amplitude <= 0) return 1.0;
  std::uint64_t seed = 0x9e3779b97f4a7c15ull;
  for (char c : m.name()) seed = seed * 131 + static_cast<unsigned char>(c);
  seed = seed * 1000003 + static_cast<std::uint64_t>(nprocs);
  seed = seed * 1000003 + static_cast<std::uint64_t>(step);
  SplitMix64 sm(seed);
  const double u =
      static_cast<double>(sm.next() >> 11) * 0x1.0p-53;  // [0, 1)
  return 1.0 + m.noise_amplitude * (2.0 * u - 1.0);
}

/// Cost of one superstep's communication under the PC-LAN staged-TCP model:
/// the paper's Appendix B.3 schedule runs p-1 stages; in stage k, processor i
/// talks to processor (i + k) mod p, and the stage lasts as long as its
/// largest pairwise transfer. Balanced h-relations cost ~g*h; skewed ones
/// cost up to (p-1) times more, which is exactly why the appendix warns the
/// rigid schedule "is not efficient for certain worst-case communication
/// patterns".
double tcp_staged_comm_us(const RunStats& stats, std::size_t step, int p,
                          double g_us) {
  double total = 0.0;
  for (int k = 1; k < p; ++k) {
    std::uint64_t stage_max = 0;
    for (int i = 0; i < p; ++i) {
      const auto& trace = stats.traces[static_cast<std::size_t>(i)];
      if (step >= trace.size()) continue;
      const auto& mtx = trace[step].sent_to_packets;
      if (mtx.empty()) continue;
      const int dest = (i + k) % p;
      stage_max =
          std::max(stage_max, mtx[static_cast<std::size_t>(dest)]);
    }
    total += g_us * static_cast<double>(stage_max);
  }
  return total;
}

}  // namespace

EmulatedMachine emulated_sgi() {
  EmulatedMachine m;
  m.profile = &paper_sgi();
  m.transport = TransportModel::SharedMemory;
  m.mem_contention_us_per_byte = kSgiMemContentionUsPerByte;
  return m;
}

EmulatedMachine emulated_cenju() {
  EmulatedMachine m;
  m.profile = &paper_cenju();
  m.transport = TransportModel::MpiAllToAll;
  return m;
}

EmulatedMachine emulated_pc() {
  EmulatedMachine m;
  m.profile = &paper_pc();
  m.transport = TransportModel::TcpStaged;
  return m;
}

std::vector<EmulatedMachine> emulated_machines() {
  return {emulated_sgi(), emulated_cenju(), emulated_pc()};
}

RunStats execute_traced(int nprocs, const std::function<void(Worker&)>& fn) {
  Config cfg;
  cfg.nprocs = nprocs;
  cfg.scheduling = Scheduling::Serialized;
  cfg.collect_stats = true;
  cfg.collect_comm_matrix = true;
  Runtime rt(cfg);
  return rt.run(fn);
}

double price_trace(const RunStats& stats, const EmulatedMachine& machine,
                   double cpu_scale) {
  if (machine.profile == nullptr) {
    throw std::invalid_argument("price_trace: machine has no profile");
  }
  const int p = stats.nprocs;
  const MachineParams mp = machine.profile->params_for(p);
  double total_us = 0.0;
  for (std::size_t i = 0; i < stats.supersteps.size(); ++i) {
    const SuperstepStats& s = stats.supersteps[i];
    const double work_us = s.w_max_us * cpu_scale;
    double comm_us = 0.0;
    switch (machine.transport) {
      case TransportModel::SharedMemory:
        comm_us = mp.g_us * static_cast<double>(s.h_packets) +
                  machine.mem_contention_us_per_byte *
                      static_cast<double>(s.total_bytes);
        break;
      case TransportModel::MpiAllToAll:
        comm_us = mp.g_us * static_cast<double>(s.h_packets);
        break;
      case TransportModel::TcpStaged: {
        if (p == 1) {
          // Loopback: no staged schedule, per-packet cost only.
          comm_us = mp.g_us * static_cast<double>(s.h_packets);
          break;
        }
        const double staged = tcp_staged_comm_us(stats, i, p, mp.g_us);
        // Fall back to the coarse charge when the trace carries no matrix.
        comm_us = (staged == 0.0 && s.h_packets > 0)
                      ? mp.g_us * static_cast<double>(s.h_packets)
                      : staged;
        break;
      }
    }
    total_us += (work_us + comm_us + mp.L_us) * jitter_factor(machine, p, i);
  }
  return total_us * 1e-6;
}

EmulationResult emulate(int nprocs, const EmulatedMachine& machine,
                        double cpu_scale,
                        const std::function<void(Worker&)>& fn) {
  EmulationResult r;
  r.stats = execute_traced(nprocs, fn);
  r.emulated_time_s = price_trace(r.stats, machine, cpu_scale);
  r.predicted = predict_cost(r.stats, machine.profile->params_for(nprocs),
                             cpu_scale);
  r.predicted_time_s = r.predicted.total_s();
  return r;
}

double calibrate_cpu_scale(double paper_t1_s, double our_w1_s) {
  if (our_w1_s <= 0) {
    throw std::invalid_argument("calibrate_cpu_scale: non-positive work");
  }
  return paper_t1_s / our_w1_s;
}

}  // namespace gbsp
