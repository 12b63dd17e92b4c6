// Emulation of the paper's three evaluation platforms.
//
// The 1996 testbed (SGI Challenge, NEC Cenju, Pentium PC-LAN) is not
// available, so experiments run in two phases:
//
//  1. EXECUTE: the SPMD program runs on P virtual processors in the
//     runtime's Serialized mode, one compute slice at a time while the
//     boundaries run as in a parallel run — the paper's own work-measurement
//     methodology ("simulating the parallel computation on a single
//     processor", Section 3). This yields the full per-processor,
//     per-superstep trace: local-computation times, packet counts, and
//     (optionally) the source->destination communication matrix.
//
//  2. PRICE: the trace is charged against a machine model. The model is
//     deliberately *more detailed* than the headline BSP cost function, so
//     that comparing "emulated actual" against the coarse `W + gH + LS`
//     prediction is a genuine model-accuracy experiment, as in the paper:
//       * SharedMemory (SGI): g*h_i + L per superstep plus a memory-bus
//         contention term proportional to total bytes moved (the paper's
//         Section 3.6 observation that "the SGI is not a true BSP machine").
//       * MpiAllToAll (Cenju): g*h_i + L per superstep.
//       * TcpStaged (PC-LAN): the paper's Appendix B.3 rigid (p-1)-stage
//         total-exchange schedule — each stage costs the *maximum* pairwise
//         transfer, so unbalanced h-relations cost more than g*h.
//     A small deterministic per-superstep jitter models measurement noise.
//
// One execution can be priced for every machine; the trace is
// machine-independent because the programs are (that is the point of BSP).
#pragma once

#include <functional>
#include <string>

#include "core/runtime.hpp"
#include "cost/machine.hpp"
#include "cost/predictor.hpp"

namespace gbsp {

enum class TransportModel { SharedMemory, MpiAllToAll, TcpStaged };

struct EmulatedMachine {
  const MachineProfile* profile = nullptr;
  TransportModel transport = TransportModel::SharedMemory;
  /// Memory-bus contention, microseconds per byte of total superstep traffic
  /// (SharedMemory only).
  double mem_contention_us_per_byte = 0.0;
  /// Relative amplitude of the deterministic per-superstep jitter.
  double noise_amplitude = 0.03;

  [[nodiscard]] const std::string& name() const { return profile->name(); }
  [[nodiscard]] int max_procs() const { return profile->max_procs(); }
};

/// The three platforms of the paper.
EmulatedMachine emulated_sgi();
EmulatedMachine emulated_cenju();
EmulatedMachine emulated_pc();
std::vector<EmulatedMachine> emulated_machines();

struct EmulationResult {
  RunStats stats;            ///< machine-independent trace (W, H, S, ...)
  double emulated_time_s = 0.0;   ///< detailed machine model ("actual")
  double predicted_time_s = 0.0;  ///< coarse BSP model W + gH + LS
  CostBreakdown predicted;        ///< components of the coarse prediction
};

/// Runs `fn` on `nprocs` virtual processors (serialized, fully instrumented,
/// in-memory deferred delivery) and returns the machine-independent trace.
RunStats execute_traced(int nprocs, const std::function<void(Worker&)>& fn);

/// Prices an executed trace on a machine. `cpu_scale` converts measured work
/// seconds into target-machine seconds (see calibrate_cpu_scale).
double price_trace(const RunStats& stats, const EmulatedMachine& machine,
                   double cpu_scale);

/// Execute + price + predict in one call.
EmulationResult emulate(int nprocs, const EmulatedMachine& machine,
                        double cpu_scale,
                        const std::function<void(Worker&)>& fn);

/// cpu_scale such that the emulated 1-processor time of a program with
/// measured work `our_w1_s` matches the paper's reported 1-processor time.
///
/// Because the scale is re-derived from measured host work on every run,
/// emulated results are invariant under uniform host-kernel speedups (the
/// DESIGN.md section 7 kernel layer): k-times-faster kernels shrink
/// our_w1_s and grow cpu_scale by the same factor.  Only the relative
/// spread of work across supersteps enters the priced trace.
double calibrate_cpu_scale(double paper_t1_s, double our_w1_s);

}  // namespace gbsp
