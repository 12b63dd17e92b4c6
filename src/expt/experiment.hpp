// Experiment harness: runs an application over (size, nprocs) grids under
// the machine emulator and renders paper-style tables with the paper's own
// numbers alongside.
//
// Methodology (DESIGN.md section 2): each (app, size, np) cell is executed
// once in Serialized mode (one compute slice at a time), which yields the
// machine-independent trace (W, H, S, per-superstep work and communication). The trace is then
// priced for each of the paper's three platforms. The per-(app, size,
// machine) cpu_scale comes from calibrating our measured one-processor work
// against the paper's one-processor time — everything at p > 1 is emergent.
#pragma once

#include <array>
#include <functional>
#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include "core/runtime.hpp"
#include "emul/emulator.hpp"

namespace gbsp {

/// Per-application adapter the sweep driver drives.
class AppAdapter {
 public:
  virtual ~AppAdapter() = default;

  /// Name matching the paperdata key ("ocean", "mst", ...).
  [[nodiscard]] virtual std::string name() const = 0;

  /// Generates the workload for one problem size (called once per size).
  virtual void prepare(int size) = 0;

  /// The SPMD program for `nprocs` processors over the prepared workload.
  /// Called once per (size, np) cell; any per-np setup (partitioning, ORB)
  /// happens here, outside the measured BSP computation, matching the
  /// paper's assumption that inputs arrive pre-partitioned.
  virtual std::function<void(Worker&)> program(int nprocs) = 0;

  /// Processor counts to sweep (paper default 1,2,4,8,16; matmult 1,4,9,16).
  [[nodiscard]] virtual std::vector<int> nprocs_list() const {
    return {1, 2, 4, 8, 16};
  }
};

/// Factory for the six paper applications ("ocean", "nbody", "mst", "sp",
/// "msp", "matmult").
std::unique_ptr<AppAdapter> make_app_adapter(const std::string& app);

struct MachineMeasurement {
  bool available = false;  ///< machine supports this processor count
  double pred_s = 0.0;     ///< coarse BSP prediction W + gH + LS
  double time_s = 0.0;     ///< emulated ("actual") time
  double comm_s = 0.0;     ///< predicted communication incl. sync (Fig 1.1)
  double spdp = 0.0;       ///< time_s(1) / time_s(np)
};

struct SweepRow {
  int size = 0;
  int np = 0;
  double W_sgi_s = 0.0;          ///< work depth in calibrated SGI seconds
  std::uint64_t H = 0;
  std::uint64_t S = 0;
  double total_work_sgi_s = 0.0;  ///< total work in calibrated SGI seconds
  std::array<MachineMeasurement, 3> machines;  ///< SGI, Cenju, PC
};

struct SweepResult {
  std::string app;
  std::vector<SweepRow> rows;
  [[nodiscard]] const SweepRow* find(int size, int np) const;
};

struct SweepOptions {
  std::vector<int> sizes;      ///< problem sizes to run
  std::vector<int> nprocs;     ///< override adapter's list when non-empty
  bool verbose = false;        ///< progress on stderr
};

/// Runs the full sweep: trace once per (size, np), price per machine,
/// calibrate per (size, machine) against the paper's one-processor column.
SweepResult run_sweep(AppAdapter& app, const SweepOptions& opts);

/// Appendix-C-style table: our measured/emulated values with the paper's
/// row (when it exists) printed beneath each of ours. With `csv`, emits
/// comma-separated rows (for plotting) instead of the aligned table.
void render_appendix_table(std::ostream& os, const SweepResult& result,
                           bool include_paper = true, bool csv = false);

/// Figure 1.1: actual vs predicted vs predicted-communication series for one
/// problem size, per machine.
void render_figure11(std::ostream& os, const SweepResult& result, int size);

/// Figures 3.1/3.2-style summary for one (large) size.
void render_summary(std::ostream& os, const SweepResult& result, int size);

/// Quantifies agreement with the paper: median relative deviations of
/// emulated time and speedup over all cells the paper reports.
void render_deviation_summary(std::ostream& os, const SweepResult& result);

}  // namespace gbsp
