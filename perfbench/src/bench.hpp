// The benchmark's timed operations. Every operation calls the library only
// through its public headers (Runtime/RunStats, Worker, the collectives,
// barrier, kernel, cost-fit, app and graph headers) and checks its own
// output.
//
// An Op runs once per round; the main loop interleaves all Ops of a workload
// round by round so a slow-host period hits every metric alike.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/config.hpp"
#include "core/runtime.hpp"
#include "record.hpp"

namespace pb {

/// What every operation needs to know about the run it is part of.
struct Ctx {
  Recorder& rec;
  gbsp::Config cfg;          ///< the workload's Config (p = 4, its delivery)
  int rank = 0;              ///< this process's rank (0 in thread mode)
  bool process_mode = false; ///< one rank per OS process (shm)
  std::uint64_t seed = 1;
  bool corrupt = false;      ///< self-test: corrupt every reference
  std::string shm_base;      ///< launcher's shm name, the prefix of fresh ones
  std::uint32_t round_span = 0;
};

/// Runs `fn` once on `rt`; in traced rounds records a span carrying the
/// RunStats counts (S, H, W, wire bytes and syscalls, zero-copy bytes) plus
/// fresh slabs, heap allocations and CPU time over the run.
gbsp::RunStats traced_run(gbsp::Runtime& rt, Ctx& ctx, const std::string& name,
                          std::uint32_t parent,
                          const std::function<void(gbsp::Worker&)>& fn,
                          double* wall_us = nullptr,
                          std::uint32_t* span_id = nullptr);

class Op {
 public:
  Op() = default;
  virtual ~Op() = default;
  Op(const Op&) = delete;
  Op& operator=(const Op&) = delete;
  /// Runs one checked, timed instance (one sample) on `rt`. Records the
  /// sample when ctx.rec.round >= 0; reports mismatches via ctx.rec.fail.
  virtual void run(gbsp::Runtime& rt, Ctx& ctx) = 0;
  /// Name of the end-to-end metric this operation feeds ("" = none).
  [[nodiscard]] virtual std::string metric() const = 0;
  /// Traced-round-only operations (per-layer probes) are skipped otherwise.
  [[nodiscard]] virtual bool traced_only() const { return false; }
};

/// A recorded communication matrix of one application run: packets and
/// messages sent by each rank to each rank in each superstep (RunStats with
/// Config::collect_comm_matrix).
struct Skeleton {
  std::string app;
  int p = 0;
  /// packets[s][src * p + dst], one entry per superstep of the run (S).
  std::vector<std::vector<std::uint64_t>> packets;
  /// messages[s][src * p + dst]: RunStats counts a worker's messages per
  /// superstep, not per destination, so they are split over its
  /// destinations in proportion to the packets each one got.
  std::vector<std::vector<std::uint64_t>> messages;
  double seq_ms = 0.0;  ///< the app's sequential reference time (traced)
};

void write_skeletons(const std::string& path, const std::vector<Skeleton>& s);
std::vector<Skeleton> read_skeletons(const std::string& path);

/// The six applications of the paper's suite on the in-memory transport,
/// each checked against its sequential reference (computed once, untimed).
std::vector<std::unique_ptr<Op>> make_app_ops(Ctx& ctx);
/// Runs each application once on a deferred Runtime with the communication
/// matrix recorded and returns the skeletons (timing the sequential
/// references too when `time_references`).
std::vector<Skeleton> record_skeletons(std::uint64_t seed, int p,
                                       bool time_references);

/// Meshes the workload's Runtime has built (debug_socket_builds or
/// debug_mesh_builds of its transport); 0 on the in-memory transports.
double mesh_builds(gbsp::Runtime& rt);

/// Communication-only operations, identical on every transport: the three
/// h-relation phases, the two alltoallv patterns, the application
/// skeleton replays, set-up, and the traced-only layer probes.
std::vector<std::unique_ptr<Op>> make_phase_ops(Ctx& ctx);
std::vector<std::unique_ptr<Op>> make_skeleton_ops(
    Ctx& ctx, std::vector<Skeleton> skeletons);
std::unique_ptr<Op> make_setup_op();
std::vector<std::unique_ptr<Op>> make_layer_probe_ops();
/// Traced-only direct calls into util/kernels and the ocean row kernels.
std::vector<std::unique_ptr<Op>> make_kernel_probe_ops(Ctx& ctx);

/// Fresh Config for one more Runtime of this workload. In process mode each
/// fresh Runtime gets its own bootstrap name, so ranks tearing down the last
/// one cannot meet ranks building the next.
gbsp::Config fresh_config(const Ctx& ctx);

}  // namespace pb
