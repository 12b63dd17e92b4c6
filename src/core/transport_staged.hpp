// Staged transport: the paper's Appendix B.3 PC-LAN total exchange over one
// of three meshes — the composition of the two socket-family layers:
//
//   * A Mesh (core/mesh.hpp), picked by make_transport from Config::delivery:
//     SocketpairMesh (socket: all p ranks are threads of this process, one
//     AF_UNIX socketpair per pair), TcpMesh (tcp: this process is rank
//     Config::rank of an nprocs-process run, one TCP stream per peer) or
//     ShmMesh (shm: the same rank topology on one host, one fd-passed memfd
//     segment of SPSC rings per pair). The mesh owns fd lifecycle, the
//     bootstrap handshake, the dirty-wire rebuild contract and kernel buffer
//     sizing.
//   * One ExchangeEngine (core/exchange_engine.hpp) per rank this process
//     hosts — all p in-process, one in process mode: the v2 sectioned wire
//     format, the rigid (p-1)-stage schedule, sendmsg/readv or ring pumps,
//     split-phase windows, the fault-injection sites, and the one idle-wait
//     step (detail::Waiter, which documents the waiting policy). Every park
//     also polls this transport's abort eventfd, which wake_on_abort()
//     signals and reset_run() drains.
//
// This class is the Transport seam glue: it routes sends and boundaries
// through the right rank's engine, publishes inbox views after each
// boundary (re-pointing zero-copy frames at the shared slab on ring links),
// and marks the mesh dirty when a worker unwinds mid-stage. Each worker
// drives its own window, in both scheduling modes. Wire behaviour is
// documented with the layer that owns it.
//
// Process mode (tcp, shm) differs only in topology: the Runtime hands this
// transport exactly one WorkerState (pid == Config::rank), cross-rank
// synchronisation is the staged exchange itself, peer death surfaces as
// BspTransportError inside a stage, and checkpoint resume degrades to
// whole-run replay (see Runtime::process_mode()).
//
// Lifecycle: the mesh is built once and *reused across Runtime::run()
// calls* while every exchange completes cleanly (a drained stream has
// nothing to leak into the next run). Any worker that unwinds mid-stage —
// peer death, timeout, abort — marks the wire dirty, and the next
// reset_run() rebuilds the mesh from scratch; in process mode that re-enters
// the bootstrap, which completes only when every peer rank does the same.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "core/exchange_engine.hpp"
#include "core/mesh.hpp"
#include "core/transport.hpp"

namespace gbsp {

class StagedTransport final : public detail::TransportBase {
 public:
  StagedTransport(const Config& cfg, SlabPool& pool,
                  const std::atomic<bool>* abort_flag,
                  std::unique_ptr<detail::Mesh> mesh);
  ~StagedTransport() override;

  /// "socket", "tcp" or "shm": the DeliveryStrategy that picked the mesh.
  [[nodiscard]] const char* name() const override {
    return to_string(cfg_.delivery);
  }
  [[nodiscard]] bool needs_boundary_barriers() const override { return false; }

  void reset_run(const std::vector<std::unique_ptr<detail::WorkerState>>&
                     states) override;
  std::byte* stage_reserve(detail::WorkerState& st, int dest,
                           std::size_t n) override {
    return engine_of(st.pid).reserve(st, dest, n);
  }
  // Every boundary is a window: begin_exchange opens it and starts
  // streaming stage 1 out of the staging arenas; progress() pumps both
  // directions non-blocking, advancing through the (p-1)-stage schedule as
  // each stage drains; finish_exchange resumes the in-flight stage, pumps
  // the remaining stages with the Waiter's idle steps in between, and
  // publishes the inbox views. A rigid sync() is the same pair with an
  // empty window. The window's wall-clock counts against
  // Config::socket_stage_timeout_ms exactly like slow peer compute — the
  // timeout must exceed the longest overlap window.
  void begin_exchange(detail::WorkerState& st) override;
  bool progress(detail::WorkerState& st) override;
  void finish_exchange(detail::WorkerState& st) override;
  /// Signals the abort eventfd, waking every parked idle wait.
  void wake_on_abort() override;

  /// Fault-injection hook (tests/ops): hard-closes every endpoint worker
  /// `pid` owns, as if its process died mid-superstep. Peers observe EOF on
  /// their next read of the shared stream and abort with BspTransportError.
  void debug_kill_endpoints(int pid) { mesh_->kill_endpoints(pid); }

  /// Raw endpoint fd (tests): `pid`'s end of the pair with `peer`, -1 for
  /// self. Used by the corruption tests to inject garbled bytes into a live
  /// stream.
  [[nodiscard]] int debug_raw_fd(int pid, int peer) const {
    return mesh_->fd(pid, peer);
  }

  /// How many times the mesh has been built. Consecutive clean runs reuse
  /// the mesh (count stays flat); a run that unwound mid-stage forces a
  /// rebuild on the next reset_run().
  [[nodiscard]] std::uint64_t debug_mesh_builds() const {
    return mesh_->builds();
  }
  /// Old name of debug_mesh_builds(), kept because perfbench/ calls it.
  [[nodiscard]] std::uint64_t debug_socket_builds() const {
    return debug_mesh_builds();
  }

 private:
  [[nodiscard]] detail::ExchangeEngine& engine_of(int pid) const {
    return *eng_[hosts_every_rank_ ? static_cast<std::size_t>(pid) : 0];
  }
  /// Builds dst.inbox views from the engine's self and inbox arenas.
  void publish(detail::WorkerState& dst);

  std::unique_ptr<detail::Mesh> mesh_;
  const bool hosts_every_rank_;
  // The eventfd every park polls: signalled on abort, drained by reset_run.
  const int abort_fd_;
  // One engine per hosted rank (unique_ptr: an engine holds arenas and
  // iovec scratch whose addresses its own StageState may point at — it must
  // never relocate).
  std::vector<std::unique_ptr<detail::ExchangeEngine>> eng_;
};

}  // namespace gbsp
