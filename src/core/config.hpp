// Runtime configuration knobs.
#pragma once

#include <cstddef>
#include <stdexcept>
#include <string>

namespace gbsp {

/// How virtual processors execute.
enum class Scheduling {
  /// One OS thread per BSP processor, truly concurrent. This is the
  /// production mode and the analogue of the paper's shared-memory library.
  Parallel,
  /// One thread per processor, but no two processors compute at once: a
  /// worker holds the runtime's one compute token for each work slice and
  /// gives it up at its boundary, whose barrier and exchange run exactly as
  /// in Parallel mode. This is the paper's "simulating the parallel
  /// computation on a single processor" methodology (Section 3): it yields
  /// clean per-processor work measurements on hosts with fewer cores than
  /// BSP processors, and feeds the machine emulator. In-process transports
  /// only.
  Serialized,
};

/// How messages travel from sender to receiver. Each value selects a
/// Transport implementation (core/transport.hpp); the enum is configuration
/// sugar over the transport factory.
enum class DeliveryStrategy {
  /// Senders buffer locally per destination; the exchange happens at the
  /// superstep boundary with no locks. The natural BSP realisation.
  Deferred,
  /// The paper's Appendix B.1 shared-memory scheme: each processor owns two
  /// alternating input buffers that remote senders append to during the
  /// superstep, with chunk-granularity locking so "the locking cost is small
  /// per packet".
  Eager,
  /// The paper's Appendix B.3 PC-LAN scheme over real loopback sockets: each
  /// worker owns a stream socket to every peer, and the superstep boundary
  /// runs the rigid (p-1)-stage total exchange (stage k: pid i sends to
  /// (i+k) mod p and receives from (i-k) mod p, length-prefixed frames).
  /// No boundary barrier: the exchange itself is the synchronisation, as on
  /// the real PC-LAN. See core/transport_staged.hpp.
  Socket,
  /// The same staged exchange over AF_INET/TCP between separate OS
  /// processes: this process is exactly one rank (Config::rank) of an nprocs
  /// process run, normally launched by `bsp_launch`, and connects to its
  /// peers over loopback or a real LAN. See core/transport_staged.hpp.
  Tcp,
  /// The same staged exchange between separate OS processes over shared
  /// memory: each rank pair shares an mmap'd memfd segment holding one SPSC
  /// byte ring per direction (plus a zero-copy payload slab), bootstrapped
  /// by an AF_UNIX fd-passing handshake. The steady-state data path is pure
  /// memcpy + atomic head/tail counters — zero syscalls (wire_syscalls
  /// reads 0). One process == one rank (Config::rank), normally launched by
  /// `bsp_launch --transport shm`. See core/transport_staged.hpp.
  Shm,
};

struct Config {
  int nprocs = 1;
  Scheduling scheduling = Scheduling::Parallel;
  DeliveryStrategy delivery = DeliveryStrategy::Deferred;

  /// Deliver messages sorted by (source, sequence). The paper's library
  /// returns packets "in any arbitrary order"; tests use this for
  /// reproducibility.
  bool deterministic_delivery = false;

  /// Record per-superstep work/communication statistics (w_i, h_i, S).
  bool collect_stats = true;

  /// Additionally record, per processor and superstep, the number of packets
  /// sent to each destination. Needed by machine models whose cost depends
  /// on the *pattern* of an h-relation (the PC-LAN staged-TCP model), not
  /// just its size.
  bool collect_comm_matrix = false;

  /// Eager delivery: number of messages a sender batches per destination
  /// before taking the destination's inbox lock (paper: space for 1000
  /// packets per lock acquisition).
  std::size_t eager_chunk_messages = 1000;

  /// Staged transports (socket, tcp, shm): a stage that makes no progress
  /// (no byte sent or received) for this long aborts the run with
  /// BspTransportError instead of hanging on a dead or wedged peer. It is
  /// the one knob of the idle wait: a wait spins on the barrier's schedule,
  /// then parks until a peer, a doorbell or an abort wakes it, or until
  /// this timeout. The whole waiting policy is documented once, at
  /// detail::Waiter (core/exchange_engine.hpp).
  std::size_t socket_stage_timeout_ms = 10'000;

  /// Process mode (delivery == Tcp or Shm): which rank of the nprocs-process
  /// run THIS process is. Set by bsp_launch via the GBSP_RANK environment
  /// variable (see configure_proc_from_env); ignored by the in-process
  /// transports, which host every rank.
  int rank = 0;

  /// TCP transport: numeric IPv4 address every rank binds and connects on.
  /// Loopback by default; a real LAN run sets the rank's reachable address.
  std::string tcp_host = "127.0.0.1";

  /// TCP transport: base port of the run's port window. Rank r listens on
  /// tcp_port + r, so a p-process run occupies [tcp_port, tcp_port + p - 1].
  /// The default lies below Linux's ephemeral range (32768-60999), where a
  /// listener's port can already be some connection's source port.
  int tcp_port = 17100;

  /// Process mode (tcp and shm): the one bootstrap deadline of both meshes
  /// (core/mesh.hpp, RankMesh). Covers the dial retry loop (peers start at
  /// different times), the accept loop, each blocking rank-handshake
  /// read/write, and shm's segment handoff.
  std::size_t tcp_connect_timeout_ms = 10'000;

  /// Shm transport: run identity. The bootstrap rendezvous uses abstract
  /// AF_UNIX socket names derived from it ("\0gbsp-shm.<name>.<rank>"), so
  /// every rank of one run must use the same name and concurrent runs on one
  /// host must use different names (bsp_launch generates one per launch).
  std::string shm_name = "default";

  /// Shm transport: bytes of SPSC ring per direction per rank pair. The ring
  /// carries the staged exchange's sectioned wire bytes; stages larger than
  /// the ring stream through it incrementally, so this bounds memory, not
  /// message size. Pages are touched lazily (memfd), so idle capacity is
  /// virtual only.
  std::size_t shm_ring_bytes = std::size_t{1} << 20;  // 1 MiB

  /// Shm transport: bytes of zero-copy payload slab per direction per rank
  /// pair. Payloads >= kShmInlineThreshold are written straight into the
  /// slab and the receiver's inbox views alias the mapping — no copy at all.
  /// The slab is split into two halves recycled on alternating boundary
  /// epochs; a payload above half the slab (or a slab-full epoch) falls back
  /// to inline ring delivery. 0 disables zero-copy entirely.
  std::size_t shm_slab_bytes = std::size_t{1} << 23;  // 8 MiB

  /// Superstep checkpointing (core/recovery.hpp): 0 disables; N snapshots
  /// every worker's recovery state (registered regions, the save callback's
  /// bytes, the just-delivered inbox, sequence counters) at the top of every
  /// superstep s with s % N == 0, s > 0. Enabling this declares the program
  /// resume-aware: after a recoverable failure the runtime re-invokes the
  /// SPMD function with Worker::resume_superstep() set, and the program must
  /// fast-forward to it (see DESIGN.md section 11). Programs that do not
  /// consult resume_superstep() must leave this 0 and rely on whole-run
  /// replay, which is exact for deterministic programs.
  std::size_t checkpoint_every = 0;

  /// Bounded retry on recoverable failures: when Runtime::run() unwinds with
  /// a BspTransportError (peer death, wedge timeout, corrupt stream,
  /// watchdog), retry up to this many times — restoring the latest complete
  /// checkpoint when checkpoint_every is set, else replaying from the start.
  /// 0 = fail fast (the pre-recovery behaviour). User exceptions and logic
  /// errors are never retried.
  std::size_t max_run_retries = 0;

  /// Base backoff before a retry attempt, doubled per attempt (bounded
  /// exponential backoff): attempt k sleeps retry_backoff_us << k.
  std::size_t retry_backoff_us = 1000;

  /// Per-superstep watchdog: when nonzero, a monitor thread aborts the run
  /// with BspTransportError if no worker completes a superstep boundary for
  /// this long — catching wedges the transports cannot see (a peer stuck
  /// before its first send, an in-memory barrier waiting on a worker
  /// blocked forever in its own code). The deadline must exceed the longest
  /// legitimate superstep, compute included. 0 = off.
  std::size_t superstep_deadline_ms = 0;
};

/// Shm transport: smallest payload delivered zero-copy through the pair's
/// slab (core/exchange_engine.cpp, ExchangeEngine::reserve). Below it the
/// inline ring copy is cheaper than the descriptor indirection; above it the
/// payload moves no bytes at all.
inline constexpr std::size_t kShmInlineThreshold = 4096;

/// Validates a Config at Runtime construction, so bad values fail loudly
/// with std::invalid_argument instead of surfacing as deadlocks or UB deep
/// inside delivery.
inline void validate_config(const Config& cfg) {
  if (cfg.nprocs < 1) {
    throw std::invalid_argument("gbsp: nprocs must be >= 1, got " +
                                std::to_string(cfg.nprocs));
  }
  if (cfg.eager_chunk_messages == 0) {
    throw std::invalid_argument(
        "gbsp: eager_chunk_messages must be >= 1 (a zero chunk would never "
        "flush)");
  }
  constexpr std::size_t kMaxStageTimeoutMs = 3'600'000;  // one hour
  if (cfg.socket_stage_timeout_ms == 0 ||
      cfg.socket_stage_timeout_ms > kMaxStageTimeoutMs) {
    throw std::invalid_argument(
        "gbsp: socket_stage_timeout_ms must be in [1, 3600000], got " +
        std::to_string(cfg.socket_stage_timeout_ms));
  }
  if (cfg.delivery == DeliveryStrategy::Tcp ||
      cfg.delivery == DeliveryStrategy::Shm) {
    // Process mode: one process hosts one rank of the run.
    const bool shm = cfg.delivery == DeliveryStrategy::Shm;
    const std::string transport = shm ? "shm" : "tcp";
    if (cfg.scheduling == Scheduling::Serialized) {
      throw std::invalid_argument(
          "gbsp: Serialized scheduling is incompatible with the " + transport +
          " transport (one process hosts one rank; the compute token that "
          "serializes the workers is shared within one process)");
    }
    if (cfg.rank < 0 || cfg.rank >= cfg.nprocs) {
      throw std::invalid_argument(
          "gbsp: rank must be in [0, nprocs), got rank=" +
          std::to_string(cfg.rank) +
          " with nprocs=" + std::to_string(cfg.nprocs));
    }
    if (cfg.tcp_connect_timeout_ms == 0 ||
        cfg.tcp_connect_timeout_ms > kMaxStageTimeoutMs) {
      throw std::invalid_argument(
          std::string("gbsp: tcp_connect_timeout_ms") +
          (shm ? " (also the shm bootstrap deadline)" : "") +
          " must be in [1, 3600000], got " +
          std::to_string(cfg.tcp_connect_timeout_ms));
    }
  }
  if (cfg.delivery == DeliveryStrategy::Tcp) {
    if (cfg.tcp_host.empty() ||
        cfg.tcp_host.find_first_of(" \t\n:") != std::string::npos) {
      throw std::invalid_argument(
          "gbsp: tcp_host must be a plain numeric IPv4 address (no "
          "whitespace, no port suffix), got \"" +
          cfg.tcp_host + "\"");
    }
    if (cfg.tcp_port < 1 || cfg.tcp_port > 65535) {
      throw std::invalid_argument("gbsp: tcp_port must be in [1, 65535], got " +
                                  std::to_string(cfg.tcp_port));
    }
    if (cfg.tcp_port + cfg.nprocs - 1 > 65535) {
      throw std::invalid_argument(
          "gbsp: the run's port window [tcp_port, tcp_port + nprocs - 1] "
          "must stay within [1, 65535]; tcp_port=" +
          std::to_string(cfg.tcp_port) +
          " with nprocs=" + std::to_string(cfg.nprocs) + " overflows it");
    }
  }
  if (cfg.delivery == DeliveryStrategy::Shm) {
    // The name lands inside sun_path of an abstract AF_UNIX address
    // ("\0gbsp-shm.<name>.<rank>"), which caps at ~107 bytes.
    if (cfg.shm_name.empty() || cfg.shm_name.size() > 64 ||
        cfg.shm_name.find_first_of(" \t\n/") != std::string::npos) {
      throw std::invalid_argument(
          "gbsp: shm_name must be 1..64 chars with no whitespace or '/' "
          "(it names the bootstrap rendezvous socket), got \"" +
          cfg.shm_name + "\"");
    }
    constexpr std::size_t kMinRingBytes = 4096;
    constexpr std::size_t kMaxShmBytes = std::size_t{1} << 34;  // 16 GiB
    if (cfg.shm_ring_bytes < kMinRingBytes ||
        cfg.shm_ring_bytes > kMaxShmBytes) {
      throw std::invalid_argument(
          "gbsp: shm_ring_bytes must be in [4096, 2^34], got " +
          std::to_string(cfg.shm_ring_bytes));
    }
    if (cfg.shm_slab_bytes > kMaxShmBytes) {
      throw std::invalid_argument(
          "gbsp: shm_slab_bytes must be <= 2^34, got " +
          std::to_string(cfg.shm_slab_bytes));
    }
    if (cfg.shm_slab_bytes != 0 &&
        cfg.shm_slab_bytes < 2 * kShmInlineThreshold) {
      throw std::invalid_argument(
          "gbsp: a nonzero shm_slab_bytes (" +
          std::to_string(cfg.shm_slab_bytes) + ") must be at least " +
          std::to_string(2 * kShmInlineThreshold) +
          ": each of the slab's two epoch halves must fit the smallest "
          "zero-copy payload (" +
          std::to_string(kShmInlineThreshold) + " bytes)");
    }
  }
}

}  // namespace gbsp
