#include "core/transport.hpp"

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <sstream>
#include <thread>

#include "core/mesh.hpp"
#include "core/transport_deferred.hpp"
#include "core/transport_eager.hpp"
#include "core/transport_staged.hpp"

namespace gbsp {

namespace {

std::string format_transport_error(const std::string& what, int rank, int peer,
                                   std::int64_t superstep, int stage, int err,
                                   std::uint64_t bytes_moved) {
  std::ostringstream os;
  os << "gbsp transport: " << what << " [rank=" << rank << " peer=" << peer
     << " superstep=" << superstep << " stage=" << stage << " errno=" << err;
  if (err != 0) os << " (" << std::strerror(err) << ")";
  os << " bytes_moved=" << bytes_moved << "]";
  return os.str();
}

}  // namespace

BspTransportError::BspTransportError(const std::string& what, int rank,
                                     int peer, std::int64_t superstep,
                                     int stage, int err,
                                     std::uint64_t bytes_moved)
    : std::runtime_error(format_transport_error(what, rank, peer, superstep,
                                                stage, err, bytes_moved)),
      rank(rank),
      peer(peer),
      superstep(superstep),
      stage(stage),
      err(err),
      bytes_moved(bytes_moved) {}

const char* to_string(DeliveryStrategy d) {
  switch (d) {
    case DeliveryStrategy::Deferred: return "deferred";
    case DeliveryStrategy::Eager: return "eager";
    case DeliveryStrategy::Socket: return "socket";
    case DeliveryStrategy::Tcp: return "tcp";
    case DeliveryStrategy::Shm: return "shm";
  }
  return "unknown";
}

DeliveryStrategy delivery_from_string(const std::string& s) {
  if (s == "deferred") return DeliveryStrategy::Deferred;
  if (s == "eager") return DeliveryStrategy::Eager;
  if (s == "socket") return DeliveryStrategy::Socket;
  if (s == "tcp") return DeliveryStrategy::Tcp;
  if (s == "shm") return DeliveryStrategy::Shm;
  throw std::invalid_argument(
      "gbsp: unknown transport \"" + s +
      "\" (expected deferred, eager, socket, tcp, or shm)");
}

std::unique_ptr<Transport> make_transport(const Config& cfg, SlabPool& pool,
                                          const std::atomic<bool>* abort_flag) {
  switch (cfg.delivery) {
    case DeliveryStrategy::Deferred:
      return std::make_unique<DeferredTransport>(cfg, pool, abort_flag);
    case DeliveryStrategy::Eager:
      return std::make_unique<EagerTransport>(cfg, pool, abort_flag);
    case DeliveryStrategy::Socket:
      return std::make_unique<StagedTransport>(
          cfg, pool, abort_flag, std::make_unique<detail::SocketpairMesh>(cfg));
    case DeliveryStrategy::Tcp:
      return std::make_unique<StagedTransport>(
          cfg, pool, abort_flag, std::make_unique<detail::TcpMesh>(cfg));
    case DeliveryStrategy::Shm:
      return std::make_unique<StagedTransport>(
          cfg, pool, abort_flag, std::make_unique<detail::ShmMesh>(cfg));
  }
  throw std::invalid_argument("gbsp: unknown DeliveryStrategy");
}

namespace {

int env_int(const char* name, const char* raw, int lo, int hi) {
  char* end = nullptr;
  const long v = std::strtol(raw, &end, 10);
  if (end == raw || *end != '\0' || v < lo || v > hi) {
    throw std::invalid_argument(std::string("gbsp: environment variable ") +
                                name + "=\"" + raw +
                                "\" is not an integer in [" +
                                std::to_string(lo) + ", " +
                                std::to_string(hi) + "]");
  }
  return static_cast<int>(v);
}

}  // namespace

bool configure_proc_from_env(Config& cfg) {
  const char* rank = std::getenv("GBSP_RANK");
  if (rank == nullptr) return false;
  const char* nprocs = std::getenv("GBSP_NPROCS");
  if (nprocs == nullptr) {
    throw std::invalid_argument(
        "gbsp: GBSP_RANK is set but GBSP_NPROCS is not (both are exported by "
        "bsp_launch; a lone GBSP_RANK is a broken launch environment)");
  }
  // Absent GBSP_TRANSPORT means tcp — the contract the first process-mode
  // launcher established, kept for old launch scripts.
  std::string transport = "tcp";
  if (const char* t = std::getenv("GBSP_TRANSPORT")) transport = t;
  if (transport != "tcp" && transport != "shm") {
    throw std::invalid_argument(
        "gbsp: GBSP_TRANSPORT=\"" + transport +
        "\" is not a cross-process transport (expected tcp or shm)");
  }
  cfg.nprocs = env_int("GBSP_NPROCS", nprocs, 1, 1 << 20);
  cfg.rank = env_int("GBSP_RANK", rank, 0, cfg.nprocs - 1);
  if (transport == "shm") {
    cfg.delivery = DeliveryStrategy::Shm;
    if (const char* name = std::getenv("GBSP_SHM_NAME")) cfg.shm_name = name;
  } else {
    cfg.delivery = DeliveryStrategy::Tcp;
    if (const char* host = std::getenv("GBSP_HOST")) cfg.tcp_host = host;
    if (const char* port = std::getenv("GBSP_PORT")) {
      cfg.tcp_port = env_int("GBSP_PORT", port, 1, 65535);
    }
  }
  if (const char* t = std::getenv("GBSP_CONNECT_TIMEOUT_MS")) {
    // Doubles as the shm bootstrap deadline (Config docs the dual role).
    cfg.tcp_connect_timeout_ms = static_cast<std::size_t>(
        env_int("GBSP_CONNECT_TIMEOUT_MS", t, 1, 3'600'000));
  }
  return true;
}

namespace detail {

void TransportBase::inject_boundary_fault(FaultSite site,
                                          WorkerState& st) const {
  if (fault_ == nullptr) return;
  FaultContext ctx;
  ctx.rank = st.pid;
  ctx.superstep = st.superstep;
  const auto d = fault_->before_call(site, ctx);
  if (!d) return;
  st.step.injected_faults += 1;
  switch (d->kind) {
    case FaultKind::DelayUs:
      std::this_thread::sleep_for(std::chrono::microseconds(d->arg));
      return;
    case FaultKind::Abort:
    case FaultKind::PeerHangup:
      throw BspTransportError(
          std::string("injected ") + to_string(d->kind) + " at " +
              to_string(site),
          st.pid, /*peer=*/-1, static_cast<std::int64_t>(st.superstep),
          /*stage=*/-1, /*err=*/0, /*bytes_moved=*/0);
    default:
      return;  // syscall-shaped kinds have no meaning at a boundary hook
  }
}

void TransportBase::append_views(WorkerState& dst, const MessageArena& arena,
                                 std::uint64_t& recv_packets) const {
  const bool count = cfg_.collect_stats;
  arena.for_each_frame([&](const MessageArena::Frame& f) {
    Message m;
    m.source = f.source;
    m.seq = f.seq;
    m.payload = ByteView{f.payload(), static_cast<std::size_t>(f.len)};
    dst.inbox.push_back(m);
    if (count) {
      recv_packets += packets_for_bytes(static_cast<std::size_t>(f.len));
    }
  });
}

void TransportBase::finish_delivery(WorkerState& dst,
                                    std::uint64_t recv_packets,
                                    bool sort_deterministic) const {
  if (sort_deterministic) {
    std::sort(dst.inbox.begin(), dst.inbox.end(),
              [](const Message& a, const Message& b) {
                return a.source != b.source ? a.source < b.source
                                            : a.seq < b.seq;
              });
  }
  if (cfg_.collect_stats) {
    // Charged to the upcoming superstep, which reads these messages.
    dst.step.recv_packets = recv_packets;
    dst.step.recv_messages = dst.inbox.size();
  }
}

}  // namespace detail
}  // namespace gbsp
