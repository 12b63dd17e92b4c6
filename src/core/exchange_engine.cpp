#include "core/exchange_engine.hpp"

#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <limits>
#include <string>
#include <thread>

#include "core/barrier.hpp"     // BspAborted
#include "core/transport.hpp"  // BspTransportError

namespace gbsp {
namespace detail {

namespace {

/// Upper bound on an incoming header block before we trust the preamble
/// enough to allocate for it: a claimed block above this is stream
/// corruption, not traffic (2^26 frames per stage).
constexpr std::uint64_t kMaxHeaderBlockBytes = std::uint64_t{1} << 30;

void append_bytes(std::vector<std::byte>& buf, const void* data,
                  std::size_t n) {
  const std::byte* p = static_cast<const std::byte*>(data);
  buf.insert(buf.end(), p, p + n);
}

std::size_t iov_max() {
  static const std::size_t v = [] {
    const long m = ::sysconf(_SC_IOV_MAX);
    return m > 0 ? static_cast<std::size_t>(m) : std::size_t{16};
  }();
  return v;
}

/// Consumes `n` bytes of a scatter-gather list in place: fully transferred
/// entries advance `idx`, a partially transferred entry has its base/len
/// moved past the sent prefix so the next syscall resumes mid-entry.
void advance_iov(std::vector<iovec>& iov, std::size_t& idx, std::size_t n) {
  while (n != 0) {
    iovec& e = iov[idx];
    if (n < e.iov_len) {
      e.iov_base = static_cast<std::byte*>(e.iov_base) + n;
      e.iov_len -= n;
      return;
    }
    n -= e.iov_len;
    ++idx;
  }
}

}  // namespace

void ExchangeEngine::attach(int pid, int nprocs) {
  pid_ = pid;
  nprocs_ = nprocs;
  outbox_.clear();
  outbox_.reserve(static_cast<std::size_t>(nprocs));
  for (int d = 0; d < nprocs; ++d) outbox_.emplace_back(pool_);
  inbox_arena_.release_slabs();
  // Each pair's data path is chosen once, here: the mesh's shared-memory
  // rings when it has them, else the stream fd itself.
  links_.assign(static_cast<std::size_t>(nprocs), Link{});
  for (int j = 0; j < nprocs; ++j) {
    if (j == pid) continue;
    links_[static_cast<std::size_t>(j)] =
        Link{mesh_->fd(pid, j), mesh_->shm_pair(pid, j)};
  }
  // An attach follows a fresh mesh build, whose segments' counters start at
  // zero — the zero-copy epoch restarts with them.
  boundary_count_ = 0;
  zc_alloc_.assign(static_cast<std::size_t>(nprocs), ZcAlloc{});
  zc_out_.assign(static_cast<std::size_t>(nprocs), {});
  zc_in_.clear();
}

void ExchangeEngine::reset_for_reuse() {
  for (MessageArena& ob : outbox_) ob.release_slabs();
  inbox_arena_.release_slabs();
  // Staged-but-undelivered descriptor frames die with their outbox arenas.
  // boundary_count_ deliberately survives: the mesh and its segments persist
  // across clean-run reuse, and the new run's first zero-copy epoch must not
  // alias the slab half behind the previous run's final, still-live views.
  for (auto& v : zc_out_) v.clear();
  zc_in_.clear();
}

bool ExchangeEngine::has_unflushed() const {
  for (const MessageArena& a : outbox_) {
    if (!a.empty()) return true;
  }
  return false;
}

std::byte* ExchangeEngine::reserve(WorkerState& st, int dest, std::size_t n) {
  if (n > cfg_->socket_max_frame_bytes) {
    // Reject at the send call, where the application can see a clean error,
    // rather than letting the peer's header validation kill the exchange.
    throw BspTransportError(
        "message of " + std::to_string(n) +
            " bytes exceeds socket_max_frame_bytes (" +
            std::to_string(cfg_->socket_max_frame_bytes) + ")",
        st.pid, dest, static_cast<std::int64_t>(st.superstep), /*stage=*/-1,
        /*err=*/0, /*bytes_moved=*/0);
  }
  const std::size_t d = static_cast<std::size_t>(dest);
  if (links_[d].ring != nullptr && cfg_->shm_slab_bytes != 0 &&
      n >= cfg_->shm_inline_threshold) {
    if (std::byte* slot = try_reserve_zc(st, dest, n)) return slot;
  }
  // Same bump-append staging as the deferred transport; the bytes hit the
  // wire at the boundary, in the rigid stage for this destination.
  return outbox_[d].append(static_cast<std::uint32_t>(st.pid),
                           st.seq_to[d]++, n);
}

std::byte* ExchangeEngine::try_reserve_zc(WorkerState& st, int dest,
                                          std::size_t n) {
  ShmPairView* pv = links_[static_cast<std::size_t>(dest)].ring;
  const std::size_t half_cap = pv->send.slab_cap / 2;
  // Every slab slot is 16-byte aligned (the arena's own out-of-line
  // guarantee) and whole within one epoch half.
  const std::size_t need = (n + 15) & ~std::size_t{15};
  if (need == 0 || need > half_cap) return nullptr;
  ZcAlloc& za = zc_alloc_[static_cast<std::size_t>(dest)];
  const std::uint64_t e = boundary_count_;
  if (za.epoch != e) {
    // Entering epoch e flips this pair onto slab half e&1, last written by
    // epoch e-2. Those payloads' inbox views died when the receiver opened
    // its e-th boundary; until the receiver reports that, fall back to the
    // inline ring copy rather than block — the guard is advisory, and the
    // peer may publish mid-superstep, unblocking a later reserve.
    if (e >= 2 &&
        pv->send.ctl->boundaries_opened.load(std::memory_order_acquire) < e) {
      return nullptr;
    }
    za.epoch = e;
    za.off = 0;
  }
  if (za.off + need > half_cap) return nullptr;  // epoch half full
  const std::size_t abs =
      static_cast<std::size_t>(e & 1) * half_cap + za.off;
  za.off += need;
  // What travels the ring is this 16-byte descriptor, flagged by pad == 1 in
  // its wire header (begin_stage); the payload bytes never move again.
  ShmZcDesc desc;
  desc.offset = abs;
  desc.len = n;
  const std::size_t d = static_cast<std::size_t>(dest);
  std::byte* dslot = outbox_[d].append(static_cast<std::uint32_t>(st.pid),
                                       st.seq_to[d]++, sizeof(desc));
  std::memcpy(dslot, &desc, sizeof(desc));
  zc_out_[d].push_back(outbox_[d].message_count() - 1);
  st.wire_zc_bytes += n;
  return pv->send.slab + abs;
}

void ExchangeEngine::open_boundary(WorkerState& dst) {
  dst.inbox.clear();
  dst.inbox_cursor = 0;
  inbox_arena_.release_slabs();  // last superstep's views are dead now
  // Opening boundary b invalidates the views delivered at boundary b-1;
  // publishing the count to every ring peer is what lets it recycle the slab
  // half those views aliased (the zero-copy epoch feedback channel).
  ++boundary_count_;
  for (const Link& l : links_) {
    if (l.ring != nullptr) {
      l.ring->recv.ctl->boundaries_opened.store(boundary_count_,
                                                std::memory_order_release);
    }
  }
  zc_in_.clear();  // defensive: an unwound publish must not leak fixups
  // Stage 0 of the schedule: self-delivery moves whole slabs, no wire.
  inbox_arena_.splice_from(outbox_[static_cast<std::size_t>(dst.pid)]);
}

void ExchangeEngine::apply_zc_views(WorkerState& dst,
                                    std::uint64_t& recv_packets) {
  for (const ZcIn& z : zc_in_) {
    Message& m = dst.inbox[z.ordinal];
    ShmZcDesc desc;
    std::memcpy(&desc, m.payload.data(), sizeof(desc));
    ShmPairView* pv = links_[static_cast<std::size_t>(z.src)].ring;
    // A descriptor is peer-controlled input; validate before aliasing the
    // mapping, exactly like the wire headers it rode in with.
    if (pv == nullptr || desc.len > cfg_->socket_max_frame_bytes ||
        desc.offset > pv->recv.slab_cap ||
        desc.len > pv->recv.slab_cap - desc.offset) {
      throw BspTransportError(
          "zero-copy descriptor out of bounds: offset " +
              std::to_string(desc.offset) + ", len " +
              std::to_string(desc.len) + " against a " +
              std::to_string(pv != nullptr ? pv->recv.slab_cap : 0) +
              "-byte slab (stream corruption?)",
          dst.pid, z.src, static_cast<std::int64_t>(dst.superstep),
          /*stage=*/-1, /*err=*/0, /*bytes_moved=*/0);
    }
    m.payload = ByteView{pv->recv.slab + desc.offset,
                         static_cast<std::size_t>(desc.len)};
    dst.wire_zc_bytes += desc.len;
    if (cfg_->collect_stats) {
      // append_views charged the 16 descriptor bytes; swap that for the
      // payload's true h-relation contribution.
      recv_packets +=
          packets_for_bytes(static_cast<std::size_t>(desc.len),
                            cfg_->packet_unit_bytes) -
          packets_for_bytes(sizeof(ShmZcDesc), cfg_->packet_unit_bytes);
    }
  }
  zc_in_.clear();
}

void ExchangeEngine::begin_stage(StageState& ss, int k) {
  const std::size_t sp = static_cast<std::size_t>((pid_ + k) % nprocs_);
  MessageArena& ob = outbox_[sp];
  ss = StageState{};
  ss.k = k;
  ss.send_pre.count = ob.message_count();
  ss.send_pre.header_bytes = ob.message_count() * sizeof(WireFrameHeader);
  ss.send_pre.payload_bytes = ob.payload_bytes();
  // Pack the header block; payloads are NOT serialized — the iovec below
  // points sendmsg straight at the staging arena's slabs, so the payload
  // section leaves the process from the memory the sender wrote it to.
  hdr_out_.clear();
  hdr_out_.reserve(static_cast<std::size_t>(ss.send_pre.header_bytes));
  // zc_out_ holds the arena ordinals (ascending, by construction) of frames
  // that are zero-copy descriptors; those get pad == 1 on the wire so the
  // receiver knows to resolve them against the slab instead of treating the
  // 16 descriptor bytes as the payload.
  const std::vector<std::size_t>& zc = zc_out_[sp];
  std::size_t zi = 0;
  std::size_t ordinal = 0;
  ob.for_each_frame([&](const MessageArena::Frame& f) {
    WireFrameHeader h;
    h.seq = f.seq;
    h.pad = 0;
    if (zi < zc.size() && zc[zi] == ordinal) {
      h.pad = 1;
      ++zi;
    }
    h.len = f.len;
    append_bytes(hdr_out_, &h, sizeof(h));
    ++ordinal;
  });
  zc_out_[sp].clear();
  send_iov_.clear();
  send_iov_.push_back({&ss.send_pre, sizeof(StagePreamble)});
  if (!hdr_out_.empty()) {
    send_iov_.push_back({hdr_out_.data(), hdr_out_.size()});
  }
  ob.for_each_payload_span([&](const std::byte* ptr, std::size_t len) {
    send_iov_.push_back({const_cast<std::byte*>(ptr), len});
  });
  // The arena stays live (it backs the iovec) until pump_send retires the
  // last entry and clears it.
  ss.send_arena = &ob;
  mesh_->grow_kernel_buffer(
      pid_, static_cast<int>(sp), /*send_side=*/true,
      sizeof(StagePreamble) +
          static_cast<std::size_t>(ss.send_pre.header_bytes) +
          static_cast<std::size_t>(ss.send_pre.payload_bytes));
}

std::optional<FaultInjector::Decision> ExchangeEngine::syscall_fault(
    WorkerState& st, const StageState& ss, FaultSite site, int peer,
    std::uint64_t moved) {
  FaultInjector* inj = injector();
  if (inj == nullptr) return std::nullopt;
  FaultContext ctx;
  ctx.rank = st.pid;
  ctx.superstep = st.superstep;
  ctx.stage = ss.k;
  ctx.peer = peer;
  auto d = inj->before_call(site, ctx);
  if (!d) return std::nullopt;
  st.injected_faults += 1;
  switch (d->kind) {
    case FaultKind::DelayUs:
      std::this_thread::sleep_for(std::chrono::microseconds(d->arg));
      return std::nullopt;  // proceed normally after the stall
    case FaultKind::PeerHangup:
      // Shut down our end of the stream: the peer observes EOF and we
      // observe EPIPE/EOF on the next real call — a bidirectional death.
      ::shutdown(links_[static_cast<std::size_t>(peer)].fd, SHUT_RDWR);
      if (links_[static_cast<std::size_t>(peer)].ring != nullptr) {
        // The shm data path is memory, so a severed control channel is only
        // noticed on the idle path — which a busy run may never reach. Fail
        // here, deterministically, like the socket backends' next I/O would.
        throw BspTransportError(
            "injected peer hangup severed the shm control channel", st.pid,
            peer, static_cast<std::int64_t>(st.superstep), ss.k, /*err=*/0,
            moved);
      }
      return std::nullopt;
    case FaultKind::Abort:
      throw BspTransportError(
          std::string("injected abort at ") + to_string(site), st.pid, peer,
          static_cast<std::int64_t>(st.superstep), ss.k, /*err=*/0, moved);
    default:
      return d;  // Eintr / Eagain / ShortIo: the pump loop acts these out
  }
}

void ExchangeEngine::maybe_corrupt(WorkerState& st, const StageState& ss,
                                   int src, std::byte* buf, std::size_t n) {
  FaultInjector* inj = injector();
  if (inj == nullptr || n == 0) return;
  FaultContext ctx;
  ctx.rank = st.pid;
  ctx.superstep = st.superstep;
  ctx.stage = ss.k;
  ctx.peer = src;
  if (const auto off = inj->corrupt_offset(FaultSite::RecvCall, ctx)) {
    st.injected_faults += 1;
    buf[static_cast<std::size_t>(*off) % n] ^= std::byte{0xA5};
  }
}

ssize_t ExchangeEngine::link_write(WorkerState& st, const StageState& ss,
                                   int peer, const iovec* iov,
                                   std::size_t cnt) {
  const Link& l = links_[static_cast<std::size_t>(peer)];
  if (l.ring != nullptr) {
    // The same sectioned iovec list streams into the pair's SPSC ring with
    // plain memcpy; a full ring is the EAGAIN analogue. No syscall happens,
    // so wire_syscalls stays untouched — that IS the shm headline metric.
    return static_cast<ssize_t>(shm_ring_write(
        l.ring->send, iov, cnt, std::numeric_limits<std::size_t>::max()));
  }
  msghdr mh{};
  mh.msg_iov = const_cast<iovec*>(iov);
  mh.msg_iovlen = static_cast<decltype(mh.msg_iovlen)>(cnt);
  const ssize_t n = ::sendmsg(l.fd, &mh, MSG_NOSIGNAL);
  if (n > 0) {
    // Counts only calls that moved bytes: idle EAGAIN probes are a property
    // of the waiting policy, not of the wire format's syscall economy, and
    // would make the metric timing-dependent.
    ++st.wire_syscalls;
    return n;
  }
  if (n < 0 && errno == EINTR) return -1;
  if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return 0;
  throw BspTransportError(
      "stage send failed (peer dead?)", st.pid, peer,
      static_cast<std::int64_t>(st.superstep), ss.k, errno, ss.send_moved);
}

ssize_t ExchangeEngine::link_read(WorkerState& st, const StageState& ss,
                                  int src, const iovec* iov, std::size_t cnt) {
  const Link& l = links_[static_cast<std::size_t>(src)];
  if (l.ring != nullptr) {
    // Drain the pair's SPSC ring with plain memcpy; an empty ring is the
    // EAGAIN analogue (peer death surfaces on the idle path via the control
    // channel, not here). No syscall, no wire_syscalls.
    return static_cast<ssize_t>(shm_ring_read_iov(
        l.ring->recv, iov, cnt, std::numeric_limits<std::size_t>::max()));
  }
  const ssize_t n = ::readv(l.fd, iov, static_cast<int>(cnt));
  if (n > 0) {
    ++st.wire_syscalls;  // like the send side: only calls that moved bytes
    return n;
  }
  if (n == 0) {
    throw BspTransportError(
        "peer closed its endpoint mid-stage (peer death)", st.pid, src,
        static_cast<std::int64_t>(st.superstep), ss.k, /*err=*/0,
        ss.recv_moved);
  }
  if (errno == EINTR) return -1;
  if (errno == EAGAIN || errno == EWOULDBLOCK) return 0;
  throw BspTransportError("stage recv failed", st.pid, src,
                          static_cast<std::int64_t>(st.superstep), ss.k, errno,
                          ss.recv_moved);
}

std::size_t ExchangeEngine::pump_send(WorkerState& st, StageState& ss) {
  const int peer = send_peer(ss);
  std::size_t moved = 0;
  while (!ss.send_done) {
    if (ss.send_idx == send_iov_.size()) {
      // Whole stage is in the kernel's hands; the staging arena's bytes have
      // been read, so it can recycle its slabs for the next superstep.
      if (ss.send_arena != nullptr) ss.send_arena->clear();
      ss.send_arena = nullptr;
      ss.send_done = true;
      break;
    }
    const iovec* iov = send_iov_.data() + ss.send_idx;
    std::size_t cnt = std::min(send_iov_.size() - ss.send_idx, iov_max());
    iovec clamped{};
    if (const auto d = syscall_fault(st, ss, FaultSite::SendCall, peer,
                                     ss.send_moved)) {
      if (d->kind == FaultKind::Eintr) continue;   // as if sendmsg -> EINTR
      if (d->kind == FaultKind::Eagain) break;     // as if sendmsg -> EAGAIN
      if (d->kind == FaultKind::ShortIo) {
        // Truncated transfer: offer a prefix of the current entry,
        // exercising the partial-I/O resume path.
        clamped = *iov;
        clamped.iov_len = std::min<std::size_t>(
            clamped.iov_len, std::max<std::uint64_t>(d->arg, 1));
        iov = &clamped;
        cnt = 1;
      }
    }
    const ssize_t n = link_write(st, ss, peer, iov, cnt);
    if (n < 0) continue;  // EINTR
    if (n == 0) break;    // EAGAIN or a full ring
    advance_iov(send_iov_, ss.send_idx, static_cast<std::size_t>(n));
    moved += static_cast<std::size_t>(n);
    ss.send_moved += static_cast<std::uint64_t>(n);
    st.wire_bytes += static_cast<std::uint64_t>(n);
  }
  return moved;
}

void ExchangeEngine::parse_header_block(WorkerState& st, StageState& ss,
                                        int src) {
  const std::size_t count = static_cast<std::size_t>(ss.recv_pre.count);
  // First pass validates every header before a single arena append: a
  // corrupt stream must not size allocations or leave half-parsed frames.
  const bool zc_link = links_[static_cast<std::size_t>(src)].ring != nullptr;
  std::uint64_t sum = 0;
  for (std::size_t i = 0; i < count; ++i) {
    WireFrameHeader h;
    std::memcpy(&h, hdr_in_.data() + i * sizeof(WireFrameHeader), sizeof(h));
    // pad == 1 on a 16-byte frame flags a zero-copy descriptor, accepted
    // only on a ring link; every other nonzero pad is corruption.
    if (h.pad != 0 && !(zc_link && h.pad == 1 && h.len == sizeof(ShmZcDesc))) {
      throw BspTransportError(
          "frame header " + std::to_string(i) + " has nonzero pad " +
              std::to_string(h.pad) + " (stream corruption?)",
          st.pid, src, static_cast<std::int64_t>(st.superstep), ss.k,
          /*err=*/0, ss.recv_moved);
    }
    if (h.len > cfg_->socket_max_frame_bytes) {
      throw BspTransportError(
          "frame header " + std::to_string(i) + " claims " +
              std::to_string(h.len) +
              " payload bytes, which exceeds socket_max_frame_bytes (" +
              std::to_string(cfg_->socket_max_frame_bytes) +
              "; stream corruption?)",
          st.pid, src, static_cast<std::int64_t>(st.superstep), ss.k,
          /*err=*/0, ss.recv_moved);
    }
    sum += h.len;
  }
  if (sum != ss.recv_pre.payload_bytes) {
    throw BspTransportError(
        "inconsistent stage: header block sums to " + std::to_string(sum) +
            " payload bytes but the preamble declared " +
            std::to_string(ss.recv_pre.payload_bytes) +
            " (stream corruption?)",
        st.pid, src, static_cast<std::int64_t>(st.superstep), ss.k,
        /*err=*/0, ss.recv_moved);
  }
  // Second pass appends the frames and points an iovec at every non-empty
  // payload slot, so the payload section readv()s straight into the memory
  // the receiver's views will expose. Slots are pointer-stable across
  // appends (slabs never move).
  recv_iov_.clear();
  for (std::size_t i = 0; i < count; ++i) {
    WireFrameHeader h;
    std::memcpy(&h, hdr_in_.data() + i * sizeof(WireFrameHeader), sizeof(h));
    if (h.pad == 1) {
      // The arena ordinal equals the final inbox index (the inbox was
      // cleared at open_boundary and publish appends the whole arena), so
      // this is where apply_zc_views finds the descriptor to resolve.
      zc_in_.push_back({inbox_arena_.message_count(), src});
    }
    std::byte* slot =
        inbox_arena_.append(static_cast<std::uint32_t>(src), h.seq,
                            static_cast<std::size_t>(h.len));
    if (h.len != 0) {
      recv_iov_.push_back({slot, static_cast<std::size_t>(h.len)});
    }
  }
  ss.recv_idx = 0;
  ss.phase = recv_iov_.empty() ? StageState::Phase::Done
                               : StageState::Phase::Payload;
}

std::size_t ExchangeEngine::pump_recv(WorkerState& st, StageState& ss) {
  const int src = recv_peer(ss);
  std::size_t moved = 0;
  while (!ss.recv_done) {
    if (ss.phase == StageState::Phase::Done) {
      ss.recv_done = true;
      break;
    }
    // Where the current section lands: the preamble scratch, the whole
    // remaining header block in one bulk read (the receive-side win over a
    // per-frame state machine), or the payload slots in the inbox arena.
    iovec one{};
    const iovec* iov = &one;
    std::size_t cnt = 1;
    switch (ss.phase) {
      case StageState::Phase::Preamble:
        one = {ss.scratch + ss.scratch_off,
               sizeof(StagePreamble) - ss.scratch_off};
        break;
      case StageState::Phase::Headers:
        one = {hdr_in_.data() + ss.hdr_off, hdr_in_.size() - ss.hdr_off};
        break;
      case StageState::Phase::Payload:
        iov = recv_iov_.data() + ss.recv_idx;
        cnt = std::min(recv_iov_.size() - ss.recv_idx, iov_max());
        break;
      case StageState::Phase::Done:
        break;
    }
    if (const auto d = syscall_fault(st, ss, FaultSite::RecvCall, src,
                                     ss.recv_moved)) {
      if (d->kind == FaultKind::Eintr) continue;  // as if recv -> EINTR
      if (d->kind == FaultKind::Eagain) break;    // as if recv -> EAGAIN
      if (d->kind == FaultKind::ShortIo) {
        one = *iov;
        one.iov_len = std::min<std::size_t>(one.iov_len,
                                            std::max<std::uint64_t>(d->arg, 1));
        iov = &one;
        cnt = 1;
      }
    }
    const ssize_t n = link_read(st, ss, src, iov, cnt);
    if (n < 0) continue;  // EINTR
    if (n == 0) break;    // EAGAIN or an empty ring
    const std::size_t got = static_cast<std::size_t>(n);
    moved += got;
    ss.recv_moved += static_cast<std::uint64_t>(got);
    switch (ss.phase) {
      case StageState::Phase::Preamble:
        ss.scratch_off += got;
        if (ss.scratch_off == sizeof(StagePreamble)) {
          // Corruption fires on completed control sections — the validation
          // path must be the thing that catches the garbled byte.
          maybe_corrupt(st, ss, src, ss.scratch, sizeof(StagePreamble));
          std::memcpy(&ss.recv_pre, ss.scratch, sizeof(ss.recv_pre));
          // Cross-check the sections against each other before trusting any
          // of the preamble's lengths.
          if (ss.recv_pre.header_bytes > kMaxHeaderBlockBytes) {
            throw BspTransportError(
                "stage preamble claims a " +
                    std::to_string(ss.recv_pre.header_bytes) +
                    "-byte header block (stream corruption?)",
                st.pid, src, static_cast<std::int64_t>(st.superstep), ss.k,
                /*err=*/0, ss.recv_moved);
          }
          if (ss.recv_pre.count !=
              ss.recv_pre.header_bytes / sizeof(WireFrameHeader) ||
              ss.recv_pre.header_bytes % sizeof(WireFrameHeader) != 0) {
            throw BspTransportError(
                "inconsistent stage preamble: count " +
                    std::to_string(ss.recv_pre.count) +
                    " vs header block of " +
                    std::to_string(ss.recv_pre.header_bytes) +
                    " bytes (stream corruption?)",
                st.pid, src, static_cast<std::int64_t>(st.superstep), ss.k,
                /*err=*/0, ss.recv_moved);
          }
          if (ss.recv_pre.count == 0) {
            if (ss.recv_pre.payload_bytes != 0) {
              throw BspTransportError(
                  "stage preamble declares " +
                      std::to_string(ss.recv_pre.payload_bytes) +
                      " payload bytes with zero frames (stream corruption?)",
                  st.pid, src, static_cast<std::int64_t>(st.superstep), ss.k,
                  /*err=*/0, ss.recv_moved);
            }
            ss.phase = StageState::Phase::Done;
          } else {
            hdr_in_.resize(
                static_cast<std::size_t>(ss.recv_pre.header_bytes));
            ss.hdr_off = 0;
            mesh_->grow_kernel_buffer(
                pid_, src, /*send_side=*/false,
                sizeof(StagePreamble) +
                    static_cast<std::size_t>(ss.recv_pre.header_bytes) +
                    static_cast<std::size_t>(ss.recv_pre.payload_bytes));
            ss.phase = StageState::Phase::Headers;
          }
        }
        break;
      case StageState::Phase::Headers:
        ss.hdr_off += got;
        if (ss.hdr_off == hdr_in_.size()) {
          maybe_corrupt(st, ss, src, hdr_in_.data(), hdr_in_.size());
          parse_header_block(st, ss, src);
        }
        break;
      case StageState::Phase::Payload:
        advance_iov(recv_iov_, ss.recv_idx, got);
        if (ss.recv_idx == recv_iov_.size()) {
          ss.phase = StageState::Phase::Done;
        }
        break;
      case StageState::Phase::Done:
        break;
    }
    if (ss.phase == StageState::Phase::Done) ss.recv_done = true;
  }
  return moved;
}

bool ExchangeEngine::peer_closed(WorkerState& st, const StageState& ss,
                                 int peer) {
  const int fd = links_[static_cast<std::size_t>(peer)].fd;
  if (fd < 0) return false;
  char b;
  const ssize_t r = ::recv(fd, &b, 1, MSG_PEEK | MSG_DONTWAIT);
  // EOF on the bootstrap control stream: the peer process exited (or its
  // endpoints were killed).
  if (r == 0) return true;
  if (r > 0) {
    // Nothing is ever sent on the control stream after bootstrap.
    throw BspTransportError(
        "unexpected bytes on the shm control channel (stream corruption?)",
        st.pid, peer, static_cast<std::int64_t>(st.superstep), ss.k,
        /*err=*/0, ss.send_moved + ss.recv_moved);
  }
  if (errno != EAGAIN && errno != EWOULDBLOCK && errno != EINTR) {
    throw BspTransportError("shm control channel failed", st.pid, peer,
                            static_cast<std::int64_t>(st.superstep), ss.k,
                            errno, ss.send_moved + ss.recv_moved);
  }
  return false;
}

void ExchangeEngine::run_stage(WorkerState& st, StageState& ss) {
  using Clock = std::chrono::steady_clock;
  const Link& out = links_[static_cast<std::size_t>(send_peer(ss))];
  const Link& in = links_[static_cast<std::size_t>(recv_peer(ss))];
  // Rings are memory: there is nothing to poll, so an idle ring stage naps
  // and probes the control streams instead.
  const bool rings = out.ring != nullptr || in.ring != nullptr;
  auto last_progress = Clock::now();
  std::size_t backoff_ms = cfg_->socket_backoff_initial_ms;
  // The shm idle nap is microsecond-scale: unlike poll(), which wakes the
  // moment the peer writes, a sleep against a memory ring is blind — the
  // full nap is paid even if the ring fills immediately. Millisecond naps
  // would dominate every stage on an oversubscribed host (ranks > cores),
  // where a peer is one scheduler quantum — not one poll wake-up — away.
  constexpr std::size_t kShmNapInitialUs = 50;
  std::size_t backoff_us = kShmNapInitialUs;
  for (;;) {
    // Pump both directions each round: interleaving is what makes the
    // full-duplex stage deadlock-free when transfers exceed kernel buffers
    // (everyone drains the stream they are the stage-k reader of).
    std::size_t moved = 0;
    if (!ss.send_done) moved += pump_send(st, ss);
    if (!ss.recv_done) moved += pump_recv(st, ss);
    if (ss.send_done && ss.recv_done) return;
    if (moved != 0) {
      last_progress = Clock::now();
      backoff_ms = cfg_->socket_backoff_initial_ms;
      backoff_us = kShmNapInitialUs;
      continue;
    }
    if (abort_ != nullptr && abort_->load(std::memory_order_acquire)) {
      throw BspAborted{};
    }
    const auto idle = Clock::now() - last_progress;
    if (idle > std::chrono::milliseconds(cfg_->socket_stage_timeout_ms)) {
      throw BspTransportError(
          "stage made no progress for " +
              std::to_string(cfg_->socket_stage_timeout_ms) +
              " ms (peer dead or wedged)",
          st.pid, recv_peer(ss), static_cast<std::int64_t>(st.superstep),
          ss.k, /*err=*/0, ss.send_moved + ss.recv_moved);
    }
    // Adaptive wait: a peer in the same boundary is typically microseconds
    // away, so retry the non-blocking pumps for the spin budget (yielding
    // the core each round for oversubscribed hosts) before paying a poll.
    // On shm the spin budget is stretched: a yield round-robins the ranks
    // sharing the host's cores (each yield is a cheap handoff to a peer that
    // may be about to write this ring), where a nap is a blind wait.
    const std::size_t spin_us =
        rings ? cfg_->socket_spin_us * 64 : cfg_->socket_spin_us;
    if (idle < std::chrono::microseconds(spin_us)) {
      std::this_thread::yield();
      continue;
    }
    if (rings) {
      // Past the spin budget, probe the bootstrap control channels for peer
      // death (the one failure the data path cannot observe), then sleep
      // with the same bounded exponential backoff the socket path uses.
      // These probes only run while idle, so the zero-syscall steady state
      // is preserved.
      int dead = -1;
      if (!ss.send_done && peer_closed(st, ss, send_peer(ss))) {
        dead = send_peer(ss);
      } else if (!ss.recv_done && peer_closed(st, ss, recv_peer(ss))) {
        dead = recv_peer(ss);
      }
      if (dead >= 0) {
        // A peer that already wrote its whole last stage may finish and
        // tear down between the empty pump above and this probe: drain once
        // more, and report a death only if the stage still cannot complete.
        if (!ss.send_done) pump_send(st, ss);
        if (!ss.recv_done) pump_recv(st, ss);
        if (ss.send_done && ss.recv_done) return;
        throw BspTransportError(
            "peer closed its endpoint mid-stage (peer death)", st.pid, dead,
            static_cast<std::int64_t>(st.superstep), ss.k, /*err=*/0,
            ss.send_moved + ss.recv_moved);
      }
      if (const auto d = syscall_fault(st, ss, FaultSite::PollCall,
                                       recv_peer(ss), 0)) {
        (void)d;  // Eintr/Eagain: skip this wait round
        backoff_us = std::min(backoff_us * 2,
                              cfg_->socket_backoff_max_ms * 1000);
        continue;
      }
      std::this_thread::sleep_for(std::chrono::microseconds(backoff_us));
      backoff_us =
          std::min(backoff_us * 2, cfg_->socket_backoff_max_ms * 1000);
      continue;
    }
    // Idle past the spin budget: wait for either direction to open up,
    // bounded so aborts and timeouts are noticed (bounded exponential
    // backoff).
    struct pollfd fds[2];
    nfds_t nfds = 0;
    if (!ss.send_done) {
      fds[nfds].fd = out.fd;
      fds[nfds].events = POLLOUT;
      fds[nfds].revents = 0;
      ++nfds;
    }
    if (!ss.recv_done) {
      if (nfds == 1 && fds[0].fd == in.fd) {
        fds[0].events |= POLLIN;
      } else {
        fds[nfds].fd = in.fd;
        fds[nfds].events = POLLIN;
        fds[nfds].revents = 0;
        ++nfds;
      }
    }
    if (const auto d = syscall_fault(st, ss, FaultSite::PollCall,
                                     recv_peer(ss), 0)) {
      // Eintr/Eagain: skip this poll round as if it was interrupted; the
      // loop re-pumps and re-polls with the next backoff step.
      (void)d;
      backoff_ms = std::min(backoff_ms * 2, cfg_->socket_backoff_max_ms);
      continue;
    }
    if (::poll(fds, nfds, static_cast<int>(backoff_ms)) < 0 &&
        errno != EINTR) {
      // A real poll failure (EBADF after an injected hangup, ENOMEM) must be
      // diagnosed, not spun on: retrying would busy-loop until the stage
      // timeout with no chance of progress.
      throw BspTransportError("poll on stage sockets failed", st.pid,
                              recv_peer(ss),
                              static_cast<std::int64_t>(st.superstep), ss.k,
                              errno, ss.send_moved + ss.recv_moved);
    }
    backoff_ms = std::min(backoff_ms * 2, cfg_->socket_backoff_max_ms);
  }
}

bool ExchangeEngine::pump_window(WorkerState& st) {
  bool moved_any = true;
  while (!split_done_ && moved_any) {
    StageState& ss = split_ss_;
    std::size_t moved = 0;
    if (!ss.send_done) moved += pump_send(st, ss);
    if (!ss.recv_done) moved += pump_recv(st, ss);
    if (ss.send_done && ss.recv_done) {
      if (ss.k + 1 < nprocs_) {
        begin_stage(ss, ss.k + 1);
        continue;  // the fresh stage may be able to move bytes right away
      }
      split_done_ = true;
      break;
    }
    moved_any = moved != 0;
  }
  return split_done_;
}

void ExchangeEngine::begin_window(WorkerState& st) {
  open_boundary(st);
  split_done_ = (nprocs_ == 1);
  if (!split_done_) {
    begin_stage(split_ss_, 1);
    // One opportunistic pass before handing control back: with kernel
    // buffers sized to the stage, small exchanges are often fully on the
    // wire before the caller's overlapped compute even starts.
    pump_window(st);
  }
}

void ExchangeEngine::finish_window(WorkerState& st) {
  while (!split_done_) {
    // run_stage resumes the in-flight stage mid-transfer — the iovec
    // cursors and receive phase pick up exactly where the window's last
    // pump left them.
    run_stage(st, split_ss_);
    if (split_ss_.k + 1 < nprocs_) {
      begin_stage(split_ss_, split_ss_.k + 1);
    } else {
      split_done_ = true;
    }
  }
}

}  // namespace detail
}  // namespace gbsp
