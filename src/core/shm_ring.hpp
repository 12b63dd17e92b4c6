// Shared-memory SPSC byte rings: the data plane of the Shm transport.
//
// Each ordered rank pair (i -> j) owns one direction block inside an mmap'd
// memfd segment created at bootstrap (core/mesh.hpp, ShmMesh). A direction
// block is a control page of monotonic atomic cursors and parked flags, a
// byte ring the staged exchange's sectioned wire bytes stream through, and a
// zero-copy payload slab whose two halves recycle on alternating boundary
// epochs.
//
// Cursor discipline (classic SPSC): `tail` counts bytes ever produced,
// `head` bytes ever consumed; both only grow, and ring positions are the
// counters modulo capacity, so the full/empty ambiguity of wrapped indices
// never arises. The producer writes payload bytes first and publishes with a
// store of tail; the consumer copies, and publishes consumption with a store
// of head. Those two stores are the whole steady-state data path: no futex,
// no pipe, no syscall.
//
// Doorbells. A rank that waits on a ring past its spin schedule parks in
// poll() on the pair's control stream (the AF_UNIX bootstrap socket), after
// raising a parked flag in the ring's control block: `reader_parked` on the
// ring it reads, `writer_parked` on the ring it writes. The two ring
// functions below, after moving the cursor the parked side waits on, check
// the other side's flag; when it is raised they exchange it to 0 and send
// one doorbell byte on the control stream. Both sides order their store
// before their load with sequentially consistent operations (a Dekker
// handshake), so either the parker's re-check sees the moved cursor or the
// mover sees the flag — a wake-up is never lost, and while nobody is
// parked the data path makes no syscall. The waiting policy is
// detail::Waiter's (core/exchange_engine.hpp).
//
// `boundaries_opened` is the direction's zero-copy epoch feedback channel:
// the CONSUMER stores its count of opened superstep boundaries (the moment
// delivered inbox views die), and the producer reads it to decide when a
// slab half may be recycled. See DESIGN.md section 15.
#pragma once

#include <sys/socket.h>  // send
#include <sys/uio.h>     // iovec

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstring>

namespace gbsp {
namespace detail {

/// Control block at the head of one direction block, one atomic per cache
/// line, so a store by one side never bounces a line the other side only
/// reads: the producer owns tail, the consumer head and reader_parked, and
/// the producer writer_parked (each flag is cleared by the other side when
/// it rings the doorbell).
struct ShmRingCtl {
  alignas(64) std::atomic<std::uint64_t> tail;  // bytes ever produced
  alignas(64) std::atomic<std::uint64_t> head;  // bytes ever consumed
  /// Written by the CONSUMER of this direction: how many superstep
  /// boundaries it has opened since the segment was mapped. Opening boundary
  /// b invalidates the inbox views delivered at boundary b-1, so the
  /// producer may reuse the slab half of epoch e once this reads >= e.
  alignas(64) std::atomic<std::uint64_t> boundaries_opened;
  /// 1 while the consumer is parked waiting for bytes.
  alignas(64) std::atomic<std::uint32_t> reader_parked;
  /// 1 while the producer is parked waiting for space.
  alignas(64) std::atomic<std::uint32_t> writer_parked;
};
static_assert(sizeof(ShmRingCtl) == 320, "shm ring control layout drifted");
static_assert(std::atomic<std::uint64_t>::is_always_lock_free &&
                  std::atomic<std::uint32_t>::is_always_lock_free,
              "shm rings need lock-free atomics");

/// One direction of a pair, as seen from either end: control block, ring
/// storage, and the zero-copy slab. All pointers alias the shared mapping.
struct ShmDirView {
  ShmRingCtl* ctl = nullptr;
  std::byte* ring = nullptr;
  std::size_t ring_cap = 0;
  std::byte* slab = nullptr;
  std::size_t slab_cap = 0;
};

/// Both directions of this rank's pair with one peer: `send` is the
/// direction this rank produces into, `recv` the one it consumes.
struct ShmPairView {
  ShmDirView send;
  ShmDirView recv;
};

/// Wakes the peer parked on `parked`, if any: clears the flag and sends one
/// doorbell byte on `bell_fd`. The send never blocks and its errors are
/// ignored: a full stream already holds a doorbell, and a closed one means
/// the peer is gone.
inline void ring_doorbell(std::atomic<std::uint32_t>& parked, int bell_fd) {
  if (parked.load(std::memory_order_seq_cst) != 0 &&
      parked.exchange(0, std::memory_order_seq_cst) != 0) {
    const char bell = 0;
    (void)::send(bell_fd, &bell, 1, MSG_DONTWAIT | MSG_NOSIGNAL);
  }
}

/// Copies `n` bytes between `buf` and the ring at counter position `cursor`:
/// into the ring when `to_ring`, out of it otherwise. At most two memcpys —
/// the run to the ring's end, then the wrap.
inline void shm_ring_copy(const ShmDirView& d, std::uint64_t cursor,
                          std::byte* buf, std::size_t n, bool to_ring) {
  for (std::size_t off = 0; off < n;) {
    const std::size_t pos = static_cast<std::size_t>(cursor % d.ring_cap);
    std::size_t chunk = d.ring_cap - pos;
    if (chunk > n - off) chunk = n - off;
    if (to_ring) {
      std::memcpy(d.ring + pos, buf + off, chunk);
    } else {
      std::memcpy(buf + off, d.ring + pos, chunk);
    }
    off += chunk;
    cursor += chunk;
  }
}

/// Producer side: copies the scatter-gather list into the ring (as much as
/// fits) and publishes the new tail, then rings `bell_fd` if the consumer is
/// parked. Returns bytes written; 0 means the ring is full — the shm
/// analogue of EAGAIN — and owes no doorbell.
inline std::size_t shm_ring_write(ShmDirView& d, const iovec* iov,
                                  std::size_t iovcnt, int bell_fd) {
  const std::uint64_t tail = d.ctl->tail.load(std::memory_order_relaxed);
  const std::uint64_t head = d.ctl->head.load(std::memory_order_acquire);
  const std::size_t space = d.ring_cap - static_cast<std::size_t>(tail - head);
  std::size_t written = 0;
  for (std::size_t e = 0; e < iovcnt && written < space; ++e) {
    std::size_t n = iov[e].iov_len;
    if (n > space - written) n = space - written;
    shm_ring_copy(d, tail + written, static_cast<std::byte*>(iov[e].iov_base),
                  n, /*to_ring=*/true);
    written += n;
  }
  if (written == 0) return 0;
  d.ctl->tail.store(tail + written, std::memory_order_seq_cst);
  ring_doorbell(d.ctl->reader_parked, bell_fd);
  return written;
}

/// Consumer side: fills the scatter-gather list's entries in order from the
/// ring and publishes the new head, then rings `bell_fd` if the producer is
/// parked. Returns bytes read; 0 means the ring is empty and owes no
/// doorbell.
inline std::size_t shm_ring_read_iov(ShmDirView& d, const iovec* iov,
                                     std::size_t iovcnt, int bell_fd) {
  const std::uint64_t head = d.ctl->head.load(std::memory_order_relaxed);
  const std::uint64_t tail = d.ctl->tail.load(std::memory_order_acquire);
  const std::size_t avail = static_cast<std::size_t>(tail - head);
  std::size_t read = 0;
  for (std::size_t e = 0; e < iovcnt && read < avail; ++e) {
    std::size_t n = iov[e].iov_len;
    if (n > avail - read) n = avail - read;
    shm_ring_copy(d, head + read, static_cast<std::byte*>(iov[e].iov_base), n,
                  /*to_ring=*/false);
    read += n;
  }
  if (read == 0) return 0;
  d.ctl->head.store(head + read, std::memory_order_seq_cst);
  ring_doorbell(d.ctl->writer_parked, bell_fd);
  return read;
}

/// On-wire descriptor of a zero-copy frame: what travels through the ring
/// (flagged by WireFrameHeader::pad == 1) instead of the payload itself.
/// `offset` is relative to the direction's slab base.
struct ShmZcDesc {
  std::uint64_t offset;
  std::uint64_t len;
};
static_assert(sizeof(ShmZcDesc) == 16, "zero-copy descriptor layout drifted");

}  // namespace detail
}  // namespace gbsp
