// Arena-backed message storage: the zero-allocation BSP message path.
//
// Motivation (paper Section 2): the BSP cost model charges an h-relation at
// `gH` — but a runtime that heap-allocates per message pays the allocator,
// not the network, for the paper's fine-grained 16-byte-packet applications.
// A MessageArena stores messages as (source, seq, len, payload) frames
// appended contiguously into a chain of recycled slabs:
//
//   * payloads <= kInlineCapacity (32 B) live inline in the frame record —
//     one bump-pointer advance and one memcpy per send, no indirection on
//     receipt;
//   * larger payloads are carved from a geometrically growing byte-slab
//     chain and referenced by the frame (pointer-stable: slabs never move);
//   * slabs come from a SlabPool free-list shared by every arena of one
//     Runtime, so buffers are recycled across supersteps and across
//     Runtime::run() calls — steady-state supersteps allocate nothing.
//
// Delivery moves whole arenas: the Deferred strategy swaps a sender's filled
// outbox arena against the receiver's drained one; the Eager strategy splices
// slab chains into the receiver's parity inbuf under its chunk lock; the
// staged transports stream arenas through for_each_payload_span and clear
// them in place, swapping only the self-addressed outbox. Payload
// pointers handed to applications (Message views, bspGetPkt) stay valid until
// the owning worker's next sync(), when the backing arena is cleared or its
// slabs are returned to the pool.
//
// Alignment: every payload pointer is at least 8-byte aligned (inline slots
// sit at offset 24 of an 8-byte-aligned frame; out-of-line slots are rounded
// to 16), so applications may overlay 8-byte-aligned PODs directly.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <mutex>
#include <new>
#include <utility>
#include <vector>

namespace gbsp {

/// A contiguous recycled block. Once allocated a slab never moves or shrinks,
/// so pointers into it stay valid until it is destroyed (Runtime teardown).
struct ArenaSlab {
  std::unique_ptr<std::byte[]> data;
  std::size_t capacity = 0;
  std::size_t used = 0;
};

/// Thread-safe slab free-list shared by all arenas of one Runtime. The pool
/// is the recycling hub: arenas acquire slabs as they grow and release them
/// when their contents have been consumed, so after warm-up every acquire is
/// served without touching the system allocator.
class SlabPool {
 public:
  /// Smallest slab ever handed out; requests are rounded up to a multiple.
  static constexpr std::size_t kMinSlabBytes = 4096;

  /// Returns a slab with capacity >= min_bytes (used == 0). Reuses a free
  /// slab when one is big enough, else heap-allocates.
  ArenaSlab acquire(std::size_t min_bytes);

  /// Returns a slab to the free list for reuse.
  void release(ArenaSlab&& slab);

  // Observability for tests and zero-allocation assertions.
  [[nodiscard]] std::uint64_t fresh_allocations() const;
  [[nodiscard]] std::uint64_t reuses() const;
  [[nodiscard]] std::size_t free_slabs() const;
  [[nodiscard]] std::size_t free_bytes() const;

 private:
  mutable std::mutex mu_;
  std::vector<ArenaSlab> free_;
  std::uint64_t fresh_ = 0;
  std::uint64_t reused_ = 0;
};

/// Append-only frame store for one direction of BSP traffic. Not thread-safe;
/// concurrent access is serialized by the runtime (per-destination staging
/// arenas are sender-private, inbuf splicing happens under the receiver's
/// chunk lock, and swaps happen after the superstep barrier, on the parity
/// no sender is writing).
class MessageArena {
 public:
  /// Payloads up to this size are stored inline in the frame record.
  static constexpr std::size_t kInlineCapacity = 32;

  /// One message frame. Fixed-size records keep iteration a stride walk and
  /// the inline fast path branch-light.
  struct Frame {
    std::uint32_t source;            ///< pid of the sender
    std::uint32_t seq;               ///< per (source, dest) sequence number
    std::uint64_t len;               ///< payload bytes
    const std::byte* ext;            ///< out-of-line payload when len > 32
    std::byte inl[kInlineCapacity];  ///< inline payload when len <= 32

    [[nodiscard]] const std::byte* payload() const {
      return len <= kInlineCapacity ? inl : ext;
    }
  };
  static_assert(sizeof(Frame) == 56, "frame layout drifted");

  MessageArena() = default;
  explicit MessageArena(SlabPool* pool) : pool_(pool) {}
  ~MessageArena() { release_slabs(); }

  MessageArena(const MessageArena&) = delete;
  MessageArena& operator=(const MessageArena&) = delete;
  MessageArena(MessageArena&& o) noexcept { *this = std::move(o); }
  MessageArena& operator=(MessageArena&& o) noexcept {
    if (this != &o) {
      release_slabs();
      pool_ = o.pool_;
      frame_slabs_ = std::move(o.frame_slabs_);
      byte_slabs_ = std::move(o.byte_slabs_);
      frame_active_ = o.frame_active_;
      byte_active_ = o.byte_active_;
      frames_ = o.frames_;
      payload_bytes_ = o.payload_bytes_;
      next_slab_bytes_ = o.next_slab_bytes_;
      o.frame_slabs_.clear();
      o.byte_slabs_.clear();
      o.reset_counters();
    }
    return *this;
  }

  /// (Re)binds the arena to a pool. Only valid while the arena holds no slabs.
  void bind(SlabPool* pool) { pool_ = pool; }

  /// Appends a frame and returns the writable payload slot of `len` bytes
  /// (non-null even for len == 0). The slot is stable until release_slabs()
  /// or Runtime teardown; clear() recycles it for new frames.
  /// Inline: this is the per-message send path — one bounds check and a
  /// bump-pointer advance in the common (inline-payload, slab-has-room) case.
  std::byte* append(std::uint32_t source, std::uint32_t seq, std::size_t len) {
    Frame* f;
    if (!frame_slabs_.empty()) {
      ArenaSlab& s = frame_slabs_[frame_active_];
      if (s.capacity - s.used >= sizeof(Frame)) {
        f = new (s.data.get() + s.used) Frame;
        s.used += sizeof(Frame);
      } else {
        f = grow_frame();
      }
    } else {
      f = grow_frame();
    }
    f->source = source;
    f->seq = seq;
    f->len = len;
    std::byte* slot = f->inl;
    if (len > kInlineCapacity) {
      slot = out_of_line(len);
      f->ext = slot;
    } else {
      f->ext = nullptr;
    }
    ++frames_;
    payload_bytes_ += len;
    return slot;
  }

  /// Drops all frames but keeps the slabs for refilling — the steady-state
  /// recycling path between supersteps.
  void clear();

  /// Returns every slab to the pool (or frees them when unpooled).
  void release_slabs();

  /// Moves all of `other`'s slabs — and therefore all its frames, without
  /// copying a byte — onto the end of this arena. `other` is left empty with
  /// no slabs. Frame order: this arena's frames, then `other`'s.
  void splice_from(MessageArena& other);

  [[nodiscard]] std::size_t message_count() const { return frames_; }
  [[nodiscard]] std::size_t payload_bytes() const { return payload_bytes_; }
  [[nodiscard]] bool empty() const { return frames_ == 0; }
  [[nodiscard]] std::size_t slab_count() const {
    return frame_slabs_.size() + byte_slabs_.size();
  }

  /// Visits frames in append (and splice) order.
  template <typename F>
  void for_each_frame(F&& f) const {
    for (const ArenaSlab& s : frame_slabs_) {
      const std::size_t n = s.used / sizeof(Frame);
      const Frame* frames = reinterpret_cast<const Frame*>(s.data.get());
      for (std::size_t i = 0; i < n; ++i) f(frames[i]);
    }
  }

  /// Visits the payload bytes of every non-empty frame, in frame order, as
  /// (pointer, length) spans suitable for scatter-gather I/O (iovec
  /// entries); the span lengths sum to payload_bytes(). Inline payloads sit
  /// between frame metadata, so each is first copied to the next free byte
  /// of `pack`, which is resized to hold them all and must stay untouched
  /// while the spans are in use; out-of-line payloads are visited where they
  /// lie. Physically adjacent payloads coalesce into one span: a run of
  /// inline payloads walks as one span of `pack`, and a burst of
  /// 16-byte-multiple out-of-line payloads, which sit back-to-back in the
  /// byte slabs, as one span per slab.
  template <typename F>
  void for_each_payload_span(std::vector<std::byte>& pack, F&& f) const {
    pack.resize(std::min(payload_bytes_, frames_ * kInlineCapacity));
    std::byte* next = pack.data();
    const std::byte* run = nullptr;
    std::size_t run_len = 0;
    for_each_frame([&](const Frame& fr) {
      if (fr.len == 0) return;
      const std::size_t len = static_cast<std::size_t>(fr.len);
      const std::byte* p = fr.ext;
      if (len <= kInlineCapacity) {
        std::memcpy(next, fr.inl, len);
        p = next;
        next += len;
      }
      if (p == run + run_len) {
        run_len += len;
        return;
      }
      if (run_len != 0) f(run, run_len);
      run = p;
      run_len = len;
    });
    if (run_len != 0) f(run, run_len);
  }

 private:
  void reset_counters() {
    frame_active_ = 0;
    byte_active_ = 0;
    frames_ = 0;
    payload_bytes_ = 0;
    next_slab_bytes_ = SlabPool::kMinSlabBytes;
  }
  ArenaSlab acquire(std::size_t min_bytes);
  Frame* grow_frame();
  std::byte* out_of_line(std::size_t len);

  SlabPool* pool_ = nullptr;
  // Invariant (append mode): slabs after the active index have used == 0.
  std::vector<ArenaSlab> frame_slabs_;
  std::vector<ArenaSlab> byte_slabs_;
  std::size_t frame_active_ = 0;
  std::size_t byte_active_ = 0;
  std::size_t frames_ = 0;
  std::size_t payload_bytes_ = 0;
  // Geometric growth: each fresh acquisition doubles the request (bounded),
  // so bursty supersteps settle into O(log burst) slabs.
  std::size_t next_slab_bytes_ = SlabPool::kMinSlabBytes;
};

}  // namespace gbsp
