// Collective operations built strictly on top of the three Green BSP
// primitives (send / sync / get), as the paper prescribes: "the BSP and LogP
// models assume a very small set of basic functions and (at least in theory)
// require any other operations to be implemented on top of these functions"
// (Section 1.3).
//
// One layer. The block collectives (broadcast_span, gatherv, allgatherv,
// allreduce_span, alltoallv) are the implementations: each packs everything
// a rank sends one destination into ONE combined message, built in place in
// the transport's per-destination arena (Worker::send_reserve), so a
// collective costs its h-relation — per "A Lower Bound Technique for
// Communication in BSP" the achievable bound — not its message count. The
// one-value collectives (broadcast, gather, allgather, allreduce's
// butterfly) are one-element calls of their block twins: they send the same
// messages in the same supersteps. reduce and inclusive_scan have no block
// twin.
//
// Every collective takes its schedule per call as one CollectiveSchedule.
// Direct and Tree are the paper's trade-off between h-relation size and
// superstep count (Section 1: objectives (2) and (3) "can conflict");
// TwoPhase is alltoallv's Valiant-style route for skewed relations; Auto
// asks the selector, which prices the request under the transport's g/L
// (default_collective_{g,l}_us). See DESIGN.md section 13.
//
// Contract: collectives occupy dedicated supersteps — every processor calls
// the same collective with compatible arguments, and the caller's inbox must
// be fully drained (pending() == 0) on entry.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "core/runtime.hpp"

namespace gbsp {

/// The schedule of one collective call.
enum class CollectiveSchedule {
  /// The selector's choice per call, from the request's actual traffic and
  /// the transport's g/L.
  Auto,
  /// One superstep, every source sends straight to its destinations:
  /// h up to (p-1)*m. Best when L dominates.
  Direct,
  /// Binomial/butterfly trees: ceil(log2 p) supersteps of h = m each. Best
  /// when g dominates. alltoallv treats Tree as Direct.
  Tree,
  /// Valiant-style two-phase gather–scatter routing for skewed alltoallv:
  /// slice every source->dest block over p intermediates, regroup, deliver —
  /// two balanced ~h/p phases instead of one hot-spot phase. alltoallv only;
  /// the other collectives reject it with std::invalid_argument.
  TwoPhase,
};

// --------------------------------------------------------------------------
// Schedule selector: Direct / Tree / TwoPhase from g, L, and the h-relation.
// --------------------------------------------------------------------------

/// Selector cost constants for a transport on this host: fits of the
/// bsp_probe measurements committed in BENCH_transport.json (g in
/// microseconds per 16-byte packet, L in microseconds per boundary). Rough
/// by design — the selector only needs the right order of magnitude to land
/// on the right side of each crossover.
[[nodiscard]] double default_collective_g_us(DeliveryStrategy d, int nprocs);
[[nodiscard]] double default_collective_l_us(DeliveryStrategy d, int nprocs);

/// What the selector decided and the modeled cost of each schedule in
/// microseconds (+infinity for schedules that do not apply to the request).
struct ScheduleChoice {
  CollectiveSchedule schedule = CollectiveSchedule::Direct;
  double direct_us = 0.0;
  double tree_us = 0.0;
  double two_phase_us = 0.0;
};

/// Direct vs Tree for a rooted `bytes`-byte collective (broadcast/reduce):
///   direct = L + g*(p-1)*m   vs   tree = ceil(log2 p) * (L + g*m).
[[nodiscard]] ScheduleChoice evaluate_rooted_schedule(int p, std::size_t bytes,
                                                      double g_us, double l_us,
                                                      std::size_t packet_unit);

/// Direct vs TwoPhase for a personalized all-to-all given the full byte
/// matrix `bytes[src][dst]` (self traffic ignored). `staged` selects the
/// socket staged-exchange cost model — stage k lasts as long as its largest
/// pairwise transfer, sum over stages — versus the barrier-transport
/// h-relation model (max over nodes of fan-in/fan-out packets). The
/// two-phase matrices are derived exactly as the two-phase schedule would
/// slice this request, including the 8-byte per-segment headers.
[[nodiscard]] ScheduleChoice evaluate_alltoallv_schedule(
    const std::vector<std::vector<std::uint64_t>>& bytes, bool staged,
    double g_us, double l_us, std::size_t packet_unit);

namespace detail {

/// Throws std::logic_error naming the collective, the rank, and the pending
/// count when the caller enters a collective with an undrained inbox. Shared
/// by every collective (one definition, core/collectives.cpp).
void require_clean_inbox(Worker& w, const char* what);

/// The schedule a Direct/Tree collective runs for `bytes` payload bytes:
/// Direct and Tree run as given, Auto takes evaluate_rooted_schedule's
/// choice under the transport's default g/L, and TwoPhase (an alltoallv
/// route) throws std::invalid_argument.
[[nodiscard]] CollectiveSchedule rooted_schedule(const Worker& w,
                                                 CollectiveSchedule s,
                                                 std::size_t bytes);

/// Drains a superstep in which every other rank sent this one exactly one
/// message: returns each rank's payload indexed by source, the caller's own
/// slot viewing `self`. Throws std::logic_error "<what>: missing
/// contribution" when a rank's message is absent.
[[nodiscard]] std::vector<ByteView> one_per_source(Worker& w, ByteView self,
                                                   const char* what);

template <typename T>
ByteView view_of(const T* data, std::size_t count) {
  return ByteView{reinterpret_cast<const std::byte*>(data), count * sizeof(T)};
}

/// gatherv's and allgatherv's result: every rank's block concatenated in pid
/// order. When `counts` is non-null, the per-source element counts are
/// written there (size p).
template <typename T>
std::vector<T> concat_blocks(const std::vector<ByteView>& from,
                             std::vector<std::size_t>* counts,
                             const char* what) {
  std::vector<std::size_t> sizes(from.size());
  std::size_t total = 0;
  for (std::size_t s = 0; s < from.size(); ++s) {
    if (from[s].size() % sizeof(T) != 0) {
      throw std::logic_error(std::string(what) + ": ragged payload");
    }
    sizes[s] = from[s].size() / sizeof(T);
    total += sizes[s];
  }
  std::vector<T> out(total);
  std::byte* dst = reinterpret_cast<std::byte*>(out.data());
  for (const ByteView& b : from) {
    if (b.empty()) continue;
    std::memcpy(dst, b.data(), b.size());
    dst += b.size();
  }
  if (counts != nullptr) *counts = std::move(sizes);
  return out;
}

inline int rel_rank(int pid, int root, int p) { return (pid - root + p) % p; }

/// One superstep boundary in the caller's chosen mode: a rigid sync(), or a
/// split-phase begin/end pair (one boundary either way), so collectives slot
/// into both kinds of program without changing the superstep count.
inline void collective_boundary(Worker& w, SyncMode mode) {
  if (mode == SyncMode::SplitPhase) {
    w.sync_begin();
    w.sync_end();
  } else {
    w.sync();
  }
}

/// Per-segment framing inside a combined two-phase message: `rank` is the
/// final destination in phase 1 and the origin in phase 2; `elems` counts
/// the T elements that follow the header.
struct WireSegment {
  std::uint32_t rank;
  std::uint32_t elems;
};
static_assert(sizeof(WireSegment) == 8);

/// Writes one segment — its header, then `elems` T from `src` — at `slot`
/// and returns the byte after it.
template <typename T>
std::byte* put_segment(std::byte* slot, int rank, const void* src,
                       std::size_t elems) {
  const WireSegment seg{static_cast<std::uint32_t>(rank),
                        static_cast<std::uint32_t>(elems)};
  std::memcpy(slot, &seg, sizeof(seg));
  std::memcpy(slot + sizeof(seg), src, elems * sizeof(T));
  return slot + sizeof(seg) + elems * sizeof(T);
}

/// Walks the segments of a combined two-phase message, calling
/// f(header, first element's bytes) for each.
template <typename T, typename F>
void for_each_segment(const Message& m, F&& f) {
  const std::byte* ptr = m.payload.data();
  const std::byte* const end = ptr + m.size();
  while (ptr < end) {
    WireSegment seg;
    std::memcpy(&seg, ptr, sizeof(seg));
    ptr += sizeof(seg);
    f(seg, ptr);
    ptr += static_cast<std::size_t>(seg.elems) * sizeof(T);
  }
}

}  // namespace detail

// --------------------------------------------------------------------------
// Block collectives: one combined message per destination.
// --------------------------------------------------------------------------

/// In-place broadcast of `count` elements from `root`: the root's block is
/// written into every processor's `data`. `count` must match on all ranks.
/// Direct: 1 superstep, h = (p-1)*m; Tree: ceil(log2 p) supersteps of
/// h = m; Auto (the default): the selector's pick for this block size.
template <typename T>
void broadcast_span(Worker& w, int root, T* data, std::size_t count,
                    CollectiveSchedule schedule = CollectiveSchedule::Auto) {
  static_assert(std::is_trivially_copyable_v<T>);
  detail::require_clean_inbox(w, "broadcast_span");
  const std::size_t bytes = count * sizeof(T);
  schedule = detail::rooted_schedule(w, schedule, bytes);
  const int p = w.nprocs();
  if (p == 1) return;
  const int rel = detail::rel_rank(w.pid(), root, p);
  auto take = [&](const Message* m) {
    if (m == nullptr) {
      throw std::logic_error("broadcast_span: missing message");
    }
    if (m->size() != bytes) {
      throw std::logic_error("broadcast_span: size mismatch");
    }
    if (bytes != 0) std::memcpy(data, m->payload.data(), bytes);
  };
  if (schedule == CollectiveSchedule::Direct) {
    if (rel == 0) {
      for (int d = 0; d < p; ++d) {
        if (d != w.pid()) w.send_array(d, data, count);
      }
    }
    w.sync();
    if (rel != 0) take(w.get_message());
    return;
  }
  // Binomial tree over the whole block: in round r, holders rel < 2^r
  // forward to rel + 2^r, so the block crosses ceil(log2 p) boundaries at
  // h = m each.
  bool have = (rel == 0);
  for (int reach = 1; reach < p; reach *= 2) {
    if (have && rel + reach < p) {
      w.send_array((root + rel + reach) % p, data, count);
    }
    w.sync();
    if (!have && rel < 2 * reach) {
      take(w.get_message());
      have = true;
    }
  }
}

template <typename T>
void broadcast_span(Worker& w, int root, std::vector<T>& data,
                    CollectiveSchedule schedule = CollectiveSchedule::Auto) {
  broadcast_span(w, root, data.data(), data.size(), schedule);
}

/// Gathers each processor's `count`-element block (sizes may differ) onto
/// `root`, concatenated in pid order; returns the concatenation at `root`
/// and an empty vector elsewhere. When `counts` is non-null, the root's
/// per-source element counts are written there (size p). One superstep, one
/// combined message per source.
template <typename T>
std::vector<T> gatherv(Worker& w, int root, const T* data, std::size_t count,
                       std::vector<std::size_t>* counts = nullptr) {
  static_assert(std::is_trivially_copyable_v<T>);
  detail::require_clean_inbox(w, "gatherv");
  if (w.pid() != root) {
    // A zero-length message still travels: its arrival is the root's proof
    // that this rank contributed.
    w.send_array(root, data, count);
  }
  w.sync();
  if (w.pid() != root) return {};
  return detail::concat_blocks<T>(
      detail::one_per_source(w, detail::view_of(data, count), "gatherv"),
      counts, "gatherv");
}

template <typename T>
std::vector<T> gatherv(Worker& w, int root, const std::vector<T>& data,
                       std::vector<std::size_t>* counts = nullptr) {
  return gatherv(w, root, data.data(), data.size(), counts);
}

/// Gathers each processor's block onto everyone, concatenated in pid order
/// (h = (p-1)*m each way, one superstep, one combined message per pair).
template <typename T>
std::vector<T> allgatherv(Worker& w, const T* data, std::size_t count,
                          std::vector<std::size_t>* counts = nullptr) {
  static_assert(std::is_trivially_copyable_v<T>);
  detail::require_clean_inbox(w, "allgatherv");
  for (int d = 0; d < w.nprocs(); ++d) {
    if (d != w.pid()) w.send_array(d, data, count);
  }
  w.sync();
  return detail::concat_blocks<T>(
      detail::one_per_source(w, detail::view_of(data, count), "allgatherv"),
      counts, "allgatherv");
}

template <typename T>
std::vector<T> allgatherv(Worker& w, const std::vector<T>& data,
                          std::vector<std::size_t>* counts = nullptr) {
  return allgatherv(w, data.data(), data.size(), counts);
}

/// Elementwise in-place reduction of a `count`-element span across all
/// processors. `count` must match on all ranks; the fold is in pid order
/// (Direct: one superstep, h = (p-1)*m) or butterfly order (Tree,
/// power-of-two p: log2 p supersteps of h = m; other p run Direct), both
/// deterministic for a given schedule.
template <typename T, typename Op>
void allreduce_span(Worker& w, T* data, std::size_t count, Op op,
                    CollectiveSchedule schedule = CollectiveSchedule::Direct) {
  static_assert(std::is_trivially_copyable_v<T>);
  // The fold reads elements straight out of the inbox views; arena payloads
  // are 8-byte aligned (core/arena.hpp).
  static_assert(alignof(T) <= 8);
  detail::require_clean_inbox(w, "allreduce_span");
  schedule = detail::rooted_schedule(w, schedule, count * sizeof(T));
  const int p = w.nprocs();
  if (p == 1 || count == 0) return;
  auto elems = [count](ByteView b) {
    if (b.size() != count * sizeof(T)) {
      throw std::logic_error("allreduce_span: size mismatch");
    }
    return reinterpret_cast<const T*>(b.data());
  };
  if (schedule == CollectiveSchedule::Tree && (p & (p - 1)) == 0) {
    // Butterfly: no broadcast needed, every rank ends with the full fold.
    for (int reach = 1; reach < p; reach *= 2) {
      w.send_array(w.pid() ^ reach, data, count);
      w.sync();
      const Message* m = w.get_message();
      if (m == nullptr) {
        throw std::logic_error("allreduce_span: missing message");
      }
      const T* src = elems(m->payload);
      for (std::size_t i = 0; i < count; ++i) data[i] = op(data[i], src[i]);
    }
    return;
  }
  for (int d = 0; d < p; ++d) {
    if (d != w.pid()) w.send_array(d, data, count);
  }
  w.sync();
  const std::vector<ByteView> from = detail::one_per_source(
      w, detail::view_of(data, count), "allreduce_span");
  // Strict left-to-right fold in pid order on every rank — the association
  // order is identical everywhere, so even non-associative ops (floating
  // point) reduce to the same bits on all ranks.
  const T* first = elems(from[0]);
  std::vector<T> acc(first, first + count);
  for (std::size_t s = 1; s < from.size(); ++s) {
    const T* src = elems(from[s]);
    for (std::size_t i = 0; i < count; ++i) acc[i] = op(acc[i], src[i]);
  }
  std::memcpy(data, acc.data(), count * sizeof(T));
}

// --------------------------------------------------------------------------
// One-value collectives.
// --------------------------------------------------------------------------

/// Broadcast `value` from `root` to all processors; every processor returns
/// the broadcast value. A one-element broadcast_span.
template <typename T>
T broadcast(Worker& w, int root, const T& value,
            CollectiveSchedule schedule = CollectiveSchedule::Direct) {
  T v = value;
  broadcast_span(w, root, &v, 1, schedule);
  return v;
}

/// Reduce all processors' `value` with `op` (assumed associative and
/// commutative) onto `root`. The return value is the reduction at `root` and
/// the caller's own `value` elsewhere.
template <typename T, typename Op>
T reduce(Worker& w, int root, const T& value, Op op,
         CollectiveSchedule schedule = CollectiveSchedule::Direct) {
  detail::require_clean_inbox(w, "reduce");
  schedule = detail::rooted_schedule(w, schedule, sizeof(T));
  const int p = w.nprocs();
  if (p == 1) return value;
  const int rel = detail::rel_rank(w.pid(), root, p);
  if (schedule == CollectiveSchedule::Direct) {
    if (rel != 0) w.send(root, value);
    w.sync();
    if (rel != 0) return value;
    // Fold in pid order for a deterministic result irrespective of arrival
    // order.
    std::vector<std::pair<int, T>> got;
    got.reserve(static_cast<std::size_t>(p) - 1);
    while (const Message* m = w.get_message()) {
      got.emplace_back(static_cast<int>(m->source), m->template as<T>());
    }
    std::sort(got.begin(), got.end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });
    T acc = value;
    for (const auto& [src, v] : got) acc = op(acc, v);
    return acc;
  }
  // Binomial tree reduction toward rel 0. Every processor syncs every round
  // (a BSP barrier is global even for processors with nothing to send).
  T acc = value;
  bool alive = true;
  for (int reach = 1; reach < p; reach *= 2) {
    if (alive) {
      if ((rel & reach) != 0) {
        const int dest = (root + (rel - reach)) % p;
        w.send(dest, acc);
        alive = false;
      }
    }
    w.sync();
    if (alive) {
      while (const Message* m = w.get_message()) {
        acc = op(acc, m->template as<T>());
      }
    }
  }
  return rel == 0 ? acc : value;
}

/// Reduction whose result every processor receives. Tree on a power-of-two
/// p is a one-element allreduce_span butterfly; every other case reduces
/// onto 0 and broadcasts.
template <typename T, typename Op>
T allreduce(Worker& w, const T& value, Op op,
            CollectiveSchedule schedule = CollectiveSchedule::Direct) {
  schedule = detail::rooted_schedule(w, schedule, sizeof(T));
  const int p = w.nprocs();
  if (p == 1) return value;
  if (schedule == CollectiveSchedule::Tree && (p & (p - 1)) == 0) {
    T acc = value;
    allreduce_span(w, &acc, 1, op, schedule);
    return acc;
  }
  return broadcast(w, 0, reduce(w, 0, value, op, schedule), schedule);
}

/// Inclusive prefix with `op` in pid order (Hillis–Steele; ceil(log2 p)
/// supersteps, h = 1 per step).
template <typename T, typename Op>
T inclusive_scan(Worker& w, const T& value, Op op) {
  detail::require_clean_inbox(w, "inclusive_scan");
  const int p = w.nprocs();
  T acc = value;
  for (int reach = 1; reach < p; reach *= 2) {
    if (w.pid() + reach < p) w.send(w.pid() + reach, acc);
    w.sync();
    if (w.pid() - reach >= 0) {
      const Message* m = w.get_message();
      if (m == nullptr) throw std::logic_error("scan: missing message");
      acc = op(m->template as<T>(), acc);
    }
  }
  return acc;
}

/// Gathers one value per processor onto `root`; returns the pid-indexed
/// vector at `root` and an empty vector elsewhere. A one-element gatherv.
template <typename T>
std::vector<T> gather(Worker& w, int root, const T& value) {
  return gatherv(w, root, &value, 1);
}

/// Gathers one value per processor onto everyone. A one-element allgatherv.
template <typename T>
std::vector<T> allgather(Worker& w, const T& value) {
  return allgatherv(w, &value, 1);
}

// --------------------------------------------------------------------------
// Personalized all-to-all: combined messages, optional two-phase routing for
// skewed relations, schedule selection from measured g/L.
// --------------------------------------------------------------------------

namespace detail {

template <typename T>
std::vector<std::vector<T>> alltoallv_direct(Worker& w,
                                             std::vector<std::vector<T>> outgoing,
                                             SyncMode mode) {
  const int p = w.nprocs();
  for (int d = 0; d < p; ++d) {
    if (d == w.pid()) continue;
    const auto& v = outgoing[static_cast<std::size_t>(d)];
    if (!v.empty()) w.send_array(d, v);
  }
  collective_boundary(w, mode);
  std::vector<std::vector<T>> incoming(static_cast<std::size_t>(p));
  incoming[static_cast<std::size_t>(w.pid())] =
      std::move(outgoing[static_cast<std::size_t>(w.pid())]);
  while (const Message* m = w.get_message()) {
    m->copy_array(incoming[m->source]);
  }
  return incoming;
}

/// Valiant-style two-phase gather–scatter (DESIGN.md section 13): element
/// slice j of every source->dest block routes via intermediate j, so both
/// phases carry balanced ~h/p relations regardless of how skewed the direct
/// matrix is. Segments concatenate back in intermediate order, making the
/// result bit-identical to the direct schedule. Self traffic never leaves
/// the rank; the self-intermediate leg of remote traffic skips phase 1.
template <typename T>
std::vector<std::vector<T>> alltoallv_two_phase(
    Worker& w, std::vector<std::vector<T>> outgoing, SyncMode mode) {
  const int p = w.nprocs();
  const int me = w.pid();
  const std::size_t sp = static_cast<std::size_t>(p);
  auto slice = [p](std::size_t n, int j) {
    const std::size_t lo = n * static_cast<std::size_t>(j) /
                           static_cast<std::size_t>(p);
    const std::size_t hi = n * (static_cast<std::size_t>(j) + 1) /
                           static_cast<std::size_t>(p);
    return std::pair<std::size_t, std::size_t>{lo, hi};
  };
  // A run of `elems` T at `data` (in outgoing[], in a held copy or in an
  // inbox view), tagged with its origin in phase 2 and with its
  // intermediate in the reassembly.
  struct Run {
    int rank;
    const std::byte* data;
    std::size_t elems;
  };
  // Files every received segment under its header's rank, tagged with the
  // sender, then orders each list by tag for determinism.
  auto collect = [&w](std::vector<std::vector<Run>>& into) {
    while (const Message* m = w.get_message()) {
      for_each_segment<T>(*m, [&](WireSegment seg, const std::byte* data) {
        into[seg.rank].push_back(
            Run{static_cast<int>(m->source), data, seg.elems});
      });
    }
    for (auto& v : into) {
      std::sort(v.begin(), v.end(),
                [](const Run& a, const Run& b) { return a.rank < b.rank; });
    }
  };

  // --- Phase 1: one combined message per intermediate, each segment tagged
  // with its final destination.
  for (int j = 0; j < p; ++j) {
    if (j == me) continue;
    std::size_t bytes = 0;
    for (int d = 0; d < p; ++d) {
      if (d == me) continue;
      const auto [lo, hi] =
          slice(outgoing[static_cast<std::size_t>(d)].size(), j);
      if (hi > lo) bytes += sizeof(WireSegment) + (hi - lo) * sizeof(T);
    }
    if (bytes == 0) continue;
    std::byte* slot = w.send_reserve(j, bytes);
    for (int d = 0; d < p; ++d) {
      if (d == me) continue;
      const auto& v = outgoing[static_cast<std::size_t>(d)];
      const auto [lo, hi] = slice(v.size(), j);
      if (hi > lo) slot = put_segment<T>(slot, d, v.data() + lo, hi - lo);
    }
  }
  collective_boundary(w, mode);

  // --- Phase 2: regroup the received segments (plus this rank's own
  // self-intermediate slices) by final destination, each segment now tagged
  // with its origin.
  std::vector<std::vector<Run>> by_dest(sp);
  for (int d = 0; d < p; ++d) {
    if (d == me) continue;
    const auto& v = outgoing[static_cast<std::size_t>(d)];
    const auto [lo, hi] = slice(v.size(), me);
    if (hi > lo) {
      by_dest[static_cast<std::size_t>(d)].push_back(
          Run{me, reinterpret_cast<const std::byte*>(v.data() + lo), hi - lo});
    }
  }
  collect(by_dest);
  // Runs destined to this rank route "via self" in phase 2: copy them out
  // now, before the boundary recycles the inbox views they point into. Each
  // origin sends at most one, indexed here by origin.
  std::vector<std::vector<std::byte>> held(sp);
  for (const Run& r : by_dest[static_cast<std::size_t>(me)]) {
    held[static_cast<std::size_t>(r.rank)].assign(
        r.data, r.data + r.elems * sizeof(T));
  }
  for (int d = 0; d < p; ++d) {
    if (d == me) continue;
    const auto& runs = by_dest[static_cast<std::size_t>(d)];
    std::size_t bytes = 0;
    for (const Run& r : runs) {
      bytes += sizeof(WireSegment) + r.elems * sizeof(T);
    }
    if (bytes == 0) continue;
    std::byte* slot = w.send_reserve(d, bytes);
    for (const Run& r : runs) {
      slot = put_segment<T>(slot, r.rank, r.data, r.elems);
    }
  }
  collective_boundary(w, mode);

  // --- Reassembly: per origin, concatenate runs in ascending intermediate
  // order — exactly the order the slices were cut in, so the result matches
  // the direct schedule byte for byte.
  std::vector<std::vector<Run>> pieces(sp);
  for (std::size_t o = 0; o < sp; ++o) {
    if (!held[o].empty()) {
      pieces[o].push_back(Run{me, held[o].data(), held[o].size() / sizeof(T)});
    }
  }
  collect(pieces);
  std::vector<std::vector<T>> incoming(sp);
  incoming[static_cast<std::size_t>(me)] =
      std::move(outgoing[static_cast<std::size_t>(me)]);
  for (int s = 0; s < p; ++s) {
    if (s == me) continue;
    const auto& runs = pieces[static_cast<std::size_t>(s)];
    std::size_t total = 0;
    for (const Run& r : runs) total += r.elems;
    auto& out = incoming[static_cast<std::size_t>(s)];
    out.resize(total);
    std::byte* dst = reinterpret_cast<std::byte*>(out.data());
    for (const Run& r : runs) {
      std::memcpy(dst, r.data, r.elems * sizeof(T));
      dst += r.elems * sizeof(T);
    }
  }
  return incoming;
}

}  // namespace detail

/// Personalized all-to-all: `outgoing[d]` (d != pid, may be empty) reaches d
/// intact and in order; returns the pid-indexed incoming arrays, the self
/// slot moved from `outgoing[pid]`.
///
/// Schedule:
///  * Direct (and Tree, which is meaningless here) — one superstep, one
///    combined message per destination: h is whatever the request's matrix
///    makes it, up to a hot-spot ~n.
///  * TwoPhase — two supersteps of balanced ~h/p phases (Valiant routing);
///    wins on skewed matrices over the staged socket exchange, where a
///    direct hot-spot serializes whole stages.
///  * Auto (the default) — one extra superstep allgathers the
///    per-destination byte counts, then every rank evaluates the identical
///    cost model (evaluate_alltoallv_schedule) on the identical matrix, so
///    all ranks deterministically run the same schedule.
///
/// Each slice's element count must fit in 32 bits under TwoPhase (segment
/// framing) — enforced; Auto never picks TwoPhase for such requests.
template <typename T>
std::vector<std::vector<T>> alltoallv(
    Worker& w, std::vector<std::vector<T>> outgoing,
    CollectiveSchedule schedule = CollectiveSchedule::Auto,
    SyncMode mode = SyncMode::Rigid) {
  static_assert(std::is_trivially_copyable_v<T>);
  detail::require_clean_inbox(w, "alltoallv");
  const int p = w.nprocs();
  if (outgoing.size() != static_cast<std::size_t>(p)) {
    throw std::invalid_argument("alltoallv: outgoing must have nprocs slots");
  }
  if (p == 1) {
    return outgoing;
  }
  // This rank's per-destination byte row; under Auto, every rank's rows.
  std::vector<std::uint64_t> bytes(static_cast<std::size_t>(p), 0);
  for (int d = 0; d < p; ++d) {
    if (d != w.pid()) {
      bytes[static_cast<std::size_t>(d)] =
          outgoing[static_cast<std::size_t>(d)].size() * sizeof(T);
    }
  }
  const bool auto_requested = schedule == CollectiveSchedule::Auto;
  if (auto_requested) {
    // Counts superstep: allgather each rank's row, so every rank sees the
    // same matrix and the same cost-model verdict.
    bytes = allgatherv(w, bytes);
    std::vector<std::vector<std::uint64_t>> matrix(
        static_cast<std::size_t>(p));
    for (int s = 0; s < p; ++s) {
      matrix[static_cast<std::size_t>(s)].assign(
          bytes.begin() + static_cast<std::ptrdiff_t>(s) * p,
          bytes.begin() + static_cast<std::ptrdiff_t>(s + 1) * p);
    }
    const Config& cfg = w.config();
    schedule = evaluate_alltoallv_schedule(
                   matrix, cfg.delivery == DeliveryStrategy::Socket,
                   default_collective_g_us(cfg.delivery, cfg.nprocs),
                   default_collective_l_us(cfg.delivery, cfg.nprocs),
                   kPacketBytes)
                   .schedule;
  }
  // The 32-bit segment framing limit, read from the shared matrix under
  // Auto, so the Direct fallback is the same decision on every rank.
  const bool sliceable =
      std::all_of(bytes.begin(), bytes.end(), [p](std::uint64_t b) {
        return b / sizeof(T) / static_cast<std::uint64_t>(p) + 1 <=
               std::uint64_t{0xffffffff};
      });
  if (schedule == CollectiveSchedule::TwoPhase && !sliceable) {
    if (!auto_requested) {
      throw std::invalid_argument(
          "alltoallv: block slice exceeds 32-bit segment framing");
    }
    schedule = CollectiveSchedule::Direct;  // silently take the safe road
  }
  if (schedule == CollectiveSchedule::TwoPhase) {
    return detail::alltoallv_two_phase(w, std::move(outgoing), mode);
  }
  return detail::alltoallv_direct(w, std::move(outgoing), mode);
}

}  // namespace gbsp
