// Collective operations built strictly on top of the three Green BSP
// primitives (send / sync / get), as the paper prescribes: "the BSP and LogP
// models assume a very small set of basic functions and (at least in theory)
// require any other operations to be implemented on top of these functions"
// (Section 1.3).
//
// Two layers:
//
//  * Scalar collectives (v1) expose the paper's core trade-off between
//    h-relation size and superstep count (Section 1: objectives (2) and (3)
//    "can conflict"):
//      Direct — one superstep, h up to p-1: best when L dominates.
//      Tree   — ceil(log2 p) supersteps, h = 1 per step: best when g
//               dominates.
//
//  * Bulk collectives (v2) are h-relation-aware: they pack each
//    destination's traffic into ONE combined message built in place in the
//    transport's per-destination arena (Worker::send_reserve), so the cost
//    of a bulk operation is set by the h-relation — per "A Lower Bound
//    Technique for Communication in BSP" the achievable bound — not by the
//    message count. For skewed personalized traffic, alltoallv offers a
//    Valiant-style two-phase gather–scatter schedule that splits a hot-spot
//    relation into two balanced ~h/p phases, and a selector that picks the
//    schedule from the request's actual traffic matrix and the transport's
//    measured g/L (default_collective_{g,l}_us). See DESIGN.md section 13.
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

enum class CollectiveAlgorithm { Direct, Tree };

namespace detail {

/// Throws std::logic_error naming the collective, the rank, and the pending
/// count when the caller enters a collective with an undrained inbox. Shared
/// by every collective (one definition, core/collectives.cpp).
void require_clean_inbox(Worker& w, const char* what);

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

}  // namespace detail

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

/// The rooted-collective choice for `bytes` payload bytes under `cfg`,
/// honoring Config::collective_schedule (TwoPhase is meaningless for rooted
/// collectives and falls back to the selector).
[[nodiscard]] CollectiveAlgorithm choose_rooted_algorithm(const Config& cfg,
                                                          int p,
                                                          std::size_t bytes);

}  // namespace detail

/// Broadcast `value` from `root` to all processors; every processor returns
/// the broadcast value.
template <typename T>
T broadcast(Worker& w, int root, const T& value,
            CollectiveAlgorithm alg = CollectiveAlgorithm::Direct) {
  detail::require_clean_inbox(w, "broadcast");
  const int p = w.nprocs();
  if (p == 1) return value;
  const int rel = detail::rel_rank(w.pid(), root, p);
  if (alg == CollectiveAlgorithm::Direct) {
    if (rel == 0) {
      for (int d = 0; d < p; ++d) {
        if (d != w.pid()) w.send(d, value);
      }
    }
    w.sync();
    if (rel == 0) return value;
    const Message* m = w.get_message();
    if (m == nullptr) throw std::logic_error("broadcast: missing message");
    return m->template as<T>();
  }
  // Binomial tree: in round r, holders rel < 2^r forward to rel + 2^r.
  T current = value;
  bool have = (rel == 0);
  for (int reach = 1; reach < p; reach *= 2) {
    if (have && rel + reach < p) {
      const int dest = (root + rel + reach) % p;
      w.send(dest, current);
    }
    w.sync();
    if (!have && rel < 2 * reach) {
      if (const Message* m = w.get_message()) {
        current = m->template as<T>();
        have = true;
      }
    }
  }
  if (!have) throw std::logic_error("broadcast: value never arrived");
  return current;
}

/// Reduce all processors' `value` with `op` (assumed associative and
/// commutative) onto `root`. The return value is the reduction at `root` and
/// the caller's own `value` elsewhere.
template <typename T, typename Op>
T reduce(Worker& w, int root, const T& value, Op op,
         CollectiveAlgorithm alg = CollectiveAlgorithm::Direct) {
  detail::require_clean_inbox(w, "reduce");
  const int p = w.nprocs();
  if (p == 1) return value;
  const int rel = detail::rel_rank(w.pid(), root, p);
  if (alg == CollectiveAlgorithm::Direct) {
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

/// Reduction whose result every processor receives.
template <typename T, typename Op>
T allreduce(Worker& w, const T& value, Op op,
            CollectiveAlgorithm alg = CollectiveAlgorithm::Direct) {
  const int p = w.nprocs();
  if (p == 1) return value;
  const bool pow2 = (p & (p - 1)) == 0;
  if (alg == CollectiveAlgorithm::Tree && pow2) {
    // Butterfly: log2 p supersteps, h = 1 per step, no broadcast needed.
    detail::require_clean_inbox(w, "allreduce");
    T acc = value;
    for (int reach = 1; reach < p; reach *= 2) {
      const int partner = w.pid() ^ reach;
      w.send(partner, acc);
      w.sync();
      const Message* m = w.get_message();
      if (m == nullptr) throw std::logic_error("allreduce: missing message");
      acc = op(acc, m->template as<T>());
    }
    return acc;
  }
  const T reduced = reduce(w, 0, value, op, alg);
  return broadcast(w, 0, reduced, alg);
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
/// vector at `root` and an empty vector elsewhere. One superstep.
template <typename T>
std::vector<T> gather(Worker& w, int root, const T& value) {
  detail::require_clean_inbox(w, "gather");
  const int p = w.nprocs();
  if (w.pid() != root) w.send(root, value);
  w.sync();
  if (w.pid() != root) return {};
  std::vector<T> out(static_cast<std::size_t>(p));
  std::vector<char> seen(static_cast<std::size_t>(p), 0);
  out[static_cast<std::size_t>(root)] = value;
  seen[static_cast<std::size_t>(root)] = 1;
  while (const Message* m = w.get_message()) {
    out[m->source] = m->template as<T>();
    seen[m->source] = 1;
  }
  for (char s : seen) {
    if (!s) throw std::logic_error("gather: missing contribution");
  }
  return out;
}

/// Gathers one value per processor onto everyone (h = p-1, one superstep).
template <typename T>
std::vector<T> allgather(Worker& w, const T& value) {
  detail::require_clean_inbox(w, "allgather");
  const int p = w.nprocs();
  for (int d = 0; d < p; ++d) {
    if (d != w.pid()) w.send(d, value);
  }
  w.sync();
  std::vector<T> out(static_cast<std::size_t>(p));
  out[static_cast<std::size_t>(w.pid())] = value;
  while (const Message* m = w.get_message()) {
    out[m->source] = m->template as<T>();
  }
  return out;
}

// --------------------------------------------------------------------------
// Bulk collectives: combined messages, one header per destination.
// --------------------------------------------------------------------------

/// In-place broadcast of `count` elements from `root`: the root's block is
/// written into every processor's `data`. `count` must match on all ranks.
/// One combined message per destination (Direct: 1 superstep, h=(p-1)*m;
/// Tree: ceil(log2 p) supersteps of h=m).
template <typename T>
void broadcast_span(Worker& w, int root, T* data, std::size_t count,
                    CollectiveAlgorithm alg) {
  static_assert(std::is_trivially_copyable_v<T>);
  detail::require_clean_inbox(w, "broadcast_span");
  const int p = w.nprocs();
  if (p == 1) return;
  const std::size_t bytes = count * sizeof(T);
  const int rel = detail::rel_rank(w.pid(), root, p);
  auto take = [&](const Message* m, const char* who) {
    if (m == nullptr) {
      throw std::logic_error(std::string(who) + ": missing message");
    }
    if (m->size() != bytes) {
      throw std::logic_error(std::string(who) + ": size mismatch");
    }
    if (bytes != 0) std::memcpy(data, m->payload.data(), bytes);
  };
  if (alg == CollectiveAlgorithm::Direct) {
    if (rel == 0) {
      for (int d = 0; d < p; ++d) {
        if (d != w.pid()) w.send_array(d, data, count);
      }
    }
    w.sync();
    if (rel != 0) take(w.get_message(), "broadcast_span");
    return;
  }
  // Binomial tree over the whole block; relays forward as soon as they hold
  // it, so the block crosses ceil(log2 p) boundaries at h = m each.
  bool have = (rel == 0);
  for (int reach = 1; reach < p; reach *= 2) {
    if (have && rel + reach < p) {
      w.send_array((root + rel + reach) % p, data, count);
    }
    w.sync();
    if (!have && rel < 2 * reach) {
      if (const Message* m = w.get_message()) {
        take(m, "broadcast_span");
        have = true;
      }
    }
  }
  if (!have) throw std::logic_error("broadcast_span: block never arrived");
}

/// broadcast_span with the algorithm chosen by the selector (or forced by
/// Config::collective_schedule).
template <typename T>
void broadcast_span(Worker& w, int root, T* data, std::size_t count) {
  broadcast_span(w, root, data, count,
                 detail::choose_rooted_algorithm(w.config(), w.nprocs(),
                                                 count * sizeof(T)));
}

template <typename T>
void broadcast_span(Worker& w, int root, std::vector<T>& data,
                    CollectiveAlgorithm alg) {
  broadcast_span(w, root, data.data(), data.size(), alg);
}
template <typename T>
void broadcast_span(Worker& w, int root, std::vector<T>& data) {
  broadcast_span(w, root, data.data(), data.size());
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
  const int p = w.nprocs();
  if (w.pid() != root) {
    // A zero-length message still travels: its arrival is the root's proof
    // that this rank contributed.
    w.send_array(root, data, count);
  }
  w.sync();
  if (w.pid() != root) return {};
  std::vector<const Message*> from(static_cast<std::size_t>(p), nullptr);
  while (const Message* m = w.get_message()) {
    from[m->source] = m;
  }
  std::vector<std::size_t> sizes(static_cast<std::size_t>(p), 0);
  sizes[static_cast<std::size_t>(root)] = count;
  std::size_t total = count;
  for (int s = 0; s < p; ++s) {
    if (s == root) continue;
    const Message* m = from[static_cast<std::size_t>(s)];
    if (m == nullptr) throw std::logic_error("gatherv: missing contribution");
    if (m->size() % sizeof(T) != 0) {
      throw std::logic_error("gatherv: ragged payload");
    }
    sizes[static_cast<std::size_t>(s)] = m->size() / sizeof(T);
    total += sizes[static_cast<std::size_t>(s)];
  }
  std::vector<T> out(total);
  std::byte* dst = reinterpret_cast<std::byte*>(out.data());
  for (int s = 0; s < p; ++s) {
    const std::size_t b = sizes[static_cast<std::size_t>(s)] * sizeof(T);
    if (b == 0) continue;
    const void* src = s == root
                          ? static_cast<const void*>(data)
                          : static_cast<const void*>(
                                from[static_cast<std::size_t>(s)]->payload.data());
    std::memcpy(dst, src, b);
    dst += b;
  }
  if (counts != nullptr) *counts = std::move(sizes);
  return out;
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
  const int p = w.nprocs();
  for (int d = 0; d < p; ++d) {
    if (d != w.pid()) w.send_array(d, data, count);
  }
  w.sync();
  std::vector<const Message*> from(static_cast<std::size_t>(p), nullptr);
  while (const Message* m = w.get_message()) {
    from[m->source] = m;
  }
  std::vector<std::size_t> sizes(static_cast<std::size_t>(p), 0);
  sizes[static_cast<std::size_t>(w.pid())] = count;
  std::size_t total = count;
  for (int s = 0; s < p; ++s) {
    if (s == w.pid()) continue;
    const Message* m = from[static_cast<std::size_t>(s)];
    if (m == nullptr) {
      throw std::logic_error("allgatherv: missing contribution");
    }
    if (m->size() % sizeof(T) != 0) {
      throw std::logic_error("allgatherv: ragged payload");
    }
    sizes[static_cast<std::size_t>(s)] = m->size() / sizeof(T);
    total += sizes[static_cast<std::size_t>(s)];
  }
  std::vector<T> out(total);
  std::byte* dst = reinterpret_cast<std::byte*>(out.data());
  for (int s = 0; s < p; ++s) {
    const std::size_t b = sizes[static_cast<std::size_t>(s)] * sizeof(T);
    if (b == 0) continue;
    const void* src = s == w.pid()
                          ? static_cast<const void*>(data)
                          : static_cast<const void*>(
                                from[static_cast<std::size_t>(s)]->payload.data());
    std::memcpy(dst, src, b);
    dst += b;
  }
  if (counts != nullptr) *counts = std::move(sizes);
  return out;
}

template <typename T>
std::vector<T> allgatherv(Worker& w, const std::vector<T>& data,
                          std::vector<std::size_t>* counts = nullptr) {
  return allgatherv(w, data.data(), data.size(), counts);
}

/// Elementwise in-place reduction of a `count`-element span across all
/// processors. `count` must match on all ranks; the fold is in pid order
/// (Direct) or butterfly order (Tree, power-of-two p), both deterministic
/// for a given algorithm. One combined message per destination.
template <typename T, typename Op>
void allreduce_span(Worker& w, T* data, std::size_t count, Op op,
                    CollectiveAlgorithm alg = CollectiveAlgorithm::Direct) {
  static_assert(std::is_trivially_copyable_v<T>);
  // The fold reads elements straight out of the inbox views; arena payloads
  // are 8-byte aligned (core/arena.hpp).
  static_assert(alignof(T) <= 8);
  detail::require_clean_inbox(w, "allreduce_span");
  const int p = w.nprocs();
  if (p == 1 || count == 0) return;
  const bool pow2 = (p & (p - 1)) == 0;
  auto fold_from = [&](const Message& m) {
    if (m.size() != count * sizeof(T)) {
      throw std::logic_error("allreduce_span: size mismatch");
    }
    const T* src = reinterpret_cast<const T*>(m.payload.data());
    for (std::size_t i = 0; i < count; ++i) data[i] = op(data[i], src[i]);
  };
  if (alg == CollectiveAlgorithm::Tree && pow2) {
    for (int reach = 1; reach < p; reach *= 2) {
      w.send_array(w.pid() ^ reach, data, count);
      w.sync();
      const Message* m = w.get_message();
      if (m == nullptr) {
        throw std::logic_error("allreduce_span: missing message");
      }
      fold_from(*m);
    }
    return;
  }
  for (int d = 0; d < p; ++d) {
    if (d != w.pid()) w.send_array(d, data, count);
  }
  w.sync();
  std::vector<const Message*> from(static_cast<std::size_t>(p), nullptr);
  while (const Message* m = w.get_message()) {
    from[m->source] = m;
  }
  // Strict left-to-right fold in pid order on every rank — the association
  // order is identical everywhere, so even non-associative ops (floating
  // point) reduce to the same bits on all ranks.
  std::vector<T> acc;
  for (int s = 0; s < p; ++s) {
    const T* src;
    if (s == w.pid()) {
      src = data;
    } else {
      const Message* m = from[static_cast<std::size_t>(s)];
      if (m == nullptr) {
        throw std::logic_error("allreduce_span: missing contribution");
      }
      if (m->size() != count * sizeof(T)) {
        throw std::logic_error("allreduce_span: size mismatch");
      }
      src = reinterpret_cast<const T*>(m->payload.data());
    }
    if (s == 0) {
      acc.assign(src, src + count);
    } else {
      for (std::size_t i = 0; i < count; ++i) acc[i] = op(acc[i], src[i]);
    }
  }
  std::memcpy(data, acc.data(), count * sizeof(T));
}

// --------------------------------------------------------------------------
// Personalized all-to-all (v2): combined messages, optional two-phase
// routing for skewed relations, schedule selection from measured g/L.
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
  auto slice = [p](std::size_t n, int j) {
    const std::size_t lo = n * static_cast<std::size_t>(j) /
                           static_cast<std::size_t>(p);
    const std::size_t hi = n * (static_cast<std::size_t>(j) + 1) /
                           static_cast<std::size_t>(p);
    return std::pair<std::size_t, std::size_t>{lo, hi};
  };

  // --- Phase 1: one combined message per intermediate, each segment tagged
  // with its final destination.
  for (int j = 0; j < p; ++j) {
    if (j == me) continue;
    std::size_t bytes = 0;
    for (int d = 0; d < p; ++d) {
      if (d == me) continue;
      const auto [lo, hi] = slice(outgoing[static_cast<std::size_t>(d)].size(), j);
      if (hi > lo) bytes += sizeof(WireSegment) + (hi - lo) * sizeof(T);
    }
    if (bytes == 0) continue;
    std::byte* slot = w.send_reserve(j, bytes);
    for (int d = 0; d < p; ++d) {
      if (d == me) continue;
      const auto& v = outgoing[static_cast<std::size_t>(d)];
      const auto [lo, hi] = slice(v.size(), j);
      if (hi == lo) continue;
      const WireSegment seg{static_cast<std::uint32_t>(d),
                            static_cast<std::uint32_t>(hi - lo)};
      std::memcpy(slot, &seg, sizeof(seg));
      slot += sizeof(seg);
      std::memcpy(slot, v.data() + lo, (hi - lo) * sizeof(T));
      slot += (hi - lo) * sizeof(T);
    }
  }
  collective_boundary(w, mode);

  // --- Phase 2: regroup the received segments (plus this rank's own
  // self-intermediate slices) by final destination, each segment now tagged
  // with its origin, ordered by origin for determinism.
  struct Chunk {
    int origin;
    const std::byte* data;  // either into outgoing[] or into an inbox view
    std::size_t elems;
  };
  std::vector<std::vector<Chunk>> by_dest(static_cast<std::size_t>(p));
  for (int d = 0; d < p; ++d) {
    if (d == me) continue;
    const auto& v = outgoing[static_cast<std::size_t>(d)];
    const auto [lo, hi] = slice(v.size(), me);
    if (hi > lo) {
      by_dest[static_cast<std::size_t>(d)].push_back(
          Chunk{me, reinterpret_cast<const std::byte*>(v.data() + lo),
                hi - lo});
    }
  }
  while (const Message* m = w.get_message()) {
    const std::byte* ptr = m->payload.data();
    const std::byte* end = ptr + m->size();
    while (ptr < end) {
      WireSegment seg;
      std::memcpy(&seg, ptr, sizeof(seg));
      ptr += sizeof(seg);
      by_dest[seg.rank].push_back(
          Chunk{static_cast<int>(m->source), ptr, seg.elems});
      ptr += static_cast<std::size_t>(seg.elems) * sizeof(T);
    }
  }
  for (auto& v : by_dest) {
    std::sort(v.begin(), v.end(),
              [](const Chunk& a, const Chunk& b) { return a.origin < b.origin; });
  }
  // Chunks destined to this rank route "via self" in phase 2: copy them out
  // now, before the boundary recycles the inbox views they point into.
  struct Held {
    int origin;
    std::vector<std::byte> data;
  };
  std::vector<Held> held;
  for (const Chunk& c : by_dest[static_cast<std::size_t>(me)]) {
    held.push_back(
        Held{c.origin,
             std::vector<std::byte>(c.data, c.data + c.elems * sizeof(T))});
  }
  for (int d = 0; d < p; ++d) {
    if (d == me) continue;
    const auto& chunks = by_dest[static_cast<std::size_t>(d)];
    std::size_t bytes = 0;
    for (const Chunk& c : chunks) {
      bytes += sizeof(WireSegment) + c.elems * sizeof(T);
    }
    if (bytes == 0) continue;
    std::byte* slot = w.send_reserve(d, bytes);
    for (const Chunk& c : chunks) {
      const WireSegment seg{static_cast<std::uint32_t>(c.origin),
                            static_cast<std::uint32_t>(c.elems)};
      std::memcpy(slot, &seg, sizeof(seg));
      slot += sizeof(seg);
      std::memcpy(slot, c.data, c.elems * sizeof(T));
      slot += c.elems * sizeof(T);
    }
  }
  collective_boundary(w, mode);

  // --- Reassembly: per origin, concatenate chunks in ascending intermediate
  // order — exactly the order the slices were cut in, so the result matches
  // the direct schedule byte for byte.
  struct Piece {
    int intermediate;
    const std::byte* data;
    std::size_t elems;
  };
  std::vector<std::vector<Piece>> pieces(static_cast<std::size_t>(p));
  for (const Held& h : held) {
    pieces[static_cast<std::size_t>(h.origin)].push_back(
        Piece{me, h.data.data(), h.data.size() / sizeof(T)});
  }
  while (const Message* m = w.get_message()) {
    const std::byte* ptr = m->payload.data();
    const std::byte* end = ptr + m->size();
    while (ptr < end) {
      WireSegment seg;
      std::memcpy(&seg, ptr, sizeof(seg));
      ptr += sizeof(seg);
      pieces[seg.rank].push_back(
          Piece{static_cast<int>(m->source), ptr, seg.elems});
      ptr += static_cast<std::size_t>(seg.elems) * sizeof(T);
    }
  }
  std::vector<std::vector<T>> incoming(static_cast<std::size_t>(p));
  incoming[static_cast<std::size_t>(me)] =
      std::move(outgoing[static_cast<std::size_t>(me)]);
  for (int s = 0; s < p; ++s) {
    if (s == me) continue;
    auto& ps = pieces[static_cast<std::size_t>(s)];
    std::sort(ps.begin(), ps.end(), [](const Piece& a, const Piece& b) {
      return a.intermediate < b.intermediate;
    });
    std::size_t total = 0;
    for (const Piece& q : ps) total += q.elems;
    auto& out = incoming[static_cast<std::size_t>(s)];
    out.resize(total);
    std::byte* dst = reinterpret_cast<std::byte*>(out.data());
    for (const Piece& q : ps) {
      std::memcpy(dst, q.data, q.elems * sizeof(T));
      dst += q.elems * sizeof(T);
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
///  * Auto (the default; Config::collective_schedule overrides it for every
///    call) — one extra superstep allgathers the per-destination byte
///    counts, then every rank evaluates the identical cost model
///    (evaluate_alltoallv_schedule) on the identical matrix, so all ranks
///    deterministically run the same schedule.
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
  const Config& cfg = w.config();
  if (schedule == CollectiveSchedule::Auto &&
      cfg.collective_schedule != CollectiveSchedule::Auto) {
    schedule = cfg.collective_schedule;
  }
  if (p == 1) {
    return outgoing;
  }
  bool sliceable = true;
  for (const auto& v : outgoing) {
    if (v.size() / static_cast<std::size_t>(p) + 1 > std::size_t{0xffffffff}) {
      sliceable = false;
    }
  }
  const bool auto_requested = schedule == CollectiveSchedule::Auto;
  if (auto_requested) {
    // Counts superstep: allgather each rank's per-destination byte row, so
    // every rank sees the same matrix and the same cost-model verdict.
    std::vector<std::uint64_t> row(static_cast<std::size_t>(p), 0);
    for (int d = 0; d < p; ++d) {
      if (d != w.pid()) {
        row[static_cast<std::size_t>(d)] =
            outgoing[static_cast<std::size_t>(d)].size() * sizeof(T);
      }
    }
    const auto flat = allgatherv(w, row);
    std::vector<std::vector<std::uint64_t>> matrix(
        static_cast<std::size_t>(p));
    for (int s = 0; s < p; ++s) {
      matrix[static_cast<std::size_t>(s)].assign(
          flat.begin() + static_cast<std::ptrdiff_t>(s) * p,
          flat.begin() + static_cast<std::ptrdiff_t>(s + 1) * p);
    }
    const ScheduleChoice c = evaluate_alltoallv_schedule(
        matrix, cfg.delivery == DeliveryStrategy::Socket,
        default_collective_g_us(cfg.delivery, cfg.nprocs),
        default_collective_l_us(cfg.delivery, cfg.nprocs),
        cfg.packet_unit_bytes);
    schedule = c.schedule;
    // Re-derive the framing limit from the shared matrix (not from this
    // rank's own rows), so the Direct fallback below is the same decision on
    // every rank.
    sliceable = true;
    for (const auto& r : matrix) {
      for (const std::uint64_t b : r) {
        if (b / sizeof(T) / static_cast<std::size_t>(p) + 1 >
            std::size_t{0xffffffff}) {
          sliceable = false;
        }
      }
    }
  }
  if (schedule == CollectiveSchedule::TwoPhase) {
    if (!sliceable) {
      if (auto_requested) {
        schedule = CollectiveSchedule::Direct;  // silently take the safe road
      } else {
        throw std::invalid_argument(
            "alltoallv: block slice exceeds 32-bit segment framing");
      }
    }
  }
  if (schedule == CollectiveSchedule::TwoPhase) {
    return detail::alltoallv_two_phase(w, std::move(outgoing), mode);
  }
  return detail::alltoallv_direct(w, std::move(outgoing), mode);
}

}  // namespace gbsp
