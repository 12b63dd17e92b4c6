// Non-template half of the collectives layer: the shared inbox-contract
// diagnostic, the one-message-per-source drain, the Direct/Tree schedule
// rule, and the schedule selector (cost models + measured per-transport g/L
// defaults). See collectives.hpp and DESIGN.md section 13.
#include "core/collectives.hpp"

#include <cmath>
#include <limits>

namespace gbsp {

namespace detail {

void require_clean_inbox(Worker& w, const char* what) {
  if (const std::size_t n = w.pending(); n != 0) {
    throw std::logic_error(std::string("gbsp ") + what +
                           ": inbox not drained on entry on rank " +
                           std::to_string(w.pid()) + " (" + std::to_string(n) +
                           " message" + (n == 1 ? "" : "s") + " pending)");
  }
}

CollectiveSchedule rooted_schedule(const Worker& w, CollectiveSchedule s,
                                   std::size_t bytes) {
  switch (s) {
    case CollectiveSchedule::Direct:
    case CollectiveSchedule::Tree:
      return s;
    case CollectiveSchedule::TwoPhase:
      throw std::invalid_argument(
          "gbsp: CollectiveSchedule::TwoPhase routes alltoallv only; this "
          "collective takes Direct, Tree or Auto");
    case CollectiveSchedule::Auto:
      break;
  }
  const Config& cfg = w.config();
  return evaluate_rooted_schedule(
             w.nprocs(), bytes,
             default_collective_g_us(cfg.delivery, cfg.nprocs),
             default_collective_l_us(cfg.delivery, cfg.nprocs), kPacketBytes)
      .schedule;
}

std::vector<ByteView> one_per_source(Worker& w, ByteView self,
                                     const char* what) {
  const std::size_t p = static_cast<std::size_t>(w.nprocs());
  std::vector<ByteView> from(p);
  std::vector<char> seen(p, 0);
  from[static_cast<std::size_t>(w.pid())] = self;
  seen[static_cast<std::size_t>(w.pid())] = 1;
  while (const Message* m = w.get_message()) {
    from[m->source] = m->payload;
    seen[m->source] = 1;
  }
  if (std::find(seen.begin(), seen.end(), 0) != seen.end()) {
    throw std::logic_error(std::string(what) + ": missing contribution");
  }
  return from;
}

}  // namespace detail

// Linear fits of the bsp_probe measurements in BENCH_transport.json (this
// host, AF_UNIX socketpairs / in-memory arenas). Socket g and L both grow
// with p — more staged rounds contend for the same cores — so the defaults
// scale with nprocs; the in-memory transports are flat within the measured
// band.
double default_collective_g_us(DeliveryStrategy d, int nprocs) {
  const double p = nprocs < 1 ? 1.0 : static_cast<double>(nprocs);
  switch (d) {
    case DeliveryStrategy::Socket:
      return 0.12 * p;  // p=2: 0.24, p=4: 0.48 (measured 0.242 / 0.528)
    case DeliveryStrategy::Tcp:
      // Loopback TCP between processes: same staged schedule as Socket
      // with the inet stack's extra per-byte cost; measured 0.136us at
      // p=2, 0.336us at p=4 (BENCH_tcp.json).
      return 0.08 * p;
    case DeliveryStrategy::Shm:
      // Cross-process shared-memory rings: the staged schedule's per-byte
      // cost is one memcpy each way, no kernel; measured 0.13us at p=2,
      // 0.31us at p=4 (BENCH_shm.json).
      return 0.07 * p;
    case DeliveryStrategy::Eager:
      return 0.10;
    case DeliveryStrategy::Deferred:
      break;
  }
  return 0.07;
}

double default_collective_l_us(DeliveryStrategy d, int nprocs) {
  const double p = nprocs < 1 ? 1.0 : static_cast<double>(nprocs);
  switch (d) {
    case DeliveryStrategy::Socket:
      // One staged boundary is (p-1) rounds; measured 11.5us at p=2,
      // 51.5us at p=4.
      return 13.0 * (p > 1.0 ? p - 1.0 : 1.0);
    case DeliveryStrategy::Tcp:
      // Cross-process loopback boundary: staged rounds plus scheduler
      // wake-ups between processes; measured 21.8us at p=2, 74.4us at
      // p=4 (BENCH_tcp.json).
      return 24.0 * (p > 1.0 ? p - 1.0 : 1.0);
    case DeliveryStrategy::Shm:
      // Staged rounds meet spin-then-yield waits instead of poll wake-ups,
      // so the boundary undercuts both socket transports; measured 8us at
      // p=2, 27us at p=4 (BENCH_shm.json).
      return 9.0 * (p > 1.0 ? p - 1.0 : 1.0);
    case DeliveryStrategy::Eager:
      return 25.0;
    case DeliveryStrategy::Deferred:
      break;
  }
  return 20.0;
}

namespace {

/// Staged-exchange cost of a packet matrix, in packet-times: the socket
/// boundary runs p-1 simultaneous shift rounds, and round k lasts as long as
/// its largest pairwise transfer max_i M[i][(i+k) mod p] — the same law the
/// emulator's TcpStaged pricing uses (src/emul/emulator.cpp).
double staged_cost(const std::vector<std::vector<std::uint64_t>>& m) {
  const int p = static_cast<int>(m.size());
  double total = 0.0;
  for (int k = 1; k < p; ++k) {
    std::uint64_t worst = 0;
    for (int i = 0; i < p; ++i) {
      worst = std::max(worst, m[static_cast<std::size_t>(i)]
                                  [static_cast<std::size_t>((i + k) % p)]);
    }
    total += static_cast<double>(worst);
  }
  return total;
}

/// Barrier-transport cost: the classic h-relation — the largest fan-in or
/// fan-out at any node.
double h_relation_cost(const std::vector<std::vector<std::uint64_t>>& m) {
  const int p = static_cast<int>(m.size());
  std::uint64_t h = 0;
  for (int i = 0; i < p; ++i) {
    std::uint64_t out = 0, in = 0;
    for (int j = 0; j < p; ++j) {
      out += m[static_cast<std::size_t>(i)][static_cast<std::size_t>(j)];
      in += m[static_cast<std::size_t>(j)][static_cast<std::size_t>(i)];
    }
    h = std::max({h, out, in});
  }
  return static_cast<double>(h);
}

}  // namespace

ScheduleChoice evaluate_rooted_schedule(int p, std::size_t bytes, double g_us,
                                        double l_us, std::size_t packet_unit) {
  ScheduleChoice c;
  c.two_phase_us = std::numeric_limits<double>::infinity();
  if (p <= 1) {
    c.schedule = CollectiveSchedule::Direct;
    c.direct_us = 0.0;
    c.tree_us = 0.0;
    return c;
  }
  const double m = static_cast<double>(packets_for_bytes(bytes, packet_unit));
  int rounds = 0;
  for (int reach = 1; reach < p; reach *= 2) ++rounds;
  c.direct_us = l_us + g_us * m * static_cast<double>(p - 1);
  c.tree_us = static_cast<double>(rounds) * (l_us + g_us * m);
  // Ties go to Direct: fewer supersteps is the simpler schedule.
  c.schedule = c.tree_us < c.direct_us ? CollectiveSchedule::Tree
                                       : CollectiveSchedule::Direct;
  return c;
}

ScheduleChoice evaluate_alltoallv_schedule(
    const std::vector<std::vector<std::uint64_t>>& bytes, bool staged,
    double g_us, double l_us, std::size_t packet_unit) {
  ScheduleChoice c;
  c.tree_us = std::numeric_limits<double>::infinity();
  const int p = static_cast<int>(bytes.size());
  if (p <= 1) {
    c.schedule = CollectiveSchedule::Direct;
    c.two_phase_us = std::numeric_limits<double>::infinity();
    return c;
  }
  const std::size_t sp = static_cast<std::size_t>(p);
  auto zero_matrix = [sp] {
    return std::vector<std::vector<std::uint64_t>>(
        sp, std::vector<std::uint64_t>(sp, 0));
  };

  // Direct: each source->dest block is one combined message.
  auto direct = zero_matrix();
  for (std::size_t i = 0; i < sp; ++i) {
    for (std::size_t j = 0; j < sp; ++j) {
      if (i != j && bytes[i][j] != 0) {
        direct[i][j] = packets_for_bytes(bytes[i][j], packet_unit);
      }
    }
  }

  // Two-phase: replay the schedule's own slicing (collectives.hpp), header
  // bytes included, to get the exact phase matrices. Phase 1 sends the j-th
  // byte slice of every i->d block to intermediate j; phase 2 forwards the
  // regrouped segments to their destinations. The j == i and j == d legs
  // stay on-rank and cost nothing.
  auto slice_bytes = [p](std::uint64_t n, int j) {
    const std::uint64_t lo =
        n * static_cast<std::uint64_t>(j) / static_cast<std::uint64_t>(p);
    const std::uint64_t hi =
        n * (static_cast<std::uint64_t>(j) + 1) / static_cast<std::uint64_t>(p);
    return hi - lo;
  };
  constexpr std::uint64_t kSegHeader = 8;  // sizeof(detail::WireSegment)
  auto phase1 = zero_matrix();
  auto phase2 = zero_matrix();
  for (int i = 0; i < p; ++i) {
    for (int d = 0; d < p; ++d) {
      if (i == d) continue;
      const std::uint64_t b =
          bytes[static_cast<std::size_t>(i)][static_cast<std::size_t>(d)];
      if (b == 0) continue;
      for (int j = 0; j < p; ++j) {
        const std::uint64_t s = slice_bytes(b, j);
        if (s == 0) continue;
        if (j != i) {
          phase1[static_cast<std::size_t>(i)][static_cast<std::size_t>(j)] +=
              kSegHeader + s;
        }
        if (j != d) {
          phase2[static_cast<std::size_t>(j)][static_cast<std::size_t>(d)] +=
              kSegHeader + s;
        }
      }
    }
  }
  // Combined messages packetize as wholes.
  for (auto* m : {&phase1, &phase2}) {
    for (auto& row : *m) {
      for (auto& cell : row) {
        if (cell != 0) cell = packets_for_bytes(cell, packet_unit);
      }
    }
  }

  const double cost_direct = staged ? staged_cost(direct)
                                    : h_relation_cost(direct);
  const double cost_p1 = staged ? staged_cost(phase1) : h_relation_cost(phase1);
  const double cost_p2 = staged ? staged_cost(phase2) : h_relation_cost(phase2);
  c.direct_us = l_us + g_us * cost_direct;
  c.two_phase_us = 2.0 * l_us + g_us * (cost_p1 + cost_p2);
  // Ties go to Direct: one boundary, no repacking work.
  c.schedule = c.two_phase_us < c.direct_us ? CollectiveSchedule::TwoPhase
                                            : CollectiveSchedule::Direct;
  return c;
}

}  // namespace gbsp
