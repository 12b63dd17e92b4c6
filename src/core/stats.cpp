#include "core/stats.hpp"

#include <algorithm>
#include <sstream>

namespace gbsp {

double RunStats::W_s() const {
  double w = 0.0;
  for (const auto& s : supersteps) w += s.w_max_us;
  return w * 1e-6;
}

double RunStats::total_work_s() const {
  double w = 0.0;
  for (const auto& s : supersteps) w += s.w_total_us;
  return w * 1e-6;
}

std::uint64_t RunStats::H() const {
  std::uint64_t h = 0;
  for (const auto& s : supersteps) h += s.h_packets;
  return h;
}

std::uint64_t RunStats::total_packets() const {
  std::uint64_t n = 0;
  for (const auto& s : supersteps) n += s.total_packets;
  return n;
}

std::uint64_t RunStats::total_bytes() const {
  std::uint64_t n = 0;
  for (const auto& s : supersteps) n += s.total_bytes;
  return n;
}

std::uint64_t RunStats::total_wire_bytes() const {
  std::uint64_t n = 0;
  for (const auto& s : supersteps) n += s.total_wire_bytes;
  return n;
}

std::uint64_t RunStats::total_wire_syscalls() const {
  std::uint64_t n = 0;
  for (const auto& s : supersteps) n += s.total_wire_syscalls;
  return n;
}

std::uint64_t RunStats::total_wire_zc_bytes() const {
  std::uint64_t n = 0;
  for (const auto& s : supersteps) n += s.total_wire_zc_bytes;
  return n;
}

std::uint64_t RunStats::total_injected_faults() const {
  std::uint64_t n = 0;
  for (const auto& s : supersteps) n += s.total_injected_faults;
  return n;
}

std::uint64_t RunStats::total_checkpoint_bytes() const {
  std::uint64_t n = 0;
  for (const auto& s : supersteps) n += s.total_checkpoint_bytes;
  return n;
}

double RunStats::overlap_s() const {
  double us = 0.0;
  for (const auto& s : supersteps) us += s.overlap_max_us;
  return us * 1e-6;
}

std::uint64_t RunStats::total_overlap_wire_bytes() const {
  std::uint64_t n = 0;
  for (const auto& s : supersteps) n += s.total_overlap_wire_bytes;
  return n;
}

void RunStats::aggregate_from_traces() {
  supersteps.clear();
  std::size_t steps = 0;
  for (const auto& t : traces) steps = std::max(steps, t.size());
  supersteps.resize(steps);
  for (std::size_t i = 0; i < steps; ++i) {
    SuperstepStats agg;
    for (const auto& t : traces) {
      if (i >= t.size()) continue;
      const WorkerStepRecord& r = t[i];
      agg.w_max_us = std::max(agg.w_max_us, r.work_us);
      agg.w_total_us += r.work_us;
      agg.h_packets =
          std::max({agg.h_packets, r.sent_packets, r.recv_packets});
      agg.total_packets += r.sent_packets;
      agg.total_bytes += r.sent_bytes;
      agg.total_messages += r.sent_messages;
      agg.h_messages =
          std::max({agg.h_messages, r.sent_messages, r.recv_messages});
      agg.endpoint_messages = std::max(agg.endpoint_messages,
                                       r.sent_messages + r.recv_messages);
      agg.total_wire_bytes += r.wire_bytes;
      agg.total_wire_syscalls += r.wire_syscalls;
      agg.total_wire_zc_bytes += r.wire_zc_bytes;
      agg.total_injected_faults += r.injected_faults;
      agg.total_checkpoint_bytes += r.checkpoint_bytes;
      agg.checkpoint_max_us = std::max(agg.checkpoint_max_us, r.checkpoint_us);
      agg.restore_max_us = std::max(agg.restore_max_us, r.restore_us);
      agg.overlap_max_us = std::max(agg.overlap_max_us, r.overlap_us);
      agg.total_overlap_wire_bytes += r.overlap_wire_bytes;
    }
    supersteps[i] = agg;
  }
}

std::string RunStats::summary() const {
  std::ostringstream os;
  os << "S=" << S() << " W=" << W_s() << "s H=" << H()
     << " total_work=" << total_work_s() << "s wall=" << wall_s << "s";
  return os.str();
}

}  // namespace gbsp
