// Persistence for run statistics: per-superstep CSV export (for plotting
// the figures outside this harness) and re-import (so traces captured once
// can be re-priced under new machine models without re-running the
// application).
#pragma once

#include <istream>
#include <ostream>
#include <string>

#include "core/stats.hpp"

namespace gbsp {

/// Writes the per-superstep aggregates as an 18-column CSV:
/// superstep,w_max_us,w_total_us,h_packets,total_packets,total_bytes,
/// total_messages,h_messages,endpoint_messages,total_wire_bytes,
/// total_wire_syscalls,total_wire_zc_bytes,injected_faults,checkpoint_bytes,
/// checkpoint_max_us,restore_max_us,overlap_max_us,total_overlap_wire_bytes
void write_superstep_csv(std::ostream& os, const RunStats& stats);

/// Parses write_superstep_csv output back into aggregates. Traces
/// round-trip exactly (note: per-worker traces and communication matrices
/// are aggregate-level only and are not persisted). Throws
/// std::invalid_argument on malformed input.
RunStats read_superstep_csv(std::istream& is, int nprocs);

/// File-path conveniences; throw std::runtime_error on I/O failure.
void save_superstep_csv(const std::string& path, const RunStats& stats);
RunStats load_superstep_csv(const std::string& path, int nprocs);

}  // namespace gbsp
