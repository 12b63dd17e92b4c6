#include "core/stats_io.hpp"

#include <algorithm>
#include <fstream>
#include <iomanip>
#include <limits>
#include <stdexcept>
#include <variant>
#include <vector>

namespace gbsp {

namespace {

/// The CSV columns after `superstep`, in file order: header name and the
/// SuperstepStats field. The writer and the reader both walk this list.
struct Column {
  const char* name;
  std::variant<std::uint64_t SuperstepStats::*, double SuperstepStats::*>
      field;
};

const Column kColumns[] = {
    {"w_max_us", &SuperstepStats::w_max_us},
    {"w_total_us", &SuperstepStats::w_total_us},
    {"h_packets", &SuperstepStats::h_packets},
    {"total_packets", &SuperstepStats::total_packets},
    {"total_bytes", &SuperstepStats::total_bytes},
    {"total_messages", &SuperstepStats::total_messages},
    {"h_messages", &SuperstepStats::h_messages},
    {"endpoint_messages", &SuperstepStats::endpoint_messages},
    {"total_wire_bytes", &SuperstepStats::total_wire_bytes},
    {"total_wire_syscalls", &SuperstepStats::total_wire_syscalls},
    {"total_wire_zc_bytes", &SuperstepStats::total_wire_zc_bytes},
    {"injected_faults", &SuperstepStats::total_injected_faults},
    {"checkpoint_bytes", &SuperstepStats::total_checkpoint_bytes},
    {"checkpoint_max_us", &SuperstepStats::checkpoint_max_us},
    {"restore_max_us", &SuperstepStats::restore_max_us},
    {"overlap_max_us", &SuperstepStats::overlap_max_us},
    {"total_overlap_wire_bytes", &SuperstepStats::total_overlap_wire_bytes},
};

std::string header() {
  std::string h = "superstep";
  for (const Column& c : kColumns) h.append(",").append(c.name);
  return h;
}

void parse(const std::string& cell, std::uint64_t& out) {
  out = std::stoull(cell);
}
void parse(const std::string& cell, double& out) { out = std::stod(cell); }

std::vector<std::string> split_csv(const std::string& line) {
  std::vector<std::string> out;
  std::size_t pos = 0;
  while (pos <= line.size()) {
    const std::size_t comma = std::min(line.find(',', pos), line.size());
    out.push_back(line.substr(pos, comma - pos));
    pos = comma + 1;
  }
  return out;
}

}  // namespace

void write_superstep_csv(std::ostream& os, const RunStats& stats) {
  // max_digits10 makes the double columns round-trip bit-exactly, so a
  // reloaded trace prices identically to the captured one.
  os << std::setprecision(std::numeric_limits<double>::max_digits10);
  os << header() << '\n';
  for (std::size_t i = 0; i < stats.supersteps.size(); ++i) {
    const SuperstepStats& s = stats.supersteps[i];
    os << i;
    for (const Column& c : kColumns) {
      std::visit([&](auto field) { os << ',' << s.*field; }, c.field);
    }
    os << '\n';
  }
}

RunStats read_superstep_csv(std::istream& is, int nprocs) {
  std::string line;
  if (!std::getline(is, line) || line != header()) {
    throw std::invalid_argument("stats_io: missing or unexpected CSV header");
  }
  RunStats stats;
  stats.nprocs = nprocs;
  while (std::getline(is, line)) {
    if (line.empty()) continue;
    const auto cells = split_csv(line);
    if (cells.size() != 1 + std::size(kColumns)) {
      throw std::invalid_argument("stats_io: malformed CSV row: " + line);
    }
    SuperstepStats s;
    try {
      for (std::size_t k = 0; k < std::size(kColumns); ++k) {
        std::visit([&](auto field) { parse(cells[k + 1], s.*field); },
                   kColumns[k].field);
      }
    } catch (const std::exception&) {
      throw std::invalid_argument("stats_io: malformed CSV value: " + line);
    }
    stats.supersteps.push_back(s);
  }
  return stats;
}

void save_superstep_csv(const std::string& path, const RunStats& stats) {
  std::ofstream os(path);
  if (!os) throw std::runtime_error("stats_io: cannot open " + path);
  write_superstep_csv(os, stats);
  if (!os.good()) throw std::runtime_error("stats_io: write failed: " + path);
}

RunStats load_superstep_csv(const std::string& path, int nprocs) {
  std::ifstream is(path);
  if (!is) throw std::runtime_error("stats_io: cannot open " + path);
  return read_superstep_csv(is, nprocs);
}

}  // namespace gbsp
