// Trace persistence: CSV round-trip, re-pricing equality, and error paths.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <sstream>
#include <string>

#include "core/stats_io.hpp"
#include "emul/emulator.hpp"

namespace gbsp {
namespace {

RunStats sample_trace() {
  return execute_traced(4, [](Worker& w) {
    for (int r = 0; r < 6; ++r) {
      volatile double sink = 0;
      for (int i = 0; i < 20000 * (w.pid() + 1); ++i) sink = sink + 1;
      for (int k = 0; k <= r; ++k) {
        w.send((w.pid() + 1) % w.nprocs(), k);
      }
      w.sync();
      while (w.get_message() != nullptr) {
      }
    }
  });
}

TEST(StatsIo, CsvRoundTripsAggregatesExactly) {
  const RunStats original = sample_trace();
  std::stringstream buf;
  write_superstep_csv(buf, original);
  const RunStats loaded = read_superstep_csv(buf, original.nprocs);

  ASSERT_EQ(loaded.S(), original.S());
  EXPECT_EQ(loaded.H(), original.H());
  EXPECT_EQ(loaded.total_packets(), original.total_packets());
  EXPECT_EQ(loaded.total_bytes(), original.total_bytes());
  for (std::size_t i = 0; i < original.supersteps.size(); ++i) {
    const auto& a = original.supersteps[i];
    const auto& b = loaded.supersteps[i];
    EXPECT_DOUBLE_EQ(a.w_max_us, b.w_max_us) << i;
    EXPECT_DOUBLE_EQ(a.w_total_us, b.w_total_us) << i;
    EXPECT_EQ(a.h_messages, b.h_messages) << i;
    EXPECT_EQ(a.endpoint_messages, b.endpoint_messages) << i;
  }
}

TEST(StatsIo, CsvRoundTripsEveryColumn) {
  // Every SuperstepStats field holds a distinct value (thirds for the
  // doubles, so they are non-integral and need every digit), so a column
  // that is dropped, swapped, or parsed into the wrong field fails here.
  RunStats original;
  original.nprocs = 3;
  for (int row = 0; row < 2; ++row) {
    std::uint64_t next = 100 * static_cast<std::uint64_t>(row + 1);
    const auto count = [&next] { return ++next; };
    const auto third = [&next] { return static_cast<double>(++next) / 3.0; };
    SuperstepStats s;
    s.w_max_us = third();
    s.w_total_us = third();
    s.h_packets = count();
    s.total_packets = count();
    s.total_bytes = count();
    s.total_messages = count();
    s.h_messages = count();
    s.endpoint_messages = count();
    s.total_wire_bytes = count();
    s.total_wire_syscalls = count();
    s.total_wire_zc_bytes = count();
    s.total_injected_faults = count();
    s.total_checkpoint_bytes = count();
    s.checkpoint_max_us = third();
    s.restore_max_us = third();
    s.overlap_max_us = third();
    s.total_overlap_wire_bytes = count();
    original.supersteps.push_back(s);
  }
  std::stringstream buf;
  write_superstep_csv(buf, original);
  const std::string text = buf.str();
  const RunStats loaded = read_superstep_csv(buf, original.nprocs);

  ASSERT_EQ(loaded.S(), original.S());
  for (std::size_t i = 0; i < original.supersteps.size(); ++i) {
    const SuperstepStats& a = original.supersteps[i];
    const SuperstepStats& b = loaded.supersteps[i];
    EXPECT_EQ(a.w_max_us, b.w_max_us) << i;
    EXPECT_EQ(a.w_total_us, b.w_total_us) << i;
    EXPECT_EQ(a.h_packets, b.h_packets) << i;
    EXPECT_EQ(a.total_packets, b.total_packets) << i;
    EXPECT_EQ(a.total_bytes, b.total_bytes) << i;
    EXPECT_EQ(a.total_messages, b.total_messages) << i;
    EXPECT_EQ(a.h_messages, b.h_messages) << i;
    EXPECT_EQ(a.endpoint_messages, b.endpoint_messages) << i;
    EXPECT_EQ(a.total_wire_bytes, b.total_wire_bytes) << i;
    EXPECT_EQ(a.total_wire_syscalls, b.total_wire_syscalls) << i;
    EXPECT_EQ(a.total_wire_zc_bytes, b.total_wire_zc_bytes) << i;
    EXPECT_EQ(a.total_injected_faults, b.total_injected_faults) << i;
    EXPECT_EQ(a.total_checkpoint_bytes, b.total_checkpoint_bytes) << i;
    EXPECT_EQ(a.checkpoint_max_us, b.checkpoint_max_us) << i;
    EXPECT_EQ(a.restore_max_us, b.restore_max_us) << i;
    EXPECT_EQ(a.overlap_max_us, b.overlap_max_us) << i;
    EXPECT_EQ(a.total_overlap_wire_bytes, b.total_overlap_wire_bytes) << i;
  }

  std::stringstream again;
  write_superstep_csv(again, loaded);
  EXPECT_EQ(again.str(), text);
}

TEST(StatsIo, ReloadedTracePricesIdentically) {
  // The whole point: capture once, re-price later (e.g. under a new machine
  // model) without re-running the application. The SGI and Cenju transports
  // price from the aggregates, so the reload must price identically.
  const RunStats original = sample_trace();
  std::stringstream buf;
  write_superstep_csv(buf, original);
  const RunStats loaded = read_superstep_csv(buf, original.nprocs);
  for (const auto& machine : {emulated_sgi(), emulated_cenju()}) {
    EXPECT_DOUBLE_EQ(price_trace(original, machine, 2.0),
                     price_trace(loaded, machine, 2.0))
        << machine.name();
  }
}

TEST(StatsIo, FileHelpersWork) {
  const RunStats original = sample_trace();
  const std::string path = testing::TempDir() + "/gbsp_trace.csv";
  save_superstep_csv(path, original);
  const RunStats loaded = load_superstep_csv(path, 4);
  EXPECT_EQ(loaded.S(), original.S());
  EXPECT_EQ(loaded.H(), original.H());
  std::remove(path.c_str());
  EXPECT_THROW((void)load_superstep_csv(path, 4), std::runtime_error);
}

TEST(StatsIo, MalformedInputIsDiagnosed) {
  std::stringstream no_header("1,2,3\n");
  EXPECT_THROW((void)read_superstep_csv(no_header, 2), std::invalid_argument);

  const std::string header =
      "superstep,w_max_us,w_total_us,h_packets,total_packets,total_bytes,"
      "total_messages,h_messages,endpoint_messages,total_wire_bytes,"
      "total_wire_syscalls,total_wire_zc_bytes,injected_faults,"
      "checkpoint_bytes,checkpoint_max_us,restore_max_us,overlap_max_us,"
      "total_overlap_wire_bytes\n";

  // The literal header is the file format: a well-formed row under it loads.
  std::stringstream good_row(header + "0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0\n");
  EXPECT_EQ(read_superstep_csv(good_row, 2).S(), 1u);

  std::stringstream short_row(header + "1,2,3\n");
  EXPECT_THROW((void)read_superstep_csv(short_row, 2), std::invalid_argument);

  std::stringstream bad_value(header +
                              "0,x,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0\n");
  EXPECT_THROW((void)read_superstep_csv(bad_value, 2), std::invalid_argument);
}

TEST(StatsIo, EmptyTraceIsJustTheHeader) {
  RunStats empty;
  empty.nprocs = 1;
  std::stringstream buf;
  write_superstep_csv(buf, empty);
  const RunStats loaded = read_superstep_csv(buf, 1);
  EXPECT_EQ(loaded.S(), 0u);
}

}  // namespace
}  // namespace gbsp
