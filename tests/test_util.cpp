#include <gtest/gtest.h>

#include <set>
#include <sstream>
#include <thread>

#include "util/cli.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"

namespace gbsp {
namespace {

// ------------------------------------------------------------------- timers

TEST(Timer, WallTimerAdvances) {
  WallTimer t;
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  EXPECT_GE(t.elapsed_s(), 0.004);
  EXPECT_NEAR(t.elapsed_us(), t.elapsed_s() * 1e6, t.elapsed_us() * 0.5);
}

TEST(Timer, RestartRebases) {
  WallTimer t;
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  t.restart();
  EXPECT_LT(t.elapsed_s(), 0.004);
}

TEST(Timer, ThreadCpuTimerCountsWork) {
  ThreadCpuTimer t;
  volatile double sink = 0;
  for (int i = 0; i < 2'000'000; ++i) sink = sink + 1.0;
  EXPECT_GT(t.elapsed_us(), 100.0);  // a couple million adds take > 0.1 ms
}

TEST(Timer, ThreadCpuTimerExcludesSleep) {
  ThreadCpuTimer cpu;
  WallTimer wall;
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  EXPECT_GE(wall.elapsed_us(), 25'000.0);
  EXPECT_LT(cpu.elapsed_us(), 15'000.0);  // sleep burns ~no CPU
}

// ---------------------------------------------------------------------- rng

TEST(Rng, SplitMixIsDeterministic) {
  SplitMix64 a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, XoshiroIsDeterministicAndSeedSensitive) {
  Xoshiro256 a(7), b(7), c(8);
  bool all_equal = true;
  for (int i = 0; i < 64; ++i) {
    const auto va = a.next();
    EXPECT_EQ(va, b.next());
    if (va != c.next()) all_equal = false;
  }
  EXPECT_FALSE(all_equal);
}

TEST(Rng, UniformInUnitInterval) {
  Xoshiro256 r(123);
  for (int i = 0; i < 10'000; ++i) {
    const double u = r.uniform();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
  }
}

TEST(Rng, UniformRangeRespectsBounds) {
  Xoshiro256 r(5);
  for (int i = 0; i < 1000; ++i) {
    const double u = r.uniform(-3.0, 2.0);
    ASSERT_GE(u, -3.0);
    ASSERT_LT(u, 2.0);
  }
}

TEST(Rng, UniformIntCoversRangeWithoutEscaping) {
  Xoshiro256 r(99);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 2000; ++i) {
    const auto v = r.uniform_int(7);
    ASSERT_LT(v, 7u);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 7u);  // all residues hit over 2000 draws
}

TEST(Rng, UniformIntZeroIsZero) {
  Xoshiro256 r(1);
  EXPECT_EQ(r.uniform_int(0), 0u);
  EXPECT_EQ(r.uniform_int(1), 0u);
}

// ---------------------------------------------------------------------- cli

CliArgs make_args(std::vector<std::string> argv) {
  static std::vector<std::string> storage;
  storage = std::move(argv);
  static std::vector<char*> ptrs;
  ptrs.clear();
  for (auto& s : storage) ptrs.push_back(s.data());
  return CliArgs(static_cast<int>(ptrs.size()), ptrs.data());
}

TEST(Cli, ParsesFlagsValuesAndPositionals) {
  auto args = make_args({"prog", "--full", "--size", "40", "--name=ocean",
                         "leftover"});
  EXPECT_TRUE(args.has_flag("full"));
  EXPECT_FALSE(args.has_flag("quick"));
  EXPECT_EQ(args.get_int("size", 0), 40);
  EXPECT_EQ(args.get_string("name", ""), "ocean");
  ASSERT_EQ(args.positionals().size(), 1u);
  EXPECT_EQ(args.positionals()[0], "leftover");
  EXPECT_EQ(args.program_name(), "prog");
}

TEST(Cli, FallbacksApplyWhenAbsent) {
  auto args = make_args({"prog"});
  EXPECT_EQ(args.get_int("procs", 16), 16);
  EXPECT_DOUBLE_EQ(args.get_double("theta", 0.5), 0.5);
  EXPECT_EQ(args.get_string("machine", "SGI"), "SGI");
}

TEST(Cli, IntListParsing) {
  auto args = make_args({"prog", "--procs", "1,2,4,8,16"});
  const auto v = args.get_int_list("procs", {});
  EXPECT_EQ(v, (std::vector<std::int64_t>{1, 2, 4, 8, 16}));
  const auto fb = args.get_int_list("sizes", {66, 130});
  EXPECT_EQ(fb, (std::vector<std::int64_t>{66, 130}));
}

TEST(Cli, DoubleValues) {
  auto args = make_args({"prog", "--g", "2.2", "--L=1470"});
  EXPECT_DOUBLE_EQ(args.get_double("g", 0), 2.2);
  EXPECT_DOUBLE_EQ(args.get_double("L", 0), 1470.0);
}

// -------------------------------------------------------------------- table

TEST(Table, FormatNumberTrimsTrailingZeros) {
  EXPECT_EQ(format_number(0.77), "0.77");
  EXPECT_EQ(format_number(4.0, 1), "4");
  EXPECT_EQ(format_number(17.0, 2), "17");
  EXPECT_EQ(format_number(2.30, 2), "2.3");
  EXPECT_EQ(format_number(-1.50, 2), "-1.5");
}

TEST(Table, RendersAlignedColumns) {
  TextTable t({"app", "time", "spdp"});
  t.row().add("ocean").add(2.23).add(17.0, 1);
  t.row().add("nbody").add(5.04).add_missing();
  const std::string s = t.to_string();
  EXPECT_NE(s.find("ocean"), std::string::npos);
  EXPECT_NE(s.find("2.23"), std::string::npos);
  EXPECT_NE(s.find("17"), std::string::npos);
  EXPECT_NE(s.find("-"), std::string::npos);
  EXPECT_EQ(t.num_rows(), 2u);
}

TEST(Table, CsvOutput) {
  TextTable t({"a", "b"});
  t.row().add(std::int64_t{1}).add("x");
  std::ostringstream os;
  t.render_csv(os);
  EXPECT_EQ(os.str(), "a,b\n1,x\n");
}

}  // namespace
}  // namespace gbsp
