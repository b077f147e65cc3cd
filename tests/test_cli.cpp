//===- tests/test_cli.cpp - CommandLine parser unit tests -----------------===//
//
// Part of the lfsmr project (Hyaline reproduction, PLDI 2021).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Focused coverage of the flag parser the benchmark orchestrator relies
/// on: every flag form, list parsing, unknown-flag detection (so a typo
/// like `--treads 8` is rejected instead of silently running the default
/// sweep), and range checks (so an out-of-range count is rejected instead
/// of wrapping when a tool narrows it to `unsigned`).
///
//===----------------------------------------------------------------------===//

#include "devtools/cli.h"

#include "gtest/gtest.h"

#include <algorithm>
#include <cstdint>
#include <initializer_list>
#include <limits>
#include <string>
#include <thread>
#include <vector>

using namespace lfsmr;

namespace {

CommandLine parse(std::initializer_list<const char *> Args) {
  std::vector<const char *> V{"lfsmr-bench"};
  V.insert(V.end(), Args.begin(), Args.end());
  return CommandLine(static_cast<int>(V.size()), V.data());
}

//===----------------------------------------------------------------------===
// Flag forms

TEST(CliFlags, SpaceSeparatedValue) {
  auto C = parse({"--threads", "8"});
  EXPECT_TRUE(C.has("threads"));
  EXPECT_EQ(C.getInt("threads", 0), 8);
}

TEST(CliFlags, EqualsValue) {
  auto C = parse({"--mode=full"});
  EXPECT_EQ(C.getString("mode", ""), "full");
}

TEST(CliFlags, EqualsValueMayContainEquals) {
  auto C = parse({"--define=a=b"});
  EXPECT_EQ(C.getString("define", ""), "a=b");
}

TEST(CliFlags, BooleanFlag) {
  auto C = parse({"--full"});
  EXPECT_TRUE(C.has("full"));
  // A boolean flag has no value; getString falls back to the default.
  EXPECT_EQ(C.getString("full", "dflt"), "dflt");
}

TEST(CliFlags, FlagFollowedByFlagIsBoolean) {
  auto C = parse({"--verbose", "--threads", "4"});
  EXPECT_TRUE(C.has("verbose"));
  EXPECT_EQ(C.getInt("threads", 0), 4);
}

TEST(CliFlags, DoubleValue) {
  auto C = parse({"--secs", "0.25"});
  EXPECT_DOUBLE_EQ(C.getDouble("secs", 0), 0.25);
}

TEST(CliFlags, DefaultsWhenAbsent) {
  auto C = parse({});
  EXPECT_FALSE(C.has("threads"));
  EXPECT_EQ(C.getInt("threads", 7), 7);
  EXPECT_DOUBLE_EQ(C.getDouble("secs", 1.5), 1.5);
  EXPECT_EQ(C.getString("format", "human"), "human");
}

TEST(CliFlags, ProgramAndPositional) {
  auto C = parse({"hashmap", "--secs", "1", "extra"});
  EXPECT_EQ(C.program(), "lfsmr-bench");
  ASSERT_EQ(C.positional().size(), 2u);
  EXPECT_EQ(C.positional()[0], "hashmap");
  EXPECT_EQ(C.positional()[1], "extra");
}

//===----------------------------------------------------------------------===
// List parsing

TEST(CliLists, IntList) {
  auto C = parse({"--threads", "1,2,4,8"});
  const std::vector<int64_t> L = C.getIntList("threads", {});
  ASSERT_EQ(L.size(), 4u);
  EXPECT_EQ(L[0], 1);
  EXPECT_EQ(L[1], 2);
  EXPECT_EQ(L[2], 4);
  EXPECT_EQ(L[3], 8);
}

TEST(CliLists, OversubscribedThreadCountsPassThrough) {
  // `--threads` above hardware_concurrency is a first-class request
  // (the kv-serve oversub scenario: threads >> cores), not a mistake:
  // the parse layer must hand the counts through without clamping to
  // the core count.
  const unsigned HW = std::max(1u, std::thread::hardware_concurrency());
  const std::string Huge = std::to_string(static_cast<uint64_t>(HW) * 64);
  auto C = parse({"--threads", ("2," + Huge + ",4096").c_str()});
  const std::vector<int64_t> L = C.getIntList("threads", {});
  ASSERT_EQ(L.size(), 3u);
  EXPECT_EQ(L[0], 2);
  EXPECT_EQ(L[1], static_cast<int64_t>(HW) * 64);
  EXPECT_EQ(L[2], 4096);
  EXPECT_GT(L[2], static_cast<int64_t>(HW))
      << "values past the core count must survive parsing untouched";
}

TEST(CliLists, IntListSingleElement) {
  auto C = parse({"--threads=16"});
  const std::vector<int64_t> L = C.getIntList("threads", {});
  ASSERT_EQ(L.size(), 1u);
  EXPECT_EQ(L[0], 16);
}

TEST(CliLists, IntListDefault) {
  auto C = parse({});
  const std::vector<int64_t> L = C.getIntList("threads", {3, 5});
  ASSERT_EQ(L.size(), 2u);
  EXPECT_EQ(L[0], 3);
  EXPECT_EQ(L[1], 5);
}

TEST(CliLists, StringList) {
  auto C = parse({"--schemes", "epoch,hyaline,hp"});
  const std::vector<std::string> L = C.getStringList("schemes", {});
  ASSERT_EQ(L.size(), 3u);
  EXPECT_EQ(L[0], "epoch");
  EXPECT_EQ(L[1], "hyaline");
  EXPECT_EQ(L[2], "hp");
}

TEST(CliLists, StringListDropsEmptyElements) {
  auto C = parse({"--schemes", ",epoch,,hp,"});
  const std::vector<std::string> L = C.getStringList("schemes", {});
  ASSERT_EQ(L.size(), 2u);
  EXPECT_EQ(L[0], "epoch");
  EXPECT_EQ(L[1], "hp");
}

TEST(CliLists, StringListDefault) {
  auto C = parse({});
  const std::vector<std::string> L = C.getStringList("schemes", {"nomm"});
  ASSERT_EQ(L.size(), 1u);
  EXPECT_EQ(L[0], "nomm");
}

//===----------------------------------------------------------------------===
// Unknown-flag detection

TEST(CliUnknown, TypoIsDetected) {
  auto C = parse({"--treads", "8"}); // the ISSUE's motivating typo
  const auto U = C.unknownFlags({"threads", "secs", "repeats"});
  ASSERT_EQ(U.size(), 1u);
  EXPECT_EQ(U[0], "treads");
}

TEST(CliUnknown, AllKnownIsEmpty) {
  auto C = parse({"--threads", "8", "--secs=0.5", "--full"});
  EXPECT_TRUE(C.unknownFlags({"threads", "secs", "full"}).empty());
}

TEST(CliUnknown, PreservesFirstAppearanceOrder) {
  auto C = parse({"--zeta", "--alpha", "--secs", "1"});
  const auto U = C.unknownFlags({"secs"});
  ASSERT_EQ(U.size(), 2u);
  EXPECT_EQ(U[0], "zeta");
  EXPECT_EQ(U[1], "alpha");
}

TEST(CliUnknown, DeduplicatesRepeats) {
  auto C = parse({"--bogus", "1", "--bogus", "2"});
  const auto U = C.unknownFlags({});
  ASSERT_EQ(U.size(), 1u);
  EXPECT_EQ(U[0], "bogus");
}

TEST(CliUnknown, PositionalsAreNotFlags) {
  auto C = parse({"hashmap", "stray"});
  EXPECT_TRUE(C.unknownFlags({}).empty());
}

//===----------------------------------------------------------------------===
// Range checks: a value that does not fit is a usage error (exit 2),
// never a saturated or wrapped count. The parser exits before any caller
// sees the value, so none of these cases starts a thread.

constexpr int64_t UnsignedMax = std::numeric_limits<unsigned>::max();

TEST(CliRange, IntOutsideInt64IsRejected) {
  auto Above = parse({"--seed=9223372036854775808"});
  EXPECT_EXIT(Above.getInt("seed", 0), ::testing::ExitedWithCode(2),
              "flag --seed expects an integer in");
  auto Below = parse({"--seed=-9223372036854775809"});
  EXPECT_EXIT(Below.getInt("seed", 0), ::testing::ExitedWithCode(2),
              "flag --seed expects an integer in");
}

TEST(CliRange, IntListElementPastInt64IsRejected) {
  auto C = parse({"--threads", "2,99999999999999999999"});
  EXPECT_EXIT(C.getIntList("threads", {}), ::testing::ExitedWithCode(2),
              "flag --threads expects an integer in");
}

TEST(CliRange, NegativeCountIsRejected) {
  // lfsmr-stat narrows --threads to unsigned: -1 would ask for
  // 4294967295 workers.
  auto C = parse({"--threads=-1"});
  EXPECT_EXIT(C.getInt("threads", 4, 1, UnsignedMax - 1),
              ::testing::ExitedWithCode(2),
              "flag --threads expects an integer in");
}

TEST(CliRange, ListEntryOutsideBoundsIsRejected) {
  auto Negative = parse({"--threads=2,-4"});
  EXPECT_EXIT(Negative.getIntList("threads", {}, 1, UnsignedMax),
              ::testing::ExitedWithCode(2),
              "flag --threads expects an integer in");
  // lfsmr-bench narrows entries to unsigned: 4294967297 would run 1
  // thread.
  auto PastMax = parse({"--threads", "4294967297"});
  EXPECT_EXIT(PastMax.getIntList("threads", {}, 1, UnsignedMax),
              ::testing::ExitedWithCode(2),
              "flag --threads expects an integer in");
}

TEST(CliRange, BoundsAreInclusive) {
  auto C = parse({"--threads=1,4294967295", "--seed=-9223372036854775808",
                  "--keys=1"});
  const std::vector<int64_t> L = C.getIntList("threads", {}, 1, UnsignedMax);
  ASSERT_EQ(L.size(), 2u);
  EXPECT_EQ(L[0], 1);
  EXPECT_EQ(L[1], UnsignedMax);
  EXPECT_EQ(C.getInt("seed", 0), std::numeric_limits<int64_t>::min());
  EXPECT_EQ(C.getInt("keys", 4096, 1), 1);
}

} // namespace
