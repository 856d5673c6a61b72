//===- tests/SupportTest.cpp - support library unit tests -----------------===//

#include "support/CommandLine.h"
#include "support/Format.h"
#include "support/Random.h"
#include "support/Statistics.h"
#include "support/Table.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <iterator>
#include <set>

using namespace vmib;

TEST(Format, Basic) {
  EXPECT_EQ(format("x=%d", 42), "x=42");
  EXPECT_EQ(format("%s/%s", "a", "b"), "a/b");
  EXPECT_EQ(format(""), "");
}

TEST(Format, Thousands) {
  EXPECT_EQ(withThousands(0), "0");
  EXPECT_EQ(withThousands(999), "999");
  EXPECT_EQ(withThousands(1000), "1,000");
  EXPECT_EQ(withThousands(1234567), "1,234,567");
  EXPECT_EQ(withThousands(1000000000ULL), "1,000,000,000");
}

TEST(Format, HumanBytes) {
  EXPECT_EQ(humanBytes(512), "512B");
  EXPECT_EQ(humanBytes(2048), "2.0KB");
  EXPECT_EQ(humanBytes(1024 * 1024), "1.0MB");
  EXPECT_EQ(humanBytes(3ull * 1024 * 1024 * 1024), "3.0GB");
}

TEST(Format, FixedPoint) {
  EXPECT_EQ(formatDouble(2.3456, 2), "2.35");
  EXPECT_EQ(formatDouble(1.0, 0), "1");
}

TEST(Format, Padding) {
  EXPECT_EQ(padLeft("ab", 4), "  ab");
  EXPECT_EQ(padRight("ab", 4), "ab  ");
  EXPECT_EQ(padLeft("abcd", 2), "abcd");
}

TEST(Random, Deterministic) {
  Xoroshiro128 A(7), B(7);
  for (int I = 0; I < 100; ++I)
    EXPECT_EQ(A.next(), B.next());
}

TEST(Random, SeedsDiffer) {
  Xoroshiro128 A(1), B(2);
  int Same = 0;
  for (int I = 0; I < 100; ++I)
    if (A.next() == B.next())
      ++Same;
  EXPECT_LT(Same, 3);
}

TEST(Random, BoundedStaysBelow) {
  Xoroshiro128 Rng(99);
  for (int I = 0; I < 10000; ++I)
    EXPECT_LT(Rng.nextBelow(17), 17u);
}

TEST(Random, BoundedCoversRange) {
  Xoroshiro128 Rng(5);
  std::set<uint64_t> Seen;
  for (int I = 0; I < 1000; ++I)
    Seen.insert(Rng.nextBelow(8));
  EXPECT_EQ(Seen.size(), 8u);
}

TEST(Random, DoubleInUnitInterval) {
  Xoroshiro128 Rng(3);
  for (int I = 0; I < 1000; ++I) {
    double D = Rng.nextDouble();
    EXPECT_GE(D, 0.0);
    EXPECT_LT(D, 1.0);
  }
}

TEST(Statistics, Mean) {
  EXPECT_DOUBLE_EQ(mean({1, 2, 3}), 2.0);
  EXPECT_DOUBLE_EQ(mean({}), 0.0);
}

TEST(Statistics, Geomean) {
  EXPECT_DOUBLE_EQ(geomean({4, 1}), 2.0);
  EXPECT_NEAR(geomean({2, 2, 2}), 2.0, 1e-12);
}

TEST(Statistics, MinMax) {
  EXPECT_DOUBLE_EQ(minOf({3, 1, 2}), 1.0);
  EXPECT_DOUBLE_EQ(maxOf({3, 1, 2}), 3.0);
}

TEST(Table, RendersAligned) {
  TextTable T({"name", "value"});
  T.addRow({"a", "1"});
  T.addRow({"bb", "22"});
  std::string Out = T.render();
  EXPECT_NE(Out.find("name"), std::string::npos);
  EXPECT_NE(Out.find("22"), std::string::npos);
  // All lines equal length (aligned columns).
  size_t FirstNl = Out.find('\n');
  ASSERT_NE(FirstNl, std::string::npos);
  EXPECT_EQ(T.numRows(), 2u);
}

TEST(Table, NumericRightAligned) {
  TextTable T({"v"});
  T.addRow({"1"});
  T.addRow({"1000"});
  std::string Out = T.render();
  // "1" padded left to width 4: appears as "    1 " style cell.
  EXPECT_NE(Out.find("   1 "), std::string::npos);
}

TEST(CommandLine, ParsesOptionsAndPositional) {
  const char *Argv[] = {"prog", "--alpha=3", "--flag", "pos1", "--name=x"};
  OptionParser P(5, Argv);
  EXPECT_TRUE(P.has("alpha"));
  uint64_t Alpha = 0;
  EXPECT_TRUE(P.getCount("alpha", 0, Alpha));
  EXPECT_EQ(Alpha, 3u);
  EXPECT_TRUE(P.has("flag"));
  EXPECT_EQ(P.get("flag"), "1");
  EXPECT_EQ(P.get("name"), "x");
  EXPECT_EQ(P.get("missing", "dflt"), "dflt");
  ASSERT_EQ(P.positional().size(), 1u);
  EXPECT_EQ(P.positional()[0], "pos1");
}

TEST(CommandLine, CountRejectsAnythingButPlainDecimal) {
  const char *Argv[] = {"prog",
                        "--zero=0",
                        "--big=18446744073709551615",
                        "--over=18446744073709551616",
                        "--octal=010",
                        "--hex=0x10",
                        "--word=foo",
                        "--tail=4x",
                        "--neg=-1",
                        "--plus=+1",
                        "--space= 1",
                        "--empty=",
                        "--flag"};
  OptionParser P(static_cast<int>(std::size(Argv)), Argv);
  uint64_t V = 7;
  EXPECT_TRUE(P.getCount("missing", 42, V));
  EXPECT_EQ(V, 42u);
  EXPECT_TRUE(P.getCount("zero", 42, V));
  EXPECT_EQ(V, 0u);
  EXPECT_TRUE(P.getCount("big", 0, V));
  EXPECT_EQ(V, UINT64_MAX);
  for (const char *Bad : {"over", "octal", "hex", "word", "tail", "neg",
                          "plus", "space", "empty"}) {
    V = 7;
    EXPECT_FALSE(P.getCount(Bad, 0, V)) << Bad;
    EXPECT_EQ(V, 7u) << Bad << ": out-param touched on reject";
  }
  // A bare flag reads as "1", the OptionParser's flag value.
  EXPECT_TRUE(P.getCount("flag", 0, V));
  EXPECT_EQ(V, 1u);
}
