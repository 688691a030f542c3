#include "src/guest/cpumask.h"

#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

namespace vsched {
namespace {

TEST(CpuMaskTest, BasicSetTestClear) {
  CpuMask m;
  EXPECT_TRUE(m.Empty());
  m.Set(3);
  m.Set(63);
  EXPECT_TRUE(m.Test(3));
  EXPECT_TRUE(m.Test(63));
  EXPECT_FALSE(m.Test(4));
  EXPECT_EQ(m.Count(), 2);
  m.Clear(3);
  EXPECT_FALSE(m.Test(3));
}

TEST(CpuMaskTest, FirstN) {
  EXPECT_EQ(CpuMask::FirstN(0).Count(), 0);
  EXPECT_EQ(CpuMask::FirstN(5).Count(), 5);
  EXPECT_EQ(CpuMask::FirstN(64).Count(), 64);
  EXPECT_TRUE(CpuMask::FirstN(5).Test(4));
  EXPECT_FALSE(CpuMask::FirstN(5).Test(5));
}

TEST(CpuMaskTest, FirstAndNextFrom) {
  CpuMask m;
  EXPECT_EQ(m.First(), -1);
  m.Set(2);
  m.Set(7);
  EXPECT_EQ(m.First(), 2);
  EXPECT_EQ(m.NextFrom(0), 2);
  EXPECT_EQ(m.NextFrom(3), 7);
  EXPECT_EQ(m.NextFrom(8), -1);
}

TEST(CpuMaskTest, Operators) {
  CpuMask a = CpuMask::FirstN(4);
  CpuMask b = CpuMask::Single(2) | CpuMask::Single(5);
  CpuMask both = a & b;
  EXPECT_EQ(both.Count(), 1);
  EXPECT_TRUE(both.Test(2));
  CpuMask inv = ~a & CpuMask::FirstN(6);
  EXPECT_EQ(inv.Count(), 2);
  EXPECT_TRUE(inv.Test(4));
  EXPECT_TRUE(inv.Test(5));
}

TEST(CpuMaskTest, Iteration) {
  CpuMask m = CpuMask::Single(1) | CpuMask::Single(9) | CpuMask::Single(33);
  std::vector<int> seen;
  for (int cpu : m) {
    seen.push_back(cpu);
  }
  EXPECT_EQ(seen, (std::vector<int>{1, 9, 33}));
}

TEST(CpuMaskTest, IterationEmpty) {
  CpuMask m;
  for (int cpu : m) {
    (void)cpu;
    FAIL() << "empty mask iterated";
  }
}

// The order of the kernel's wrapping scans, spelled the old way.
std::vector<int> WrappingScan(CpuMask m, int start, int n) {
  std::vector<int> order;
  for (int k = 0; k < n; ++k) {
    int cpu = (start + k) % n;
    if (m.Test(cpu)) {
      order.push_back(cpu);
    }
  }
  return order;
}

std::vector<int> Rotated(CpuMask m, int start) {
  std::vector<int> order;
  for (int cpu : m.RotatedFrom(start)) {
    order.push_back(cpu);
  }
  return order;
}

TEST(CpuMaskTest, RotatedFromWrapsAround) {
  CpuMask m = CpuMask::Single(1) | CpuMask::Single(4) | CpuMask::Single(6) | CpuMask::Single(9);
  EXPECT_EQ(Rotated(m, 5), (std::vector<int>{6, 9, 1, 4}));
  EXPECT_EQ(Rotated(m, 6), (std::vector<int>{6, 9, 1, 4}));
  EXPECT_EQ(Rotated(m, 10), (std::vector<int>{1, 4, 6, 9}));
  EXPECT_EQ(m.FirstFrom(5), 6);
  EXPECT_EQ(m.FirstFrom(10), 1);
}

TEST(CpuMaskTest, RotatedFromZeroIsAscending) {
  CpuMask m = CpuMask::Single(0) | CpuMask::Single(17) | CpuMask::Single(63);
  EXPECT_EQ(Rotated(m, 0), (std::vector<int>{0, 17, 63}));
  EXPECT_EQ(m.FirstFrom(0), 0);
}

TEST(CpuMaskTest, RotatedFromTopBit) {
  CpuMask all = CpuMask::FirstN(64);
  std::vector<int> order = Rotated(all, 63);
  ASSERT_EQ(order.size(), 64u);
  EXPECT_EQ(order.front(), 63);
  EXPECT_EQ(order[1], 0);
  EXPECT_EQ(order.back(), 62);
  EXPECT_EQ(Rotated(CpuMask::Single(63), 63), (std::vector<int>{63}));
  EXPECT_EQ(Rotated(CpuMask::Single(63), 0), (std::vector<int>{63}));
  EXPECT_EQ(Rotated(CpuMask::Single(0), 63), (std::vector<int>{0}));
  EXPECT_EQ(CpuMask::Single(0).FirstFrom(63), 0);
}

TEST(CpuMaskTest, RotatedFromEmptyVisitsNothing) {
  EXPECT_TRUE(Rotated(CpuMask::None(), 0).empty());
  EXPECT_TRUE(Rotated(CpuMask::None(), 63).empty());
  EXPECT_EQ(CpuMask::None().FirstFrom(7), -1);
}

// Pseudo-random masks (an LCG, so the test is self-contained) over VM sizes
// up to 64: rotated iteration must equal the wrapping scan it replaces.
TEST(CpuMaskTest, RotatedFromMatchesWrappingScan) {
  uint64_t state = 0x9e3779b97f4a7c15ULL;
  for (int trial = 0; trial < 2000; ++trial) {
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    int n = 1 + static_cast<int>((state >> 33) % 64);
    CpuMask m = CpuMask(state ^ (state >> 29)) & CpuMask::FirstN(n);
    int start = static_cast<int>((state >> 17) % static_cast<uint64_t>(n));
    std::vector<int> expect = WrappingScan(m, start, n);
    ASSERT_EQ(Rotated(m, start), expect) << "n=" << n << " start=" << start;
    ASSERT_EQ(m.FirstFrom(start), expect.empty() ? -1 : expect.front());
  }
}

}  // namespace
}  // namespace vsched
