#include "common/rng.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <numeric>
#include <set>
#include <vector>

namespace gridlb {
namespace {

TEST(Rng, SameSeedSameSequence) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_EQ(a.next_u64(), b.next_u64());
  }
}

// Pins the stream itself: every seeded result in the repository (the
// experiment pins included) depends on these exact outputs, so any change
// to the generator or its distributions must leave them untouched.
TEST(Rng, GoldenStreamForSeed42) {
  Rng rng(42);
  const std::uint64_t raw[] = {
      0x15780B2E0C2EC716ULL, 0x6104D9866D113A7EULL, 0xAE17533239E499A1ULL,
      0xECB8AD4703B360A1ULL, 0xFDE6DC7FE2EC5E64ULL, 0xC50DA53101795238ULL,
      0xB82154855A65DDB2ULL, 0xD99A2743EBE60087ULL, 0xC2E96E726E97647EULL,
      0x9556615F775FBC3DULL, 0xAEB53B340C103971ULL, 0x4A69DB9873AF8965ULL,
      0xCD0FEDA93006C6B6ULL, 0x52480865A4B42742ULL, 0xB60DEC3BF2D887CDULL,
      0xE0B55A68B96677FAULL};
  for (const std::uint64_t want : raw) EXPECT_EQ(rng.next_u64(), want);
  const double doubles[] = {0x1.3bc82b3db539dp-1, 0x1.b3e966a9d8708p-1,
                            0x1.6a42be87da863p-1, 0x1.6a68997c843e9p-1,
                            0x1.7c5ad539dbb98p-4, 0x1.6ea382d55d2ecp-3,
                            0x1.beaa412a5314ap-2, 0x1.343b44a8b102ep-1};
  for (const double want : doubles) EXPECT_EQ(rng.next_double(), want);
  const bool chances[] = {false, false, false, false,
                          false, true,  false, false};
  for (const bool want : chances) EXPECT_EQ(rng.chance(0.3), want);
  const std::uint64_t below[] = {4, 1, 5, 3, 6, 6, 3, 4};
  for (const std::uint64_t want : below) EXPECT_EQ(rng.next_below(7), want);
  EXPECT_EQ(rng.next_u64(), 0x896C10E1F50E7C45ULL);
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1);
  Rng b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.next_u64() == b.next_u64()) ++equal;
  }
  EXPECT_LT(equal, 2);
}

TEST(Rng, NextBelowStaysInRange) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(rng.next_below(17), 17u);
  }
}

TEST(Rng, NextBelowOneIsAlwaysZero) {
  Rng rng(7);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(rng.next_below(1), 0u);
  }
}

TEST(Rng, NextBelowRejectsZeroBound) {
  Rng rng(7);
  EXPECT_THROW(rng.next_below(0), AssertionError);
}

TEST(Rng, NextBelowCoversAllResidues) {
  Rng rng(99);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(rng.next_below(7));
  EXPECT_EQ(seen.size(), 7u);
}

TEST(Rng, UniformIntInclusiveBounds) {
  Rng rng(11);
  bool saw_lo = false;
  bool saw_hi = false;
  for (int i = 0; i < 10000; ++i) {
    const auto v = rng.uniform_int(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    saw_lo |= v == -3;
    saw_hi |= v == 3;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, UniformIntSingleton) {
  Rng rng(11);
  EXPECT_EQ(rng.uniform_int(5, 5), 5);
}

TEST(Rng, UniformIntRejectsInvertedBounds) {
  Rng rng(11);
  EXPECT_THROW(rng.uniform_int(2, 1), AssertionError);
}

TEST(Rng, NextDoubleInUnitInterval) {
  Rng rng(3);
  for (int i = 0; i < 10000; ++i) {
    const double v = rng.next_double();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

TEST(Rng, NextDoubleMeanIsAboutHalf) {
  Rng rng(5);
  double sum = 0.0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) sum += rng.next_double();
  EXPECT_NEAR(sum / n, 0.5, 0.01);
}

TEST(Rng, UniformRespectsBounds) {
  Rng rng(13);
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.uniform(4.0, 200.0);
    EXPECT_GE(v, 4.0);
    EXPECT_LT(v, 200.0);
  }
}

TEST(Rng, ChanceExtremes) {
  Rng rng(17);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.chance(0.0));
    EXPECT_TRUE(rng.chance(1.0));
    EXPECT_FALSE(rng.chance(-1.0));
    EXPECT_TRUE(rng.chance(2.0));
  }
}

TEST(Rng, ChanceFrequencyTracksProbability) {
  Rng rng(19);
  int hits = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    if (rng.chance(0.3)) ++hits;
  }
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.01);
}

TEST(Rng, ShufflePreservesElements) {
  Rng rng(23);
  std::vector<int> v(50);
  std::iota(v.begin(), v.end(), 0);
  auto shuffled = v;
  rng.shuffle(shuffled);
  EXPECT_TRUE(std::is_permutation(v.begin(), v.end(), shuffled.begin()));
}

TEST(Rng, ShuffleActuallyPermutes) {
  Rng rng(23);
  std::vector<int> v(50);
  std::iota(v.begin(), v.end(), 0);
  auto shuffled = v;
  rng.shuffle(shuffled);
  EXPECT_NE(v, shuffled);
}

TEST(Rng, ShuffleHandlesEmptyAndSingleton) {
  Rng rng(29);
  std::vector<int> empty;
  rng.shuffle(empty);
  EXPECT_TRUE(empty.empty());
  std::vector<int> one{42};
  rng.shuffle(one);
  EXPECT_EQ(one, std::vector<int>{42});
}

TEST(Rng, SplitStreamsAreDeterministic) {
  Rng a(31);
  Rng b(31);
  Rng child_a = a.split();
  Rng child_b = b.split();
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(child_a.next_u64(), child_b.next_u64());
  }
}

TEST(Rng, SplitChildDiffersFromParent) {
  Rng parent(37);
  Rng child = parent.split();
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    if (parent.next_u64() == child.next_u64()) ++equal;
  }
  EXPECT_LT(equal, 2);
}

// Property sweep: next_below is unbiased enough that each residue of a
// small modulus appears with roughly equal frequency.
class RngUniformity : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RngUniformity, ResiduesRoughlyUniform) {
  const std::uint64_t bound = GetParam();
  Rng rng(41 + bound);
  std::vector<int> counts(bound, 0);
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    ++counts[static_cast<std::size_t>(rng.next_below(bound))];
  }
  const double expected = static_cast<double>(n) / static_cast<double>(bound);
  for (const int count : counts) {
    EXPECT_NEAR(count, expected, expected * 0.25);
  }
}

INSTANTIATE_TEST_SUITE_P(Bounds, RngUniformity,
                         ::testing::Values(2, 3, 7, 12, 16, 100));

}  // namespace
}  // namespace gridlb
