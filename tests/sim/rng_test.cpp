// Tests for the deterministic RNG (src/common/rng.hpp).
#include "common/rng.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <vector>

namespace ssps {
namespace {

TEST(Rng, DeterministicForSameSeed) {
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1);
  Rng b(2);
  int equal = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.next() == b.next()) ++equal;
  }
  EXPECT_LT(equal, 2);
}

TEST(Rng, BelowStaysInRange) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(rng.below(13), 13u);
  }
}

TEST(Rng, BelowCoversAllResidues) {
  Rng rng(8);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(rng.below(7));
  EXPECT_EQ(seen.size(), 7u);
}

TEST(Rng, BetweenIsInclusive) {
  Rng rng(9);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(rng.between(3, 5));
  EXPECT_EQ(seen, (std::set<std::uint64_t>{3, 4, 5}));
}

TEST(Rng, ChanceZeroAndCertain) {
  Rng rng(10);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.chance(0, 5));
    EXPECT_TRUE(rng.chance(5, 5));
    EXPECT_TRUE(rng.chance(9, 5));
  }
}

TEST(Rng, ChanceApproximatesProbability) {
  Rng rng(11);
  int hits = 0;
  const int trials = 40000;
  for (int i = 0; i < trials; ++i) {
    if (rng.chance(1, 4)) ++hits;
  }
  EXPECT_NEAR(static_cast<double>(hits) / trials, 0.25, 0.02);
}

TEST(Rng, Uniform01Range) {
  Rng rng(12);
  double sum = 0;
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform01();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
    sum += u;
  }
  EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(Rng, ShuffleIsAPermutation) {
  Rng rng(13);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8, 9};
  auto sorted = v;
  rng.shuffle(v);
  EXPECT_TRUE(std::is_permutation(v.begin(), v.end(), sorted.begin()));
}

TEST(Rng, ShuffleActuallyShuffles) {
  Rng rng(14);
  std::vector<int> v(64);
  for (int i = 0; i < 64; ++i) v[static_cast<std::size_t>(i)] = i;
  const auto orig = v;
  rng.shuffle(v);
  EXPECT_NE(v, orig);
}

TEST(Rng, SplitProducesIndependentStream) {
  Rng a(15);
  Rng child = a.split();
  // The child must not replay the parent's stream.
  Rng b(15);
  b.split();
  int equal = 0;
  for (int i = 0; i < 64; ++i) {
    if (child.next() == b.next()) ++equal;
  }
  EXPECT_LT(equal, 2);
}

TEST(Rng, ReseedRestartsDeterministically) {
  Rng a(16);
  const auto x1 = a.next();
  a.reseed(16);
  EXPECT_EQ(a.next(), x1);
}

// The round core shuffles a position array and gathers the envelopes
// through it; that must be the permutation shuffling them would make.
TEST(Rng, ShufflingPositionsThenGatheringEqualsShufflingValues) {
  for (std::uint64_t seed : {1ULL, 7ULL, 9001ULL}) {
    for (std::size_t n : {0u, 1u, 2u, 3u, 17u, 1000u}) {
      std::vector<std::uint64_t> values(n);
      for (std::size_t i = 0; i < n; ++i) values[i] = i * 0x9e3779b97f4a7c15ULL + seed;
      std::vector<std::uint32_t> positions(n);
      for (std::size_t i = 0; i < n; ++i) positions[i] = static_cast<std::uint32_t>(i);
      std::vector<std::uint64_t> shuffled = values;
      Rng a(seed);
      Rng b(seed);
      a.shuffle(shuffled);
      b.shuffle(positions);
      std::vector<std::uint64_t> gathered(n);
      for (std::size_t k = 0; k < n; ++k) gathered[k] = values[positions[k]];
      EXPECT_EQ(gathered, shuffled) << "seed " << seed << " n " << n;
      EXPECT_EQ(a.next(), b.next());  // the same number of draws
    }
  }
}

}  // namespace
}  // namespace ssps
