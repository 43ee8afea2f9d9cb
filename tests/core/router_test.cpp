// Greedy routing over SR(n) (SkipRingSpec::route): termination, hop
// bounds, load accounting — the machinery behind experiment E9.
#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.hpp"
#include "core/skip_ring_spec.hpp"

namespace ssps::core {
namespace {

TEST(Router, SelfRouteIsZero) {
  const SkipRingSpec spec(16);
  const Label a = *Label::parse("01");
  EXPECT_EQ(spec.route(a, a, nullptr), 0);
}

TEST(Router, NeighborRouteIsOne) {
  const SkipRingSpec spec(16);
  EXPECT_EQ(spec.route(*Label::parse("0"), *Label::parse("0001"), nullptr), 1);
  EXPECT_EQ(spec.route(*Label::parse("0"), *Label::parse("1"), nullptr), 1);
}

class RouterSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(RouterSweep, AllSampledRoutesTerminateWithinDiameterBound) {
  const std::size_t n = GetParam();
  const SkipRingSpec spec(n);
  const auto& order = spec.ring_order();
  ssps::Rng rng(n);
  // Greedy can exceed the BFS diameter but must stay logarithmic-ish.
  const int bound = 4 * static_cast<int>(std::log2(static_cast<double>(n))) + 4;
  for (int trial = 0; trial < 300; ++trial) {
    const Label& a = order[rng.pick_index(order)];
    const Label& b = order[rng.pick_index(order)];
    const int hops = spec.route(a, b, nullptr);
    EXPECT_LE(hops, bound) << "n=" << n << " " << a.to_string() << "->" << b.to_string();
    if (!(a == b)) {
      EXPECT_GE(hops, 1);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, RouterSweep,
                         ::testing::Values(2, 3, 8, 16, 31, 64, 129, 256, 1024));

TEST(Router, LoadCountsIntermediatesOnly) {
  const SkipRingSpec spec(64);
  const auto& order = spec.ring_order();
  std::vector<std::uint64_t> load(64, 0);
  const int hops = spec.route(order[3], order[35], &load);
  std::uint64_t total = 0;
  for (std::uint64_t l : load) total += l;
  // Intermediates = hops − 1 (the final hop lands on the target, which is
  // not a relay), and neither endpoint is counted.
  EXPECT_EQ(total, static_cast<std::uint64_t>(hops - 1));
  EXPECT_EQ(load[3], 0u);
  EXPECT_EQ(load[35], 0u);
}

TEST(Router, RouteBetweenOppositeSemicirclesUsesHubs) {
  // Long routes cross the semicircle boundary through short-label nodes —
  // the structural fact behind the E9c trade-off.
  const SkipRingSpec spec(256);
  const auto& order = spec.ring_order();
  std::vector<std::uint64_t> load(256, 0);
  ssps::Rng rng(9);
  for (int t = 0; t < 2000; ++t) {
    const std::size_t a = static_cast<std::size_t>(rng.below(128));         // left half
    const std::size_t b = 128 + static_cast<std::size_t>(rng.below(128));  // right half
    spec.route(order[a], order[b], &load);
  }
  // The two level-1 nodes ("0" at position 0, "1" at position 128) carry
  // far more than the median node.
  std::vector<std::uint64_t> sorted = load;
  std::sort(sorted.begin(), sorted.end());
  const std::uint64_t median = sorted[sorted.size() / 2];
  EXPECT_GT(load[spec.position(*Label::parse("0"))] + load[spec.position(*Label::parse("1"))],
            4 * median);
}

TEST(Router, HopsMatchBfsDistanceForSmallRings) {
  // Greedy is not always shortest-path, but on SR(n) with full shortcut
  // tables it should stay within a small factor of BFS.
  for (std::size_t n : {8u, 16u, 32u}) {
    const SkipRingSpec spec(n);
    const auto& order = spec.ring_order();
    for (const Label& a : order) {
      const auto dist = spec.hops_from(a);
      for (const Label& b : order) {
        const int greedy = spec.route(a, b, nullptr);
        const int bfs = dist.at(b.r_key());
        EXPECT_LE(greedy, 2 * bfs + 1)
            << "n=" << n << " " << a.to_string() << "->" << b.to_string();
      }
    }
  }
}

}  // namespace
}  // namespace ssps::core
