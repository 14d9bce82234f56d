// Tests for the library's one k-skyband: the snapshot's relaxation-space
// skyline, its capped skyline-dominator counts, the per-k pruned orderings
// (AvailabilitySnapshot::orderings() and PrunedFor), the dominance kernel
// behind them, and the snapshot ADPaR solve that prunes with them.
//
// Snapshots are built from api::ConstantCatalog: its profiles have zero
// slope, so the snapshot's params are exactly the given vectors at any W.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <tuple>
#include <vector>

#include "src/api/catalog.h"
#include "src/common/rng.h"
#include "src/core/catalog_index.h"
#include "src/core/kernels/kernels.h"
#include "src/workload/generators.h"

namespace stratrec::core {
namespace {

const std::vector<ParamVector> kTable1 = {
    {0.50, 0.25, 0.28},
    {0.75, 0.33, 0.28},
    {0.80, 0.50, 0.14},
    {0.88, 0.58, 0.14},
};

std::shared_ptr<const AvailabilitySnapshot> SnapshotOf(
    const std::vector<ParamVector>& params) {
  auto snapshot =
      CatalogIndex::Build(api::ConstantCatalog(params).profiles)
          .BuildSnapshot(0.5);
  EXPECT_EQ(snapshot->params(), params);
  return snapshot;
}

/// The relation the skyline is defined by, written out independently of the
/// kernels: p no worse than q on every axis and strictly better on one.
bool Dominates(const ParamVector& p, const ParamVector& q) {
  const bool no_worse = p.quality >= q.quality && p.cost <= q.cost &&
                        p.latency <= q.latency;
  return no_worse &&
         (p.quality > q.quality || p.cost < q.cost || p.latency < q.latency);
}

/// The O(n^2) dominator count of every point.
std::vector<size_t> DominatorCounts(const std::vector<ParamVector>& points) {
  std::vector<size_t> counts(points.size(), 0);
  for (size_t i = 0; i < points.size(); ++i) {
    for (size_t j = 0; j < points.size(); ++j) {
      if (Dominates(points[j], points[i])) ++counts[i];
    }
  }
  return counts;
}

bool Contains(const std::vector<size_t>& set, size_t j) {
  return std::find(set.begin(), set.end(), j) != set.end();
}

/// Checks the two directions the pruning relies on against the O(n^2)
/// counts: every undominated point is in the recorded skyline, and no
/// recorded dominator count exceeds the true count (or the cap).
void ExpectSafeSkyband(const std::vector<ParamVector>& points,
                       const AdparOrderings& orderings,
                       const std::vector<size_t>& counts) {
  ASSERT_EQ(orderings.skyline_dominators.size(), points.size());
  for (size_t j = 0; j < points.size(); ++j) {
    if (counts[j] == 0) {
      EXPECT_TRUE(Contains(orderings.skyline, j)) << "point " << j;
    }
    EXPECT_LE(orderings.skyline_dominators[j],
              std::min<size_t>(counts[j], kSkylineDominatorCap))
        << "point " << j;
  }
}

TEST(Dominance, Semantics) {
  // AnyDominates over one-point SoAs: the point is the candidate dominator.
  auto dominates = [](const ParamVector& p, const ParamVector& q) {
    const kernels::PointSoA pts{&p.quality, &p.cost, &p.latency};
    return kernels::AnyDominates(pts, 1, q);
  };
  // Higher quality, lower cost, lower latency dominates.
  EXPECT_TRUE(dominates({0.9, 0.2, 0.2}, {0.8, 0.3, 0.3}));
  // Equal on all axes: no domination.
  EXPECT_FALSE(dominates({0.8, 0.3, 0.3}, {0.8, 0.3, 0.3}));
  // Strictly better on one axis, equal elsewhere: dominates.
  EXPECT_TRUE(dominates({0.8, 0.2, 0.3}, {0.8, 0.3, 0.3}));
  // Trade-off: neither dominates.
  EXPECT_FALSE(dominates({0.9, 0.5, 0.2}, {0.8, 0.3, 0.3}));
  EXPECT_FALSE(dominates({0.8, 0.3, 0.3}, {0.9, 0.5, 0.2}));
}

TEST(SkylineTest, Table1StrategiesAreAllIncomparable) {
  // Table 1's four strategies trade quality against cost/latency; none
  // dominates another, so the skyline is everything.
  const auto snapshot = SnapshotOf(kTable1);
  const AdparOrderings& orderings = snapshot->orderings();
  EXPECT_EQ(orderings.skyline.size(), 4u);
  for (size_t j = 0; j < kTable1.size(); ++j) {
    EXPECT_TRUE(Contains(orderings.skyline, j)) << "strategy " << j;
    EXPECT_EQ(orderings.skyline_dominators[j], 0u) << "strategy " << j;
  }
}

TEST(SkylineTest, DominatedPointExcluded) {
  std::vector<ParamVector> strategies = kTable1;
  strategies.push_back({0.45, 0.35, 0.30});  // dominated by s1 and s2
  const auto snapshot = SnapshotOf(strategies);
  const AdparOrderings& orderings = snapshot->orderings();
  EXPECT_EQ(orderings.skyline.size(), 4u);
  EXPECT_FALSE(Contains(orderings.skyline, 4u));
  EXPECT_EQ(orderings.skyline_dominators[4], 2u);
}

TEST(SkylineTest, KSkybandGrowsWithK) {
  std::vector<ParamVector> strategies = kTable1;
  strategies.push_back({0.45, 0.35, 0.30});  // 2 dominators
  const auto snapshot = SnapshotOf(strategies);
  // 2 dominators: outside the 1- and 2-skybands, so k = 1 and k = 2 keep
  // the four others.
  for (int k : {1, 2}) {
    const auto pruned = snapshot->PrunedFor(k);
    ASSERT_NE(pruned, nullptr) << "k=" << k;
    EXPECT_EQ(pruned->by_cost_params.size(), 4u) << "k=" << k;
    EXPECT_EQ(pruned->by_quality_desc_quality.size(), 4u) << "k=" << k;
  }
  // Fewer than 3 dominators: inside the 3-skyband, nothing is pruned.
  EXPECT_EQ(snapshot->PrunedFor(3), nullptr);
  EXPECT_EQ(snapshot->PrunedFor(0), nullptr);
}

TEST(SkylineTest, MatchesBruteForceOnRandomInputs) {
  workload::Generator generator({}, 555);
  const auto strategies = generator.StrategyParams(80);
  const auto snapshot = SnapshotOf(strategies);
  const AdparOrderings& orderings = snapshot->orderings();
  const std::vector<size_t> counts = DominatorCounts(strategies);
  ExpectSafeSkyband(strategies, orderings, counts);
  // Far below the probe bound, the recorded skyline is exactly the set of
  // undominated points, and each count is the exact number of skyline
  // members dominating the point.
  for (size_t j = 0; j < strategies.size(); ++j) {
    EXPECT_EQ(Contains(orderings.skyline, j), counts[j] == 0) << "point " << j;
    size_t from_skyline = 0;
    for (size_t member : orderings.skyline) {
      if (Dominates(strategies[member], strategies[j])) ++from_skyline;
    }
    EXPECT_EQ(orderings.skyline_dominators[j],
              std::min<size_t>(from_skyline, kSkylineDominatorCap))
        << "point " << j;
  }
}

class SkybandPruningTest
    : public testing::TestWithParam<std::tuple<int, int, uint64_t>> {};

TEST_P(SkybandPruningTest, PrunedAdparIsIdenticalToFull) {
  const int num_strategies = std::get<0>(GetParam());
  const int k = std::get<1>(GetParam());
  workload::Generator generator({}, std::get<2>(GetParam()));
  const auto strategies = generator.StrategyParams(num_strategies);
  const auto snapshot = SnapshotOf(strategies);
  const auto requests = generator.Requests(6, k);
  for (const auto& request : requests) {
    auto full = AdparExact(strategies, request.thresholds, k);
    auto pruned = AdparExact(*snapshot, request.thresholds, k);
    ASSERT_TRUE(full.ok());
    ASSERT_TRUE(pruned.ok());
    EXPECT_EQ(full->squared_distance, pruned->squared_distance)
        << "k=" << k << " d=" << request.thresholds.ToString();
    // Pruned output indices refer to the catalog and cover d'.
    for (size_t j : pruned->strategies) {
      ASSERT_LT(j, strategies.size());
      EXPECT_TRUE(Satisfies(strategies[j], pruned->alternative));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Random, SkybandPruningTest,
    testing::Combine(testing::Values(20, 60, 150), testing::Values(1, 3, 7),
                     testing::Values(0x51u, 0x52u, 0x53u)));

TEST(SkybandPruningTest2, PruningShrinksDenseCatalogs) {
  // Clustered catalogs have many dominated strategies; the 3-skyband
  // should be much smaller than the input.
  workload::GeneratorOptions options;
  options.distribution = workload::DimDistribution::kNormal;
  workload::Generator generator(options, 717);
  const auto strategies = generator.StrategyParams(500);
  const auto pruned = SnapshotOf(strategies)->PrunedFor(3);
  ASSERT_NE(pruned, nullptr);
  EXPECT_LT(pruned->by_cost_params.size(), strategies.size() / 2);
  EXPECT_GE(pruned->by_cost_params.size(), 3u);
}

// A catalog whose true skyline exceeds the build's 1,024-member probe:
// 1,500 mutually incomparable points on a plane of constant relaxation sum,
// each with a copy pushed off the plane (costlier by 0.01, so dominated by
// its original). Dominated copies whose dominators lie past the probe are
// recorded in the skyline and undercounted; both errors are the safe
// direction, and the pruned solve still matches the classic one.
TEST(SkybandPruningTest2, ProbeBoundKeepsASupersetAndUndercounts) {
  Rng rng(0x5C1B'A4Dull);
  std::vector<ParamVector> points;
  for (int i = 0; i < 1500; ++i) {
    const double a = rng.Uniform(0.25, 0.75);  // 1 - quality
    const double b = rng.Uniform(0.25, 0.75);  // cost
    points.push_back({1.0 - a, b, 1.5 - a - b});
  }
  for (int i = 0; i < 1500; ++i) {
    ParamVector copy = points[static_cast<size_t>(i)];
    copy.cost += 0.01;
    points.push_back(copy);
  }
  const auto snapshot = SnapshotOf(points);
  const AdparOrderings& orderings = snapshot->orderings();
  const std::vector<size_t> counts = DominatorCounts(points);
  ExpectSafeSkyband(points, orderings, counts);

  size_t undominated = 0;
  size_t undercounted = 0;
  for (size_t j = 0; j < points.size(); ++j) {
    if (counts[j] == 0) ++undominated;
    if (orderings.skyline_dominators[j] <
        std::min<size_t>(counts[j], kSkylineDominatorCap)) {
      ++undercounted;
    }
  }
  EXPECT_GT(undominated, 1024u);
  EXPECT_GT(orderings.skyline.size(), undominated);  // a strict superset
  EXPECT_GT(undercounted, 0u);

  for (int k : {1, 2, 5}) {
    for (int solve = 0; solve < 4; ++solve) {
      const ParamVector d{rng.Uniform(0.6, 1.0), rng.Uniform(0.0, 0.4),
                          rng.Uniform(0.0, 0.4)};
      auto full = AdparExact(points, d, k);
      auto pruned = AdparExact(*snapshot, d, k);
      ASSERT_TRUE(full.ok());
      ASSERT_TRUE(pruned.ok());
      EXPECT_EQ(full->squared_distance, pruned->squared_distance)
          << "k=" << k << " d=" << d.ToString();
    }
  }
}

}  // namespace
}  // namespace stratrec::core
