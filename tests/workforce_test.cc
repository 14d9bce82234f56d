// Unit tests for the workforce-requirement computation (Section 3.2).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <string>
#include <utility>

#include "src/common/executor.h"
#include "src/core/catalog_index.h"
#include "src/core/kernels/kernels.h"
#include "src/core/workforce.h"
#include "src/workload/generators.h"

namespace stratrec::core {
namespace {

StrategyProfile TypicalProfile() {
  StrategyProfile profile;
  profile.quality = {0.25, 0.55};   // rises with availability
  profile.cost = {0.4125, 0.0};     // rises with availability
  profile.latency = {-0.15, 0.40};  // falls with availability
  return profile;
}

TEST(WorkforceCellTest, MinimalPolicyTakesBindingLowerBound) {
  // d3 of Example 1 against the quickstart's s2 profile: quality needs
  // w >= 0.6, latency needs w >= 0.8, cost allows any w <= 1 -> 0.8.
  const ParamVector d3{0.7, 0.83, 0.28};
  const WorkforceCell cell = ComputeWorkforceCell(
      TypicalProfile(), d3, WorkforcePolicy::kMinimalWorkforce);
  ASSERT_TRUE(cell.feasible);
  EXPECT_NEAR(cell.requirement, 0.8, 1e-12);
}

TEST(WorkforceCellTest, PaperPolicySpendsFullBudget) {
  // Under the literal max-of-three, the cost equality (w = 0.83/0.4125 ≈
  // 2.01) dominates and is clamped into the feasible interval [0.8, 1].
  const ParamVector d3{0.7, 0.83, 0.28};
  const WorkforceCell cell = ComputeWorkforceCell(
      TypicalProfile(), d3, WorkforcePolicy::kPaperMaxOfThree);
  ASSERT_TRUE(cell.feasible);
  EXPECT_NEAR(cell.requirement, 1.0, 1e-12);
}

TEST(WorkforceCellTest, InfeasibleWhenQualityUnreachable) {
  // Quality tops out at 0.8 (w = 1) but the request wants 0.9.
  const ParamVector demanding{0.9, 1.0, 1.0};
  const WorkforceCell cell = ComputeWorkforceCell(
      TypicalProfile(), demanding, WorkforcePolicy::kMinimalWorkforce);
  EXPECT_FALSE(cell.feasible);
  EXPECT_TRUE(std::isinf(cell.requirement));
}

TEST(WorkforceCellTest, InfeasibleWhenBudgetTooTight) {
  // Latency needs w >= 0.8 but cost cap allows only w <= 0.2/0.4125 ≈ 0.48.
  const ParamVector cheap{0.0, 0.2, 0.28};
  const WorkforceCell cell = ComputeWorkforceCell(
      TypicalProfile(), cheap, WorkforcePolicy::kMinimalWorkforce);
  EXPECT_FALSE(cell.feasible);
}

TEST(WorkforceCellTest, ConstantModelsActAsGates) {
  StrategyProfile constant;
  constant.quality = {0.0, 0.75};
  constant.cost = {0.0, 0.3};
  constant.latency = {0.0, 0.2};
  // Thresholds met by the constants: zero workforce required.
  WorkforceCell cell = ComputeWorkforceCell(
      constant, {0.7, 0.4, 0.3}, WorkforcePolicy::kMinimalWorkforce);
  ASSERT_TRUE(cell.feasible);
  EXPECT_DOUBLE_EQ(cell.requirement, 0.0);
  // Quality constant below the bound: infeasible at any workforce.
  cell = ComputeWorkforceCell(constant, {0.8, 0.4, 0.3},
                              WorkforcePolicy::kMinimalWorkforce);
  EXPECT_FALSE(cell.feasible);
}

TEST(WorkforceCellTest, RequirementAboveOneIsInfeasible) {
  StrategyProfile slow;
  slow.quality = {0.2, 0.0};  // quality 0.2 even with every worker
  slow.cost = {0.1, 0.0};
  slow.latency = {-0.1, 0.5};
  const WorkforceCell cell = ComputeWorkforceCell(
      slow, {0.5, 1.0, 1.0}, WorkforcePolicy::kMinimalWorkforce);
  EXPECT_FALSE(cell.feasible);  // needs w = 2.5
}

TEST(WorkforceCellTest, AtypicalSlopeSigns) {
  // A strategy whose quality *decreases* with availability (e.g. congestion)
  // turns the quality bound into an upper bound on w.
  StrategyProfile odd;
  odd.quality = {-0.5, 0.9};   // q(0)=0.9, q(1)=0.4
  odd.cost = {0.5, 0.0};
  odd.latency = {-0.2, 0.4};
  // quality >= 0.7 -> w <= 0.4 ; latency <= 0.4 -> w >= 0; feasible.
  const WorkforceCell cell = ComputeWorkforceCell(
      odd, {0.7, 1.0, 0.4}, WorkforcePolicy::kMinimalWorkforce);
  ASSERT_TRUE(cell.feasible);
  EXPECT_NEAR(cell.requirement, 0.0, 1e-12);
  // But demanding latency <= 0.3 needs w >= 0.5 > 0.4: infeasible.
  EXPECT_FALSE(ComputeWorkforceCell(odd, {0.7, 1.0, 0.3},
                                    WorkforcePolicy::kMinimalWorkforce)
                   .feasible);
}

class WorkforceMatrixTest : public testing::Test {
 protected:
  WorkforceMatrixTest() {
    // Three strategies with staggered quality requirements.
    for (double beta : {0.55, 0.60, 0.68}) {
      StrategyProfile profile;
      profile.quality = {0.25, beta};
      profile.cost = {0.5, 0.0};
      profile.latency = {-0.2, 0.3};
      profiles_.push_back(profile);
    }
    requests_.push_back({"d1", {0.7, 1.0, 0.3}, 2});
  }
  std::vector<StrategyProfile> profiles_;
  std::vector<DeploymentRequest> requests_;
};

TEST_F(WorkforceMatrixTest, CellsMatchDirectComputation) {
  const auto matrix = WorkforceMatrix::Compute(
      requests_, profiles_, WorkforcePolicy::kMinimalWorkforce);
  EXPECT_EQ(matrix.num_requests(), 1u);
  EXPECT_EQ(matrix.num_strategies(), 3u);
  // quality lower bounds: (0.7-0.55)/0.25=0.6, 0.4, 0.08.
  EXPECT_NEAR(matrix.At(0, 0).requirement, 0.6, 1e-12);
  EXPECT_NEAR(matrix.At(0, 1).requirement, 0.4, 1e-12);
  EXPECT_NEAR(matrix.At(0, 2).requirement, 0.08, 1e-12);
}

TEST_F(WorkforceMatrixTest, KBestAscendingByRequirement) {
  const auto matrix = WorkforceMatrix::Compute(
      requests_, profiles_, WorkforcePolicy::kMinimalWorkforce);
  auto best = matrix.KBestStrategies(0, 2);
  ASSERT_TRUE(best.ok());
  EXPECT_EQ(*best, (std::vector<size_t>{2, 1}));
  auto all = matrix.KBestStrategies(0, 3);
  ASSERT_TRUE(all.ok());
  EXPECT_EQ(*all, (std::vector<size_t>{2, 1, 0}));
}

TEST_F(WorkforceMatrixTest, SumAndMaxAggregation) {
  const auto matrix = WorkforceMatrix::Compute(
      requests_, profiles_, WorkforcePolicy::kMinimalWorkforce);
  // Sum-case (Figure 3b): deploy with all k -> sum of k smallest.
  auto sum = matrix.AggregateRequirement(0, 2, AggregationMode::kSum);
  ASSERT_TRUE(sum.ok());
  EXPECT_NEAR(*sum, 0.08 + 0.4, 1e-12);
  // Max-case (Figure 3c): deploy one of the k -> k-th smallest.
  auto max = matrix.AggregateRequirement(0, 2, AggregationMode::kMax);
  ASSERT_TRUE(max.ok());
  EXPECT_NEAR(*max, 0.4, 1e-12);
}

TEST_F(WorkforceMatrixTest, InfeasibleWhenFewerThanK) {
  const auto matrix = WorkforceMatrix::Compute(
      requests_, profiles_, WorkforcePolicy::kMinimalWorkforce);
  auto too_many = matrix.KBestStrategies(0, 4);
  EXPECT_FALSE(too_many.ok());
  EXPECT_EQ(too_many.status().code(), StatusCode::kInfeasible);
}

TEST_F(WorkforceMatrixTest, BoundsChecking) {
  const auto matrix = WorkforceMatrix::Compute(
      requests_, profiles_, WorkforcePolicy::kMinimalWorkforce);
  EXPECT_FALSE(matrix.KBestStrategies(5, 1).ok());
  EXPECT_FALSE(matrix.KBestStrategies(0, 0).ok());
}

TEST(WorkforceMatrixEdge, EmptyInputs) {
  const auto matrix = WorkforceMatrix::Compute(
      {}, std::vector<StrategyProfile>{}, WorkforcePolicy::kMinimalWorkforce);
  EXPECT_EQ(matrix.num_requests(), 0u);
  EXPECT_EQ(matrix.num_strategies(), 0u);
}

TEST(WorkforceMatrixEdge, TiesBrokenByIndex) {
  StrategyProfile profile;
  profile.quality = {0.5, 0.2};
  profile.cost = {0.5, 0.0};
  profile.latency = {-0.2, 0.3};
  const std::vector<StrategyProfile> profiles = {profile, profile, profile};
  const std::vector<DeploymentRequest> requests = {
      {"d", {0.45, 1.0, 0.3}, 2}};
  const auto matrix = WorkforceMatrix::Compute(
      requests, profiles, WorkforcePolicy::kMinimalWorkforce);
  auto best = matrix.KBestStrategies(0, 2);
  ASSERT_TRUE(best.ok());
  EXPECT_EQ(*best, (std::vector<size_t>{0, 1}));
}

// TopStrategies against a full-sort oracle, on catalogs where every profile
// appears three times so requirement ties are everywhere: the same list, in
// the same order, with no capacity beyond its entries.
TEST(WorkforceMatrixEdge, TopStrategiesMatchesAFullSort) {
  workload::Generator generator({}, 0x70B5'0001ull);
  std::vector<StrategyProfile> profiles;
  for (const StrategyProfile& profile : generator.Profiles(1000)) {
    profiles.insert(profiles.end(), 3, profile);
  }
  const auto requests = generator.RequestsWithRanges(
      20, 1, {0.3, 0.9}, {0.3, 1.0}, {0.3, 1.0});
  const auto matrix = WorkforceMatrix::Compute(requests, profiles);
  size_t long_rows = 0;
  for (size_t i = 0; i < requests.size(); ++i) {
    std::vector<size_t> sorted;
    for (size_t j = 0; j < profiles.size(); ++j) {
      if (matrix.At(i, j).feasible) sorted.push_back(j);
    }
    std::sort(sorted.begin(), sorted.end(), [&](size_t a, size_t b) {
      const double wa = matrix.At(i, a).requirement;
      const double wb = matrix.At(i, b).requirement;
      return wa != wb ? wa < wb : a < b;
    });
    if (sorted.size() > 200) ++long_rows;
    for (int k : {1, 2, 5, 17, 200}) {
      auto top = matrix.TopStrategies(i, k);
      ASSERT_TRUE(top.ok());
      const size_t take = std::min(sorted.size(), static_cast<size_t>(k));
      EXPECT_EQ(top->feasible_count, sorted.size());
      EXPECT_EQ(top->strategies,
                std::vector<size_t>(sorted.begin(), sorted.begin() + take))
          << "row " << i << " k " << k;
      EXPECT_EQ(top->strategies.capacity(), take);
      ASSERT_EQ(top->requirements.size(), take);
      for (size_t r = 0; r < take; ++r) {
        EXPECT_EQ(top->requirements[r],
                  matrix.At(i, top->strategies[r]).requirement);
      }
    }
  }
  EXPECT_GT(long_rows, 0u);  // some rows really are cut down to k
}

// PriceRows against the dense oracle: for every range [b, e) and row, the
// whole-index matrix's feasible cells in [b, e), sorted by (requirement,
// index) and cut to min(k, feasible), with indices relative to b. Compared
// entry for entry, requirements bit for bit, at every pool size and grain.
// Every profile appears three times in a row, so requirement ties straddle
// most chunk edges, and the ranges sit on and off the chunk grid: whole,
// one-wide, exactly one or two chunks, and three or more.
void ExpectPriceRowsMatchesDenseOracle(kernels::DispatchLevel level) {
  kernels::Configure(kernels::KernelConfig{level});
  workload::Generator generator({}, 0x4A46'0002ull);
  std::vector<StrategyProfile> profiles;
  for (const StrategyProfile& profile : generator.Profiles(4400)) {
    profiles.insert(profiles.end(), 3, profile);
  }
  const size_t n = profiles.size();
  const CatalogIndex index = CatalogIndex::Build(profiles);
  const auto base = generator.RequestsWithRanges(6, 1, {0.3, 0.9},
                                                 {0.3, 1.0}, {0.3, 1.0});
  constexpr size_t kChunk = kPriceChunk;
  const std::pair<size_t, size_t> ranges[] = {
      {0, n},          {1, n},
      {5, 5 + 3 * kChunk + 7},  {2, 2 + 2 * kChunk},
      {n - 1, n},      {7, 8},
      {0, kChunk},     {4000, 4000 + kChunk + 1}};
  Executor pool1(1);
  Executor pool4(4);
  size_t compared = 0;
  size_t edge_ties = 0;  // equal requirements on both sides of a chunk edge
  for (WorkforcePolicy policy : {WorkforcePolicy::kMinimalWorkforce,
                                 WorkforcePolicy::kPaperMaxOfThree}) {
    const auto dense = WorkforceMatrix::Compute(base, index, policy);
    for (const auto& [begin, end] : ranges) {
      // oracle[i]: row i's feasible range indices in (requirement, index)
      // order.
      std::vector<std::vector<size_t>> oracle(base.size());
      for (size_t i = 0; i < base.size(); ++i) {
        for (size_t j = begin; j < end; ++j) {
          if (dense.At(i, j).feasible) oracle[i].push_back(j - begin);
        }
        auto requirement = [&](size_t j) {
          return dense.At(i, begin + j).requirement;
        };
        std::sort(oracle[i].begin(), oracle[i].end(), [&](size_t a, size_t b) {
          const double wa = requirement(a);
          const double wb = requirement(b);
          return wa != wb ? wa < wb : a < b;
        });
        for (size_t r = 1; r < oracle[i].size(); ++r) {
          const size_t a = oracle[i][r - 1];
          const size_t b = oracle[i][r];
          if (requirement(a) == requirement(b) && a / kChunk != b / kChunk) {
            ++edge_ties;
          }
        }
      }
      for (const int k_case : {0, 1, -1, -2, static_cast<int>(kChunk) + 3}) {
        std::vector<DeploymentRequest> requests = base;
        for (size_t i = 0; i < requests.size(); ++i) {
          // -1: k = the row's feasible count; -2: one more than that.
          const int feasible = static_cast<int>(oracle[i].size());
          requests[i].k = k_case == -1   ? feasible
                          : k_case == -2 ? feasible + 1
                                         : k_case;
        }
        for (Executor* executor : {static_cast<Executor*>(nullptr),
                                   &pool1, &pool4}) {
          for (const size_t grain : {size_t{1}, size_t{4096}}) {
            const std::vector<RowTopK> rows = PriceRows(
                requests, index, begin, end, policy, executor, grain);
            ASSERT_EQ(rows.size(), requests.size());
            for (size_t i = 0; i < requests.size(); ++i) {
              const RowTopK& row = rows[i];
              const size_t take = std::min(
                  oracle[i].size(),
                  static_cast<size_t>(std::max(requests[i].k, 0)));
              const std::string where =
                  "range [" + std::to_string(begin) + ", " +
                  std::to_string(end) + ") row " + std::to_string(i) +
                  " k " + std::to_string(requests[i].k) + " grain " +
                  std::to_string(grain);
              EXPECT_EQ(row.feasible_count, oracle[i].size()) << where;
              EXPECT_EQ(row.strategies,
                        std::vector<size_t>(oracle[i].begin(),
                                            oracle[i].begin() + take))
                  << where;
              EXPECT_EQ(row.strategies.capacity(), take) << where;
              ASSERT_EQ(row.requirements.size(), row.strategies.size());
              for (size_t r = 0; r < row.strategies.size(); ++r) {
                const double want =
                    dense.At(i, begin + row.strategies[r]).requirement;
                EXPECT_EQ(std::memcmp(&row.requirements[r], &want,
                                      sizeof(double)),
                          0)
                    << where << " entry " << r;
              }
              compared += take;
            }
          }
        }
      }
    }
  }
  EXPECT_GT(compared, 0u);   // the comparison covers real entries
  EXPECT_GT(edge_ties, 0u);  // and ties the chunk merge must order
  kernels::Configure(kernels::KernelConfig{});
}

TEST(PriceRows, MatchesDenseOracleScalar) {
  ExpectPriceRowsMatchesDenseOracle(kernels::DispatchLevel::kScalar);
}

TEST(PriceRows, MatchesDenseOracleAvx2) {
  if (!kernels::Avx2Available()) GTEST_SKIP() << "no AVX2 on this host";
  ExpectPriceRowsMatchesDenseOracle(kernels::DispatchLevel::kAvx2);
}

}  // namespace
}  // namespace stratrec::core
