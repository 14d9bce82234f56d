// Unit + property tests for the batch schedulers (Section 3.3): throughput
// exactness (Theorem 2), the pay-off 1/2-approximation (Theorem 3), baseline
// dominance, and capacity discipline.
#include <gtest/gtest.h>

#include <cmath>
#include <tuple>

#include "src/core/batch_scheduler.h"
#include "src/workload/generators.h"

namespace stratrec::core {
namespace {

// A profile whose minimal workforce for a request with quality threshold q
// is exactly `w` (quality = w at threshold, everything else free).
StrategyProfile ProfileNeeding(double w, double quality_threshold = 0.5) {
  StrategyProfile profile;
  // quality(x) = quality_threshold + (x - w), so quality(w) == threshold.
  profile.quality = {1.0, quality_threshold - w};
  profile.cost = {0.0, 0.0};
  profile.latency = {0.0, 0.0};
  return profile;
}

DeploymentRequest Request(std::string id, double budget, int k = 1) {
  DeploymentRequest request;
  request.id = std::move(id);
  request.thresholds = {0.5, budget, 1.0};
  request.k = k;
  return request;
}

TEST(BatchScheduler, ServesEverythingWhenCapacityAllows) {
  // Two requests, each needing 0.3 via the single strategy.
  const std::vector<StrategyProfile> profiles = {ProfileNeeding(0.3)};
  const std::vector<DeploymentRequest> requests = {Request("d1", 0.8),
                                                   Request("d2", 0.6)};
  auto result = BatchStrat(requests, profiles, 0.7);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->satisfied.size(), 2u);
  EXPECT_NEAR(result->workforce_used, 0.6, 1e-12);
  EXPECT_DOUBLE_EQ(result->total_objective, 2.0);
  EXPECT_TRUE(result->unsatisfied.empty());
}

TEST(BatchScheduler, RespectsCapacity) {
  const std::vector<StrategyProfile> profiles = {ProfileNeeding(0.4)};
  const std::vector<DeploymentRequest> requests = {
      Request("d1", 0.8), Request("d2", 0.6), Request("d3", 0.9)};
  auto result = BatchStrat(requests, profiles, 1.0);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->satisfied.size(), 2u);  // 2 * 0.4 <= 1.0 < 3 * 0.4
  EXPECT_LE(result->workforce_used, 1.0 + 1e-9);
}

TEST(BatchScheduler, ZeroCapacityServesOnlyFreeRequests) {
  const std::vector<StrategyProfile> profiles = {ProfileNeeding(0.0)};
  const std::vector<DeploymentRequest> requests = {Request("d1", 0.5)};
  auto result = BatchStrat(requests, profiles, 0.0);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->satisfied.size(), 1u);

  const std::vector<StrategyProfile> costly = {ProfileNeeding(0.1)};
  auto none = BatchStrat(requests, costly, 0.0);
  ASSERT_TRUE(none.ok());
  EXPECT_TRUE(none->satisfied.empty());
  EXPECT_EQ(none->unsatisfied.size(), 1u);
}

TEST(BatchScheduler, IneligibleRequestsGoToUnsatisfied) {
  const std::vector<StrategyProfile> profiles = {ProfileNeeding(0.3)};
  // k = 2 but only one strategy exists: not eligible regardless of W.
  const std::vector<DeploymentRequest> requests = {Request("d1", 0.8, 2)};
  auto result = BatchStrat(requests, profiles, 1.0);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->satisfied.empty());
  EXPECT_FALSE(result->outcomes[0].eligible);
  EXPECT_EQ(result->unsatisfied, (std::vector<size_t>{0}));
}

TEST(BatchScheduler, RecommendsKCheapestStrategies) {
  std::vector<StrategyProfile> profiles = {
      ProfileNeeding(0.5), ProfileNeeding(0.1), ProfileNeeding(0.3)};
  const std::vector<DeploymentRequest> requests = {Request("d1", 0.8, 2)};
  BatchOptions options;
  options.aggregation = AggregationMode::kSum;
  auto result = BatchStrat(requests, profiles, 1.0, options);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->satisfied.size(), 1u);
  EXPECT_EQ(result->outcomes[0].strategies, (std::vector<size_t>{1, 2}));
  EXPECT_NEAR(result->outcomes[0].workforce, 0.4, 1e-12);
}

TEST(BatchScheduler, InvalidInputsRejected) {
  const std::vector<StrategyProfile> profiles = {ProfileNeeding(0.3)};
  EXPECT_FALSE(BatchStrat({Request("d", 0.5, 0)}, profiles, 0.5).ok());
  EXPECT_FALSE(BatchStrat({Request("d", 0.5)}, profiles, -0.1).ok());
  EXPECT_EQ(BatchStrat({Request("d", 0.5)}, profiles, std::nan("")).status()
                .code(),
            StatusCode::kInvalidArgument);
  DeploymentRequest bad;
  bad.id = "bad";
  bad.thresholds = {2.0, 0.5, 0.5};
  bad.k = 1;
  EXPECT_FALSE(BatchStrat({bad}, profiles, 0.5).ok());
}

// The pricer's outcome is the solve's: its failure fails the solve, and a
// row count other than the request count fails it before any row is read.
TEST(BatchScheduler, PricerFailuresFailTheSolve) {
  const std::vector<StrategyProfile> profiles = {ProfileNeeding(0.3)};
  const std::vector<DeploymentRequest> requests = {Request("d1", 0.8),
                                                   Request("d2", 0.6)};
  BatchOptions options;
  options.pricer = [](const std::vector<DeploymentRequest>&,
                      WorkforcePolicy) -> Result<std::vector<RowTopK>> {
    return Status::Cancelled("scan abandoned");
  };
  EXPECT_EQ(BatchStrat(requests, profiles, 0.7, options).status().code(),
            StatusCode::kCancelled);
  options.pricer = [](const std::vector<DeploymentRequest>&,
                      WorkforcePolicy) -> Result<std::vector<RowTopK>> {
    return std::vector<RowTopK>(1);
  };
  EXPECT_EQ(BatchStrat(requests, profiles, 0.7, options).status().code(),
            StatusCode::kInternal);
}

// A batch with an invalid request is refused before the pricer runs, with
// the first invalid request's message; every solver shares the check.
TEST(BatchScheduler, InvalidRequestsAreRefusedBeforePricing) {
  const std::vector<StrategyProfile> profiles = {ProfileNeeding(0.3)};
  DeploymentRequest out_of_range = Request("range", 0.5);
  out_of_range.thresholds.quality = 1.5;
  const std::vector<DeploymentRequest> requests = {
      Request("ok", 0.8), Request("zero-k", 0.5, 0), out_of_range};
  int calls = 0;
  BatchOptions options;
  options.pricer = [&calls](const std::vector<DeploymentRequest>& batch,
                            WorkforcePolicy) -> Result<std::vector<RowTopK>> {
    ++calls;
    return std::vector<RowTopK>(batch.size());
  };
  for (BatchAlgorithm algorithm :
       {BatchAlgorithm::kBatchStrat, BatchAlgorithm::kBaselineG,
        BatchAlgorithm::kBruteForce}) {
    const auto refused =
        SolveBatch(requests, profiles, 0.7, options, algorithm);
    EXPECT_EQ(refused.status().code(), StatusCode::kInvalidArgument);
    EXPECT_EQ(refused.status().message(),
              "request 'zero-k': k must be >= 1");
    EXPECT_FALSE(
        SolveBatch({requests[0], out_of_range}, profiles, 0.7, options,
                   algorithm)
            .ok());
  }
  EXPECT_EQ(calls, 0);
  ASSERT_TRUE(BatchStrat({requests[0]}, profiles, 0.7, options).ok());
  EXPECT_EQ(calls, 1);
}

TEST(BatchScheduler, BruteForceGuardsAgainstLargeBatches) {
  const std::vector<StrategyProfile> profiles = {ProfileNeeding(0.001)};
  std::vector<DeploymentRequest> requests;
  for (int i = 0; i < 26; ++i) requests.push_back(Request("d", 0.5));
  EXPECT_FALSE(BruteForceBatch(requests, profiles, 1.0).ok());
}

TEST(BatchScheduler, PayoffPrefersBigSingleItemOverGreedyPrefix) {
  // Classic knapsack greedy trap: one dense small item plus one huge item
  // that does not fit next to it. Greedy density picks the small one
  // (density 0.06 / 0.05 = 1.2 vs 0.9 / 1.0); the single-item guard must
  // notice that the big item alone (payoff 0.9) is better.
  //
  // A single strategy with quality(w) = w makes each request's workforce
  // requirement equal its quality threshold.
  StrategyProfile identity;
  identity.quality = {1.0, 0.0};
  identity.cost = {0.0, 0.0};
  identity.latency = {0.0, 0.0};
  const std::vector<StrategyProfile> trap = {identity};

  DeploymentRequest d1{"small", {0.05, 0.06, 1.0}, 1};  // w=0.05, payoff 0.06
  DeploymentRequest d2{"big", {1.0, 0.9, 1.0}, 1};      // w=1.00, payoff 0.90

  BatchOptions options;
  options.objective = Objective::kPayoff;
  auto greedy = BaselineG({d1, d2}, trap, 1.0, options);
  ASSERT_TRUE(greedy.ok());
  EXPECT_NEAR(greedy->total_objective, 0.06, 1e-12);

  auto guarded = BatchStrat({d1, d2}, trap, 1.0, options);
  ASSERT_TRUE(guarded.ok());
  EXPECT_NEAR(guarded->total_objective, 0.9, 1e-12);

  auto optimal = BruteForceBatch({d1, d2}, trap, 1.0, options);
  ASSERT_TRUE(optimal.ok());
  EXPECT_NEAR(optimal->total_objective, 0.9, 1e-12);
}

// ---------------------------------------------------------------------------
// Property sweeps on random instances (Section 5.2-style workloads).
// ---------------------------------------------------------------------------

class BatchPropertyTest
    : public testing::TestWithParam<std::tuple<int, int, uint64_t>> {
 protected:
  void Generate() {
    const int m = std::get<0>(GetParam());
    const int num_strategies = std::get<1>(GetParam());
    const uint64_t seed = std::get<2>(GetParam());
    workload::GeneratorOptions options;
    workload::Generator generator(options, seed);
    profiles_ = generator.Profiles(num_strategies);
    requests_ = generator.Requests(m, /*k=*/2);
  }
  std::vector<StrategyProfile> profiles_;
  std::vector<DeploymentRequest> requests_;
};

TEST_P(BatchPropertyTest, ThroughputGreedyIsExact) {
  Generate();
  BatchOptions options;
  options.objective = Objective::kThroughput;
  for (double w : {0.2, 0.5, 0.9}) {
    auto greedy = BatchStrat(requests_, profiles_, w, options);
    auto exact = BruteForceBatch(requests_, profiles_, w, options);
    ASSERT_TRUE(greedy.ok());
    ASSERT_TRUE(exact.ok());
    EXPECT_DOUBLE_EQ(greedy->total_objective, exact->total_objective)
        << "W=" << w;
  }
}

TEST_P(BatchPropertyTest, PayoffGreedyWithinHalfOfOptimal) {
  Generate();
  BatchOptions options;
  options.objective = Objective::kPayoff;
  for (double w : {0.2, 0.5, 0.9}) {
    auto greedy = BatchStrat(requests_, profiles_, w, options);
    auto exact = BruteForceBatch(requests_, profiles_, w, options);
    ASSERT_TRUE(greedy.ok());
    ASSERT_TRUE(exact.ok());
    EXPECT_GE(greedy->total_objective, 0.5 * exact->total_objective - 1e-9);
    EXPECT_LE(greedy->total_objective, exact->total_objective + 1e-9);
    // BaselineG never beats the guarded greedy on pay-off.
    auto baseline = BaselineG(requests_, profiles_, w, options);
    ASSERT_TRUE(baseline.ok());
    EXPECT_LE(baseline->total_objective, greedy->total_objective + 1e-9);
  }
}

TEST_P(BatchPropertyTest, CapacityAndBookkeepingInvariants) {
  Generate();
  for (auto objective : {Objective::kThroughput, Objective::kPayoff}) {
    for (auto aggregation : {AggregationMode::kSum, AggregationMode::kMax}) {
      BatchOptions options;
      options.objective = objective;
      options.aggregation = aggregation;
      auto result = BatchStrat(requests_, profiles_, 0.5, options);
      ASSERT_TRUE(result.ok());
      EXPECT_LE(result->workforce_used, 0.5 + 1e-9);
      EXPECT_EQ(result->satisfied.size() + result->unsatisfied.size(),
                requests_.size());
      double recomputed = 0.0;
      for (size_t i : result->satisfied) {
        const auto& outcome = result->outcomes[i];
        EXPECT_TRUE(outcome.satisfied);
        EXPECT_TRUE(outcome.eligible);
        EXPECT_EQ(outcome.strategies.size(),
                  static_cast<size_t>(requests_[i].k));
        recomputed += outcome.workforce;
      }
      EXPECT_NEAR(recomputed, result->workforce_used, 1e-9);
    }
  }
}

TEST_P(BatchPropertyTest, MoreWorkforceNeverHurts) {
  Generate();
  BatchOptions options;
  options.objective = Objective::kThroughput;
  double previous = -1.0;
  for (double w : {0.1, 0.3, 0.5, 0.7, 0.9}) {
    auto result = BatchStrat(requests_, profiles_, w, options);
    ASSERT_TRUE(result.ok());
    EXPECT_GE(result->total_objective, previous);
    previous = result->total_objective;
  }
}

INSTANTIATE_TEST_SUITE_P(
    RandomInstances, BatchPropertyTest,
    testing::Combine(testing::Values(4, 8, 12), testing::Values(6, 20),
                     testing::Values(11u, 22u, 33u, 44u)));

}  // namespace
}  // namespace stratrec::core
