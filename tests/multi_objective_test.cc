// Tests for the multi-objective batch extension (paper Section 7 future
// work): scalarized objectives and the Pareto sweep.
#include <gtest/gtest.h>

#include <cmath>

#include "src/core/multi_objective.h"
#include "src/workload/generators.h"

namespace stratrec::core {
namespace {

struct Fixture {
  Fixture() {
    workload::Generator generator({}, 777);
    profiles = generator.Profiles(25);
    requests = generator.RequestsWithRanges(8, 2, {0.5, 0.75}, {0.7, 1.0},
                                            {0.7, 1.0});
  }
  std::vector<StrategyProfile> profiles;
  std::vector<DeploymentRequest> requests;
};

TEST(MultiObjective, PureThroughputMatchesBatchStrat) {
  Fixture f;
  ObjectiveWeights weights;  // throughput 1, rest 0
  auto combined = SolveBatchWeighted(f.requests, f.profiles, 0.8, weights);
  ASSERT_TRUE(combined.ok());
  BatchOptions options;
  options.objective = Objective::kThroughput;
  auto classic = BatchStrat(f.requests, f.profiles, 0.8, options);
  ASSERT_TRUE(classic.ok());
  EXPECT_DOUBLE_EQ(combined->throughput, classic->total_objective);
  EXPECT_EQ(combined->batch.satisfied, classic->satisfied);
}

TEST(MultiObjective, PurePayoffMatchesBatchStrat) {
  Fixture f;
  ObjectiveWeights weights;
  weights.throughput = 0.0;
  weights.payoff = 1.0;
  auto combined = SolveBatchWeighted(f.requests, f.profiles, 0.8, weights);
  ASSERT_TRUE(combined.ok());
  BatchOptions options;
  options.objective = Objective::kPayoff;
  auto classic = BatchStrat(f.requests, f.profiles, 0.8, options);
  ASSERT_TRUE(classic.ok());
  EXPECT_NEAR(combined->payoff, classic->total_objective, 1e-9);
}

TEST(MultiObjective, ComponentsAddUp) {
  Fixture f;
  ObjectiveWeights weights;
  weights.throughput = 0.6;
  weights.payoff = 0.3;
  weights.effort = 0.1;
  auto result = SolveBatchWeighted(f.requests, f.profiles, 0.8, weights);
  ASSERT_TRUE(result.ok());
  EXPECT_NEAR(result->scalarized,
              0.6 * result->throughput + 0.3 * result->payoff -
                  0.1 * result->effort,
              1e-9);
  EXPECT_LE(result->effort, 0.8 + 1e-9);
}

TEST(MultiObjective, EffortPenaltyPrefersLighterRequests) {
  // Two requests, identical payoff, different workforce: with a strong
  // effort weight the heavy one is dropped even when capacity allows both.
  StrategyProfile identity;
  identity.quality = {1.0, 0.0};
  identity.cost = {0.0, 0.0};
  identity.latency = {0.0, 0.0};
  const std::vector<StrategyProfile> profiles = {identity};
  const std::vector<DeploymentRequest> requests = {
      {"light", {0.10, 0.5, 1.0}, 1},   // needs w = 0.10
      {"heavy", {0.90, 0.5, 1.0}, 1},   // needs w = 0.90
  };
  ObjectiveWeights weights;
  weights.throughput = 1.0;
  weights.effort = 1.2;  // heavy item's value: 1 - 1.2 * 0.9 < 0
  auto result = SolveBatchWeighted(requests, profiles, 1.0, weights);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->batch.satisfied.size(), 1u);
  EXPECT_EQ(result->batch.satisfied[0], 0u);

  // Without the penalty both are served.
  weights.effort = 0.0;
  auto lax = SolveBatchWeighted(requests, profiles, 1.0, weights);
  ASSERT_TRUE(lax.ok());
  EXPECT_EQ(lax->batch.satisfied.size(), 2u);
}

TEST(MultiObjective, GreedyWithinHalfOfBruteForce) {
  Fixture f;
  ObjectiveWeights weights;
  weights.throughput = 0.5;
  weights.payoff = 0.5;
  auto greedy = SolveBatchWeighted(f.requests, f.profiles, 0.6, weights);
  auto exact = SolveBatchWeighted(f.requests, f.profiles, 0.6, weights, {},
                                  BatchAlgorithm::kBruteForce);
  ASSERT_TRUE(greedy.ok());
  ASSERT_TRUE(exact.ok());
  EXPECT_GE(greedy->scalarized, 0.5 * exact->scalarized - 1e-9);
  EXPECT_LE(greedy->scalarized, exact->scalarized + 1e-9);
}

TEST(MultiObjective, InvalidInputsRejected) {
  Fixture f;
  ObjectiveWeights negative;
  negative.payoff = -1.0;
  EXPECT_FALSE(SolveBatchWeighted(f.requests, f.profiles, 0.5, negative).ok());
  EXPECT_FALSE(SolveBatchWeighted(f.requests, f.profiles, -0.5, {}).ok());
  EXPECT_EQ(SolveBatchWeighted(f.requests, f.profiles, std::nan(""), {})
                .status()
                .code(),
            StatusCode::kInvalidArgument);
  EXPECT_FALSE(SolveBatchWeighted(f.requests, f.profiles, 0.5, {}, {},
                                  BatchAlgorithm::kBaselineG)
                   .ok());
}

// An invalid request fails the solve before the pricer runs.
TEST(MultiObjective, InvalidRequestsAreRefusedBeforePricing) {
  Fixture f;
  f.requests[3].k = 0;
  int calls = 0;
  BatchOptions options;
  options.pricer = [&calls](const std::vector<DeploymentRequest>& batch,
                            WorkforcePolicy) -> Result<std::vector<RowTopK>> {
    ++calls;
    return std::vector<RowTopK>(batch.size());
  };
  const auto refused =
      SolveBatchWeighted(f.requests, f.profiles, 0.5, {}, options);
  EXPECT_EQ(refused.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(refused.status().message(),
            "request '" + f.requests[3].id + "': k must be >= 1");
  EXPECT_EQ(calls, 0);
  f.requests[3].k = 2;
  ASSERT_TRUE(SolveBatchWeighted(f.requests, f.profiles, 0.5, {}, options)
                  .ok());
  EXPECT_EQ(calls, 1);
}

TEST(MultiObjective, ParetoSweepTradesThroughputForPayoff) {
  Fixture f;
  auto curve = SweepPareto(f.requests, f.profiles, 0.5, 11);
  ASSERT_TRUE(curve.ok());
  ASSERT_EQ(curve->size(), 11u);
  // Endpoints: lambda grows from 0 (pure throughput) to 1 (pure payoff).
  EXPECT_DOUBLE_EQ(curve->front().payoff_weight, 0.0);
  EXPECT_DOUBLE_EQ(curve->back().payoff_weight, 1.0);
  // Throughput is maximal at lambda = 0; payoff maximal at lambda = 1.
  for (const auto& point : *curve) {
    EXPECT_LE(point.throughput, curve->front().throughput + 1e-9);
    EXPECT_LE(point.payoff, curve->back().payoff + 1e-9);
  }
  EXPECT_FALSE(SweepPareto(f.requests, f.profiles, 0.5, 1).ok());
}

}  // namespace
}  // namespace stratrec::core
