// Tests for StratRec's Aggregator stage (Figure 1's middle box): strategy
// parameter estimation at W, wiring into the batch schedulers, and input
// validation.
#include <gtest/gtest.h>

#include <limits>

#include "src/core/stratrec.h"

namespace stratrec::core {
namespace {

StratRec MakeExample1StratRec() {
  std::vector<Strategy> strategies = {
      {"s1", ParseStageName("SIM-COL-CRO").value()},
      {"s2", ParseStageName("SEQ-IND-CRO").value()},
      {"s3", ParseStageName("SIM-IND-CRO").value()},
      {"s4", ParseStageName("SIM-IND-HYB").value()},
  };
  std::vector<StrategyProfile> profiles = {
      {{0.25, 0.30}, {0.3125, 0.00}, {-0.15, 0.40}},
      {{0.25, 0.55}, {0.4125, 0.00}, {-0.15, 0.40}},
      {{0.25, 0.60}, {0.6250, 0.00}, {-0.20, 0.30}},
      {{0.25, 0.68}, {0.7250, 0.00}, {-0.20, 0.30}},
  };
  return StratRec::Create(std::move(strategies), std::move(profiles)).value();
}

StratRecOptions WithParams() {
  StratRecOptions options;
  options.materialize_params = true;
  return options;
}

TEST(Aggregator, CreateValidatesInputs) {
  EXPECT_FALSE(StratRec::Create({}, {}).ok());
  std::vector<Strategy> one = {{"s", StageSpec{}}};
  EXPECT_FALSE(StratRec::Create(one, {}).ok());  // misaligned
}

TEST(Aggregator, EstimatesTable1ParamsAtW) {
  const StratRec stratrec = MakeExample1StratRec();
  auto report = stratrec.ProcessBatchAtAvailability({}, 0.8, WithParams());
  ASSERT_TRUE(report.ok());
  const AggregatorReport& aggregator = report->aggregator;
  ASSERT_EQ(aggregator.strategy_params.size(), 4u);
  EXPECT_NEAR(aggregator.strategy_params[0].quality, 0.50, 1e-9);
  EXPECT_NEAR(aggregator.strategy_params[0].cost, 0.25, 1e-9);
  EXPECT_NEAR(aggregator.strategy_params[0].latency, 0.28, 1e-9);
  EXPECT_NEAR(aggregator.strategy_params[3].quality, 0.88, 1e-9);
  EXPECT_NEAR(aggregator.strategy_params[3].cost, 0.58, 1e-9);
  EXPECT_NEAR(aggregator.strategy_params[3].latency, 0.14, 1e-9);
  EXPECT_DOUBLE_EQ(aggregator.availability, 0.8);
}

TEST(Aggregator, ParamsShiftWithAvailability) {
  const StratRec stratrec = MakeExample1StratRec();
  auto low = stratrec.ProcessBatchAtAvailability({}, 0.5, WithParams());
  auto high = stratrec.ProcessBatchAtAvailability({}, 0.95, WithParams());
  ASSERT_TRUE(low.ok());
  ASSERT_TRUE(high.ok());
  const auto& low_params = low->aggregator.strategy_params;
  const auto& high_params = high->aggregator.strategy_params;
  for (size_t j = 0; j < 4; ++j) {
    EXPECT_LT(low_params[j].quality, high_params[j].quality);
    EXPECT_LT(low_params[j].cost, high_params[j].cost);
    EXPECT_GT(low_params[j].latency, high_params[j].latency);
  }
}

TEST(Aggregator, RunUsesPmfExpectation) {
  const StratRec stratrec = MakeExample1StratRec();
  auto availability = AvailabilityModel::FromPmf({{0.7, 0.5}, {0.9, 0.5}});
  ASSERT_TRUE(availability.ok());
  auto report = stratrec.ProcessBatch({}, *availability, {});
  ASSERT_TRUE(report.ok());
  EXPECT_DOUBLE_EQ(report->aggregator.availability, 0.8);
}

TEST(Aggregator, RejectsOutOfRangeAvailability) {
  const StratRec stratrec = MakeExample1StratRec();
  for (double w : {-0.1, 1.1, std::numeric_limits<double>::quiet_NaN()}) {
    EXPECT_EQ(stratrec.ProcessBatchAtAvailability({}, w, {}).status().code(),
              StatusCode::kInvalidArgument)
        << "W = " << w;
  }
}

TEST(Aggregator, AlgorithmSelectionChangesOutcome) {
  const StratRec stratrec = MakeExample1StratRec();
  std::vector<DeploymentRequest> requests = {
      {"d3", {0.7, 0.83, 0.28}, 3},
  };
  StratRecOptions options;
  options.batch.aggregation = AggregationMode::kMax;
  for (auto algorithm : {BatchAlgorithm::kBatchStrat, BatchAlgorithm::kBaselineG,
                         BatchAlgorithm::kBruteForce}) {
    options.batch_solver = SolverForAlgorithm(algorithm);
    auto report = stratrec.ProcessBatchAtAvailability(requests, 0.8, options);
    ASSERT_TRUE(report.ok());
    // d3 serveable by all
    EXPECT_EQ(report->aggregator.batch.satisfied.size(), 1u);
  }
}

TEST(Aggregator, StrategiesAccessorsExposeCatalog) {
  const StratRec stratrec = MakeExample1StratRec();
  EXPECT_EQ(stratrec.strategies().size(), 4u);
  EXPECT_EQ(stratrec.profiles().size(), 4u);
  EXPECT_EQ(stratrec.strategies()[1].Describe(), "SEQ-IND-CRO");
}

}  // namespace
}  // namespace stratrec::core
