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

TEST(Aggregator, CreateValidatesInputs) {
  EXPECT_FALSE(StratRec::Create({}, {}).ok());
  std::vector<Strategy> one = {{"s", StageSpec{}}};
  EXPECT_FALSE(StratRec::Create(one, {}).ok());  // misaligned
}

TEST(Aggregator, EstimatesTable1ParamsAtW) {
  const StratRec stratrec = MakeExample1StratRec();
  auto snapshot = stratrec.index().BuildSnapshot(0.8);
  EXPECT_DOUBLE_EQ(snapshot->availability(), 0.8);
  const std::vector<ParamVector>& params = snapshot->params();
  ASSERT_EQ(params.size(), 4u);
  EXPECT_NEAR(params[0].quality, 0.50, 1e-9);
  EXPECT_NEAR(params[0].cost, 0.25, 1e-9);
  EXPECT_NEAR(params[0].latency, 0.28, 1e-9);
  EXPECT_NEAR(params[3].quality, 0.88, 1e-9);
  EXPECT_NEAR(params[3].cost, 0.58, 1e-9);
  EXPECT_NEAR(params[3].latency, 0.14, 1e-9);
}

TEST(Aggregator, ParamsShiftWithAvailability) {
  const StratRec stratrec = MakeExample1StratRec();
  const auto low = stratrec.index().BuildSnapshot(0.5);
  const auto high = stratrec.index().BuildSnapshot(0.95);
  const std::vector<ParamVector>& low_params = low->params();
  const std::vector<ParamVector>& high_params = high->params();
  for (size_t j = 0; j < 4; ++j) {
    EXPECT_LT(low_params[j].quality, high_params[j].quality);
    EXPECT_LT(low_params[j].cost, high_params[j].cost);
    EXPECT_GT(low_params[j].latency, high_params[j].latency);
  }
}

// ProcessBatch runs at the PMF's expected W: under kMax, Example 1's report
// at 0.8 differs from the ones at the two atoms.
TEST(Aggregator, RunUsesPmfExpectation) {
  const StratRec stratrec = MakeExample1StratRec();
  const std::vector<DeploymentRequest> requests = {
      {"d1", {0.4, 0.17, 0.28}, 3},
      {"d2", {0.8, 0.20, 0.28}, 3},
      {"d3", {0.7, 0.83, 0.28}, 3},
  };
  StratRecOptions options;
  options.batch.aggregation = AggregationMode::kMax;
  auto availability = AvailabilityModel::FromPmf({{0.7, 0.5}, {0.9, 0.5}});
  ASSERT_TRUE(availability.ok());
  auto report = stratrec.ProcessBatch(requests, *availability, options);
  ASSERT_TRUE(report.ok());
  auto at_mean = stratrec.ProcessBatchAtAvailability(requests, 0.8, options);
  ASSERT_TRUE(at_mean.ok());
  EXPECT_TRUE(*report == *at_mean);
  for (double atom : {0.7, 0.9}) {
    auto at_atom =
        stratrec.ProcessBatchAtAvailability(requests, atom, options);
    ASSERT_TRUE(at_atom.ok());
    EXPECT_FALSE(*at_atom == *at_mean) << "W = " << atom;
  }
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
    EXPECT_EQ(report->batch.satisfied.size(), 1u);
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
