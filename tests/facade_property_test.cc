// Whole-facade property sweep: StratRec::ProcessBatch across the full
// configuration cross-product (objective x aggregation x workforce policy x
// algorithm) on random workloads, asserting the global invariants that must
// hold regardless of configuration.
#include <gtest/gtest.h>

#include <tuple>

#include "src/core/stratrec.h"
#include "src/workload/generators.h"

namespace stratrec::core {
namespace {

class FacadePropertyTest
    : public testing::TestWithParam<
          std::tuple<Objective, AggregationMode, WorkforcePolicy,
                     BatchAlgorithm, uint64_t>> {
 protected:
  void SetUp() override {
    workload::Generator generator({}, std::get<4>(GetParam()));
    profiles_ = generator.Profiles(40);
    for (size_t j = 0; j < profiles_.size(); ++j) {
      std::string name = "s";
      name += std::to_string(j);
      strategies_.emplace_back(std::move(name), AllStageSpecs()[j % 8]);
    }
    requests_ = generator.RequestsWithRanges(12, 3, {0.5, 0.8}, {0.6, 1.0},
                                             {0.6, 1.0});
    options_.batch.objective = std::get<0>(GetParam());
    options_.batch.aggregation = std::get<1>(GetParam());
    options_.batch.policy = std::get<2>(GetParam());
    options_.batch_solver = SolverForAlgorithm(std::get<3>(GetParam()));
  }

  std::vector<Strategy> strategies_;
  std::vector<StrategyProfile> profiles_;
  std::vector<DeploymentRequest> requests_;
  StratRecOptions options_;
};

TEST_P(FacadePropertyTest, GlobalInvariantsHold) {
  auto stratrec = StratRec::Create(strategies_, profiles_);
  ASSERT_TRUE(stratrec.ok());
  for (double w : {0.3, 0.7, 1.0}) {
    auto report =
        stratrec->ProcessBatchAtAvailability(requests_, w, options_);
    ASSERT_TRUE(report.ok()) << report.status().ToString();

    const BatchResult& batch = report->batch;
    // 1. Partition: every request is satisfied xor unsatisfied.
    EXPECT_EQ(batch.satisfied.size() + batch.unsatisfied.size(),
              requests_.size());
    // 2. Capacity discipline.
    EXPECT_LE(batch.workforce_used, w + 1e-9);
    // 3. Satisfied requests carry exactly k strategies; each is feasible,
    //    fits within W, and meets the thresholds at its *allocated*
    //    workforce (not at W — cost rises with workforce, so a strategy is
    //    deployed at its requirement, below which the budget would hold).
    for (size_t i : batch.satisfied) {
      const RequestOutcome& outcome = batch.outcomes[i];
      EXPECT_EQ(outcome.strategies.size(),
                static_cast<size_t>(requests_[i].k));
      for (size_t j : outcome.strategies) {
        const WorkforceCell cell = ComputeWorkforceCell(
            profiles_[j], requests_[i].thresholds, options_.batch.policy);
        EXPECT_TRUE(cell.feasible);
        EXPECT_LE(cell.requirement, w + 1e-9);
        const ParamVector at_allocation =
            profiles_[j].EstimateParams(cell.requirement);
        EXPECT_TRUE(Satisfies(at_allocation, requests_[i].thresholds))
            << "request " << i << " strategy " << j << " W=" << w;
      }
    }
    // 4. Every unsatisfied request received an alternative or an explicit
    //    ADPaR failure.
    EXPECT_EQ(batch.unsatisfied.size(),
              report->alternatives.size() + report->adpar_failures.size());
    // 5. Alternatives are valid relaxations covering k strategies.
    for (const auto& alt : report->alternatives) {
      const ParamVector& d = requests_[alt.request_index].thresholds;
      const ParamVector& d_prime = alt.result.alternative;
      EXPECT_LE(d_prime.quality, d.quality + 1e-9);
      EXPECT_GE(d_prime.cost, d.cost - 1e-9);
      EXPECT_GE(d_prime.latency, d.latency - 1e-9);
      EXPECT_EQ(alt.result.strategies.size(),
                static_cast<size_t>(requests_[alt.request_index].k));
      ASSERT_EQ(alt.result.strategy_params.size(),
                alt.result.strategies.size());
      for (const ParamVector& params : alt.result.strategy_params) {
        EXPECT_TRUE(Satisfies(params, d_prime));
      }
    }
    // 6. Objective bookkeeping: total equals the sum over satisfied.
    double recomputed = 0.0;
    for (size_t i : batch.satisfied) {
      recomputed += batch.outcomes[i].objective_value;
    }
    EXPECT_NEAR(recomputed, batch.total_objective, 1e-9);
  }
}

TEST_P(FacadePropertyTest, DeterministicAcrossRuns) {
  auto stratrec = StratRec::Create(strategies_, profiles_);
  ASSERT_TRUE(stratrec.ok());
  auto a = stratrec->ProcessBatchAtAvailability(requests_, 0.6, options_);
  auto b = stratrec->ProcessBatchAtAvailability(requests_, 0.6, options_);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a->batch.satisfied, b->batch.satisfied);
  EXPECT_DOUBLE_EQ(a->batch.total_objective, b->batch.total_objective);
  ASSERT_EQ(a->alternatives.size(), b->alternatives.size());
  for (size_t i = 0; i < a->alternatives.size(); ++i) {
    EXPECT_EQ(a->alternatives[i].result.strategies,
              b->alternatives[i].result.strategies);
  }
}

INSTANTIATE_TEST_SUITE_P(
    CrossProduct, FacadePropertyTest,
    testing::Combine(
        testing::Values(Objective::kThroughput, Objective::kPayoff),
        testing::Values(AggregationMode::kSum, AggregationMode::kMax),
        testing::Values(WorkforcePolicy::kMinimalWorkforce,
                        WorkforcePolicy::kPaperMaxOfThree),
        testing::Values(BatchAlgorithm::kBatchStrat,
                        BatchAlgorithm::kBaselineG,
                        BatchAlgorithm::kBruteForce),
        testing::Values(0xFACEu, 0xFACE2u)));

}  // namespace
}  // namespace stratrec::core
