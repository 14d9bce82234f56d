// Service-facade property sweep, mirroring tests/facade_property_test.cc:
// SubmitBatch across the full ServiceConfig cross-product (objective x
// aggregation x workforce policy x algorithm name) on random workloads.
// Asserts (a) the global invariants that must hold regardless of
// configuration and (b) exact agreement with the core StratRec pipeline the
// facade wraps — the redesign must not change a single recommendation.
#include <gtest/gtest.h>

#include <string>
#include <tuple>

#include "src/api/catalog.h"
#include "src/api/service.h"
#include "src/workload/generators.h"

namespace stratrec::api {
namespace {

class ServicePropertyTest
    : public testing::TestWithParam<
          std::tuple<core::Objective, core::AggregationMode,
                     core::WorkforcePolicy, std::string, uint64_t>> {
 protected:
  void SetUp() override {
    workload::Generator generator({}, std::get<4>(GetParam()));
    catalog_ = CatalogFromProfiles(generator.Profiles(40));
    requests_ = generator.RequestsWithRanges(12, 3, {0.5, 0.8}, {0.6, 1.0},
                                             {0.6, 1.0});
    config_.batch.objective = std::get<0>(GetParam());
    config_.batch.aggregation = std::get<1>(GetParam());
    config_.batch.policy = std::get<2>(GetParam());
    config_.batch.algorithm = std::get<3>(GetParam());
  }

  core::BatchAlgorithm CoreAlgorithm() const {
    const std::string& name = config_.batch.algorithm;
    if (name == "baseline-g") return core::BatchAlgorithm::kBaselineG;
    if (name == "brute-force") return core::BatchAlgorithm::kBruteForce;
    return core::BatchAlgorithm::kBatchStrat;
  }

  core::Catalog catalog_;
  std::vector<core::DeploymentRequest> requests_;
  ServiceConfig config_;
};

TEST_P(ServicePropertyTest, GlobalInvariantsHold) {
  auto service = Service::Create(catalog_, config_);
  ASSERT_TRUE(service.ok()) << service.status().ToString();
  for (double w : {0.3, 0.7, 1.0}) {
    BatchRequest envelope;
    envelope.requests = requests_;
    envelope.availability = AvailabilitySpec::Fixed(w);
    auto report = service->SubmitBatch(envelope);
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    EXPECT_DOUBLE_EQ(report->availability, w);
    EXPECT_EQ(report->algorithm, config_.batch.algorithm);

    const core::BatchResult& batch = report->result.aggregator.batch;
    // 1. Partition: every request is satisfied xor unsatisfied.
    EXPECT_EQ(batch.satisfied.size() + batch.unsatisfied.size(),
              requests_.size());
    // 2. Capacity discipline.
    EXPECT_LE(batch.workforce_used, w + 1e-9);
    // 3. Satisfied requests carry exactly k feasible strategies that meet
    //    the thresholds at their allocated workforce.
    for (size_t i : batch.satisfied) {
      const core::RequestOutcome& outcome = batch.outcomes[i];
      EXPECT_EQ(outcome.strategies.size(),
                static_cast<size_t>(requests_[i].k));
      for (size_t j : outcome.strategies) {
        const core::WorkforceCell cell = core::ComputeWorkforceCell(
            catalog_.profiles[j], requests_[i].thresholds,
            config_.batch.policy);
        EXPECT_TRUE(cell.feasible);
        EXPECT_LE(cell.requirement, w + 1e-9);
        const core::ParamVector at_allocation =
            catalog_.profiles[j].EstimateParams(cell.requirement);
        EXPECT_TRUE(core::Satisfies(at_allocation, requests_[i].thresholds))
            << "request " << i << " strategy " << j << " W=" << w;
      }
    }
    // 4. Every unsatisfied request received an alternative or an explicit
    //    ADPaR failure.
    EXPECT_EQ(batch.unsatisfied.size(),
              report->result.alternatives.size() +
                  report->result.adpar_failures.size());
    // 5. Alternatives are valid relaxations covering k strategies.
    for (const auto& alt : report->result.alternatives) {
      const core::ParamVector& d = requests_[alt.request_index].thresholds;
      const core::ParamVector& d_prime = alt.result.alternative;
      EXPECT_LE(d_prime.quality, d.quality + 1e-9);
      EXPECT_GE(d_prime.cost, d.cost - 1e-9);
      EXPECT_GE(d_prime.latency, d.latency - 1e-9);
      EXPECT_EQ(alt.result.strategies.size(),
                static_cast<size_t>(requests_[alt.request_index].k));
      ASSERT_EQ(alt.result.strategy_params.size(),
                alt.result.strategies.size());
      for (const core::ParamVector& params : alt.result.strategy_params) {
        EXPECT_TRUE(core::Satisfies(params, d_prime));
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

TEST_P(ServicePropertyTest, AgreesWithWrappedCorePipeline) {
  auto service = Service::Create(catalog_, config_);
  ASSERT_TRUE(service.ok());
  auto stratrec = core::StratRec::Create(catalog_);
  ASSERT_TRUE(stratrec.ok());

  core::StratRecOptions core_options;
  core_options.batch.objective = config_.batch.objective;
  core_options.batch.aggregation = config_.batch.aggregation;
  core_options.batch.policy = config_.batch.policy;
  core_options.algorithm = CoreAlgorithm();

  BatchRequest envelope;
  envelope.requests = requests_;
  envelope.availability = AvailabilitySpec::Fixed(0.6);

  auto facade = service->SubmitBatch(envelope);
  auto direct = stratrec->ProcessBatchAtAvailability(requests_, 0.6,
                                                     core_options);
  ASSERT_TRUE(facade.ok());
  ASSERT_TRUE(direct.ok());
  EXPECT_EQ(facade->result.aggregator.batch.satisfied,
            direct->aggregator.batch.satisfied);
  EXPECT_DOUBLE_EQ(facade->result.aggregator.batch.total_objective,
                   direct->aggregator.batch.total_objective);
  ASSERT_EQ(facade->result.alternatives.size(),
            direct->alternatives.size());
  for (size_t i = 0; i < facade->result.alternatives.size(); ++i) {
    EXPECT_EQ(facade->result.alternatives[i].result.strategies,
              direct->alternatives[i].result.strategies);
    EXPECT_DOUBLE_EQ(facade->result.alternatives[i].result.distance,
                     direct->alternatives[i].result.distance);
  }
}

INSTANTIATE_TEST_SUITE_P(
    CrossProduct, ServicePropertyTest,
    testing::Combine(
        testing::Values(core::Objective::kThroughput,
                        core::Objective::kPayoff),
        testing::Values(core::AggregationMode::kSum,
                        core::AggregationMode::kMax),
        testing::Values(core::WorkforcePolicy::kMinimalWorkforce,
                        core::WorkforcePolicy::kPaperMaxOfThree),
        testing::Values(std::string("batchstrat"), std::string("baseline-g"),
                        std::string("brute-force")),
        testing::Values(0xFACEu, 0xFACE2u)));

}  // namespace
}  // namespace stratrec::api
