// Integration tests: the full StratRec pipeline (Aggregator + ADPaR) on the
// paper's worked example and on simulated-platform inputs, plus the AMT
// simulator's end-to-end studies.
#include <gtest/gtest.h>

#include "src/core/stratrec.h"
#include "src/platform/amt.h"
#include "src/stats/hypothesis.h"
#include "src/workload/generators.h"

namespace stratrec {
namespace {

using core::AggregationMode;
using core::AvailabilityModel;
using core::BatchAlgorithm;
using core::DeploymentRequest;
using core::ParamVector;
using core::StrategyProfile;
using core::StratRec;
using core::StratRecOptions;

// The quickstart's Example 1 setup: profiles whose parameters at W = 0.8
// equal Table 1's strategy values.
struct Example1 {
  std::vector<core::Strategy> strategies = {
      {"s1", core::ParseStageName("SIM-COL-CRO").value()},
      {"s2", core::ParseStageName("SEQ-IND-CRO").value()},
      {"s3", core::ParseStageName("SIM-IND-CRO").value()},
      {"s4", core::ParseStageName("SIM-IND-HYB").value()},
  };
  std::vector<StrategyProfile> profiles = {
      {{0.25, 0.30}, {0.3125, 0.00}, {-0.15, 0.40}},
      {{0.25, 0.55}, {0.4125, 0.00}, {-0.15, 0.40}},
      {{0.25, 0.60}, {0.6250, 0.00}, {-0.20, 0.30}},
      {{0.25, 0.68}, {0.7250, 0.00}, {-0.20, 0.30}},
  };
  std::vector<DeploymentRequest> requests = {
      {"d1", {0.4, 0.17, 0.28}, 3},
      {"d2", {0.8, 0.20, 0.28}, 3},
      {"d3", {0.7, 0.83, 0.28}, 3},
  };
};

TEST(StratRecIntegration, Example1EndToEnd) {
  Example1 example;
  auto stratrec = StratRec::Create(example.strategies, example.profiles);
  ASSERT_TRUE(stratrec.ok());

  auto availability = AvailabilityModel::FromPmf({{0.7, 0.5}, {0.9, 0.5}});
  ASSERT_TRUE(availability.ok());
  EXPECT_NEAR(availability->ExpectedAvailability(), 0.8, 1e-12);

  StratRecOptions options;
  options.batch.aggregation = AggregationMode::kMax;
  auto report = stratrec->ProcessBatch(example.requests, *availability,
                                       options);
  ASSERT_TRUE(report.ok()) << report.status().ToString();

  // The report carries answers only: no catalog block unless asked for.
  EXPECT_TRUE(report->aggregator.strategy_params.empty());

  // d3 is served with {s2, s3, s4} (Section 2.2).
  const auto& outcomes = report->aggregator.batch.outcomes;
  EXPECT_FALSE(outcomes[0].satisfied);
  EXPECT_FALSE(outcomes[1].satisfied);
  ASSERT_TRUE(outcomes[2].satisfied);
  std::vector<size_t> served = outcomes[2].strategies;
  std::sort(served.begin(), served.end());
  EXPECT_EQ(served, (std::vector<size_t>{1, 2, 3}));

  // d1 and d2 receive ADPaR alternatives.
  ASSERT_EQ(report->alternatives.size(), 2u);
  const auto& alt1 = report->alternatives[0];
  EXPECT_EQ(alt1.request_index, 0u);
  EXPECT_NEAR(alt1.result.alternative.quality, 0.4, 1e-9);
  EXPECT_NEAR(alt1.result.alternative.cost, 0.5, 1e-9);
  EXPECT_NEAR(alt1.result.alternative.latency, 0.28, 1e-9);

  const auto& alt2 = report->alternatives[1];
  EXPECT_EQ(alt2.request_index, 1u);
  EXPECT_NEAR(alt2.result.alternative.quality, 0.75, 1e-9);
  EXPECT_NEAR(alt2.result.alternative.cost, 0.58, 1e-9);
  EXPECT_TRUE(report->adpar_failures.empty());

  // Each alternative carries its strategies' parameters at W = 0.8, which
  // reproduce Table 1's rows.
  const std::vector<ParamVector> table1 = {{0.50, 0.25, 0.28},
                                           {0.75, 0.33, 0.28},
                                           {0.80, 0.50, 0.14},
                                           {0.88, 0.58, 0.14}};
  for (const auto& alt : report->alternatives) {
    ASSERT_EQ(alt.result.strategy_params.size(), 3u);
    for (size_t i = 0; i < 3; ++i) {
      const ParamVector& expected = table1[alt.result.strategies[i]];
      const ParamVector& actual = alt.result.strategy_params[i];
      EXPECT_NEAR(actual.quality, expected.quality, 1e-9);
      EXPECT_NEAR(actual.cost, expected.cost, 1e-9);
      EXPECT_NEAR(actual.latency, expected.latency, 1e-9);
    }
  }

  // materialize_params still fills the Table-1 block on request.
  options.materialize_params = true;
  auto full = stratrec->ProcessBatch(example.requests, *availability,
                                     options);
  ASSERT_TRUE(full.ok());
  ASSERT_EQ(full->aggregator.strategy_params.size(), 4u);
  for (size_t j = 0; j < 4; ++j) {
    EXPECT_NEAR(full->aggregator.strategy_params[j].quality,
                table1[j].quality, 1e-9);
    EXPECT_NEAR(full->aggregator.strategy_params[j].cost, table1[j].cost,
                1e-9);
  }
  EXPECT_TRUE(full->alternatives == report->alternatives);
}

TEST(StratRecIntegration, AlternativesDisabled) {
  Example1 example;
  auto stratrec = StratRec::Create(example.strategies, example.profiles);
  ASSERT_TRUE(stratrec.ok());
  StratRecOptions options;
  options.batch.aggregation = AggregationMode::kMax;
  options.recommend_alternatives = false;
  auto report =
      stratrec->ProcessBatchAtAvailability(example.requests, 0.8, options);
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->alternatives.empty());
  EXPECT_EQ(report->aggregator.batch.unsatisfied.size(), 2u);
}

TEST(StratRecIntegration, AdparFailureWhenKExceedsCatalog) {
  Example1 example;
  auto stratrec = StratRec::Create(example.strategies, example.profiles);
  ASSERT_TRUE(stratrec.ok());
  std::vector<DeploymentRequest> requests = {{"d", {0.99, 0.01, 0.01}, 9}};
  auto report = stratrec->ProcessBatchAtAvailability(requests, 0.8);
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->alternatives.empty());
  EXPECT_EQ(report->adpar_failures, (std::vector<size_t>{0}));
}

TEST(StratRecIntegration, CreateValidatesAlignment) {
  Example1 example;
  example.profiles.pop_back();
  EXPECT_FALSE(StratRec::Create(example.strategies, example.profiles).ok());
  EXPECT_FALSE(StratRec::Create({}, {}).ok());
}

TEST(StratRecIntegration, RejectsOutOfRangeAvailability) {
  Example1 example;
  auto stratrec = StratRec::Create(example.strategies, example.profiles);
  ASSERT_TRUE(stratrec.ok());
  EXPECT_FALSE(
      stratrec->ProcessBatchAtAvailability(example.requests, 1.5).ok());
  EXPECT_FALSE(
      stratrec->ProcessBatchAtAvailability(example.requests, -0.1).ok());
}

TEST(StratRecIntegration, EveryUnsatisfiedRequestGetsAnAnswer) {
  // On random synthetic batches, every request is either served or receives
  // an ADPaR alternative (or an explicit failure when k > |S|).
  workload::Generator generator({}, 2024);
  const auto profiles = generator.Profiles(12);
  std::vector<core::Strategy> strategies;
  for (size_t j = 0; j < profiles.size(); ++j) {
    strategies.emplace_back("s" + std::to_string(j),
                            core::AllStageSpecs()[j % 8]);
  }
  auto stratrec = StratRec::Create(strategies, profiles);
  ASSERT_TRUE(stratrec.ok());
  const auto requests = generator.Requests(20, /*k=*/3);
  auto report = stratrec->ProcessBatchAtAvailability(requests, 0.5);
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->aggregator.batch.unsatisfied.size(),
            report->alternatives.size() + report->adpar_failures.size());
  for (const auto& alt : report->alternatives) {
    EXPECT_EQ(alt.result.strategies.size(), 3u);
    // The alternative covers its strategies at the estimated parameters,
    // which the result carries itself.
    ASSERT_EQ(alt.result.strategy_params.size(), 3u);
    for (size_t i = 0; i < 3; ++i) {
      EXPECT_TRUE(alt.result.strategy_params[i] ==
                  profiles[alt.result.strategies[i]].EstimateParams(0.5));
      EXPECT_TRUE(core::Satisfies(alt.result.strategy_params[i],
                                  alt.result.alternative));
    }
  }
}

TEST(AmtIntegration, AvailabilityStudyShowsWindowEffect) {
  platform::AmtStudyOptions options;
  platform::AmtSimulator amt(options, 4242);
  const auto cells =
      amt.RunAvailabilityStudy(platform::TaskType::kSentenceTranslation);
  ASSERT_EQ(cells.size(), 6u);  // 2 strategies x 3 windows
  // Within each strategy block, early week beats weekend.
  for (size_t base : {0u, 3u}) {
    const double weekend = cells[base + 0].mean;
    const double early = cells[base + 1].mean;
    EXPECT_GT(early, weekend);
  }
}

TEST(AmtIntegration, BuildStratRecFitsAllEightStages) {
  platform::AmtStudyOptions options;
  platform::AmtSimulator amt(options, 777);
  auto stratrec = amt.BuildStratRec(platform::TaskType::kTextCreation);
  ASSERT_TRUE(stratrec.ok()) << stratrec.status().ToString();
  EXPECT_EQ(stratrec->aggregator().strategies().size(), 8u);
}

TEST(AmtIntegration, MirroredStudyFavorsStratRec) {
  // Figure 13's headline: guided deployments achieve higher quality and
  // lower latency with statistical significance, and fewer edits.
  platform::AmtStudyOptions options;
  platform::AmtSimulator amt(options, 31337);
  const core::ParamVector thresholds{0.7, 1.0, 1.0};
  auto study = amt.RunMirroredStudy(platform::TaskType::kSentenceTranslation,
                                    /*num_tasks=*/30, thresholds);
  ASSERT_TRUE(study.ok()) << study.status().ToString();

  auto quality = stats::PairedTTest(study->quality_with,
                                    study->quality_without);
  ASSERT_TRUE(quality.ok());
  EXPECT_GT(quality->mean_difference, 0.0);
  EXPECT_TRUE(quality->Significant(0.05));

  auto edits = stats::PairedTTest(study->edits_with, study->edits_without);
  ASSERT_TRUE(edits.ok());
  EXPECT_LT(edits->mean_difference, 0.0);  // guided edits fewer
  EXPECT_TRUE(edits->Significant(0.05));
}

}  // namespace
}  // namespace stratrec
