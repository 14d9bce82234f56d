// Unit tests for the core data model: types, strategies, linear models,
// deployment requests, availability.
#include <gtest/gtest.h>

#include <limits>

#include "src/common/rng.h"
#include "src/core/availability.h"
#include "src/core/deployment.h"
#include "src/core/linear_model.h"
#include "src/core/strategy.h"
#include "src/core/types.h"

namespace stratrec::core {
namespace {

TEST(ParamVectorTest, SquaredDistanceMatchesEquation3) {
  const ParamVector d{0.8, 0.2, 0.28};
  const ParamVector d_prime{0.75, 0.58, 0.28};
  EXPECT_NEAR(d.SquaredDistanceTo(d_prime), 0.05 * 0.05 + 0.38 * 0.38, 1e-12);
  EXPECT_DOUBLE_EQ(d.SquaredDistanceTo(d), 0.0);
}

TEST(ParamVectorTest, SatisfiesSemantics) {
  const ParamVector d{0.7, 0.83, 0.28};
  EXPECT_TRUE(Satisfies({0.75, 0.33, 0.28}, d));   // meets all
  EXPECT_FALSE(Satisfies({0.65, 0.33, 0.28}, d));  // quality too low
  EXPECT_FALSE(Satisfies({0.75, 0.90, 0.28}, d));  // too expensive
  EXPECT_FALSE(Satisfies({0.75, 0.33, 0.30}, d));  // too slow
  // Boundary equality counts as satisfying.
  EXPECT_TRUE(Satisfies({0.7, 0.83, 0.28}, d));
}

TEST(ParamVectorTest, RelaxSpaceRoundTrip) {
  const ParamVector p{0.8, 0.5, 0.14};
  const geo::Point3 r = ToRelaxSpace(p);
  EXPECT_DOUBLE_EQ(r.x, 0.2);  // 1 - quality
  EXPECT_DOUBLE_EQ(r.y, 0.5);
  EXPECT_DOUBLE_EQ(r.z, 0.14);
  const ParamVector back = FromRelaxSpace(r);
  EXPECT_DOUBLE_EQ(back.quality, p.quality);
  EXPECT_DOUBLE_EQ(back.cost, p.cost);
  EXPECT_DOUBLE_EQ(back.latency, p.latency);
}

TEST(ParamVectorTest, RelaxSpaceDominanceIsSatisfaction) {
  // s satisfies d  <=>  relax(s) component-wise <= relax(d).
  Rng rng(5);
  for (int i = 0; i < 200; ++i) {
    const ParamVector s{rng.Uniform(), rng.Uniform(), rng.Uniform()};
    const ParamVector d{rng.Uniform(), rng.Uniform(), rng.Uniform()};
    EXPECT_EQ(Satisfies(s, d, /*eps=*/0.0),
              ToRelaxSpace(s).DominatedBy(ToRelaxSpace(d)));
  }
}

TEST(ParamVectorTest, ToStringMentionsAllParams) {
  const std::string s = ParamVector{0.1, 0.2, 0.3}.ToString();
  EXPECT_NE(s.find("q=0.1"), std::string::npos);
  EXPECT_NE(s.find("c=0.2"), std::string::npos);
  EXPECT_NE(s.find("l=0.3"), std::string::npos);
}

TEST(StrategyTest, StageNamesRoundTrip) {
  for (const StageSpec& spec : AllStageSpecs()) {
    auto parsed = ParseStageName(StageName(spec));
    ASSERT_TRUE(parsed.ok());
    EXPECT_EQ(*parsed, spec);
  }
}

TEST(StrategyTest, ParseIsCaseInsensitive) {
  auto parsed = ParseStageName("sim-col-hyb");
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->structure, Structure::kSimultaneous);
  EXPECT_EQ(parsed->organization, Organization::kCollaborative);
  EXPECT_EQ(parsed->style, WorkStyle::kHybrid);
}

TEST(StrategyTest, ParseRejectsMalformedNames) {
  EXPECT_FALSE(ParseStageName("").ok());
  EXPECT_FALSE(ParseStageName("SEQINDCRO").ok());
  EXPECT_FALSE(ParseStageName("XXX-IND-CRO").ok());
  EXPECT_FALSE(ParseStageName("SEQ-XXX-CRO").ok());
  EXPECT_FALSE(ParseStageName("SEQ-IND-XXX").ok());
  EXPECT_FALSE(ParseStageName("SEQ_IND_CRO").ok());
}

TEST(StrategyTest, AllStageSpecsAreDistinct) {
  const auto specs = AllStageSpecs();
  EXPECT_EQ(specs.size(), 8u);
  for (size_t i = 0; i < specs.size(); ++i) {
    for (size_t j = i + 1; j < specs.size(); ++j) {
      EXPECT_FALSE(specs[i] == specs[j]);
    }
  }
}

TEST(StrategyTest, DescribeJoinsStages) {
  const Strategy wf("wf", {ParseStageName("SEQ-IND-CRO").value(),
                           ParseStageName("SIM-COL-HYB").value()});
  EXPECT_EQ(wf.Describe(), "SEQ-IND-CRO>SIM-COL-HYB");
  EXPECT_EQ(wf.num_stages(), 2u);
}

TEST(StrategyTest, CountWorkflowsIsPowerOfEight) {
  EXPECT_EQ(CountWorkflows(0).value(), 1u);
  EXPECT_EQ(CountWorkflows(1).value(), 8u);
  // The paper's example: x = 10 stages -> 8^10 = 1,073,741,824 strategies.
  EXPECT_EQ(CountWorkflows(10).value(), 1073741824u);
  EXPECT_FALSE(CountWorkflows(-1).ok());
  EXPECT_FALSE(CountWorkflows(22).ok());  // overflows uint64
}

TEST(StrategyTest, EnumerateWorkflowsMaterializesAll) {
  auto workflows = EnumerateWorkflows(2);
  ASSERT_TRUE(workflows.ok());
  EXPECT_EQ(workflows->size(), 64u);
  // All distinct.
  for (size_t i = 0; i < workflows->size(); ++i) {
    for (size_t j = i + 1; j < workflows->size(); ++j) {
      EXPECT_FALSE((*workflows)[i].stages() == (*workflows)[j].stages());
    }
  }
  // Cap guard.
  EXPECT_FALSE(EnumerateWorkflows(10, /*max_results=*/1000).ok());
}

TEST(LinearModelTest, EvalAndInvert) {
  const LinearModel latency{-0.98, 1.40};  // Table 6 translation latency
  EXPECT_NEAR(latency.Eval(1.0), 0.42, 1e-12);
  auto w = latency.SolveForWorkforce(0.42);
  ASSERT_TRUE(w.ok());
  EXPECT_NEAR(*w, 1.0, 1e-12);
  EXPECT_NEAR(latency.EvalClamped(0.0), 1.0, 1e-12);  // clamped from 1.40
}

TEST(LinearModelTest, ConstantModelCannotInvert) {
  const LinearModel constant{0.0, 0.5};
  EXPECT_FALSE(constant.SolveForWorkforce(0.7).ok());
  EXPECT_DOUBLE_EQ(constant.Eval(0.3), 0.5);
}

TEST(LinearModelTest, ProfileEstimatesClampedParams) {
  StrategyProfile profile;
  profile.quality = {0.09, 0.85};
  profile.cost = {1.0, 0.0};
  profile.latency = {-0.98, 1.40};
  const ParamVector at_08 = profile.EstimateParams(0.8);
  EXPECT_NEAR(at_08.quality, 0.922, 1e-12);
  EXPECT_NEAR(at_08.cost, 0.8, 1e-12);
  EXPECT_NEAR(at_08.latency, 0.616, 1e-12);
  // At w = 0 latency would be 1.40 -> clamped to 1.
  EXPECT_DOUBLE_EQ(profile.EstimateParams(0.0).latency, 1.0);
}

TEST(LinearModelTest, FitProfileRecoversGroundTruth) {
  Rng rng(42);
  StrategyProfile truth;
  truth.quality = {0.10, 0.80};
  truth.cost = {1.0, 0.0};
  truth.latency = {-1.56, 2.04};
  std::vector<Observation> observations;
  for (int i = 0; i < 40; ++i) {
    const double w = rng.Uniform(0.6, 1.0);
    Observation obs;
    obs.availability = w;
    obs.outcome.quality = truth.quality.Eval(w) + rng.Normal(0, 0.01);
    obs.outcome.cost = truth.cost.Eval(w) + rng.Normal(0, 0.01);
    obs.outcome.latency = truth.latency.Eval(w) + rng.Normal(0, 0.01);
    observations.push_back(obs);
  }
  auto fitted = FitProfile(observations);
  ASSERT_TRUE(fitted.ok());
  EXPECT_NEAR(fitted->profile.quality.alpha, 0.10, 0.05);
  EXPECT_NEAR(fitted->profile.cost.alpha, 1.0, 0.05);
  EXPECT_NEAR(fitted->profile.latency.alpha, -1.56, 0.08);
  // CI containment is itself probabilistic (the nominal coverage is tested
  // statistically in stats_test.cc); at 99% confidence this fixed seed must
  // contain the truth.
  EXPECT_TRUE(fitted->quality_fit.AlphaCiContains(0.10, 0.99));
  EXPECT_TRUE(fitted->latency_fit.BetaCiContains(2.04, 0.99));
}

TEST(LinearModelTest, FitProfileErrorsOnTooFewObservations) {
  EXPECT_FALSE(FitProfile({}).ok());
  EXPECT_FALSE(FitProfile({Observation{0.5, {0.5, 0.5, 0.5}}}).ok());
  // Two observations at the same availability: degenerate.
  EXPECT_FALSE(FitProfile({Observation{0.5, {0.5, 0.5, 0.5}},
                           Observation{0.5, {0.6, 0.6, 0.6}}})
                   .ok());
}

TEST(DeploymentTest, ValidateRequest) {
  DeploymentRequest ok{"d", {0.5, 0.5, 0.5}, 3};
  EXPECT_TRUE(ValidateRequest(ok).ok());
  DeploymentRequest bad_k{"d", {0.5, 0.5, 0.5}, 0};
  EXPECT_FALSE(ValidateRequest(bad_k).ok());
  DeploymentRequest bad_q{"d", {1.5, 0.5, 0.5}, 1};
  EXPECT_FALSE(ValidateRequest(bad_q).ok());
  DeploymentRequest bad_c{"d", {0.5, -0.1, 0.5}, 1};
  EXPECT_FALSE(ValidateRequest(bad_c).ok());
}

TEST(DeploymentTest, PayoffIsBudget) {
  DeploymentRequest request{"d", {0.5, 0.83, 0.5}, 3};
  EXPECT_DOUBLE_EQ(request.Payoff(), 0.83);
}

TEST(DeploymentTest, SuitableStrategiesFiltersInOrder) {
  const std::vector<ParamVector> strategies = {
      {0.50, 0.25, 0.28}, {0.75, 0.33, 0.28}, {0.80, 0.50, 0.14},
      {0.88, 0.58, 0.14}};
  const auto suitable = SuitableStrategies(strategies, {0.7, 0.83, 0.28});
  EXPECT_EQ(suitable, (std::vector<size_t>{1, 2, 3}));
  EXPECT_TRUE(SuitableStrategies(strategies, {0.99, 0.1, 0.01}).empty());
}

TEST(AvailabilityTest, PaperExampleExpectation) {
  auto model = AvailabilityModel::FromPmf({{0.7, 0.5}, {0.9, 0.5}});
  ASSERT_TRUE(model.ok());
  EXPECT_NEAR(model->ExpectedAvailability(), 0.8, 1e-12);
}

TEST(AvailabilityTest, FromSamples) {
  auto model = AvailabilityModel::FromSamples({0.6, 0.8, 0.7, 0.9});
  ASSERT_TRUE(model.ok());
  EXPECT_NEAR(model->ExpectedAvailability(), 0.75, 1e-12);
  EXPECT_GT(model->Variance(), 0.0);
}

TEST(AvailabilityTest, RejectsOutOfRangeFractions) {
  EXPECT_FALSE(AvailabilityModel::FromPmf({{1.5, 1.0}}).ok());
  EXPECT_FALSE(AvailabilityModel::FromSamples({0.5, -0.1}).ok());
  EXPECT_FALSE(AvailabilityModel::FromSamples({}).ok());
  const double nan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_FALSE(AvailabilityModel::FromPmf({{nan, 1.0}}).ok());
  EXPECT_FALSE(AvailabilityModel::FromPmf({{0.5, nan}}).ok());
  EXPECT_FALSE(AvailabilityModel::FromSamples({0.2, nan}).ok());
}

}  // namespace
}  // namespace stratrec::core
