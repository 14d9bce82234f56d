// Unit tests for src/stats: descriptive statistics, Student-t, linear
// regression with confidence intervals, hypothesis tests, empirical PMFs.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "src/common/rng.h"
#include "src/stats/descriptive.h"
#include "src/stats/empirical.h"
#include "src/stats/hypothesis.h"
#include "src/stats/linear_regression.h"
#include "src/stats/student_t.h"

namespace stratrec::stats {
namespace {

TEST(Descriptive, MeanAndVariance) {
  const std::vector<double> xs = {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0};
  EXPECT_DOUBLE_EQ(Mean(xs).value(), 5.0);
  EXPECT_NEAR(Variance(xs).value(), 32.0 / 7.0, 1e-12);
  EXPECT_NEAR(StdDev(xs).value(), std::sqrt(32.0 / 7.0), 1e-12);
  EXPECT_NEAR(StdError(xs).value(), std::sqrt(32.0 / 7.0 / 8.0), 1e-12);
}

TEST(Descriptive, EmptyAndSmallSamplesError) {
  EXPECT_FALSE(Mean({}).ok());
  EXPECT_FALSE(Variance({1.0}).ok());
  EXPECT_FALSE(Median({}).ok());
  EXPECT_FALSE(Min({}).ok());
  EXPECT_FALSE(Max({}).ok());
}

TEST(Descriptive, MedianOddEven) {
  EXPECT_DOUBLE_EQ(Median({3.0, 1.0, 2.0}).value(), 2.0);
  EXPECT_DOUBLE_EQ(Median({4.0, 1.0, 2.0, 3.0}).value(), 2.5);
}

TEST(Descriptive, QuantileInterpolates) {
  const std::vector<double> xs = {0.0, 1.0, 2.0, 3.0, 4.0};
  EXPECT_DOUBLE_EQ(Quantile(xs, 0.0).value(), 0.0);
  EXPECT_DOUBLE_EQ(Quantile(xs, 1.0).value(), 4.0);
  EXPECT_DOUBLE_EQ(Quantile(xs, 0.5).value(), 2.0);
  EXPECT_DOUBLE_EQ(Quantile(xs, 0.25).value(), 1.0);
  EXPECT_FALSE(Quantile(xs, 1.5).ok());
  EXPECT_FALSE(Quantile(xs, std::numeric_limits<double>::quiet_NaN()).ok());
}

TEST(Descriptive, MinMax) {
  EXPECT_DOUBLE_EQ(Min({3.0, -1.0, 2.0}).value(), -1.0);
  EXPECT_DOUBLE_EQ(Max({3.0, -1.0, 2.0}).value(), 3.0);
}

TEST(Descriptive, PearsonCorrelation) {
  const std::vector<double> xs = {1, 2, 3, 4, 5};
  const std::vector<double> ys = {2, 4, 6, 8, 10};
  EXPECT_NEAR(PearsonCorrelation(xs, ys).value(), 1.0, 1e-12);
  const std::vector<double> zs = {10, 8, 6, 4, 2};
  EXPECT_NEAR(PearsonCorrelation(xs, zs).value(), -1.0, 1e-12);
  EXPECT_FALSE(PearsonCorrelation(xs, {1, 1, 1, 1, 1}).ok());
  EXPECT_FALSE(PearsonCorrelation(xs, {1, 2}).ok());
}

TEST(Descriptive, RunningStatsMatchesBatch) {
  const std::vector<double> xs = {0.3, 1.7, -2.2, 4.4, 0.0, 3.1};
  RunningStats rs;
  for (double x : xs) rs.Add(x);
  EXPECT_EQ(rs.count(), 6);
  EXPECT_NEAR(rs.mean(), Mean(xs).value(), 1e-12);
  EXPECT_NEAR(rs.variance(), Variance(xs).value(), 1e-12);
  EXPECT_NEAR(rs.std_error(), StdError(xs).value(), 1e-12);
}

TEST(StudentT, CdfSymmetryAndKnownValues) {
  EXPECT_NEAR(StudentTCdf(0.0, 5.0), 0.5, 1e-12);
  // t_{0.975, 10} = 2.228138852; CDF(2.228..., 10) = 0.975.
  EXPECT_NEAR(StudentTCdf(2.228138852, 10.0), 0.975, 1e-6);
  // Symmetric tails.
  EXPECT_NEAR(StudentTCdf(-1.3, 7.0) + StudentTCdf(1.3, 7.0), 1.0, 1e-10);
}

TEST(StudentT, QuantileInvertsCdf) {
  for (double df : {1.0, 3.0, 10.0, 30.0, 120.0}) {
    for (double p : {0.05, 0.25, 0.5, 0.9, 0.975}) {
      const double t = StudentTQuantile(p, df);
      EXPECT_NEAR(StudentTCdf(t, df), p, 1e-6) << "df=" << df << " p=" << p;
    }
  }
}

TEST(StudentT, CriticalValuesMatchTables) {
  // Classic two-sided critical values.
  EXPECT_NEAR(StudentTCriticalTwoSided(0.95, 10.0), 2.228, 1e-3);
  EXPECT_NEAR(StudentTCriticalTwoSided(0.90, 4.0), 2.132, 1e-3);
  EXPECT_NEAR(StudentTCriticalTwoSided(0.99, 30.0), 2.750, 1e-3);
}

TEST(StudentT, ApproachesNormalForLargeDf) {
  EXPECT_NEAR(StudentTCriticalTwoSided(0.95, 100000.0), 1.95996, 1e-3);
}

TEST(RegularizedIncompleteBetaTest, Endpoints) {
  EXPECT_DOUBLE_EQ(RegularizedIncompleteBeta(2.0, 3.0, 0.0), 0.0);
  EXPECT_DOUBLE_EQ(RegularizedIncompleteBeta(2.0, 3.0, 1.0), 1.0);
  // I_x(1,1) = x.
  EXPECT_NEAR(RegularizedIncompleteBeta(1.0, 1.0, 0.37), 0.37, 1e-12);
}

TEST(Regression, ExactLineRecovered) {
  std::vector<double> xs, ys;
  for (int i = 0; i < 10; ++i) {
    xs.push_back(0.1 * i);
    ys.push_back(0.09 * (0.1 * i) + 0.85);  // Table 6 translation quality
  }
  auto fit = FitLinear(xs, ys);
  ASSERT_TRUE(fit.ok());
  EXPECT_NEAR(fit->alpha, 0.09, 1e-12);
  EXPECT_NEAR(fit->beta, 0.85, 1e-12);
  EXPECT_NEAR(fit->r_squared, 1.0, 1e-12);
  EXPECT_NEAR(fit->residual_std, 0.0, 1e-9);
}

TEST(Regression, NoisyRecoveryWithinCi) {
  Rng rng(1234);
  const double true_alpha = -0.98, true_beta = 1.40;  // Table 6 latency
  std::vector<double> xs, ys;
  for (int i = 0; i < 60; ++i) {
    const double x = rng.Uniform(0.5, 1.0);
    xs.push_back(x);
    ys.push_back(true_alpha * x + true_beta + rng.Normal(0.0, 0.03));
  }
  auto fit = FitLinear(xs, ys);
  ASSERT_TRUE(fit.ok());
  EXPECT_NEAR(fit->alpha, true_alpha, 0.1);
  EXPECT_NEAR(fit->beta, true_beta, 0.08);
  // The paper validates its fits at 90% confidence (Table 6).
  EXPECT_TRUE(fit->AlphaCiContains(true_alpha, 0.90));
  EXPECT_TRUE(fit->BetaCiContains(true_beta, 0.90));
  EXPECT_GT(fit->r_squared, 0.9);
}

TEST(Regression, CiCoverageApproximatelyNominal) {
  // Over many repetitions, the 90% CI should contain the true slope roughly
  // 90% of the time.
  Rng rng(99);
  int contained = 0;
  const int runs = 300;
  for (int r = 0; r < runs; ++r) {
    std::vector<double> xs, ys;
    for (int i = 0; i < 12; ++i) {
      const double x = rng.Uniform(0.0, 1.0);
      xs.push_back(x);
      ys.push_back(2.0 * x + 1.0 + rng.Normal(0.0, 0.5));
    }
    auto fit = FitLinear(xs, ys);
    ASSERT_TRUE(fit.ok());
    contained += fit->AlphaCiContains(2.0, 0.90) ? 1 : 0;
  }
  const double coverage = static_cast<double>(contained) / runs;
  EXPECT_GT(coverage, 0.84);
  EXPECT_LT(coverage, 0.96);
}

TEST(Regression, ErrorsOnDegenerateInput) {
  EXPECT_FALSE(FitLinear({1.0}, {2.0}).ok());
  EXPECT_FALSE(FitLinear({1.0, 1.0}, {2.0, 3.0}).ok());
  EXPECT_FALSE(FitLinear({1.0, 2.0}, {2.0}).ok());
}

TEST(Regression, TwoPointsFitExactlyWithoutInference) {
  auto fit = FitLinear({0.0, 1.0}, {1.0, 3.0});
  ASSERT_TRUE(fit.ok());
  EXPECT_DOUBLE_EQ(fit->alpha, 2.0);
  EXPECT_DOUBLE_EQ(fit->beta, 1.0);
  EXPECT_FALSE(fit->AlphaHalfWidth(0.9).ok());  // needs n >= 3
}

TEST(Hypothesis, WelchDetectsDifference) {
  Rng rng(7);
  std::vector<double> a, b;
  for (int i = 0; i < 40; ++i) {
    a.push_back(rng.Normal(0.80, 0.05));  // StratRec-guided quality
    b.push_back(rng.Normal(0.70, 0.07));  // unguided quality
  }
  auto test = WelchTTest(a, b);
  ASSERT_TRUE(test.ok());
  EXPECT_TRUE(test->Significant(0.05));
  EXPECT_GT(test->mean_difference, 0.05);
}

TEST(Hypothesis, WelchNoFalsePositiveOnEqualMeans) {
  Rng rng(8);
  std::vector<double> a, b;
  for (int i = 0; i < 50; ++i) {
    a.push_back(rng.Normal(0.5, 0.1));
    b.push_back(rng.Normal(0.5, 0.1));
  }
  auto test = WelchTTest(a, b);
  ASSERT_TRUE(test.ok());
  EXPECT_GT(test->p_value_two_sided, 0.01);
}

TEST(Hypothesis, PairedDetectsConsistentShift) {
  Rng rng(9);
  std::vector<double> a, b;
  for (int i = 0; i < 25; ++i) {
    const double base = rng.Uniform(0.4, 0.9);
    a.push_back(base + 0.05 + rng.Normal(0.0, 0.02));
    b.push_back(base);
  }
  auto test = PairedTTest(a, b);
  ASSERT_TRUE(test.ok());
  EXPECT_TRUE(test->Significant(0.01));
  EXPECT_NEAR(test->mean_difference, 0.05, 0.02);
}

TEST(Hypothesis, ErrorsOnDegenerateInput) {
  EXPECT_FALSE(WelchTTest({1.0}, {1.0, 2.0}).ok());
  EXPECT_FALSE(PairedTTest({1.0, 2.0}, {1.0}).ok());
  EXPECT_FALSE(PairedTTest({1.0, 2.0}, {2.0, 3.0}).ok());  // zero-variance diff
}

TEST(Empirical, PaperIntroExpectation) {
  // 70% chance of 7% of workers, 30% chance of 2% -> 5.5% expected.
  auto pmf = EmpiricalPmf::Create({{0.07, 0.7}, {0.02, 0.3}});
  ASSERT_TRUE(pmf.ok());
  EXPECT_NEAR(pmf->Expectation(), 0.055, 1e-12);
}

TEST(Empirical, Section22Expectation) {
  // 50% of 700/1000 + 50% of 900/1000 -> W = 0.8.
  auto pmf = EmpiricalPmf::Create({{0.7, 0.5}, {0.9, 0.5}});
  ASSERT_TRUE(pmf.ok());
  EXPECT_NEAR(pmf->Expectation(), 0.8, 1e-12);
  EXPECT_NEAR(pmf->Variance(), 0.01, 1e-12);
}

TEST(Empirical, CreateValidation) {
  EXPECT_FALSE(EmpiricalPmf::Create({}).ok());
  EXPECT_FALSE(EmpiricalPmf::Create({{0.5, 0.4}}).ok());         // sums to 0.4
  EXPECT_FALSE(EmpiricalPmf::Create({{0.5, -0.1}, {0.6, 1.1}}).ok());
  // A NaN probability passes neither the sign check nor the sum check.
  EXPECT_FALSE(
      EmpiricalPmf::Create({{0.5, std::numeric_limits<double>::quiet_NaN()}})
          .ok());
}

TEST(Empirical, FromSamplesCountsDuplicates) {
  auto pmf = EmpiricalPmf::FromSamples({0.2, 0.2, 0.8, 0.8, 0.8});
  ASSERT_TRUE(pmf.ok());
  EXPECT_EQ(pmf->atoms().size(), 2u);
  EXPECT_NEAR(pmf->Expectation(), (0.2 * 2 + 0.8 * 3) / 5.0, 1e-12);
  EXPECT_NEAR(pmf->CdfAt(0.2), 0.4, 1e-12);
  EXPECT_NEAR(pmf->CdfAt(1.0), 1.0, 1e-12);
}

TEST(Empirical, HistogramToPmf) {
  auto hist = Histogram::Create(0.0, 1.0, 4);
  ASSERT_TRUE(hist.ok());
  for (double v : {0.1, 0.1, 0.4, 0.6, 0.9, 1.2, -0.5}) hist->Add(v);
  EXPECT_EQ(hist->total_count(), 7);
  auto pmf = hist->ToPmf();
  ASSERT_TRUE(pmf.ok());
  double total = 0.0;
  for (const auto& atom : pmf->atoms()) total += atom.probability;
  EXPECT_NEAR(total, 1.0, 1e-12);
}

TEST(Empirical, HistogramValidation) {
  EXPECT_FALSE(Histogram::Create(1.0, 0.0, 4).ok());
  EXPECT_FALSE(Histogram::Create(0.0, 1.0, 0).ok());
  auto empty = Histogram::Create(0.0, 1.0, 4);
  ASSERT_TRUE(empty.ok());
  EXPECT_FALSE(empty->ToPmf().ok());
}

}  // namespace
}  // namespace stratrec::stats
