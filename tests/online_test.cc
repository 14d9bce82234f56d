// Tests for the online/stream scheduler (the paper's Section 7 open
// problem): admissions, queueing, revocations, completions, capacity
// changes, and the rolling-greedy re-admission discipline.
#include <gtest/gtest.h>

#include <limits>

#include "src/core/online.h"
#include "src/workload/generators.h"

namespace stratrec::core {
namespace {

// One strategy with quality(w) = w: a request's workforce requirement
// equals its quality threshold.
std::vector<StrategyProfile> IdentityCatalog() {
  StrategyProfile identity;
  identity.quality = {1.0, 0.0};
  identity.cost = {0.0, 0.0};
  identity.latency = {0.0, 0.0};
  return {identity};
}

DeploymentRequest Need(std::string id, double workforce, double budget = 0.5) {
  return DeploymentRequest{std::move(id), {workforce, budget, 1.0}, 1};
}

TEST(OnlineScheduler, CreateValidation) {
  EXPECT_FALSE(OnlineScheduler::Create({}, 0.5).ok());
  EXPECT_FALSE(OnlineScheduler::Create(IdentityCatalog(), 1.5).ok());
  EXPECT_TRUE(OnlineScheduler::Create(IdentityCatalog(), 0.5).ok());
}

TEST(OnlineScheduler, AdmitsWhileCapacityLasts) {
  auto scheduler = OnlineScheduler::Create(IdentityCatalog(), 1.0);
  ASSERT_TRUE(scheduler.ok());
  auto a = scheduler->OnArrival(Need("a", 0.4));
  ASSERT_TRUE(a.ok());
  EXPECT_EQ(a->kind, AdmissionDecision::Kind::kAdmitted);
  EXPECT_NEAR(a->workforce, 0.4, 1e-12);
  ASSERT_EQ(a->strategies.size(), 1u);

  auto b = scheduler->OnArrival(Need("b", 0.5));
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(b->kind, AdmissionDecision::Kind::kAdmitted);

  // 0.4 + 0.5 + 0.3 > 1.0 -> queued.
  auto c = scheduler->OnArrival(Need("c", 0.3));
  ASSERT_TRUE(c.ok());
  EXPECT_EQ(c->kind, AdmissionDecision::Kind::kQueued);
  EXPECT_EQ(scheduler->active(), 2u);
  EXPECT_EQ(scheduler->pending(), 1u);
  EXPECT_NEAR(scheduler->used_workforce(), 0.9, 1e-12);
  EXPECT_NEAR(scheduler->RemainingCapacity(), 0.1, 1e-12);
}

TEST(OnlineScheduler, RevocationFreesCapacityAndReadmits) {
  auto scheduler = OnlineScheduler::Create(IdentityCatalog(), 1.0);
  ASSERT_TRUE(scheduler.ok());
  ASSERT_TRUE(scheduler->OnArrival(Need("a", 0.6)).ok());
  ASSERT_TRUE(scheduler->OnArrival(Need("b", 0.5)).ok());  // queued
  EXPECT_EQ(scheduler->pending(), 1u);

  ASSERT_TRUE(scheduler->OnRevocation("a").ok());
  // b fits now and is re-admitted automatically.
  EXPECT_EQ(scheduler->active(), 1u);
  EXPECT_EQ(scheduler->pending(), 0u);
  EXPECT_NEAR(scheduler->used_workforce(), 0.5, 1e-12);
  EXPECT_EQ(scheduler->stats().revoked, 1u);
}

TEST(OnlineScheduler, CompletionAlsoDrainsQueue) {
  auto scheduler = OnlineScheduler::Create(IdentityCatalog(), 0.8);
  ASSERT_TRUE(scheduler.ok());
  ASSERT_TRUE(scheduler->OnArrival(Need("a", 0.7)).ok());
  ASSERT_TRUE(scheduler->OnArrival(Need("b", 0.6)).ok());  // queued
  ASSERT_TRUE(scheduler->OnCompletion("a").ok());
  EXPECT_EQ(scheduler->active(), 1u);
  EXPECT_EQ(scheduler->stats().completed, 1u);
  EXPECT_FALSE(scheduler->OnCompletion("a").ok());  // already gone
}

TEST(OnlineScheduler, QueueDrainsInDensityOrder) {
  OnlineOptions options;
  options.batch.objective = Objective::kPayoff;
  auto scheduler = OnlineScheduler::Create(IdentityCatalog(), 0.5, options);
  ASSERT_TRUE(scheduler.ok());
  ASSERT_TRUE(scheduler->OnArrival(Need("blocker", 0.5, 0.5)).ok());
  // Two queued requests with equal workforce, different payoffs.
  ASSERT_TRUE(scheduler->OnArrival(Need("cheap", 0.4, 0.3)).ok());
  ASSERT_TRUE(scheduler->OnArrival(Need("valuable", 0.4, 0.9)).ok());
  EXPECT_EQ(scheduler->pending(), 2u);

  ASSERT_TRUE(scheduler->OnRevocation("blocker").ok());
  // Only one fits; the denser (valuable) one must win.
  EXPECT_EQ(scheduler->active(), 1u);
  EXPECT_EQ(scheduler->pending(), 1u);
  EXPECT_NEAR(scheduler->stats().objective, 0.9, 1e-12);
}

TEST(OnlineScheduler, RejectsWhenQueueFull) {
  OnlineOptions options;
  options.max_pending = 1;
  auto scheduler = OnlineScheduler::Create(IdentityCatalog(), 0.1, options);
  ASSERT_TRUE(scheduler.ok());
  auto q1 = scheduler->OnArrival(Need("q1", 0.5));
  ASSERT_TRUE(q1.ok());
  EXPECT_EQ(q1->kind, AdmissionDecision::Kind::kQueued);
  auto q2 = scheduler->OnArrival(Need("q2", 0.5));
  ASSERT_TRUE(q2.ok());
  EXPECT_EQ(q2->kind, AdmissionDecision::Kind::kRejected);
  EXPECT_EQ(scheduler->stats().rejected, 1u);
}

TEST(OnlineScheduler, RejectsIneligibleRequests) {
  auto scheduler = OnlineScheduler::Create(IdentityCatalog(), 1.0);
  ASSERT_TRUE(scheduler.ok());
  // k = 2 with a single-strategy catalog: ineligible, immediate reject.
  DeploymentRequest request{"big-k", {0.2, 0.5, 1.0}, 2};
  auto decision = scheduler->OnArrival(request);
  ASSERT_TRUE(decision.ok());
  EXPECT_EQ(decision->kind, AdmissionDecision::Kind::kRejected);
}

TEST(OnlineScheduler, DuplicateActiveIdsRejected) {
  auto scheduler = OnlineScheduler::Create(IdentityCatalog(), 1.0);
  ASSERT_TRUE(scheduler.ok());
  ASSERT_TRUE(scheduler->OnArrival(Need("dup", 0.1)).ok());
  EXPECT_FALSE(scheduler->OnArrival(Need("dup", 0.1)).ok());
}

TEST(OnlineScheduler, UnknownRevocationFails) {
  auto scheduler = OnlineScheduler::Create(IdentityCatalog(), 1.0);
  ASSERT_TRUE(scheduler.ok());
  auto status = scheduler->OnRevocation("ghost");
  EXPECT_EQ(status.code(), StatusCode::kNotFound);
}

TEST(OnlineScheduler, QueuedRequestCanBeRevoked) {
  auto scheduler = OnlineScheduler::Create(IdentityCatalog(), 0.1);
  ASSERT_TRUE(scheduler.ok());
  ASSERT_TRUE(scheduler->OnArrival(Need("waiting", 0.5)).ok());
  EXPECT_EQ(scheduler->pending(), 1u);
  ASSERT_TRUE(scheduler->OnRevocation("waiting").ok());
  EXPECT_EQ(scheduler->pending(), 0u);
}

TEST(OnlineScheduler, AvailabilityIncreaseAdmitsPending) {
  auto scheduler = OnlineScheduler::Create(IdentityCatalog(), 0.2);
  ASSERT_TRUE(scheduler.ok());
  ASSERT_TRUE(scheduler->OnArrival(Need("w", 0.5)).ok());
  EXPECT_EQ(scheduler->pending(), 1u);
  ASSERT_TRUE(scheduler->SetAvailability(0.9).ok());
  EXPECT_EQ(scheduler->active(), 1u);
  EXPECT_EQ(scheduler->pending(), 0u);
  EXPECT_FALSE(scheduler->SetAvailability(2.0).ok());
  EXPECT_FALSE(
      scheduler->SetAvailability(std::numeric_limits<double>::quiet_NaN())
          .ok());
  EXPECT_DOUBLE_EQ(scheduler->availability(), 0.9);
}

TEST(OnlineScheduler, AvailabilityDecreaseHonorsCommitments) {
  auto scheduler = OnlineScheduler::Create(IdentityCatalog(), 1.0);
  ASSERT_TRUE(scheduler.ok());
  ASSERT_TRUE(scheduler->OnArrival(Need("a", 0.8)).ok());
  ASSERT_TRUE(scheduler->SetAvailability(0.5).ok());
  EXPECT_EQ(scheduler->active(), 1u);  // still served
  EXPECT_DOUBLE_EQ(scheduler->RemainingCapacity(), 0.0);
  // New arrivals queue rather than admit.
  auto decision = scheduler->OnArrival(Need("b", 0.1));
  ASSERT_TRUE(decision.ok());
  EXPECT_EQ(decision->kind, AdmissionDecision::Kind::kQueued);
}

TEST(OnlineScheduler, StatsAreConsistentOverRandomStream) {
  workload::Generator generator({}, 4242);
  const auto profiles = generator.Profiles(20);
  auto scheduler = OnlineScheduler::Create(profiles, 0.8);
  ASSERT_TRUE(scheduler.ok());
  stratrec::Rng rng(31);
  std::vector<std::string> live;
  for (int step = 0; step < 400; ++step) {
    if (!live.empty() && rng.Bernoulli(0.35)) {
      const size_t pick =
          static_cast<size_t>(rng.UniformInt(0, live.size() - 1));
      if (rng.Bernoulli(0.5)) {
        (void)scheduler->OnRevocation(live[pick]);
      } else {
        (void)scheduler->OnCompletion(live[pick]);
      }
      live.erase(live.begin() + static_cast<long>(pick));
    } else {
      auto requests = generator.RequestsWithRanges(1, 2, {0.5, 0.75},
                                                   {0.7, 1.0}, {0.7, 1.0});
      std::string id = "r";
      id += std::to_string(step);
      requests[0].id = std::move(id);
      auto decision = scheduler->OnArrival(requests[0]);
      ASSERT_TRUE(decision.ok());
      if (decision->kind == AdmissionDecision::Kind::kAdmitted) {
        live.push_back(requests[0].id);
      }
    }
    // Invariants: never over capacity; utilization within [0, 1].
    EXPECT_LE(scheduler->used_workforce(),
              scheduler->availability() + 1e-9);
    EXPECT_LE(scheduler->stats().peak_utilization, 1.0 + 1e-9);
  }
  const auto& stats = scheduler->stats();
  // Every arrival lands in exactly one of {admitted, queued, rejected};
  // queue re-admissions increment `admitted` a second time, so the sum can
  // only exceed arrivals, never undershoot.
  EXPECT_GE(stats.admitted + stats.queued + stats.rejected, stats.arrivals);
  EXPECT_LE(stats.queued + stats.rejected, stats.arrivals);
  EXPECT_GE(stats.admitted, scheduler->active());
}

}  // namespace
}  // namespace stratrec::core
