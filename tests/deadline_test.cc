// Deadline propagation tests: a request's relative deadline_ms budget is
// enforced when a worker dequeues the job — expired work completes with
// kDeadlineExceeded through the ticket cancel path (never starts solving),
// counted in stats().deadline_exceeded. Also pins the ticket building
// blocks the fault-tolerant tiers ride on: WaitFor (non-consuming on
// timeout) and CancelWith (explicit error outcome). Every case is one typed
// body run against both tiers, an unsharded Service and a 2-shard
// ShardRouter.
//
// Determinism: a registry backend blocks the tier's one-worker pool behind
// a gate (a custom-registry solve runs unsharded on the router pool, so it
// blocks a router's one worker too), so "queued past the deadline" is
// provable, not timing-dependent.
#include <gtest/gtest.h>

#include <chrono>
#include <condition_variable>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "src/api/registry.h"
#include "src/api/service.h"
#include "src/router/shard_router.h"

namespace stratrec::api {
namespace {

core::Catalog SmallCatalog() {
  core::Catalog catalog;
  catalog.strategies = {
      {"s1", core::ParseStageName("SIM-COL-CRO").value()},
      {"s2", core::ParseStageName("SEQ-IND-CRO").value()},
      {"s3", core::ParseStageName("SIM-IND-CRO").value()},
      {"s4", core::ParseStageName("SIM-IND-HYB").value()},
  };
  catalog.profiles = {
      {{0.25, 0.30}, {0.3125, 0.00}, {-0.15, 0.40}},
      {{0.25, 0.55}, {0.4125, 0.00}, {-0.15, 0.40}},
      {{0.25, 0.60}, {0.6250, 0.00}, {-0.20, 0.30}},
      {{0.25, 0.68}, {0.7250, 0.00}, {-0.20, 0.30}},
  };
  return catalog;
}

BatchRequest SmallBatch() {
  BatchRequest batch;
  batch.requests = {{"d1", {0.4, 0.17, 0.28}, 3}};
  batch.availability = AvailabilitySpec::Fixed(0.8);
  return batch;
}

/// One gate per blocked pool: the backend parks the worker until Release().
struct Gate {
  std::mutex mutex;
  std::condition_variable cv;
  bool entered = false;
  bool released = false;

  void AwaitEntered() {
    std::unique_lock<std::mutex> lock(mutex);
    cv.wait(lock, [this]() { return entered; });
  }
  void Release() {
    {
      std::lock_guard<std::mutex> lock(mutex);
      released = true;
    }
    cv.notify_all();
  }
  void Reset() {
    std::lock_guard<std::mutex> lock(mutex);
    entered = false;
    released = false;
  }
};

Gate& TheGate() {
  static Gate* gate = new Gate();
  return *gate;
}

void RegisterGateBackendOnce() {
  static const bool registered = []() {
    return AlgorithmRegistry::Global()
        .RegisterBatch(
            "deadline-gate",
            [](const std::vector<core::DeploymentRequest>& requests,
               const std::vector<core::StrategyProfile>&, double,
               const core::BatchOptions&) -> Result<core::BatchResult> {
              Gate& gate = TheGate();
              std::unique_lock<std::mutex> lock(gate.mutex);
              gate.entered = true;
              gate.cv.notify_all();
              gate.cv.wait(lock, [&gate]() { return gate.released; });
              core::BatchResult result;
              result.outcomes.resize(requests.size());
              return result;
            })
        .ok();
  }();
  ASSERT_TRUE(registered);
}

BatchRequest GateBatch() {
  BatchRequest batch = SmallBatch();
  batch.algorithm = "deadline-gate";
  batch.recommend_alternatives = false;
  return batch;
}

/// The tier under test over SmallCatalog, with a one-worker pool.
template <typename Tier>
Result<Tier> OneWorkerTier();

template <>
Result<Service> OneWorkerTier<Service>() {
  ServiceConfig config;
  config.execution.worker_threads = 1;
  return Service::Create(SmallCatalog(), config);
}

template <>
Result<ShardRouter> OneWorkerTier<ShardRouter>() {
  RouterConfig config;
  config.shards = 2;
  config.service.execution.worker_threads = 1;
  return ShardRouter::Create(SmallCatalog(), config);
}

template <typename Tier>
class Deadline : public ::testing::Test {};

using Tiers = ::testing::Types<Service, ShardRouter>;
TYPED_TEST_SUITE(Deadline, Tiers);

TYPED_TEST(Deadline, ExpiredQueuedBatchCompletesWithDeadlineExceeded) {
  RegisterGateBackendOnce();
  TheGate().Reset();

  auto tier = OneWorkerTier<TypeParam>();
  ASSERT_TRUE(tier.ok()) << tier.status().ToString();

  auto blocking = tier->SubmitBatchAsync(GateBatch());
  TheGate().AwaitEntered();

  BatchRequest doomed_request = SmallBatch();
  doomed_request.deadline_ms = 5.0;
  auto doomed = tier->SubmitBatchAsync(std::move(doomed_request));

  // WaitFor on a still-queued job: times out, consumes nothing.
  EXPECT_FALSE(doomed.WaitFor(std::chrono::milliseconds(1)).has_value());
  EXPECT_FALSE(doomed.done());

  // Hold the queue well past the 5ms budget, then let the worker at it.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  TheGate().Release();
  ASSERT_TRUE(blocking.Wait().ok());

  auto outcome = doomed.Wait();
  ASSERT_FALSE(outcome.ok());
  EXPECT_EQ(outcome.status().code(), StatusCode::kDeadlineExceeded);
  EXPECT_NE(outcome.status().message().find("deadline expired"),
            std::string::npos);

  const ServiceStats stats = tier->stats();
  EXPECT_EQ(stats.deadline_exceeded, 1u);
  EXPECT_EQ(stats.batches, 1u);  // the expired job never counts as solved
}

TYPED_TEST(Deadline, ExpiredQueuedSweepCompletesWithDeadlineExceeded) {
  RegisterGateBackendOnce();
  TheGate().Reset();

  auto tier = OneWorkerTier<TypeParam>();
  ASSERT_TRUE(tier.ok()) << tier.status().ToString();

  auto blocking = tier->SubmitBatchAsync(GateBatch());
  TheGate().AwaitEntered();

  SweepRequest sweep;
  sweep.targets = {{"t1", {0.9, 0.1, 0.1}, 1}};
  sweep.availability = AvailabilitySpec::Fixed(0.8);
  sweep.deadline_ms = 5.0;
  auto doomed = tier->RunSweepAsync(std::move(sweep));

  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  TheGate().Release();
  ASSERT_TRUE(blocking.Wait().ok());

  auto outcome = doomed.Wait();
  ASSERT_FALSE(outcome.ok());
  EXPECT_EQ(outcome.status().code(), StatusCode::kDeadlineExceeded);
  const ServiceStats stats = tier->stats();
  EXPECT_EQ(stats.deadline_exceeded, 1u);
  EXPECT_EQ(stats.sweeps, 0u);
}

TYPED_TEST(Deadline, GenerousDeadlineCompletesNormally) {
  auto tier = OneWorkerTier<TypeParam>();
  ASSERT_TRUE(tier.ok()) << tier.status().ToString();

  BatchRequest batch = SmallBatch();
  batch.deadline_ms = 60'000.0;
  auto ticket = tier->SubmitBatchAsync(std::move(batch));
  auto outcome = ticket.WaitFor(std::chrono::seconds(30));
  ASSERT_TRUE(outcome.has_value());
  ASSERT_TRUE(outcome->ok()) << outcome->status().ToString();
  EXPECT_EQ(tier->stats().deadline_exceeded, 0u);
}

TYPED_TEST(Deadline, CancelWithCompletesQueuedWorkWithTheGivenStatus) {
  RegisterGateBackendOnce();
  TheGate().Reset();

  auto tier = OneWorkerTier<TypeParam>();
  ASSERT_TRUE(tier.ok()) << tier.status().ToString();

  auto blocking = tier->SubmitBatchAsync(GateBatch());
  TheGate().AwaitEntered();

  auto queued = tier->SubmitBatchAsync(SmallBatch());
  EXPECT_TRUE(
      queued.CancelWith(Status::DeadlineExceeded("manual kill")));
  EXPECT_FALSE(queued.CancelWith(Status::Internal("second wins nothing")));

  auto outcome = queued.Wait();
  ASSERT_FALSE(outcome.ok());
  EXPECT_EQ(outcome.status().code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(outcome.status().message(), "manual kill");

  // The one worker takes the injection queue in order, so once a later
  // job finishes it has dequeued the withdrawn one and counted it.
  auto later = tier->SubmitBatchAsync(SmallBatch());
  TheGate().Release();
  ASSERT_TRUE(blocking.Wait().ok());
  ASSERT_TRUE(later.Wait().ok());
  const ServiceStats stats = tier->stats();
  EXPECT_EQ(stats.cancelled, 1u);
  EXPECT_EQ(stats.deadline_exceeded, 0u);
  EXPECT_EQ(stats.batches, 2u);
}

}  // namespace
}  // namespace stratrec::api
