// Deadline propagation tests: a request's relative deadline_ms budget is
// enforced when a worker dequeues the job — expired work completes with
// kDeadlineExceeded through the ticket cancel path (never starts solving),
// counted in stats().deadline_exceeded, on both the Service and the
// ShardRouter tiers. Also pins the ticket building blocks the fault-tolerant
// tiers ride on: WaitFor (non-consuming on timeout) and CancelWith (explicit
// error outcome).
//
// Determinism: a registry backend blocks the one-worker pool behind a gate,
// so "queued past the deadline" is provable, not timing-dependent.
#include <gtest/gtest.h>

#include <chrono>
#include <condition_variable>
#include <mutex>
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

TEST(Deadline, ExpiredQueuedBatchCompletesWithDeadlineExceeded) {
  RegisterGateBackendOnce();
  TheGate().Reset();

  ServiceConfig config;
  config.execution.worker_threads = 1;
  auto service = Service::Create(SmallCatalog(), config);
  ASSERT_TRUE(service.ok());

  auto blocking = service->SubmitBatchAsync(GateBatch());
  TheGate().AwaitEntered();

  BatchRequest doomed_request = SmallBatch();
  doomed_request.deadline_ms = 5.0;
  auto doomed = service->SubmitBatchAsync(std::move(doomed_request));

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

  const ServiceStats stats = service->stats();
  EXPECT_EQ(stats.deadline_exceeded, 1u);
  EXPECT_EQ(stats.batches, 1u);  // the expired job never counts as solved
}

TEST(Deadline, ExpiredQueuedSweepCompletesWithDeadlineExceeded) {
  RegisterGateBackendOnce();
  TheGate().Reset();

  ServiceConfig config;
  config.execution.worker_threads = 1;
  auto service = Service::Create(SmallCatalog(), config);
  ASSERT_TRUE(service.ok());

  auto blocking = service->SubmitBatchAsync(GateBatch());
  TheGate().AwaitEntered();

  SweepRequest sweep;
  sweep.targets = {{"t1", {0.9, 0.1, 0.1}, 1}};
  sweep.availability = AvailabilitySpec::Fixed(0.8);
  sweep.deadline_ms = 5.0;
  auto doomed = service->RunSweepAsync(std::move(sweep));

  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  TheGate().Release();
  ASSERT_TRUE(blocking.Wait().ok());

  auto outcome = doomed.Wait();
  ASSERT_FALSE(outcome.ok());
  EXPECT_EQ(outcome.status().code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(service->stats().deadline_exceeded, 1u);
}

TEST(Deadline, GenerousDeadlineCompletesNormally) {
  auto service = Service::Create(SmallCatalog(), {});
  ASSERT_TRUE(service.ok());

  BatchRequest batch = SmallBatch();
  batch.deadline_ms = 60'000.0;
  auto ticket = service->SubmitBatchAsync(std::move(batch));
  auto outcome = ticket.WaitFor(std::chrono::seconds(30));
  ASSERT_TRUE(outcome.has_value());
  ASSERT_TRUE(outcome->ok()) << outcome->status().ToString();
  EXPECT_EQ(service->stats().deadline_exceeded, 0u);
}

TEST(Deadline, RouterEnforcesDeadlinesOnItsOwnQueue) {
  RegisterGateBackendOnce();
  TheGate().Reset();

  RouterConfig config;
  config.shards = 2;
  config.service.execution.worker_threads = 1;
  auto router = ShardRouter::Create(SmallCatalog(), config);
  ASSERT_TRUE(router.ok()) << router.status().ToString();

  // A custom-registry solve runs unsharded on the router pool, so the gate
  // provably blocks the router's one worker.
  auto blocking = router->SubmitBatchAsync(GateBatch());
  TheGate().AwaitEntered();

  BatchRequest doomed_request = SmallBatch();
  doomed_request.deadline_ms = 5.0;
  auto doomed = router->SubmitBatchAsync(std::move(doomed_request));

  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  TheGate().Release();
  ASSERT_TRUE(blocking.Wait().ok());

  auto outcome = doomed.Wait();
  ASSERT_FALSE(outcome.ok());
  EXPECT_EQ(outcome.status().code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(router->stats().deadline_exceeded, 1u);
}

TEST(Ticket, CancelWithCompletesQueuedWorkWithTheGivenStatus) {
  RegisterGateBackendOnce();
  TheGate().Reset();

  ServiceConfig config;
  config.execution.worker_threads = 1;
  auto service = Service::Create(SmallCatalog(), config);
  ASSERT_TRUE(service.ok());

  auto blocking = service->SubmitBatchAsync(GateBatch());
  TheGate().AwaitEntered();

  auto queued = service->SubmitBatchAsync(SmallBatch());
  EXPECT_TRUE(
      queued.CancelWith(Status::DeadlineExceeded("manual kill")));
  EXPECT_FALSE(queued.CancelWith(Status::Internal("second wins nothing")));

  auto outcome = queued.Wait();
  ASSERT_FALSE(outcome.ok());
  EXPECT_EQ(outcome.status().code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(outcome.status().message(), "manual kill");

  TheGate().Release();
  ASSERT_TRUE(blocking.Wait().ok());
}

}  // namespace
}  // namespace stratrec::api
