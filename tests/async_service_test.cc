// Asynchronous Service API tests: ticket lifecycle (Wait / TryGet / Cancel /
// OnComplete), exactly-once callbacks, cancellation of queued jobs, a
// many-threads stress run across services and sessions, and determinism —
// the async path must bit-match the synchronous one.
#include <gtest/gtest.h>

#include <atomic>
#include <condition_variable>
#include <mutex>
#include <set>
#include <thread>
#include <vector>

#include "src/api/catalog.h"
#include "src/api/registry.h"
#include "src/api/service.h"
#include "src/workload/generators.h"

namespace stratrec::api {
namespace {

core::Catalog Table1Catalog() {
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

std::vector<core::DeploymentRequest> Table1Requests() {
  return {
      {"d1", {0.4, 0.17, 0.28}, 3},
      {"d2", {0.8, 0.20, 0.28}, 3},
      {"d3", {0.7, 0.83, 0.28}, 3},
  };
}

BatchRequest Table1Batch() {
  BatchRequest batch;
  batch.requests = Table1Requests();
  batch.availability = AvailabilitySpec::Fixed(0.8);
  return batch;
}

TEST(AsyncTicket, LifecycleAndSingleConsumption) {
  ServiceConfig config;
  config.execution.worker_threads = 2;
  config.batch.aggregation = core::AggregationMode::kMax;
  auto service = Service::Create(Table1Catalog(), config);
  ASSERT_TRUE(service.ok());
  EXPECT_EQ(service->worker_threads(), 2u);

  auto ticket = service->SubmitBatchAsync(Table1Batch());
  EXPECT_EQ(ticket.id().rfind("batch-", 0), 0u);

  auto report = ticket.Wait();
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->request_id, ticket.id());
  EXPECT_TRUE(ticket.done());

  // Retrieval is single-consumer.
  auto again = ticket.Wait();
  ASSERT_FALSE(again.ok());
  EXPECT_EQ(again.status().code(), StatusCode::kFailedPrecondition);
  auto probe = ticket.TryGet();
  ASSERT_TRUE(probe.has_value());
  EXPECT_EQ(probe->status().code(), StatusCode::kFailedPrecondition);
}

TEST(AsyncTicket, TryGetEventuallyDelivers) {
  ServiceConfig config;
  config.execution.worker_threads = 1;
  auto service = Service::Create(Table1Catalog(), config);
  ASSERT_TRUE(service.ok());

  SweepRequest sweep;
  sweep.targets = Table1Requests();
  sweep.solvers = {"exact", "brute"};
  sweep.availability = AvailabilitySpec::Fixed(0.8);
  auto ticket = service->RunSweepAsync(sweep);
  std::optional<Result<SweepReport>> outcome;
  while (!(outcome = ticket.TryGet()).has_value()) {
    std::this_thread::yield();
  }
  ASSERT_TRUE(outcome->ok()) << outcome->status().ToString();
  EXPECT_EQ((*outcome)->request_id, ticket.id());
  EXPECT_EQ((*outcome)->outcomes.size(), Table1Requests().size() * 2);
}

TEST(AsyncTicket, ErrorsTravelThroughTheTicket) {
  auto service = Service::Create(Table1Catalog());
  ASSERT_TRUE(service.ok());
  BatchRequest bad = Table1Batch();
  bad.algorithm = "no-such-backend";
  auto outcome = service->SubmitBatchAsync(std::move(bad)).Wait();
  ASSERT_FALSE(outcome.ok());
  EXPECT_EQ(outcome.status().code(), StatusCode::kNotFound);
}

TEST(AsyncTicket, CallbackFiresExactlyOnce) {
  ServiceConfig config;
  config.execution.worker_threads = 2;
  auto service = Service::Create(Table1Catalog(), config);
  ASSERT_TRUE(service.ok());

  constexpr int kTickets = 64;
  std::vector<std::atomic<int>> fired(kTickets);
  std::vector<Ticket<BatchReport>> tickets;
  tickets.reserve(kTickets);
  for (int i = 0; i < kTickets; ++i) {
    tickets.push_back(service->SubmitBatchAsync(Table1Batch()));
    ASSERT_TRUE(tickets.back()
                    .OnComplete([&fired, i](const Result<BatchReport>& r) {
                      EXPECT_TRUE(r.ok());
                      fired[i].fetch_add(1);
                    })
                    .ok());
  }
  for (auto& ticket : tickets) ASSERT_TRUE(ticket.Wait().ok());
  for (int i = 0; i < kTickets; ++i) {
    EXPECT_EQ(fired[i].load(), 1) << "ticket " << i;
  }

  // Registering on an already-finished (but unconsumed) ticket fires inline;
  // a second registration is refused.
  auto late = service->SubmitBatchAsync(Table1Batch());
  while (!late.done()) std::this_thread::yield();
  int late_fired = 0;
  ASSERT_TRUE(
      late.OnComplete([&late_fired](const Result<BatchReport>&) {
        ++late_fired;
      }).ok());
  EXPECT_EQ(late_fired, 1);
  EXPECT_EQ(late.OnComplete([](const Result<BatchReport>&) {}).code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(late.OnComplete(nullptr).code(), StatusCode::kInvalidArgument);
}

// A batch backend that blocks until the test releases it, so a later ticket
// is provably still queued when Cancel() runs. Registered once per process.
struct BlockingGate {
  std::mutex mutex;
  std::condition_variable cv;
  bool entered = false;
  bool released = false;
};
BlockingGate& Gate() {
  static BlockingGate* gate = new BlockingGate();
  return *gate;
}

TEST(AsyncTicket, CancelWithdrawsQueuedJobs) {
  ASSERT_TRUE(AlgorithmRegistry::Global()
                  .RegisterBatch(
                      "test-blocking",
                      [](const std::vector<core::DeploymentRequest>& requests,
                         const std::vector<core::StrategyProfile>&, double,
                         const core::BatchOptions&)
                          -> Result<core::BatchResult> {
                        BlockingGate& gate = Gate();
                        std::unique_lock<std::mutex> lock(gate.mutex);
                        gate.entered = true;
                        gate.cv.notify_all();
                        gate.cv.wait(lock, [&gate]() { return gate.released; });
                        core::BatchResult result;
                        result.outcomes.resize(requests.size());
                        return result;
                      })
                  .ok());

  ServiceConfig config;
  config.execution.worker_threads = 1;  // FIFO: one worker, provable queue
  auto service = Service::Create(Table1Catalog(), config);
  ASSERT_TRUE(service.ok());

  BatchRequest blocking = Table1Batch();
  blocking.algorithm = "test-blocking";
  blocking.recommend_alternatives = false;
  auto running = service->SubmitBatchAsync(std::move(blocking));
  {
    // The worker is inside the blocking solver; anything submitted now
    // stays queued until it returns.
    BlockingGate& gate = Gate();
    std::unique_lock<std::mutex> lock(gate.mutex);
    gate.cv.wait(lock, [&gate]() { return gate.entered; });
  }

  auto queued = service->SubmitBatchAsync(Table1Batch());
  std::atomic<int> cancelled_callback{0};
  ASSERT_TRUE(queued
                  .OnComplete([&cancelled_callback](
                                  const Result<BatchReport>& r) {
                    EXPECT_EQ(r.status().code(), StatusCode::kCancelled);
                    cancelled_callback.fetch_add(1);
                  })
                  .ok());
  EXPECT_TRUE(queued.Cancel());
  EXPECT_FALSE(queued.Cancel());  // already done
  auto outcome = queued.Wait();
  ASSERT_FALSE(outcome.ok());
  EXPECT_EQ(outcome.status().code(), StatusCode::kCancelled);
  EXPECT_EQ(cancelled_callback.load(), 1);

  {
    std::lock_guard<std::mutex> lock(Gate().mutex);
    Gate().released = true;
  }
  Gate().cv.notify_all();
  ASSERT_TRUE(running.Wait().ok());
  EXPECT_FALSE(running.Cancel());  // finished jobs cannot be cancelled

  // The cancelled job's slot was observed by the worker after the blocking
  // one finished; one more round trip makes the ordering deterministic.
  ASSERT_TRUE(service->SubmitBatch(Table1Batch()).ok());
  const ServiceStats stats = service->stats();
  EXPECT_EQ(stats.cancelled, 1u);
  EXPECT_EQ(stats.batches, 2u);  // the cancelled job never counts
}

TEST(AsyncService, StressTicketsAcrossServicesAndSessions) {
  workload::Generator generator({}, 0xA51C'0001ull);
  ServiceConfig config;
  config.batch.aggregation = core::AggregationMode::kMax;
  config.availability = AvailabilitySpec::Fixed(0.7);
  config.execution.worker_threads = 4;
  auto first =
      Service::Create(CatalogFromProfiles(generator.Profiles(60)), config);
  auto second =
      Service::Create(CatalogFromProfiles(generator.Profiles(40)), config);
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(second.ok());
  Service services[] = {*first, *second};

  constexpr int kThreads = 8;
  constexpr int kTicketsPerThread = 24;
  std::atomic<int> failures{0};
  std::atomic<int> callbacks{0};
  std::mutex ids_mutex;
  std::set<std::string> ids;

  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t]() {
      workload::Generator local({}, 0xBEEFull + static_cast<uint64_t>(t));
      Service& service = services[t % 2];
      // Every thread also drives a stream session concurrently with its
      // async submissions, so tickets and sessions interleave on the
      // sharded state.
      auto session = service.OpenStream();
      if (!session.ok()) {
        failures.fetch_add(1);
        return;
      }
      std::vector<Ticket<BatchReport>> batch_tickets;
      std::vector<Ticket<SweepReport>> sweep_tickets;
      for (int i = 0; i < kTicketsPerThread; ++i) {
        auto requests = local.RequestsWithRanges(4, 2, {0.5, 0.75},
                                                 {0.7, 1.0}, {0.7, 1.0});
        if (i % 4 == 3) {
          SweepRequest sweep;
          sweep.targets = requests;
          sweep.solvers = {"exact"};
          sweep_tickets.push_back(service.RunSweepAsync(std::move(sweep)));
          if (!sweep_tickets.back()
                   .OnComplete([&callbacks](const Result<SweepReport>&) {
                     callbacks.fetch_add(1);
                   })
                   .ok()) {
            failures.fetch_add(1);
          }
        } else {
          BatchRequest batch;
          batch.requests = requests;
          batch_tickets.push_back(service.SubmitBatchAsync(std::move(batch)));
          if (!batch_tickets.back()
                   .OnComplete([&callbacks](const Result<BatchReport>&) {
                     callbacks.fetch_add(1);
                   })
                   .ok()) {
            failures.fetch_add(1);
          }
        }
        auto arrival = session->Arrive(requests[0]);
        if (arrival.ok() &&
            arrival->kind == core::AdmissionDecision::Kind::kAdmitted) {
          (void)session->Complete(requests[0].id);
        }
      }
      // Ids are unique per service (each mints its own counter), so key
      // the uniqueness check by the service the ticket ran on.
      const std::string service_key = "svc" + std::to_string(t % 2) + "/";
      for (auto& ticket : batch_tickets) {
        auto report = ticket.Wait();
        if (!report.ok() || report->request_id != ticket.id()) {
          failures.fetch_add(1);
          continue;
        }
        std::lock_guard<std::mutex> lock(ids_mutex);
        ids.insert(service_key + report->request_id);
      }
      for (auto& ticket : sweep_tickets) {
        auto report = ticket.Wait();
        if (!report.ok() || report->request_id != ticket.id()) {
          failures.fetch_add(1);
          continue;
        }
        std::lock_guard<std::mutex> lock(ids_mutex);
        ids.insert(service_key + report->request_id);
      }
    });
  }
  for (std::thread& thread : threads) thread.join();

  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(callbacks.load(), kThreads * kTicketsPerThread);
  // Report ids are unique across both services and all modes.
  EXPECT_EQ(ids.size(), static_cast<size_t>(kThreads * kTicketsPerThread));

  const ServiceStats stats_first = services[0].stats();
  const ServiceStats stats_second = services[1].stats();
  const size_t per_service = kThreads / 2 * kTicketsPerThread;
  EXPECT_EQ(stats_first.batches + stats_first.sweeps, per_service);
  EXPECT_EQ(stats_second.batches + stats_second.sweeps, per_service);
  EXPECT_EQ(stats_first.streams_opened, static_cast<size_t>(kThreads / 2));
}

// ---------------------------------------------------------------------------
// Determinism: the async path must produce bit-identical reports.
// ---------------------------------------------------------------------------

void ExpectSameBatchReport(const BatchReport& sync_report,
                           const BatchReport& async_report) {
  EXPECT_EQ(sync_report.algorithm, async_report.algorithm);
  EXPECT_EQ(sync_report.availability, async_report.availability);  // bitwise
  const core::AggregatorReport& a = sync_report.result.aggregator;
  const core::AggregatorReport& b = async_report.result.aggregator;
  EXPECT_EQ(a.availability, b.availability);
  EXPECT_EQ(a.batch.total_objective, b.batch.total_objective);
  EXPECT_EQ(a.batch.workforce_used, b.batch.workforce_used);
  EXPECT_EQ(a.batch.satisfied, b.batch.satisfied);
  EXPECT_EQ(a.batch.unsatisfied, b.batch.unsatisfied);
  ASSERT_EQ(a.batch.outcomes.size(), b.batch.outcomes.size());
  for (size_t i = 0; i < a.batch.outcomes.size(); ++i) {
    EXPECT_EQ(a.batch.outcomes[i].satisfied, b.batch.outcomes[i].satisfied);
    EXPECT_EQ(a.batch.outcomes[i].workforce, b.batch.outcomes[i].workforce);
    EXPECT_EQ(a.batch.outcomes[i].strategies, b.batch.outcomes[i].strategies);
  }
  ASSERT_EQ(sync_report.result.alternatives.size(),
            async_report.result.alternatives.size());
  for (size_t i = 0; i < sync_report.result.alternatives.size(); ++i) {
    const auto& alt_a = sync_report.result.alternatives[i];
    const auto& alt_b = async_report.result.alternatives[i];
    EXPECT_EQ(alt_a.request_index, alt_b.request_index);
    EXPECT_EQ(alt_a.result.distance, alt_b.result.distance);
    EXPECT_EQ(alt_a.result.alternative.quality, alt_b.result.alternative.quality);
    EXPECT_EQ(alt_a.result.alternative.cost, alt_b.result.alternative.cost);
    EXPECT_EQ(alt_a.result.alternative.latency, alt_b.result.alternative.latency);
    EXPECT_TRUE(alt_a.result.strategy_params == alt_b.result.strategy_params);
  }
  EXPECT_EQ(sync_report.result.adpar_failures,
            async_report.result.adpar_failures);
}

TEST(AsyncDeterminism, BatchBitMatchesSynchronousPathAtEveryPoolSize) {
  workload::Generator generator({}, 0xDE7E'0001ull);
  auto profiles = generator.Profiles(120);

  // A serial reference service (one worker, chunks never split: grain
  // larger than the whole matrix) against the work-stealing pool at every
  // size — on 1 thread the caller runs every chunk itself, on >1 the
  // chunks ride the worker deques and get stolen, and neither may change
  // a single bit of the report.
  ServiceConfig serial;
  serial.batch.aggregation = core::AggregationMode::kMax;
  serial.execution.worker_threads = 1;
  serial.execution.parallel_grain = 1u << 30;

  auto reference = Service::Create(CatalogFromProfiles(profiles), serial);
  ASSERT_TRUE(reference.ok());

  BatchRequest batch;
  batch.requests = generator.RequestsWithRanges(40, 3, {0.55, 0.95},
                                                {0.3, 1.0}, {0.3, 1.0});
  // Low availability on purpose: a good share of the batch must spill into
  // the ADPaR fan-out so the parallel alternatives path is exercised.
  batch.availability = AvailabilitySpec::Fixed(0.25);

  auto sync_report = reference->SubmitBatch(batch);
  ASSERT_TRUE(sync_report.ok()) << sync_report.status().ToString();
  // Some requests must have flowed to ADPaR for the parallel fan-out to be
  // exercised at all.
  ASSERT_FALSE(sync_report->result.alternatives.empty());

  for (const size_t pool_size : {1u, 2u, 4u, 8u}) {
    SCOPED_TRACE("pool size " + std::to_string(pool_size));
    ServiceConfig parallel = serial;
    parallel.execution.worker_threads = pool_size;
    parallel.execution.parallel_grain = 8;  // force many chunks
    auto sharded = Service::Create(CatalogFromProfiles(profiles), parallel);
    ASSERT_TRUE(sharded.ok());
    auto async_report = sharded->SubmitBatchAsync(batch).Wait();
    ASSERT_TRUE(async_report.ok()) << async_report.status().ToString();
    ExpectSameBatchReport(*sync_report, *async_report);
  }
}

TEST(AsyncDeterminism, SweepBitMatchesSynchronousPathAtEveryPoolSize) {
  workload::Generator generator({}, 0xDE7E'0002ull);
  auto profiles = generator.Profiles(50);

  ServiceConfig serial;
  serial.execution.worker_threads = 1;

  auto reference = Service::Create(CatalogFromProfiles(profiles), serial);
  ASSERT_TRUE(reference.ok());

  SweepRequest sweep;
  sweep.targets = generator.RequestsWithRanges(12, 5, {0.8, 0.99},
                                               {0.05, 0.3}, {0.05, 0.3});
  sweep.solvers = {"exact", "baseline2", "baseline3"};
  sweep.availability = AvailabilitySpec::Fixed(0.5);

  auto sync_report = reference->RunSweep(sweep);
  ASSERT_TRUE(sync_report.ok());

  for (const size_t pool_size : {1u, 2u, 4u, 8u}) {
    SCOPED_TRACE("pool size " + std::to_string(pool_size));
    ServiceConfig parallel;
    parallel.execution.worker_threads = pool_size;
    auto sharded = Service::Create(CatalogFromProfiles(profiles), parallel);
    ASSERT_TRUE(sharded.ok());
    auto async_report = sharded->RunSweepAsync(sweep).Wait();
    ASSERT_TRUE(async_report.ok());

    ASSERT_EQ(sync_report->outcomes.size(), async_report->outcomes.size());
    for (size_t c = 0; c < sync_report->outcomes.size(); ++c) {
      const SweepOutcome& a = sync_report->outcomes[c];
      const SweepOutcome& b = async_report->outcomes[c];
      EXPECT_EQ(a.target_id, b.target_id);
      EXPECT_EQ(a.solver, b.solver);
      EXPECT_EQ(a.status.code(), b.status.code());
      if (a.status.ok() && b.status.ok()) {
        EXPECT_EQ(a.result.distance, b.result.distance);
        EXPECT_EQ(a.result.strategies, b.result.strategies);
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Work-stealing stress and observability through the Service facade.
// ---------------------------------------------------------------------------

TEST(AsyncStress, DeepFanoutUnderConcurrentCancelStorm) {
  // Batches whose alternatives spill into the nested ADPaR fan-out (deep
  // ParallelFor from inside pool tasks) racing a storm of Cancel() calls:
  // every ticket must resolve exactly once — completed with a full report
  // or withdrawn as kCancelled — and the stats must account for all of
  // them. Under the old single-FIFO executor the fan-out helpers of a
  // running ticket queued behind the other 47 tickets; here they ride the
  // worker deques, so the storm cannot starve an in-flight job.
  workload::Generator generator({}, 0x5EA1'0001ull);
  ServiceConfig config;
  config.batch.aggregation = core::AggregationMode::kMax;
  config.execution.worker_threads = 4;
  config.execution.parallel_grain = 4;  // deep chunking: every batch fans out
  auto service =
      Service::Create(CatalogFromProfiles(generator.Profiles(80)), config);
  ASSERT_TRUE(service.ok());

  constexpr int kTickets = 48;
  std::vector<Ticket<BatchReport>> tickets;
  tickets.reserve(kTickets);
  for (int i = 0; i < kTickets; ++i) {
    BatchRequest batch;
    batch.requests = generator.RequestsWithRanges(6, 2, {0.5, 0.9},
                                                  {0.4, 1.0}, {0.4, 1.0});
    // Low availability: a good share of every batch flows to ADPaR.
    batch.availability = AvailabilitySpec::Fixed(0.3);
    tickets.push_back(service->SubmitBatchAsync(std::move(batch)));
  }

  // Three cancellers race the workers over disjoint ticket stripes.
  std::atomic<int> withdrawn{0};
  std::vector<std::thread> cancellers;
  cancellers.reserve(3);
  for (int t = 0; t < 3; ++t) {
    cancellers.emplace_back([&tickets, &withdrawn, t]() {
      for (size_t i = static_cast<size_t>(t); i < tickets.size(); i += 3) {
        if (i % 2 == 0 && tickets[i].Cancel()) withdrawn.fetch_add(1);
      }
    });
  }
  for (std::thread& canceller : cancellers) canceller.join();

  int completed = 0;
  int cancelled = 0;
  for (auto& ticket : tickets) {
    auto outcome = ticket.Wait();
    if (outcome.ok()) {
      EXPECT_EQ(outcome->request_id, ticket.id());
      ++completed;
    } else {
      ASSERT_EQ(outcome.status().code(), StatusCode::kCancelled);
      ++cancelled;
    }
  }
  EXPECT_EQ(completed + cancelled, kTickets);
  EXPECT_EQ(cancelled, withdrawn.load());

  ServiceStats stats = service->stats();
  EXPECT_EQ(stats.batches, static_cast<size_t>(completed));
  EXPECT_EQ(stats.cancelled, static_cast<size_t>(cancelled));
  // Everything drains: already-claimed fan-out helpers may outlive their
  // ParallelFor by a beat, so poll (the ctest TIMEOUT is the backstop).
  while (stats.queue_depth != 0) {
    std::this_thread::yield();
    stats = service->stats();
  }
}

TEST(AsyncService, StealCountersSurfaceThroughStats) {
  // A chunked batch on a multi-worker pool pushes ParallelFor helpers onto
  // the worker deques; every helper is eventually popped — locally or by a
  // thief — so the facade's steal/local-hit counters must move. (Which of
  // the two moves depends on scheduling; the sum is deterministic > 0.)
  workload::Generator generator({}, 0x5EA1'0002ull);
  ServiceConfig config;
  config.batch.aggregation = core::AggregationMode::kMax;
  config.execution.worker_threads = 4;
  config.execution.parallel_grain = 4;
  auto service =
      Service::Create(CatalogFromProfiles(generator.Profiles(100)), config);
  ASSERT_TRUE(service.ok());

  // Create itself fans out (the CatalogIndex warm-up rides ParallelFor),
  // so measure the batch's contribution as a delta, not from zero.
  const ServiceStats before = service->stats();

  BatchRequest batch;
  batch.requests = generator.RequestsWithRanges(20, 3, {0.5, 0.9},
                                                {0.4, 1.0}, {0.4, 1.0});
  ASSERT_TRUE(service->SubmitBatch(batch).ok());

  // Helpers the caller out-raced are popped (and counted) moments after the
  // batch returns; poll rather than race them (ctest TIMEOUT backstops).
  ServiceStats after = service->stats();
  while (after.steals + after.local_hits <= before.steals + before.local_hits) {
    std::this_thread::yield();
    after = service->stats();
  }
  EXPECT_GT(after.steals + after.local_hits,
            before.steals + before.local_hits);
}

TEST(AsyncDeterminism, ParallelWorkforceMatrixBitMatchesSerial) {
  workload::Generator generator({}, 0xDE7E'0003ull);
  const auto profiles = generator.Profiles(300);
  const auto requests = generator.Requests(40, 5);

  const auto serial = core::WorkforceMatrix::Compute(
      requests, profiles, core::WorkforcePolicy::kMinimalWorkforce);
  Executor executor(4);
  const auto parallel = core::WorkforceMatrix::Compute(
      requests, profiles, core::WorkforcePolicy::kMinimalWorkforce, &executor,
      /*grain=*/17);

  ASSERT_EQ(serial.num_requests(), parallel.num_requests());
  ASSERT_EQ(serial.num_strategies(), parallel.num_strategies());
  for (size_t i = 0; i < serial.num_requests(); ++i) {
    for (size_t j = 0; j < serial.num_strategies(); ++j) {
      ASSERT_EQ(serial.At(i, j).feasible, parallel.At(i, j).feasible);
      ASSERT_EQ(serial.At(i, j).requirement, parallel.At(i, j).requirement);
    }
  }
}

}  // namespace
}  // namespace stratrec::api
