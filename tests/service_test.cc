// stratrec::Service facade tests: envelope semantics, the algorithm
// registry, named availability models, the three modes, and — the point of
// the session design — many threads driving one service concurrently.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <functional>
#include <thread>
#include <utility>

#include "src/api/catalog.h"
#include "src/api/codec.h"
#include "src/api/registry.h"
#include "src/api/service.h"
#include "src/common/json.h"
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

TEST(ServiceCreate, ValidatesCatalogAndConfig) {
  EXPECT_FALSE(Service::Create(core::Catalog{}).ok());

  ServiceConfig bad_algorithm;
  bad_algorithm.batch.algorithm = "no-such-backend";
  auto not_found = Service::Create(Table1Catalog(), bad_algorithm);
  ASSERT_FALSE(not_found.ok());
  EXPECT_EQ(not_found.status().code(), StatusCode::kNotFound);

  ServiceConfig bad_availability;
  bad_availability.availability = AvailabilitySpec::Fixed(1.5);
  EXPECT_FALSE(Service::Create(Table1Catalog(), bad_availability).ok());

  ServiceConfig bad_grain;
  bad_grain.execution.parallel_grain = 0;
  EXPECT_EQ(Service::Create(Table1Catalog(), bad_grain).status().code(),
            StatusCode::kInvalidArgument);
  ServiceConfig absurd_pool;
  absurd_pool.execution.worker_threads = 100'000;
  EXPECT_EQ(Service::Create(Table1Catalog(), absurd_pool).status().code(),
            StatusCode::kInvalidArgument);

  EXPECT_TRUE(Service::Create(Table1Catalog()).ok());

  // Every size knob stops at 2^53, the largest integer the wire codec
  // carries exactly. The next double above it (2^53 + 2) fails at Create;
  // the cap itself is accepted and journals a config record that reads
  // back.
  constexpr size_t kCap = size_t{1} << 53;
  using Setter = std::function<void(ServiceConfig&, size_t)>;
  const std::vector<std::pair<const char*, Setter>> knobs = {
      {"stream.max_pending",
       [](ServiceConfig& c, size_t v) { c.stream.max_pending = v; }},
      {"execution.parallel_grain",
       [](ServiceConfig& c, size_t v) { c.execution.parallel_grain = v; }},
      {"cache.snapshot_capacity",
       [](ServiceConfig& c, size_t v) { c.cache.snapshot_capacity = v; }},
      {"journal.max_segment_bytes",
       [](ServiceConfig& c, size_t v) { c.journal.max_segment_bytes = v; }},
      {"journal.compact_after_segments",
       [](ServiceConfig& c, size_t v) {
         c.journal.max_segment_bytes = size_t{1} << 20;  // rotation on
         c.journal.compact_after_segments = v;
       }},
      {"journal.retain_segments",
       [](ServiceConfig& c, size_t v) { c.journal.retain_segments = v; }},
  };
  const std::string path =
      ::testing::TempDir() + "stratrec_size_knob_cap.journal";
  for (const auto& [name, set] : knobs) {
    ServiceConfig over;
    set(over, kCap + 2);
    EXPECT_EQ(Service::Create(Table1Catalog(), over).status().code(),
              StatusCode::kInvalidArgument)
        << name;

    ServiceConfig at;
    at.journal.path = path;
    set(at, kCap);
    std::remove(path.c_str());
    ASSERT_TRUE(Service::Create(Table1Catalog(), at).ok()) << name;
    auto trace = wire::ReadTraceFile(path);
    ASSERT_TRUE(trace.ok()) << name << ": " << trace.status().ToString();
    ASSERT_TRUE(trace->has_config) << name;
    EXPECT_EQ(trace->config, at) << name;
  }
  std::remove(path.c_str());
}

TEST(ServiceBatch, ReproducesPaperExample1) {
  ServiceConfig config;
  config.batch.aggregation = core::AggregationMode::kMax;
  auto service = Service::Create(Table1Catalog(), config);
  ASSERT_TRUE(service.ok());

  BatchRequest batch;
  batch.requests = Table1Requests();
  batch.availability = AvailabilitySpec::FromPmf({{0.7, 0.5}, {0.9, 0.5}});
  auto report = service->SubmitBatch(batch);
  ASSERT_TRUE(report.ok()) << report.status().ToString();

  EXPECT_DOUBLE_EQ(report->availability, 0.8);
  EXPECT_EQ(report->algorithm, "batchstrat");
  EXPECT_FALSE(report->request_id.empty());
  // d3 is served with {s2, s3, s4} (Section 2.2); d1 and d2 receive
  // alternatives.
  const core::BatchResult& result = report->result.aggregator.batch;
  ASSERT_EQ(result.satisfied, std::vector<size_t>{2});
  EXPECT_EQ(report->result.alternatives.size(), 2u);
}

TEST(ServiceBatch, EnvelopeIdsAreStableAndUnique) {
  auto service = Service::Create(Table1Catalog());
  ASSERT_TRUE(service.ok());
  BatchRequest batch;
  batch.requests = Table1Requests();
  batch.availability = AvailabilitySpec::Fixed(0.8);
  auto first = service->SubmitBatch(batch);
  auto second = service->SubmitBatch(batch);
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(second.ok());
  EXPECT_NE(first->request_id, second->request_id);
  EXPECT_EQ(first->request_id.rfind("batch-", 0), 0u);
}

TEST(ServiceBatch, PerRequestOverridesBeatConfig) {
  ServiceConfig config;
  config.batch.algorithm = "batchstrat";
  config.batch.aggregation = core::AggregationMode::kMax;
  config.availability = AvailabilitySpec::Fixed(0.8);
  auto service = Service::Create(Table1Catalog(), config);
  ASSERT_TRUE(service.ok());

  BatchRequest batch;
  batch.requests = Table1Requests();
  batch.algorithm = "brute-force";
  batch.recommend_alternatives = false;
  auto report = service->SubmitBatch(batch);
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->algorithm, "brute-force");
  EXPECT_DOUBLE_EQ(report->availability, 0.8);  // config default used
  EXPECT_TRUE(report->result.alternatives.empty());

  batch.algorithm = "unknown";
  auto unknown = service->SubmitBatch(batch);
  ASSERT_FALSE(unknown.ok());
  EXPECT_EQ(unknown.status().code(), StatusCode::kNotFound);

  // An unknown adpar backend only matters when alternatives will run.
  batch.algorithm = "batchstrat";
  batch.adpar_solver = "unknown";
  batch.recommend_alternatives = false;
  EXPECT_TRUE(service->SubmitBatch(batch).ok());
  batch.recommend_alternatives = true;
  EXPECT_EQ(service->SubmitBatch(batch).status().code(),
            StatusCode::kNotFound);
}

TEST(ServiceRegistry, CustomBackendPlugsInWithoutCallerChanges) {
  // A trivial "reject everything" backend registered under a fresh name
  // becomes selectable by name on an existing service.
  auto status = AlgorithmRegistry::Global().RegisterBatch(
      "test-reject-all",
      [](const std::vector<core::DeploymentRequest>& requests,
         const std::vector<core::StrategyProfile>&, double,
         const core::BatchOptions&) -> Result<core::BatchResult> {
        core::BatchResult result;
        result.outcomes.resize(requests.size());
        for (size_t i = 0; i < requests.size(); ++i) {
          result.outcomes[i].request_index = i;
          result.unsatisfied.push_back(i);
        }
        return result;
      });
  ASSERT_TRUE(status.ok()) << status.ToString();
  // Duplicate registration is refused.
  EXPECT_EQ(AlgorithmRegistry::Global()
                .RegisterBatch("test-reject-all", nullptr)
                .code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(AlgorithmRegistry::Global()
                .RegisterBatch("test-reject-all",
                               core::SolverForAlgorithm(
                                   core::BatchAlgorithm::kBatchStrat))
                .code(),
            StatusCode::kFailedPrecondition);

  auto service = Service::Create(Table1Catalog());
  ASSERT_TRUE(service.ok());
  BatchRequest batch;
  batch.requests = Table1Requests();
  batch.availability = AvailabilitySpec::Fixed(0.8);
  batch.algorithm = "test-reject-all";
  auto report = service->SubmitBatch(batch);
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->result.aggregator.batch.satisfied.empty());
  // Every request flowed to ADPaR, which still works.
  EXPECT_EQ(report->result.alternatives.size() +
                report->result.adpar_failures.size(),
            batch.requests.size());
}

TEST(ServiceRegistry, WeightedBackendSelectableByName) {
  // SolveBatchWeighted is reachable through the facade: the built-in
  // "weighted" entry, and custom weight mixes via MakeWeightedBatchSolver.
  auto service = Service::Create(Table1Catalog());
  ASSERT_TRUE(service.ok());
  BatchRequest batch;
  batch.requests = Table1Requests();
  batch.availability = AvailabilitySpec::Fixed(0.8);
  batch.aggregation = core::AggregationMode::kMax;
  batch.algorithm = "weighted";
  auto report = service->SubmitBatch(batch);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->algorithm, "weighted");
  // Default weights are throughput-only: same selection as batchstrat.
  EXPECT_EQ(report->result.aggregator.batch.satisfied,
            std::vector<size_t>{2});

  core::ObjectiveWeights worker_centric;
  worker_centric.throughput = 1.0;
  worker_centric.effort = 0.5;
  ASSERT_TRUE(AlgorithmRegistry::Global()
                  .RegisterBatch("test-worker-centric",
                                 MakeWeightedBatchSolver(worker_centric))
                  .ok());
  batch.algorithm = "test-worker-centric";
  auto weighted = service->SubmitBatch(batch);
  ASSERT_TRUE(weighted.ok()) << weighted.status().ToString();
  EXPECT_EQ(weighted->algorithm, "test-worker-centric");
  // The effort penalty never *adds* served requests at equal workforce.
  EXPECT_LE(weighted->result.aggregator.batch.satisfied.size(),
            report->result.aggregator.batch.satisfied.size() +
                report->result.alternatives.size());
}

TEST(ServiceAvailability, NamedModelsResolvePerCall) {
  auto service = Service::Create(Table1Catalog());
  ASSERT_TRUE(service.ok());
  auto model = core::AvailabilityModel::FromPmf({{0.7, 0.5}, {0.9, 0.5}});
  ASSERT_TRUE(model.ok());
  ASSERT_TRUE(
      service->RegisterAvailabilityModel("early-week", *model).ok());
  EXPECT_EQ(service->RegisterAvailabilityModel("early-week", *model).code(),
            StatusCode::kFailedPrecondition);

  BatchRequest batch;
  batch.requests = Table1Requests();
  batch.availability = AvailabilitySpec::Named("early-week");
  auto report = service->SubmitBatch(batch);
  ASSERT_TRUE(report.ok());
  EXPECT_DOUBLE_EQ(report->availability, 0.8);

  batch.availability = AvailabilitySpec::Named("weekend");
  auto missing = service->SubmitBatch(batch);
  ASSERT_FALSE(missing.ok());
  EXPECT_EQ(missing.status().code(), StatusCode::kNotFound);
}

TEST(ServiceSweep, CrossProductAndPerCellInfeasibility) {
  auto service = Service::Create(Table1Catalog());
  ASSERT_TRUE(service.ok());

  SweepRequest sweep;
  sweep.availability = AvailabilitySpec::Fixed(0.8);
  sweep.targets = {{"d2", {0.8, 0.20, 0.28}, 3},
                   {"too-big", {0.8, 0.20, 0.28}, 9}};
  sweep.solvers = {"exact", "paper-sweep", "brute"};
  auto report = service->RunSweep(sweep);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->request_id.rfind("sweep-", 0), 0u);
  ASSERT_EQ(report->outcomes.size(), 6u);

  for (const SweepOutcome& outcome : report->outcomes) {
    if (outcome.target_id == "d2") {
      ASSERT_TRUE(outcome.status.ok()) << outcome.status.ToString();
      EXPECT_EQ(outcome.result.strategies.size(), 3u);
      // Every cell carries its own strategies' parameters at W = 0.8.
      ASSERT_EQ(outcome.result.strategy_params.size(), 3u);
      for (size_t i = 0; i < 3; ++i) {
        const size_t j = outcome.result.strategies[i];
        EXPECT_TRUE(outcome.result.strategy_params[i] ==
                    service->profiles()[j].EstimateParams(0.8));
      }
      // The paper-sweep heuristic can only be worse than the exact solver.
      if (outcome.solver == "exact") {
        EXPECT_NEAR(outcome.result.distance, 0.3833, 1e-3);
      }
    } else {
      // k = 9 exceeds the 4-strategy catalog: per-cell kInfeasible, the
      // sweep itself succeeds.
      EXPECT_EQ(outcome.status.code(), StatusCode::kInfeasible);
    }
  }

  SweepRequest bad;
  bad.targets = sweep.targets;
  bad.solvers = {"nope"};
  EXPECT_EQ(service->RunSweep(bad).status().code(), StatusCode::kNotFound);
}

/// Entries of the longest JSON array anywhere inside `value`.
size_t LongestArray(const json::Value& value) {
  size_t longest = 0;
  if (value.is_array()) {
    longest = value.items().size();
    for (const json::Value& item : value.items()) {
      longest = std::max(longest, LongestArray(item));
    }
  } else if (value.is_object()) {
    for (const auto& member : value.members()) {
      longest = std::max(longest, LongestArray(member.second));
    }
  }
  return longest;
}

// Reports carry answers, not the catalog: whatever |S| is, no array in a
// batch body (alternatives on) or a sweep body outgrows max(m, k) — the
// request count or one answer's k strategies.
TEST(ServiceReports, BodiesScaleWithTheAnswerNotTheCatalog) {
  constexpr int kK = 4;
  for (int size : {2'000, 20'000}) {
    workload::Generator generator({}, 0xA115'0001ull);
    auto service = Service::Create(CatalogFromProfiles(generator.Profiles(size)));
    ASSERT_TRUE(service.ok());
    // Serviceable plus hopeless requests, so the ADPaR leg runs too.
    auto requests = generator.RequestsWithRanges(6, kK, {0.5, 0.75},
                                                 {0.5, 1.0}, {0.5, 1.0});
    auto hopeless = generator.RequestsWithRanges(4, kK, {0.97, 1.0},
                                                 {0.0, 0.05}, {0.0, 0.05});
    requests.insert(requests.end(), hopeless.begin(), hopeless.end());
    const size_t bound = std::max(requests.size(), static_cast<size_t>(kK));

    BatchRequest batch;
    batch.requests = requests;
    batch.availability = AvailabilitySpec::Fixed(0.6);
    batch.recommend_alternatives = true;
    auto batch_report = service->SubmitBatch(batch);
    ASSERT_TRUE(batch_report.ok()) << batch_report.status().ToString();
    ASSERT_FALSE(batch_report->result.alternatives.empty());
    auto batch_body = json::Parse(json::Dump(wire::Encode(*batch_report)));
    ASSERT_TRUE(batch_body.ok());
    EXPECT_LE(LongestArray(*batch_body), bound) << "|S| = " << size;

    SweepRequest sweep;
    sweep.targets = requests;
    sweep.availability = batch.availability;
    auto sweep_report = service->RunSweep(sweep);
    ASSERT_TRUE(sweep_report.ok()) << sweep_report.status().ToString();
    auto sweep_body = json::Parse(json::Dump(wire::Encode(*sweep_report)));
    ASSERT_TRUE(sweep_body.ok());
    EXPECT_LE(LongestArray(*sweep_body), bound) << "|S| = " << size;
  }
}

TEST(ServiceStream, EventEnvelopeDrivesTheSession) {
  ServiceConfig config;
  config.batch.aggregation = core::AggregationMode::kMax;
  config.availability = AvailabilitySpec::Fixed(0.8);
  auto service = Service::Create(Table1Catalog(), config);
  ASSERT_TRUE(service.ok());

  auto session = service->OpenStream();
  ASSERT_TRUE(session.ok());
  EXPECT_EQ(session->id().rfind("stream-", 0), 0u);
  EXPECT_DOUBLE_EQ(session->availability(), 0.8);

  auto arrival = session->Submit(
      StreamEvent::Arrival({"d3", {0.7, 0.83, 0.28}, 3}));
  ASSERT_TRUE(arrival.ok());
  EXPECT_EQ(arrival->decision.kind, core::AdmissionDecision::Kind::kAdmitted);
  EXPECT_EQ(arrival->request_id, "d3");
  EXPECT_EQ(arrival->active, 1u);

  auto unknown = session->Submit(StreamEvent::Revocation("ghost"));
  ASSERT_FALSE(unknown.ok());
  EXPECT_EQ(unknown.status().code(), StatusCode::kNotFound);

  auto window = session->Submit(StreamEvent::AvailabilityChange(
      AvailabilitySpec::Fixed(0.55)));
  ASSERT_TRUE(window.ok());
  EXPECT_DOUBLE_EQ(window->availability, 0.55);

  ASSERT_TRUE(session->Complete("d3").ok());
  EXPECT_EQ(session->active(), 0u);
  EXPECT_EQ(session->stats().completed, 1u);

  const ServiceStats stats = service->stats();
  EXPECT_EQ(stats.streams_opened, 1u);
  // arrival + window change + completion; the failed revocation is not
  // counted.
  EXPECT_EQ(stats.stream_events, 3u);
  EXPECT_EQ(stats.requests_processed, 1u);
}

TEST(ServiceConcurrency, ManySessionsAndBatchesInParallel) {
  workload::Generator generator({}, 0x5E55'1011ull);
  ServiceConfig config;
  config.batch.aggregation = core::AggregationMode::kMax;
  config.availability = AvailabilitySpec::Fixed(0.7);
  auto service =
      Service::Create(CatalogFromProfiles(generator.Profiles(60)), config);
  ASSERT_TRUE(service.ok());

  constexpr int kThreads = 8;
  constexpr int kEventsPerThread = 40;
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t]() {
      workload::Generator local({}, 0xC0FFEEull + static_cast<uint64_t>(t));
      // Even threads drive an independent stream session; odd threads
      // hammer SubmitBatch on the shared service.
      if (t % 2 == 0) {
        auto session = service->OpenStream();
        if (!session.ok()) {
          failures.fetch_add(1);
          return;
        }
        for (int i = 0; i < kEventsPerThread; ++i) {
          auto requests = local.RequestsWithRanges(1, 2, {0.5, 0.75},
                                                   {0.7, 1.0}, {0.7, 1.0});
          std::string id = "t";
          id += std::to_string(t);
          id += "-req-";
          id += std::to_string(i);
          requests[0].id = std::move(id);
          auto update =
              session->Submit(StreamEvent::Arrival(requests[0]));
          if (!update.ok()) {
            failures.fetch_add(1);
            continue;
          }
          if (update->decision.kind ==
              core::AdmissionDecision::Kind::kAdmitted) {
            if (!session->Complete(requests[0].id).ok()) failures.fetch_add(1);
          }
        }
      } else {
        BatchRequest batch;
        batch.requests = local.RequestsWithRanges(6, 2, {0.5, 0.75},
                                                  {0.7, 1.0}, {0.7, 1.0});
        for (int i = 0; i < kEventsPerThread; ++i) {
          auto report = service->SubmitBatch(batch);
          if (!report.ok()) failures.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();

  EXPECT_EQ(failures.load(), 0);
  const ServiceStats stats = service->stats();
  EXPECT_EQ(stats.streams_opened, static_cast<size_t>(kThreads / 2));
  // Every arrival is a stream event; completions add on top.
  EXPECT_GE(stats.stream_events,
            static_cast<size_t>(kThreads / 2) * kEventsPerThread);
  EXPECT_EQ(stats.batches, static_cast<size_t>(kThreads / 2) *
                               kEventsPerThread);
  // Every stream arrival and every batched request is accounted for.
  EXPECT_EQ(stats.requests_processed,
            static_cast<size_t>(kThreads / 2) * kEventsPerThread +
                static_cast<size_t>(kThreads / 2) * kEventsPerThread * 6);
}

}  // namespace
}  // namespace stratrec::api
