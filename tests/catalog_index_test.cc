// The CatalogIndex equivalence surface: every indexed hot path must be
// bit-identical to its unindexed counterpart —
//
//   * WorkforceMatrix::Compute from the SoA arrays vs from profiles,
//   * the index-accepting AdparExact (prebuilt orderings + skyline
//     pruning) vs the classic per-request one,
//   * StratRec with a reused availability snapshot vs without,
//   * a Service batch served from a warm snapshot cache vs a cold one
//     (byte-compared through the wire codec, at several pool sizes).
//
// Plus the cache bookkeeping itself: hit/miss counters, LRU eviction, and
// availability quantization.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/api/catalog.h"
#include "src/api/codec.h"
#include "src/api/service.h"
#include "src/common/executor.h"
#include "src/common/rng.h"
#include "src/core/adpar_baselines.h"
#include "src/core/adpar_paper_sweep.h"
#include "src/core/catalog_index.h"
#include "src/core/skyline.h"
#include "src/core/stratrec.h"
#include "src/core/workforce.h"
#include "src/workload/generators.h"

namespace stratrec::core {
namespace {

// Profiles with adversarial coefficient draws: slopes of either sign, zero
// slopes (constant parameters), intercepts outside [0, 1] so clamping is
// exercised — a strictly wider space than workload::Generator emits.
std::vector<StrategyProfile> RandomProfiles(Rng& rng, int count) {
  std::vector<StrategyProfile> profiles(static_cast<size_t>(count));
  for (StrategyProfile& profile : profiles) {
    for (LinearModel* model :
         {&profile.quality, &profile.cost, &profile.latency}) {
      model->alpha = rng.Bernoulli(0.15) ? 0.0 : rng.Uniform(-1.5, 1.5);
      model->beta = rng.Uniform(-0.5, 1.5);
    }
  }
  return profiles;
}

std::vector<DeploymentRequest> RandomRequests(Rng& rng, int count,
                                              int max_k) {
  std::vector<DeploymentRequest> requests(static_cast<size_t>(count));
  for (size_t i = 0; i < requests.size(); ++i) {
    std::string id = "d";
    id += std::to_string(i);
    requests[i].id = std::move(id);
    requests[i].thresholds = {rng.Uniform(), rng.Uniform(), rng.Uniform()};
    requests[i].k = static_cast<int>(rng.UniformInt(1, max_k));
  }
  return requests;
}

TEST(CatalogIndex, TransposesCoefficientsAndEstimatesIdentically) {
  Rng rng(0x1DE40001ull);
  const auto profiles = RandomProfiles(rng, 37);
  const CatalogIndex index = CatalogIndex::Build(profiles);
  ASSERT_EQ(index.size(), profiles.size());
  for (size_t j = 0; j < profiles.size(); ++j) {
    EXPECT_TRUE(index.ProfileAt(j) == profiles[j]) << "profile " << j;
    for (double w : {0.0, 0.1, 0.5, 0.83, 1.0}) {
      const ParamVector via_profile = profiles[j].EstimateParams(w);
      const ParamVector via_index = index.EstimateParams(w, j);
      EXPECT_EQ(via_profile.quality, via_index.quality);
      EXPECT_EQ(via_profile.cost, via_index.cost);
      EXPECT_EQ(via_profile.latency, via_index.latency);
    }
  }
}

TEST(CatalogIndex, ParallelBuildMatchesSerial) {
  Rng rng(0x1DE40002ull);
  const auto profiles = RandomProfiles(rng, 1000);
  const CatalogIndex serial = CatalogIndex::Build(profiles);
  Executor executor(4);
  const CatalogIndex parallel =
      CatalogIndex::Build(profiles, &executor, /*grain=*/64);
  ASSERT_EQ(serial.size(), parallel.size());
  for (ParamAxis axis :
       {ParamAxis::kQuality, ParamAxis::kCost, ParamAxis::kLatency}) {
    EXPECT_EQ(serial.alphas(axis), parallel.alphas(axis));
    EXPECT_EQ(serial.betas(axis), parallel.betas(axis));
  }
  EXPECT_GT(serial.build_nanos(), 0u);

  // The ParallelFor-filled params block matches the serial fill too.
  std::vector<ParamVector> serial_params;
  std::vector<ParamVector> parallel_params;
  serial.EstimateParamsInto(0.37, &serial_params);
  serial.EstimateParamsInto(0.37, &parallel_params, &executor, /*grain=*/64);
  EXPECT_EQ(serial_params.size(), parallel_params.size());
  for (size_t j = 0; j < serial_params.size(); ++j) {
    EXPECT_TRUE(serial_params[j] == parallel_params[j]) << "param " << j;
  }
}

TEST(CatalogIndexProperty, WorkforceMatrixBitIdentical) {
  Rng rng(0x1DE40003ull);
  for (int trial = 0; trial < 40; ++trial) {
    const auto profiles =
        RandomProfiles(rng, static_cast<int>(rng.UniformInt(1, 60)));
    const auto requests =
        RandomRequests(rng, static_cast<int>(rng.UniformInt(1, 12)), 5);
    const CatalogIndex index = CatalogIndex::Build(profiles);
    for (WorkforcePolicy policy : {WorkforcePolicy::kMinimalWorkforce,
                                   WorkforcePolicy::kPaperMaxOfThree}) {
      const WorkforceMatrix from_profiles =
          WorkforceMatrix::Compute(requests, profiles, policy);
      const WorkforceMatrix from_index =
          WorkforceMatrix::Compute(requests, index, policy);
      ASSERT_EQ(from_profiles.num_requests(), from_index.num_requests());
      ASSERT_EQ(from_profiles.num_strategies(), from_index.num_strategies());
      for (size_t i = 0; i < from_profiles.num_requests(); ++i) {
        for (size_t j = 0; j < from_profiles.num_strategies(); ++j) {
          const WorkforceCell& a = from_profiles.At(i, j);
          const WorkforceCell& b = from_index.At(i, j);
          EXPECT_EQ(a.feasible, b.feasible) << "cell " << i << "," << j;
          EXPECT_EQ(a.requirement, b.requirement) << "cell " << i << "," << j;
        }
      }
    }
  }
}

void ExpectSameAdparOutcome(const Result<AdparResult>& classic,
                            const Result<AdparResult>& indexed,
                            const std::string& label) {
  ASSERT_EQ(classic.ok(), indexed.ok())
      << label << ": " << (classic.ok() ? indexed : classic).status().ToString();
  if (!classic.ok()) {
    EXPECT_EQ(classic.status().code(), indexed.status().code()) << label;
    return;
  }
  EXPECT_EQ(classic->alternative.quality, indexed->alternative.quality)
      << label;
  EXPECT_EQ(classic->alternative.cost, indexed->alternative.cost) << label;
  EXPECT_EQ(classic->alternative.latency, indexed->alternative.latency)
      << label;
  EXPECT_EQ(classic->squared_distance, indexed->squared_distance) << label;
  EXPECT_EQ(classic->distance, indexed->distance) << label;
  EXPECT_EQ(classic->strategies, indexed->strategies) << label;
}

TEST(CatalogIndexProperty, AdparExactIndexedBitIdentical) {
  Rng rng(0x1DE40004ull);
  for (int trial = 0; trial < 60; ++trial) {
    const int n = static_cast<int>(rng.UniformInt(1, 150));
    const auto profiles = RandomProfiles(rng, n);
    const CatalogIndex index = CatalogIndex::Build(profiles);
    const double w = rng.Uniform();
    const auto snapshot = index.BuildSnapshot(w);
    for (int solve = 0; solve < 6; ++solve) {
      const ParamVector request{rng.Uniform(), rng.Uniform(), rng.Uniform()};
      const int k = static_cast<int>(rng.UniformInt(1, 12));
      const auto classic = AdparExact(snapshot->params(), request, k);
      const auto indexed = AdparExact(*snapshot, request, k);
      ExpectSameAdparOutcome(
          classic, indexed,
          "n=" + std::to_string(n) + " k=" + std::to_string(k) +
              " trial=" + std::to_string(trial));
    }
  }
}

TEST(CatalogIndexProperty, AdparIndexedHandlesDuplicatesAndLargeK) {
  // Duplicated parameter vectors (cost/quality ties everywhere) and k above
  // the dominator cap (pruning disabled) must stay bit-identical too.
  Rng rng(0x1DE40005ull);
  for (int trial = 0; trial < 20; ++trial) {
    std::vector<StrategyProfile> profiles =
        RandomProfiles(rng, static_cast<int>(rng.UniformInt(2, 30)));
    const size_t base = profiles.size();
    for (size_t j = 0; j < base; ++j) {
      if (rng.Bernoulli(0.5)) profiles.push_back(profiles[j]);
    }
    const CatalogIndex index = CatalogIndex::Build(profiles);
    const auto snapshot = index.BuildSnapshot(rng.Uniform());
    const ParamVector request{rng.Uniform(), rng.Uniform(), rng.Uniform()};
    for (int k :
         {1, 2, static_cast<int>(profiles.size()),
          static_cast<int>(kSkylineDominatorCap) + 5}) {
      ExpectSameAdparOutcome(AdparExact(snapshot->params(), request, k),
                             AdparExact(*snapshot, request, k),
                             "dup trial=" + std::to_string(trial) +
                                 " k=" + std::to_string(k));
    }
  }
}

TEST(CatalogIndexProperty, StratRecSnapshotBitIdentical) {
  workload::Generator generator({}, 0x1DE40006ull);
  Rng rng(0x1DE40007ull);
  for (int trial = 0; trial < 15; ++trial) {
    const auto profiles =
        generator.Profiles(static_cast<int>(rng.UniformInt(5, 80)));
    auto stratrec = StratRec::Create(
        api::CatalogFromProfiles(profiles).strategies, profiles);
    ASSERT_TRUE(stratrec.ok());
    const auto requests = generator.RequestsWithRanges(
        static_cast<int>(rng.UniformInt(1, 10)), 3, {0.5, 0.9}, {0.3, 1.0},
        {0.3, 1.0});
    const double w = rng.Uniform();

    StratRecOptions plain;
    plain.batch.aggregation = AggregationMode::kMax;
    auto without = stratrec->ProcessBatchAtAvailability(requests, w, plain);
    ASSERT_TRUE(without.ok()) << without.status().ToString();

    StratRecOptions with_snapshot = plain;
    auto snapshot = stratrec->aggregator().BuildSnapshot(w);
    ASSERT_TRUE(snapshot.ok());
    with_snapshot.snapshot = *snapshot;
    auto with = stratrec->ProcessBatchAtAvailability(requests, w,
                                                     with_snapshot);
    ASSERT_TRUE(with.ok()) << with.status().ToString();

    EXPECT_TRUE(*without == *with) << "trial " << trial;

    // The unindexed reference path (no SoA matrix fill) agrees too.
    StratRecOptions unindexed = plain;
    unindexed.batch.use_catalog_index = false;
    auto reference =
        stratrec->ProcessBatchAtAvailability(requests, w, unindexed);
    ASSERT_TRUE(reference.ok());
    EXPECT_TRUE(*reference == *without) << "trial " << trial;
  }
}

bool BitEqual(const ParamVector& a, const ParamVector& b) {
  return std::bit_cast<uint64_t>(a.quality) ==
             std::bit_cast<uint64_t>(b.quality) &&
         std::bit_cast<uint64_t>(a.cost) == std::bit_cast<uint64_t>(b.cost) &&
         std::bit_cast<uint64_t>(a.latency) ==
             std::bit_cast<uint64_t>(b.latency);
}

// Every ADPaR solver fills AdparResult::strategy_params through the shared
// covered-strategy funnel: entry j is the snapshot's row for strategies[j],
// bit for bit, so a report needs no catalog block to show what an
// alternative covers.
TEST(CatalogIndexProperty, AdparResultsCarryTheirStrategiesParams) {
  workload::Generator generator({}, 0x1DE40009ull);
  Rng rng(0x1DE4000Aull);
  for (int trial = 0; trial < 10; ++trial) {
    const auto profiles =
        generator.Profiles(static_cast<int>(rng.UniformInt(8, 40)));
    const CatalogIndex index = CatalogIndex::Build(profiles);
    const auto snapshot = index.BuildSnapshot(rng.Uniform());
    const std::vector<ParamVector>& params = snapshot->params();
    const auto requests = generator.RequestsWithRanges(
        4, static_cast<int>(rng.UniformInt(1, 4)), {0.6, 1.0}, {0.0, 0.6},
        {0.0, 0.6});
    for (const DeploymentRequest& request : requests) {
      const ParamVector& d = request.thresholds;
      const int k = request.k;
      const std::vector<std::pair<const char*, Result<AdparResult>>> solved = {
          {"snapshot", AdparExact(*snapshot, d, k)},
          {"exact", AdparExact(params, d, k)},
          {"skyband", AdparExactSkyband(params, d, k)},
          {"paper-sweep", AdparPaperSweep(params, d, k)},
          {"brute", AdparBrute(params, d, k)},
          {"baseline2", AdparBaseline2(params, d, k)},
          {"baseline3", AdparBaseline3(params, d, k)},
      };
      for (const auto& [name, result] : solved) {
        ASSERT_TRUE(result.ok()) << name << ": " << result.status().ToString();
        ASSERT_EQ(result->strategies.size(), static_cast<size_t>(k)) << name;
        ASSERT_EQ(result->strategy_params.size(), result->strategies.size())
            << name;
        for (size_t j = 0; j < result->strategies.size(); ++j) {
          EXPECT_TRUE(BitEqual(result->strategy_params[j],
                               params[result->strategies[j]]))
              << name << " trial " << trial << " entry " << j;
        }
      }
    }
  }
}

TEST(CatalogIndex, ParamsMaterializationIsOptInForBatchOnlyRuns) {
  workload::Generator generator({}, 0x1DE40008ull);
  const auto profiles = generator.Profiles(20);
  auto stratrec = StratRec::Create(
      api::CatalogFromProfiles(profiles).strategies, profiles);
  ASSERT_TRUE(stratrec.ok());
  const auto requests = generator.Requests(5, 3);

  StratRecOptions batch_only;
  batch_only.recommend_alternatives = false;
  auto lean = stratrec->ProcessBatchAtAvailability(requests, 0.5, batch_only);
  ASSERT_TRUE(lean.ok());
  EXPECT_TRUE(lean->aggregator.strategy_params.empty());

  // Alternatives carry their own parameters, so turning them on does not
  // materialize the block either.
  StratRecOptions with_alternatives;
  auto answered =
      stratrec->ProcessBatchAtAvailability(requests, 0.5, with_alternatives);
  ASSERT_TRUE(answered.ok());
  EXPECT_TRUE(answered->aggregator.strategy_params.empty());

  batch_only.materialize_params = true;
  auto full = stratrec->ProcessBatchAtAvailability(requests, 0.5, batch_only);
  ASSERT_TRUE(full.ok());
  ASSERT_EQ(full->aggregator.strategy_params.size(), profiles.size());
  for (size_t j = 0; j < profiles.size(); ++j) {
    EXPECT_TRUE(full->aggregator.strategy_params[j] ==
                profiles[j].EstimateParams(0.5));
  }
  // The batch outcome itself is unaffected by the params block.
  EXPECT_TRUE(lean->aggregator.batch == full->aggregator.batch);
}

}  // namespace
}  // namespace stratrec::core

namespace stratrec::api {
namespace {

core::Catalog TestCatalog(int size, uint64_t seed) {
  workload::Generator generator({}, seed);
  return CatalogFromProfiles(generator.Profiles(size));
}

BatchRequest MixedBatch(const std::string& request_id) {
  workload::Generator generator({}, 0xFACADE01ull);
  BatchRequest batch;
  // A mix of serviceable and hopeless requests so the pipeline exercises
  // both the scheduler and the ADPaR leg.
  batch.requests = generator.RequestsWithRanges(6, 3, {0.5, 0.75}, {0.5, 1.0},
                                                {0.5, 1.0});
  auto hopeless = generator.RequestsWithRanges(3, 3, {0.97, 1.0}, {0.0, 0.05},
                                               {0.0, 0.05});
  batch.requests.insert(batch.requests.end(), hopeless.begin(),
                        hopeless.end());
  batch.availability = AvailabilitySpec::Fixed(0.62);
  batch.request_id = request_id;
  return batch;
}

TEST(SnapshotCacheFacade, WarmCacheReportsAreByteIdenticalToCold) {
  for (size_t threads : {1u, 2u, 4u, 8u}) {
    ServiceConfig config;
    config.execution.worker_threads = threads;
    auto service = Service::Create(TestCatalog(64, 0xFACADE02ull), config);
    ASSERT_TRUE(service.ok());

    // Same caller-assigned id on purpose: the encoded reports must match
    // byte for byte, id included.
    auto cold = service->SubmitBatch(MixedBatch("warm-vs-cold"));
    ASSERT_TRUE(cold.ok()) << cold.status().ToString();
    const ServiceStats after_cold = service->stats();
    EXPECT_GE(after_cold.cache_misses, 1u);

    auto warm = service->SubmitBatch(MixedBatch("warm-vs-cold"));
    ASSERT_TRUE(warm.ok()) << warm.status().ToString();
    const ServiceStats after_warm = service->stats();
    EXPECT_GE(after_warm.cache_hits, after_cold.cache_hits + 1);

    EXPECT_EQ(json::Dump(wire::Encode(*cold)), json::Dump(wire::Encode(*warm)))
        << "pool size " << threads;
  }
}

TEST(SnapshotCacheFacade, CountsHitsAndEvictsLeastRecentlyUsed) {
  ServiceConfig config;
  config.execution.worker_threads = 1;
  config.cache.snapshot_capacity = 2;
  config.cache.shards = 1;
  auto service = Service::Create(TestCatalog(16, 0xFACADE03ull), config);
  ASSERT_TRUE(service.ok());

  auto submit_at = [&](double w) {
    BatchRequest batch = MixedBatch("");
    batch.availability = AvailabilitySpec::Fixed(w);
    auto report = service->SubmitBatch(std::move(batch));
    ASSERT_TRUE(report.ok()) << report.status().ToString();
  };

  submit_at(0.3);  // miss
  submit_at(0.3);  // hit
  submit_at(0.6);  // miss
  submit_at(0.9);  // miss -> evicts 0.3 (LRU)
  submit_at(0.3);  // miss again
  const ServiceStats stats = service->stats();
  EXPECT_EQ(stats.cache_misses, 4u);
  EXPECT_EQ(stats.cache_hits, 1u);
  EXPECT_GT(stats.index_build_nanos, 0u);
}

TEST(SnapshotCacheFacade, CapacityBoundsResidentSnapshotsAcrossShards) {
  // snapshot_capacity is a global bound: with capacity 1 the shard count is
  // clamped so distinct availabilities cannot each pin a shard-local entry.
  ServiceConfig config;
  config.execution.worker_threads = 1;
  config.cache.snapshot_capacity = 1;
  config.cache.shards = 4;
  auto service = Service::Create(TestCatalog(16, 0xFACADE06ull), config);
  ASSERT_TRUE(service.ok());

  for (double w : {0.2, 0.8, 0.2}) {
    BatchRequest batch = MixedBatch("");
    batch.availability = AvailabilitySpec::Fixed(w);
    auto report = service->SubmitBatch(std::move(batch));
    ASSERT_TRUE(report.ok()) << report.status().ToString();
  }
  // 0.8 evicted 0.2 (only one snapshot may stay resident), so the second
  // 0.2 is a miss again.
  const ServiceStats stats = service->stats();
  EXPECT_EQ(stats.cache_misses, 3u);
  EXPECT_EQ(stats.cache_hits, 0u);
}

TEST(SnapshotCacheFacade, QuantizationSnapsAvailabilityOntoTheGrid) {
  ServiceConfig config;
  config.execution.worker_threads = 1;
  config.cache.availability_quantum = 0.25;
  auto service = Service::Create(TestCatalog(16, 0xFACADE04ull), config);
  ASSERT_TRUE(service.ok());

  BatchRequest near_half = MixedBatch("");
  near_half.availability = AvailabilitySpec::Fixed(0.48);
  auto first = service->SubmitBatch(std::move(near_half));
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(first->availability, 0.5);

  BatchRequest other_side = MixedBatch("");
  other_side.availability = AvailabilitySpec::Fixed(0.52);
  auto second = service->SubmitBatch(std::move(other_side));
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(second->availability, 0.5);
  // Both sides of 0.5 land on one grid point — the second call is a hit.
  EXPECT_GE(service->stats().cache_hits, 1u);
}

TEST(SnapshotCacheFacade, DisabledCacheStillServesIdenticalReports) {
  ServiceConfig cached;
  cached.execution.worker_threads = 2;
  ServiceConfig uncached = cached;
  uncached.cache.snapshot_capacity = 0;

  auto a = Service::Create(TestCatalog(32, 0xFACADE05ull), cached);
  auto b = Service::Create(TestCatalog(32, 0xFACADE05ull), uncached);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  auto cached_report = a->SubmitBatch(MixedBatch("cache-toggle"));
  auto uncached_report = b->SubmitBatch(MixedBatch("cache-toggle"));
  ASSERT_TRUE(cached_report.ok());
  ASSERT_TRUE(uncached_report.ok());
  EXPECT_EQ(json::Dump(wire::Encode(*cached_report)),
            json::Dump(wire::Encode(*uncached_report)));
  EXPECT_EQ(b->stats().cache_hits, 0u);
}

}  // namespace
}  // namespace stratrec::api
