// The shard router's correctness anchor: a ShardRouter over {1, 2, 4}
// shards returns *byte-identical* reports to a single unsharded Service for
// the same request trace, at pool sizes {1, 4} — asserted on the wire-codec
// encoding (json::Dump(wire::Encode(report))), so every field, every
// double bit, and every ordering is covered. The trace exercises all three
// built-in batch algorithms, both aggregation modes, the custom-solver
// fallback ("weighted"), alternatives on and off, multiple ADPaR backends,
// in-band infeasibility (k > |S|), and whole-batch validation failures
// (k < 1), plus sweeps over the solver family. Further legs re-run the
// trace with replicas {1, 2, 3} per shard under injected replica failures,
// and with replicas {2, 3} under hedging: failover and hedged scans must
// preserve byte identity too.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "src/api/codec.h"
#include "src/api/service.h"
#include "src/common/fault.h"
#include "src/common/json.h"
#include "src/core/batch_scheduler.h"
#include "src/core/workforce.h"
#include "src/router/shard_router.h"

namespace stratrec {
namespace {

core::Catalog WideCatalog(int n = 10) {
  // Ten strategies by default, so the four-shard split is 3/3/2/2;
  // coefficients from a fixed seed, clamped into the normalized space by
  // EstimateParams.
  static const char* kStages[] = {
      "SIM-COL-CRO", "SIM-COL-HYB", "SIM-IND-CRO", "SIM-IND-HYB",
      "SEQ-COL-CRO", "SEQ-COL-HYB", "SEQ-IND-CRO", "SEQ-IND-HYB",
  };
  std::mt19937 rng(20200614);  // SIGMOD'20
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  core::Catalog catalog;
  for (int i = 0; i < n; ++i) {
    catalog.strategies.push_back(
        {"s" + std::to_string(i),
         core::ParseStageName(kStages[i % 8]).value()});
    core::StrategyProfile profile;
    profile.quality = {0.8 * unit(rng), 0.2 * unit(rng)};
    profile.cost = {0.9 * unit(rng), 0.1 * unit(rng)};
    profile.latency = {-0.6 * unit(rng), 0.3 + 0.5 * unit(rng)};
    catalog.profiles.push_back(profile);
  }
  return catalog;
}

std::vector<core::DeploymentRequest> MixedRequests() {
  // Thresholds straddle satisfiable and unsatisfiable so the alternatives
  // (ADPaR) leg runs; ks cover the skyband spread.
  return {
      {"d1", {0.40, 0.50, 0.60}, 1},
      {"d2", {0.90, 0.05, 0.10}, 2},  // near-impossible: drives alternatives
      {"d3", {0.30, 0.70, 0.80}, 3},
      {"d4", {0.85, 0.15, 0.20}, 4},
      {"d5", {0.10, 0.95, 0.99}, 2},
  };
}

/// One mixed trace; every request pins its id so reports are comparable
/// byte for byte.
std::vector<api::BatchRequest> BatchTrace() {
  std::vector<api::BatchRequest> trace;

  api::BatchRequest defaults;  // batchstrat, kSum, alternatives on
  defaults.requests = MixedRequests();
  defaults.availability = api::AvailabilitySpec::Fixed(0.8);
  defaults.request_id = "b-defaults";
  trace.push_back(defaults);

  api::BatchRequest baseline = defaults;
  baseline.algorithm = "baseline-g";
  baseline.aggregation = core::AggregationMode::kMax;
  baseline.availability = api::AvailabilitySpec::Fixed(0.55);
  baseline.request_id = "b-baseline-g";
  trace.push_back(baseline);

  api::BatchRequest brute = defaults;
  brute.algorithm = "brute-force";
  brute.availability = api::AvailabilitySpec::Fixed(0.37);
  brute.request_id = "b-brute";
  trace.push_back(brute);

  api::BatchRequest weighted = defaults;  // custom-solver fallback path
  weighted.algorithm = "weighted";
  weighted.request_id = "b-weighted";
  trace.push_back(weighted);

  api::BatchRequest no_alternatives = defaults;
  no_alternatives.recommend_alternatives = false;
  no_alternatives.aggregation = core::AggregationMode::kMax;
  no_alternatives.request_id = "b-no-alt";
  trace.push_back(no_alternatives);

  api::BatchRequest oversized = defaults;  // k > |S|: in-band infeasibility
  oversized.requests.push_back({"d-wide", {0.5, 0.5, 0.5}, 15});
  oversized.request_id = "b-oversized-k";
  trace.push_back(oversized);

  api::BatchRequest invalid = defaults;  // k < 1 fails the whole batch
  invalid.requests.push_back({"d-bad", {0.5, 0.5, 0.5}, 0});
  invalid.request_id = "b-invalid-k";
  trace.push_back(invalid);

  return trace;
}

std::vector<api::SweepRequest> SweepTrace() {
  std::vector<api::SweepRequest> trace;

  api::SweepRequest exact;  // default solver = "exact"
  exact.targets = {{"t1", {0.9, 0.1, 0.1}, 1},
                   {"t2", {0.5, 0.9, 0.9}, 2},
                   {"t3", {0.7, 0.3, 0.4}, 4},
                   {"t-zero", {0.5, 0.5, 0.5}, 0},    // per-cell invalid
                   {"t-wide", {0.5, 0.5, 0.5}, 20}};  // per-cell infeasible
  exact.availability = api::AvailabilitySpec::Fixed(0.66);
  exact.request_id = "s-exact";
  trace.push_back(exact);

  api::SweepRequest family = exact;
  family.solvers = {"exact", "paper-sweep", "baseline2", "baseline3"};
  family.availability = api::AvailabilitySpec::Fixed(0.41);
  family.request_id = "s-family";
  trace.push_back(family);

  return trace;
}

/// Runs the batch trace and flattens every outcome to comparable text:
/// the encoded report for OK, the status string otherwise.
template <typename Tier>
std::vector<std::string> RunBatches(const Tier& tier) {
  std::vector<std::string> out;
  for (const api::BatchRequest& request : BatchTrace()) {
    auto report = tier.SubmitBatch(request);
    out.push_back(report.ok() ? json::Dump(wire::Encode(*report))
                              : report.status().ToString());
  }
  return out;
}

/// RunBatches, then the sweep trace flattened the same way.
template <typename Tier>
std::vector<std::string> RunTrace(const Tier& tier) {
  std::vector<std::string> out = RunBatches(tier);
  for (const api::SweepRequest& request : SweepTrace()) {
    auto report = tier.RunSweep(request);
    out.push_back(report.ok() ? json::Dump(wire::Encode(*report))
                              : report.status().ToString());
  }
  return out;
}

TEST(RouterProperty, ShardedReportsAreByteIdenticalToUnsharded) {
  const core::Catalog catalog = WideCatalog();
  for (const size_t pool : {size_t{1}, size_t{4}}) {
    api::ServiceConfig config;
    config.execution.worker_threads = pool;
    config.cache.availability_quantum = 0.05;

    auto unsharded = api::Service::Create(catalog, config);
    ASSERT_TRUE(unsharded.ok()) << unsharded.status().ToString();
    const std::vector<std::string> expected = RunTrace(*unsharded);

    // Sanity on the trace itself: it exercises both outcome kinds.
    EXPECT_NE(expected[6].find("k must be >= 1"), std::string::npos)
        << "the invalid-k case should fail the whole batch";
    EXPECT_EQ(expected[0].rfind("{", 0), 0u);

    for (const size_t shards : {size_t{1}, size_t{2}, size_t{4}}) {
      RouterConfig router_config;
      router_config.shards = shards;
      router_config.service = config;
      auto router = ShardRouter::Create(catalog, router_config);
      ASSERT_TRUE(router.ok()) << router.status().ToString();
      EXPECT_EQ(router->shards(), shards);

      const std::vector<std::string> actual = RunTrace(*router);
      ASSERT_EQ(actual.size(), expected.size());
      for (size_t i = 0; i < expected.size(); ++i) {
        EXPECT_EQ(actual[i], expected[i])
            << "trace case " << i << " diverged at shards=" << shards
            << " pool=" << pool;
      }
    }
  }
}

// Replication must not bend the anchor: with R replicas per shard and
// injected replica failures forcing failover on every dispatch to a dead
// replica, reports stay byte-identical to the unsharded Service. The
// injected sites kill all-but-one replica per shard, so failover always
// lands on a live copy and the property is exact, not probabilistic.
TEST(RouterProperty, ReplicatedFailoverPreservesByteIdentity) {
  const core::Catalog catalog = WideCatalog();
  for (const size_t pool : {size_t{1}, size_t{4}}) {
    api::ServiceConfig config;
    config.execution.worker_threads = pool;
    config.cache.availability_quantum = 0.05;

    auto unsharded = api::Service::Create(catalog, config);
    ASSERT_TRUE(unsharded.ok()) << unsharded.status().ToString();
    const std::vector<std::string> expected = RunTrace(*unsharded);

    for (const size_t replicas : {size_t{1}, size_t{2}, size_t{3}}) {
      // Dead-replica sites (rate 1.0), leaving exactly one live replica
      // per shard; replicas == 1 runs fault-free as the control.
      fault::FaultConfig faults;
      faults.seed = 0xFA11 + replicas;
      if (replicas == 2) {
        faults.sites.emplace_back(fault::ReplicaSiteName(0, 0),
                                  fault::SiteSpec{1.0, 0.0});
        faults.sites.emplace_back(fault::ReplicaSiteName(1, 1),
                                  fault::SiteSpec{1.0, 0.0});
      } else if (replicas == 3) {
        faults.sites.emplace_back(fault::ReplicaSiteName(0, 0),
                                  fault::SiteSpec{1.0, 0.0});
        faults.sites.emplace_back(fault::ReplicaSiteName(0, 1),
                                  fault::SiteSpec{1.0, 0.0});
        faults.sites.emplace_back(fault::ReplicaSiteName(1, 2),
                                  fault::SiteSpec{1.0, 0.0});
      }
      std::shared_ptr<fault::FaultPlan> plan;
      if (replicas > 1) {
        plan = fault::InstallGlobalFaultPlan(std::move(faults));
      } else {
        fault::ClearGlobalFaultPlan();
      }

      RouterConfig router_config;
      router_config.shards = 2;
      router_config.replicas = replicas;
      router_config.replica_seed = 0x51EC;
      router_config.service = config;
      auto router = ShardRouter::Create(catalog, router_config);
      ASSERT_TRUE(router.ok()) << router.status().ToString();
      EXPECT_EQ(router->replicas(), replicas);

      const std::vector<std::string> actual = RunTrace(*router);
      fault::ClearGlobalFaultPlan();
      ASSERT_EQ(actual.size(), expected.size());
      for (size_t i = 0; i < expected.size(); ++i) {
        EXPECT_EQ(actual[i], expected[i])
            << "trace case " << i << " diverged at replicas=" << replicas
            << " pool=" << pool;
      }
      if (replicas > 1) {
        // Dispatches that picked a dead replica must have failed over, and
        // none of the injected failures may leak into reported outcomes.
        EXPECT_GT(router->stats().failovers, 0u)
            << "replicas=" << replicas << " pool=" << pool;
        ASSERT_NE(plan, nullptr);
        EXPECT_GT(plan->TotalInjected(), 0u);
      }
    }
  }
}

// Hedging must not bend the anchor either. With a 1 ns hedge timeout, a
// first attempt not already finished when its gather starts gets a
// duplicate scan on the next replica, and the shard takes whichever
// finishes first. At 20,000 strategies a range scan far outlasts the
// dispatch of the other shard, so hedges launch. Sweeps scan no shards, so
// the trace is the batches. The router is dropped right after the last
// Wait(), so the losing scans still running drain in its teardown. The
// last batch skips alternatives: its selection ends right after the
// primary scans, so its losing hedges are still scanning at the drop. A
// teardown that freed the index before the replica pools fails here under
// ASan.
TEST(RouterProperty, HedgedScansPreserveByteIdentity) {
  fault::ClearGlobalFaultPlan();
  const core::Catalog catalog = WideCatalog(20'000);
  for (const size_t pool : {size_t{1}, size_t{4}}) {
    api::ServiceConfig config;
    config.execution.worker_threads = pool;

    auto unsharded = api::Service::Create(catalog, config);
    ASSERT_TRUE(unsharded.ok()) << unsharded.status().ToString();
    const std::vector<std::string> expected = RunBatches(*unsharded);

    for (const size_t replicas : {size_t{2}, size_t{3}}) {
      std::vector<std::string> actual;
      {
        RouterConfig router_config;
        router_config.shards = 2;
        router_config.replicas = replicas;
        router_config.replica_seed = 0x4ED6E;
        router_config.hedge_after_ms = 1e-6;
        router_config.service = config;
        auto router = ShardRouter::Create(catalog, router_config);
        ASSERT_TRUE(router.ok()) << router.status().ToString();
        actual = RunBatches(*router);
        EXPECT_EQ(router->stats().failovers, 0u);
        api::BatchRequest last = BatchTrace().front();
        last.recommend_alternatives = false;
        ASSERT_TRUE(router->SubmitBatch(last).ok());
      }
      ASSERT_EQ(actual.size(), expected.size());
      for (size_t i = 0; i < expected.size(); ++i) {
        EXPECT_EQ(actual[i], expected[i])
            << "trace case " << i << " diverged at replicas=" << replicas
            << " pool=" << pool;
      }
    }
  }
}

/// The first strategy of every shard when `n` strategies split into
/// `shards` the way ShardRouter::Create splits them (sizes differing by at
/// most one, larger shards first); element `shards` is n.
std::vector<size_t> ShardOffsets(size_t n, size_t shards) {
  std::vector<size_t> offsets(shards + 1, 0);
  for (size_t s = 0; s < shards; ++s) {
    offsets[s + 1] = offsets[s] + n / shards + (s < n % shards ? 1 : 0);
  }
  return offsets;
}

/// `n` strategies over 7 base profiles. Strategy j takes base profile
/// (j - number of split points <= j) mod 7, so every split point sits
/// between two copies of one profile, and every profile recurs in every
/// shard and chunk: requirements and parameters tie across every edge.
/// The split points are the shard edges for every count in
/// `shard_counts`, plus, when `chunk_edges` is set, every PriceRows chunk
/// edge inside each of those shards.
core::Catalog TiedCatalog(size_t n, const std::vector<size_t>& shard_counts,
                          bool chunk_edges) {
  std::vector<size_t> splits;
  for (const size_t shards : shard_counts) {
    const std::vector<size_t> offsets = ShardOffsets(n, shards);
    for (size_t s = 0; s < shards; ++s) {
      if (s > 0) splits.push_back(offsets[s]);
      if (!chunk_edges) continue;
      for (size_t edge = offsets[s] + core::kPriceChunk;
           edge < offsets[s + 1]; edge += core::kPriceChunk) {
        splits.push_back(edge);
      }
    }
  }
  std::sort(splits.begin(), splits.end());
  splits.erase(std::unique(splits.begin(), splits.end()), splits.end());
  const core::Catalog base = WideCatalog();
  core::Catalog catalog;
  for (size_t j = 0; j < n; ++j) {
    const size_t before = static_cast<size_t>(
        std::upper_bound(splits.begin(), splits.end(), j) - splits.begin());
    const size_t p = (j - before) % 7;
    catalog.strategies.emplace_back("s" + std::to_string(j),
                                    base.strategies[p].stages());
    catalog.profiles.push_back(base.profiles[p]);
  }
  return catalog;
}

/// The batch stage of `report` recomputed from the dense matrix: each
/// row's KBestStrategies and AggregateRequirement, then the selection half
/// of the solve.
Result<core::BatchResult> DenseOracle(const core::Catalog& catalog,
                                      const api::BatchRequest& batch,
                                      const api::BatchReport& report) {
  const auto dense =
      core::WorkforceMatrix::Compute(batch.requests, catalog.profiles);
  core::BatchOptions options;
  options.aggregation = *batch.aggregation;
  std::vector<core::AggregatedRequest> aggregated(batch.requests.size());
  for (size_t i = 0; i < batch.requests.size(); ++i) {
    const int k = batch.requests[i].k;
    auto requirement = dense.AggregateRequirement(i, k, options.aggregation);
    auto strategies = dense.KBestStrategies(i, k);
    if (!requirement.ok() || !strategies.ok()) continue;
    aggregated[i] = {true, *requirement, std::move(*strategies)};
  }
  return core::SolveBatchAggregated(batch.requests, aggregated,
                                    report.availability, options,
                                    core::BatchAlgorithm::kBatchStrat);
}

// The global tie rules under maximal ties: row merges break requirement
// ties by global index, and alternatives and sweeps must pick the same
// covered strategies among identical copies, at every shard count. The
// second catalog gives every shard three or more PriceRows chunks with
// copies of one profile on both sides of every chunk and shard edge, and
// one request whose k-best list runs across chunk edges, so both merge
// tiers (chunks within a shard, then shards) order ties; its batches are
// also checked against the dense-matrix oracle.
TEST(RouterProperty, TiesAcrossShardBoundariesAreByteIdentical) {
  // 3 * 8,225 strategies: every shard of a 1-, 2- or 3-way split is wider
  // than two chunks.
  constexpr size_t kChunked = 3 * (2 * core::kPriceChunk + 33);
  struct Input {
    core::Catalog catalog;
    std::vector<size_t> shard_counts;
    std::vector<core::DeploymentRequest> extra_requests;
    bool sweep;  // the sweep solvers are too slow for the wide catalog
  };
  const Input inputs[] = {
      {TiedCatalog(60, {2, 3, 4, 5}, false), {1, 2, 3, 4, 5}, {}, true},
      {TiedCatalog(kChunked, {1, 2, 3}, true),
       {1, 2, 3},
       {{"d9", {0.10, 0.95, 0.99}, static_cast<int>(core::kPriceChunk) + 5}},
       false}};
  for (const Input& input : inputs) {
    const core::Catalog& catalog = input.catalog;
    std::vector<api::BatchRequest> batches;
    for (const core::AggregationMode mode :
         {core::AggregationMode::kSum, core::AggregationMode::kMax}) {
      api::BatchRequest batch;
      batch.requests = MixedRequests();
      batch.requests.push_back({"d6", {0.30, 0.80, 0.90}, 9});
      batch.requests.push_back({"d7", {0.20, 0.90, 0.95}, 13});
      // Served at zero workforce by most strategies: its k-best list is the
      // lowest global indices among ties spanning every shard.
      batch.requests.push_back({"d8", {0.10, 0.95, 0.99}, 13});
      batch.requests.insert(batch.requests.end(),
                            input.extra_requests.begin(),
                            input.extra_requests.end());
      batch.aggregation = mode;
      batch.availability = api::AvailabilitySpec::Fixed(0.6);
      batch.request_id =
          mode == core::AggregationMode::kSum ? "b-tie-sum" : "b-tie-max";
      batches.push_back(batch);
    }
    api::SweepRequest sweep;
    sweep.targets = {{"t1", {0.9, 0.1, 0.1}, 1},
                     {"t2", {0.5, 0.9, 0.9}, 2},
                     {"t3", {0.7, 0.3, 0.4}, 6},
                     {"t4", {0.95, 0.05, 0.05}, 12}};
    sweep.solvers = {"exact", "paper-sweep", "baseline2"};
    sweep.availability = api::AvailabilitySpec::Fixed(0.6);
    sweep.request_id = "s-tie";

    auto run = [&](const auto& tier) {
      std::vector<std::string> out;
      for (const api::BatchRequest& batch : batches) {
        auto report = tier.SubmitBatch(batch);
        out.push_back(report.ok() ? json::Dump(wire::Encode(*report))
                                  : report.status().ToString());
      }
      if (input.sweep) {
        auto report = tier.RunSweep(sweep);
        out.push_back(report.ok() ? json::Dump(wire::Encode(*report))
                                  : report.status().ToString());
      }
      return out;
    };

    for (const size_t pool : {size_t{1}, size_t{4}}) {
      api::ServiceConfig config;
      config.execution.worker_threads = pool;
      auto unsharded = api::Service::Create(catalog, config);
      ASSERT_TRUE(unsharded.ok()) << unsharded.status().ToString();
      const std::vector<std::string> expected = run(*unsharded);
      for (const std::string& report : expected) {
        ASSERT_EQ(report.rfind("{", 0), 0u) << report;
      }
      // The trace must reach ADPaR, or the alternatives leg goes untested.
      EXPECT_NE(expected[0].find("\"alternatives\":[{"), std::string::npos);
      for (const api::BatchRequest& batch : batches) {
        auto report = unsharded->SubmitBatch(batch);
        ASSERT_TRUE(report.ok()) << report.status().ToString();
        auto oracle = DenseOracle(catalog, batch, *report);
        ASSERT_TRUE(oracle.ok()) << oracle.status().ToString();
        EXPECT_EQ(*oracle, report->result.aggregator.batch)
            << batch.request_id << " |S|=" << catalog.profiles.size()
            << " pool=" << pool;
        if (!input.extra_requests.empty()) {
          // The wide request is served, so its list spans chunk edges.
          EXPECT_EQ(report->result.aggregator.batch.outcomes.back()
                        .strategies.size(),
                    core::kPriceChunk + 5);
        }
      }

      for (const size_t shards : input.shard_counts) {
        RouterConfig router_config;
        router_config.shards = shards;
        router_config.service = config;
        auto router = ShardRouter::Create(catalog, router_config);
        ASSERT_TRUE(router.ok()) << router.status().ToString();
        const std::vector<std::string> actual = run(*router);
        ASSERT_EQ(actual.size(), expected.size());
        for (size_t i = 0; i < expected.size(); ++i) {
          EXPECT_EQ(actual[i], expected[i])
              << "case " << i << " diverged at |S|="
              << catalog.profiles.size() << " shards=" << shards
              << " pool=" << pool;
        }
      }
    }
  }
}

TEST(RouterProperty, RouterCountsItsOwnTraffic) {
  RouterConfig config;
  config.shards = 2;
  config.service.execution.worker_threads = 2;
  auto router = ShardRouter::Create(WideCatalog(), config);
  ASSERT_TRUE(router.ok()) << router.status().ToString();
  auto service = api::Service::Create(WideCatalog(), config.service);
  ASSERT_TRUE(service.ok()) << service.status().ToString();

  api::BatchRequest batch;
  batch.requests = MixedRequests();
  batch.availability = api::AvailabilitySpec::Fixed(0.8);
  ASSERT_TRUE(router->SubmitBatch(batch).ok());
  ASSERT_TRUE(service->SubmitBatch(batch).ok());

  api::SweepRequest sweep;
  sweep.targets = {{"t1", {0.9, 0.1, 0.1}, 1}};
  sweep.availability = api::AvailabilitySpec::Fixed(0.8);
  ASSERT_TRUE(router->RunSweep(sweep).ok());
  ASSERT_TRUE(service->RunSweep(sweep).ok());

  // The mixed trace adds failing batches and sweep cells, and both tiers
  // count the same traffic.
  RunTrace(*router);
  RunTrace(*service);

  const api::ServiceStats stats = router->stats();
  EXPECT_EQ(stats.batches, 1u + BatchTrace().size() - 1);  // b-invalid-k fails
  EXPECT_EQ(stats.sweeps, 1u + SweepTrace().size());
  // The alternatives batch and the sweep each look up the router's cache.
  EXPECT_GT(stats.cache_hits + stats.cache_misses, 0u);

  // Every counter matches the unsharded Service's. The gauges a tier
  // samples at stats() time are its own: pool depth and activity, the
  // executors' steal and local-hit counts, and the index build time.
  const api::ServiceStats expected = service->stats();
  const std::vector<std::string> gauges = {"queue_depth", "active_workers",
                                           "steals", "local_hits",
                                           "index_build_nanos"};
  for (const api::StatsCounter& counter : api::kStatsCounters) {
    if (std::find(gauges.begin(), gauges.end(), counter.name) !=
        gauges.end()) {
      continue;
    }
    EXPECT_EQ(stats.*counter.member, expected.*counter.member) << counter.name;
  }
  EXPECT_EQ(stats.kernel_dispatch, expected.kernel_dispatch);
}

TEST(RouterProperty, ServiceAssignedIdsMatchTheUnshardedFormat) {
  RouterConfig config;
  config.shards = 2;
  auto router = ShardRouter::Create(WideCatalog(), config);
  ASSERT_TRUE(router.ok());
  api::BatchRequest batch;
  batch.requests = MixedRequests();
  batch.availability = api::AvailabilitySpec::Fixed(0.8);
  auto report = router->SubmitBatch(batch);
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->request_id, "batch-000001");
}

TEST(RouterProperty, CreateRejectsDegenerateShapes) {
  RouterConfig config;
  config.shards = 0;
  EXPECT_EQ(ShardRouter::Create(WideCatalog(), config).status().code(),
            StatusCode::kInvalidArgument);
  config.shards = 11;  // one more than the catalog holds
  EXPECT_EQ(ShardRouter::Create(WideCatalog(), config).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(RouterProperty, AvailabilityModelsResolveOnTheRouter) {
  RouterConfig config;
  config.shards = 3;
  auto router = ShardRouter::Create(WideCatalog(), config);
  ASSERT_TRUE(router.ok());
  auto night = core::AvailabilityModel::FromPmf({{0.35, 1.0}});
  ASSERT_TRUE(night.ok());
  ASSERT_TRUE(router->RegisterAvailabilityModel("night-shift", *night).ok());
  EXPECT_EQ(router->RegisterAvailabilityModel("night-shift", *night).code(),
            StatusCode::kFailedPrecondition);

  api::BatchRequest batch;
  batch.requests = MixedRequests();
  batch.availability = api::AvailabilitySpec::Named("night-shift");
  auto report = router->SubmitBatch(batch);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_DOUBLE_EQ(report->availability, 0.35);

  batch.availability = api::AvailabilitySpec::Named("missing");
  EXPECT_EQ(router->SubmitBatch(batch).status().code(), StatusCode::kNotFound);
}

}  // namespace
}  // namespace stratrec
