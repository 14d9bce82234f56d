// Figure 18: scalability (running time) —
//   (a) batch deployment varying m: BruteForce (exponential) vs BatchStrat
//       (near-linear; the paper reports < 1 s for millions of strategies),
//   (b) ADPaR-Exact varying |S|,
//   (c) ADPaR-Exact varying k.
// Implemented with google-benchmark; times are wall-clock per solve. The
// batch panels go through stratrec::Service so the measured path is the one
// production callers take (facade + registry dispatch included). The
// supporting micro-benchmarks time the dense m x |S| workforce matrix
// (fill only) against core::PriceRows, the fused pricer production calls
// (fill plus each row's k-best), at the same sizes and pool sizes, and
// PriceRows alone in the perfbench 1M batch shape, on a paper-sign catalog
// and on a mixed-sign one.
#include <benchmark/benchmark.h>

#include "src/api/catalog.h"
#include "src/api/service.h"
#include "src/common/executor.h"
#include "src/core/adpar.h"
#include "src/core/catalog_index.h"
#include "src/core/workforce.h"
#include "src/workload/generators.h"

namespace {

namespace api = stratrec::api;
namespace core = stratrec::core;
namespace workload = stratrec::workload;

api::BatchRequest MakeBatch(workload::Generator* generator, int m,
                            const char* algorithm) {
  api::BatchRequest batch;
  batch.requests = generator->RequestsWithRanges(m, 10, {0.50, 0.75},
                                                 {0.70, 1.0}, {0.70, 1.0});
  batch.availability = api::AvailabilitySpec::Fixed(0.5);
  batch.aggregation = core::AggregationMode::kMax;
  batch.recommend_alternatives = false;
  batch.algorithm = algorithm;
  return batch;
}

// --- (a) Batch deployment varying m ---------------------------------------

void BM_BatchStrat_VaryM(benchmark::State& state) {
  const int m = static_cast<int>(state.range(0));
  workload::Generator generator({}, 0xF16'18ull);
  auto service = stratrec::Service::Create(
      api::CatalogFromProfiles(generator.Profiles(30)));
  const auto batch = MakeBatch(&generator, m, "batchstrat");
  for (auto _ : state) {
    auto result = service->SubmitBatch(batch);
    benchmark::DoNotOptimize(result);
  }
}
BENCHMARK(BM_BatchStrat_VaryM)->Arg(200)->Arg(400)->Arg(600)->Arg(800)
    ->Unit(benchmark::kMillisecond);

void BM_BatchStratMillionStrategies(benchmark::State& state) {
  // The paper's headline: "BatchStrat ... takes less than a second to handle
  // millions of strategies".
  workload::Generator generator({}, 0xF16'18ull + 1);
  auto service = stratrec::Service::Create(
      api::CatalogFromProfiles(generator.Profiles(1'000'000)));
  const auto batch = MakeBatch(&generator, 10, "batchstrat");
  for (auto _ : state) {
    auto result = service->SubmitBatch(batch);
    benchmark::DoNotOptimize(result);
  }
}
BENCHMARK(BM_BatchStratMillionStrategies)->Unit(benchmark::kMillisecond);

void BM_BruteForceBatch_VaryM(benchmark::State& state) {
  const int m = static_cast<int>(state.range(0));
  workload::Generator generator({}, 0xF16'18ull + 2);
  auto service = stratrec::Service::Create(
      api::CatalogFromProfiles(generator.Profiles(30)));
  const auto batch = MakeBatch(&generator, m, "brute-force");
  for (auto _ : state) {
    auto result = service->SubmitBatch(batch);
    benchmark::DoNotOptimize(result);
  }
}
BENCHMARK(BM_BruteForceBatch_VaryM)->DenseRange(5, 20, 5)
    ->Unit(benchmark::kMillisecond);

// --- (a') Stream sessions: events/second through the facade ---------------

void BM_StreamSession_Arrivals(benchmark::State& state) {
  workload::Generator generator({}, 0xF16'18ull + 6);
  api::ServiceConfig config;
  config.batch.aggregation = core::AggregationMode::kMax;
  config.availability = api::AvailabilitySpec::Fixed(0.7);
  auto service = stratrec::Service::Create(
      api::CatalogFromProfiles(generator.Profiles(100)), config);
  auto requests = generator.RequestsWithRanges(256, 2, {0.50, 0.75},
                                               {0.70, 1.0}, {0.70, 1.0});
  auto session = service->OpenStream();
  uint64_t counter = 0;
  for (auto _ : state) {
    auto& request = requests[counter % requests.size()];
    request.id = "req-" + std::to_string(counter++);
    auto decision = session->Arrive(request);
    benchmark::DoNotOptimize(decision);
    if (decision.ok() &&
        decision->kind == core::AdmissionDecision::Kind::kAdmitted) {
      (void)session->Complete(request.id);
    }
  }
  state.SetItemsProcessed(static_cast<int64_t>(counter));
}
BENCHMARK(BM_StreamSession_Arrivals)->Unit(benchmark::kMicrosecond);

// --- (b) ADPaR-Exact varying |S| -------------------------------------------

void BM_AdparExact_VaryS(benchmark::State& state) {
  const int num_s = static_cast<int>(state.range(0));
  workload::Generator generator({}, 0xF16'18ull + 3);
  const auto strategies = generator.StrategyParams(num_s);
  const core::ParamVector d{0.9, 0.2, 0.2};
  for (auto _ : state) {
    auto result = core::AdparExact(strategies, d, 5);
    benchmark::DoNotOptimize(result);
  }
}
BENCHMARK(BM_AdparExact_VaryS)->Arg(1000)->Arg(5000)->Arg(25000)
    ->Unit(benchmark::kMillisecond);

// --- (c) ADPaR-Exact varying k ----------------------------------------------

void BM_AdparExact_VaryK(benchmark::State& state) {
  const int k = static_cast<int>(state.range(0));
  workload::Generator generator({}, 0xF16'18ull + 4);
  const auto strategies = generator.StrategyParams(10000);
  const core::ParamVector d{0.9, 0.2, 0.2};
  for (auto _ : state) {
    auto result = core::AdparExact(strategies, d, k);
    benchmark::DoNotOptimize(result);
  }
}
BENCHMARK(BM_AdparExact_VaryK)->Arg(10)->Arg(50)->Arg(250)
    ->Unit(benchmark::kMillisecond);

// --- Supporting micro-benchmarks --------------------------------------------

void BM_WorkforceMatrix(benchmark::State& state) {
  const int num_s = static_cast<int>(state.range(0));
  workload::Generator generator({}, 0xF16'18ull + 5);
  const auto profiles = generator.Profiles(num_s);
  const auto requests = generator.Requests(10, 10);
  for (auto _ : state) {
    auto matrix = core::WorkforceMatrix::Compute(
        requests, profiles, core::WorkforcePolicy::kMinimalWorkforce);
    benchmark::DoNotOptimize(matrix);
  }
}
BENCHMARK(BM_WorkforceMatrix)->Arg(1000)->Arg(100000)
    ->Unit(benchmark::kMillisecond);

void BM_WorkforceMatrixParallel(benchmark::State& state) {
  // The m x |S| matrix partitioned across an executor pool; compare against
  // BM_WorkforceMatrix/100000 for the threading win on this machine.
  const int num_s = 100000;
  stratrec::Executor executor(static_cast<size_t>(state.range(0)));
  workload::Generator generator({}, 0xF16'18ull + 5);
  const auto profiles = generator.Profiles(num_s);
  const auto requests = generator.Requests(10, 10);
  for (auto _ : state) {
    auto matrix = core::WorkforceMatrix::Compute(
        requests, profiles, core::WorkforcePolicy::kMinimalWorkforce,
        &executor, /*grain=*/4096);
    benchmark::DoNotOptimize(matrix);
  }
}
BENCHMARK(BM_WorkforceMatrixParallel)->Arg(2)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond);

void BM_PriceRows(benchmark::State& state) {
  // The production pricer on the BM_WorkforceMatrix inputs: the same rows
  // the matrix's TopStrategies folds, without materializing the matrix.
  const int num_s = static_cast<int>(state.range(0));
  workload::Generator generator({}, 0xF16'18ull + 5);
  const auto index = core::CatalogIndex::Build(generator.Profiles(num_s));
  const auto requests = generator.Requests(10, 10);
  for (auto _ : state) {
    auto rows = core::PriceRows(requests, index, 0, index.size(),
                                core::WorkforcePolicy::kMinimalWorkforce);
    benchmark::DoNotOptimize(rows);
  }
}
BENCHMARK(BM_PriceRows)->Arg(1000)->Arg(100000)
    ->Unit(benchmark::kMillisecond);

/// The perfbench http-batch-1m-sharded batch shape: 8 requests, k = 6, its
/// threshold ranges.
std::vector<core::DeploymentRequest> PerfbenchBatch(
    workload::Generator* generator) {
  return generator->RequestsWithRanges(8, 6, {0.50, 0.80}, {0.60, 1.0},
                                       {0.60, 1.0});
}

void BM_PriceRowsPerfbenchShape(benchmark::State& state) {
  // Every generator strategy has the paper's slope signs (quality and cost
  // rise with availability, latency falls), so the AVX2 kernel takes its
  // short path on every 4-lane group.
  const int num_s = static_cast<int>(state.range(0));
  workload::Generator generator({}, 0xF16'18ull + 7);
  const auto index = core::CatalogIndex::Build(generator.Profiles(num_s));
  const auto requests = PerfbenchBatch(&generator);
  for (auto _ : state) {
    auto rows = core::PriceRows(requests, index, 0, index.size(),
                                core::WorkforcePolicy::kMinimalWorkforce);
    benchmark::DoNotOptimize(rows);
  }
}
BENCHMARK(BM_PriceRowsPerfbenchShape)->Arg(100000)->Arg(1000000)
    ->Unit(benchmark::kMillisecond);

void BM_PriceRowsMixedSigns(benchmark::State& state) {
  // The same shape with every other latency slope flipped: no 4-lane group
  // has the paper's signs, so the AVX2 kernel runs its general chain.
  const int num_s = static_cast<int>(state.range(0));
  workload::Generator generator({}, 0xF16'18ull + 7);
  auto profiles = generator.Profiles(num_s);
  for (size_t j = 1; j < profiles.size(); j += 2) {
    profiles[j].latency.alpha = -profiles[j].latency.alpha;
  }
  const auto index = core::CatalogIndex::Build(profiles);
  const auto requests = PerfbenchBatch(&generator);
  for (auto _ : state) {
    auto rows = core::PriceRows(requests, index, 0, index.size(),
                                core::WorkforcePolicy::kMinimalWorkforce);
    benchmark::DoNotOptimize(rows);
  }
}
BENCHMARK(BM_PriceRowsMixedSigns)->Arg(100000)
    ->Unit(benchmark::kMillisecond);

void BM_PriceRowsParallel(benchmark::State& state) {
  // PriceRows partitioned across an executor pool; compare against
  // BM_WorkforceMatrixParallel at the same pool size.
  const int num_s = 100000;
  stratrec::Executor executor(static_cast<size_t>(state.range(0)));
  workload::Generator generator({}, 0xF16'18ull + 5);
  const auto index = core::CatalogIndex::Build(generator.Profiles(num_s));
  const auto requests = generator.Requests(10, 10);
  for (auto _ : state) {
    auto rows = core::PriceRows(requests, index, 0, index.size(),
                                core::WorkforcePolicy::kMinimalWorkforce,
                                &executor, /*grain=*/4096);
    benchmark::DoNotOptimize(rows);
  }
}
BENCHMARK(BM_PriceRowsParallel)->Arg(2)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
