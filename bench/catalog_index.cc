// CatalogIndex micro-benchmark: the repeated-availability batch workload.
//
// A platform in steady state serves batch after batch at the same expected
// availability W. Everything that depends only on the catalog (the SoA
// index) or on (catalog, W) (the snapshot: the estimated parameter block,
// ADPaR's sorted orderings and skyline pruning tables) is per-batch work
// on the unindexed path and one-time work on the indexed one: the
// unindexed leg's pricer builds an index from the profile list on each
// call, and with no snapshot source its ADPaR leg builds one snapshot per
// batch; the indexed leg's source returns one prebuilt snapshot. This
// driver times
// the full StratRec pipeline both ways over identical batches (reports are
// bit-identical by construction — the property tests in
// tests/catalog_index_test.cc pin that) and records the throughput ratio
// at |S| in {10k, 100k, 1M} as JSON.
//
// The workload mirrors the paper's Figure 18 setup (m = 10 requests per
// batch, k = 10) with thresholds tuned so requests are *capacity-blocked*:
// parameter-feasible at W but unservable within the workforce budget, so
// every batch exercises the ADPaR leg — the regime where the per-batch
// O(|S| log |S|) snapshot build dominates the unindexed path.
//
// The indexed leg is timed twice — once with kernel dispatch forced to
// scalar, once at the active level — so one run measures the SIMD win on the
// same workload (simd_speedup in the JSON; ~1.0 on non-AVX2 hosts where the
// active level *is* scalar).
//
// Usage: bench_catalog_index [sizes_csv] [batches] [requests_per_batch]
//                            [mode] [output_path]
//        (defaults: 10000,100000,1000000  8  10  full  catalog_index.json)
//        mode "indexed-only" skips the unindexed leg (whose 1M run costs
//        ~14 s on a 4-thread x86-64 box) — the CI dispatch assertion uses
//        it.
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "src/api/catalog.h"
#include "src/common/ascii_table.h"
#include "src/core/catalog_index.h"
#include "src/core/kernels/kernels.h"
#include "src/core/stratrec.h"
#include "src/core/workforce.h"
#include "src/workload/generators.h"

namespace {

namespace core = stratrec::core;
namespace workload = stratrec::workload;

constexpr double kAvailability = 0.50;

struct LegResult {
  double seconds = 0.0;
  double batches_per_sec = 0.0;
  size_t alternatives = 0;
};

struct SizeResult {
  size_t strategies = 0;
  size_t batches = 0;
  size_t requests_per_batch = 0;
  LegResult unindexed;
  LegResult indexed;         // active kernel dispatch
  LegResult indexed_scalar;  // kernel dispatch forced to scalar
  double speedup = 0.0;       // unindexed vs indexed (active dispatch)
  double simd_speedup = 0.0;  // indexed scalar vs indexed active
  double snapshot_build_seconds = 0.0;
  uint64_t index_build_nanos = 0;
};

std::vector<size_t> ParseSizes(const char* arg) {
  std::vector<size_t> sizes;
  const std::string csv = arg;
  size_t pos = 0;
  while (pos < csv.size()) {
    size_t next = csv.find(',', pos);
    if (next == std::string::npos) next = csv.size();
    sizes.push_back(std::strtoull(csv.substr(pos, next - pos).c_str(),
                                  nullptr, 10));
    pos = next + 1;
  }
  return sizes;
}

LegResult RunLeg(const core::StratRec& stratrec,
                 const std::vector<std::vector<core::DeploymentRequest>>& batches,
                 const core::StratRecOptions& options) {
  // One untimed warm-up batch: first-touch effects, plus the lazy index /
  // snapshot-ordering builds on the indexed leg (the steady-state regime
  // this bench measures is "per-W state already resident").
  auto warmup = stratrec.ProcessBatchAtAvailability(batches.front(),
                                                    kAvailability, options);
  if (!warmup.ok()) {
    std::fprintf(stderr, "warm-up batch failed: %s\n",
                 warmup.status().ToString().c_str());
    std::exit(1);
  }

  LegResult leg;
  const auto start = std::chrono::steady_clock::now();
  for (const auto& requests : batches) {
    auto report =
        stratrec.ProcessBatchAtAvailability(requests, kAvailability, options);
    if (!report.ok()) {
      std::fprintf(stderr, "batch failed: %s\n",
                   report.status().ToString().c_str());
      std::exit(1);
    }
    leg.alternatives += report->alternatives.size();
  }
  leg.seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  leg.batches_per_sec =
      leg.seconds > 0.0 ? static_cast<double>(batches.size()) / leg.seconds
                        : 0.0;
  return leg;
}

SizeResult RunSize(size_t num_strategies, size_t num_batches,
                   size_t requests_per_batch, bool indexed_only) {
  workload::Generator generator({}, 0xCA7A'0106ull);
  const auto profiles =
      generator.Profiles(static_cast<int>(num_strategies));
  auto stratrec = core::StratRec::Create(
      stratrec::api::CatalogFromProfiles(profiles).strategies, profiles);
  if (!stratrec.ok()) {
    std::fprintf(stderr, "catalog setup failed: %s\n",
                 stratrec.status().ToString().c_str());
    std::exit(1);
  }

  // Capacity-blocked requests: quality demands above what any strategy
  // delivers at w = 0 (so per-request workforce requirements are bounded
  // away from zero and the k-sum exceeds W), budgets generous enough that
  // >= k strategies still satisfy the thresholds at params(W) — ADPaR then
  // certifies each unserved request with a (near-)zero-distance
  // alternative, the fast early-exit regime.
  std::vector<std::vector<core::DeploymentRequest>> batches(num_batches);
  for (auto& requests : batches) {
    requests = generator.RequestsWithRanges(
        static_cast<int>(requests_per_batch), /*k=*/10,
        /*quality=*/{0.75, 0.80}, /*cost=*/{0.90, 1.0},
        /*latency=*/{1.0, 1.0});
  }

  SizeResult result;
  result.strategies = num_strategies;
  result.batches = num_batches;
  result.requests_per_batch = requests_per_batch;

  core::StratRecOptions unindexed;
  unindexed.batch.aggregation = core::AggregationMode::kSum;
  unindexed.batch.pricer =
      [&profiles](const std::vector<core::DeploymentRequest>& requests,
                  core::WorkforcePolicy policy)
      -> stratrec::Result<std::vector<core::RowTopK>> {
    const core::CatalogIndex per_call = core::CatalogIndex::Build(profiles);
    return core::PriceRows(requests, per_call, 0, per_call.size(), policy);
  };
  if (!indexed_only) {
    result.unindexed = RunLeg(*stratrec, batches, unindexed);
  }

  core::StratRecOptions indexed;
  indexed.batch.aggregation = core::AggregationMode::kSum;
  const auto snapshot_start = std::chrono::steady_clock::now();
  auto snapshot = stratrec->index().BuildSnapshot(kAvailability);
  snapshot->orderings();  // force the lazy ADPaR block for the timing
  result.snapshot_build_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    snapshot_start)
          .count();
  indexed.snapshot = [prebuilt = snapshot](double) { return prebuilt; };
  // Scalar-forced leg first, then the active dispatch level on the same
  // batches; the snapshot's derived state is shared (bit-identical under
  // both levels), so only the per-batch kernels differ.
  stratrec::core::kernels::Configure(
      {stratrec::core::kernels::DispatchLevel::kScalar});
  result.indexed_scalar = RunLeg(*stratrec, batches, indexed);
  stratrec::core::kernels::Configure({});  // restore startup resolution
  result.indexed = RunLeg(*stratrec, batches, indexed);
  result.index_build_nanos = stratrec->index_build_nanos();

  if (result.indexed.alternatives != result.indexed_scalar.alternatives ||
      (!indexed_only &&
       result.indexed.alternatives != result.unindexed.alternatives)) {
    std::fprintf(stderr,
                 "leg mismatch at |S|=%zu: %zu unindexed / %zu scalar / %zu "
                 "indexed alternatives\n",
                 num_strategies, result.unindexed.alternatives,
                 result.indexed_scalar.alternatives,
                 result.indexed.alternatives);
    std::exit(1);
  }
  result.speedup = result.unindexed.seconds > 0.0
                       ? result.unindexed.seconds / result.indexed.seconds
                       : 0.0;
  result.simd_speedup =
      result.indexed.seconds > 0.0
          ? result.indexed_scalar.seconds / result.indexed.seconds
          : 0.0;
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  const std::vector<size_t> sizes =
      argc > 1 ? ParseSizes(argv[1])
               : std::vector<size_t>{10'000, 100'000, 1'000'000};
  const size_t num_batches =
      argc > 2 ? std::strtoull(argv[2], nullptr, 10) : 8;
  const size_t requests_per_batch =
      argc > 3 ? std::strtoull(argv[3], nullptr, 10) : 10;
  const bool indexed_only =
      argc > 4 && std::string(argv[4]) == "indexed-only";
  const char* output_path = argc > 5 ? argv[5] : "catalog_index.json";

  const char* dispatch = stratrec::core::kernels::DispatchLevelName(
      stratrec::core::kernels::ActiveDispatchLevel());
  std::printf(
      "CatalogIndex: repeated-availability batch workload, %zu batches x "
      "%zu requests at W = %.2f, single thread, kernels: %s%s.\n\n",
      num_batches, requests_per_batch, kAvailability, dispatch,
      indexed_only ? " (indexed legs only)" : "");

  std::vector<SizeResult> results;
  for (size_t size : sizes) {
    results.push_back(
        RunSize(size, num_batches, requests_per_batch, indexed_only));
    const SizeResult& r = results.back();
    std::printf(
        "|S| = %zu done: index %.2fx, simd %.2fx (unindexed %.3fs, "
        "indexed scalar %.3fs, indexed %s %.3fs)\n",
        r.strategies, r.speedup, r.simd_speedup, r.unindexed.seconds,
        r.indexed_scalar.seconds, dispatch, r.indexed.seconds);
  }

  stratrec::AsciiTable table({"strategies", "unindexed batches/s",
                              "indexed scalar batches/s",
                              "indexed batches/s", "speedup", "simd speedup",
                              "snapshot build (s)", "alternatives"});
  for (const SizeResult& r : results) {
    table.AddRow({std::to_string(r.strategies),
                  stratrec::FormatDouble(r.unindexed.batches_per_sec, 3),
                  stratrec::FormatDouble(r.indexed_scalar.batches_per_sec, 3),
                  stratrec::FormatDouble(r.indexed.batches_per_sec, 3),
                  stratrec::FormatDouble(r.speedup, 2) + "x",
                  stratrec::FormatDouble(r.simd_speedup, 2) + "x",
                  stratrec::FormatDouble(r.snapshot_build_seconds, 3),
                  std::to_string(r.indexed.alternatives)});
  }
  std::printf("\n");
  table.Print();

  // The workload block states the box it ran on: a baseline from a 1-core
  // CI runner and one from a wide dev box are not comparable, and the
  // hardware_threads / kernel_dispatch / compiler_flags fields are what
  // make the difference visible.
  std::string json =
      "{\n  \"workload\": {\"batches\": " + std::to_string(num_batches) +
      ", \"requests_per_batch\": " + std::to_string(requests_per_batch) +
      ", \"availability\": " + stratrec::FormatDouble(kAvailability, 2) +
      ", \"threads\": 1, \"hardware_threads\": " +
      std::to_string(std::thread::hardware_concurrency()) +
      ", \"kernel_dispatch\": \"" + dispatch +
      "\", \"compiler_flags\": \"" +
      stratrec::core::kernels::CompileFlags() +
      "\"},\n  \"sizes\": [";
  for (size_t i = 0; i < results.size(); ++i) {
    const SizeResult& r = results[i];
    json += (i == 0 ? "\n" : ",\n");
    json += "    {\"strategies\": " + std::to_string(r.strategies) +
            ", \"unindexed_seconds\": " +
            stratrec::FormatDouble(r.unindexed.seconds, 6) +
            ", \"indexed_seconds\": " +
            stratrec::FormatDouble(r.indexed.seconds, 6) +
            ", \"unindexed_batches_per_sec\": " +
            stratrec::FormatDouble(r.unindexed.batches_per_sec, 3) +
            ", \"indexed_batches_per_sec\": " +
            stratrec::FormatDouble(r.indexed.batches_per_sec, 3) +
            ", \"indexed_scalar_seconds\": " +
            stratrec::FormatDouble(r.indexed_scalar.seconds, 6) +
            ", \"indexed_scalar_batches_per_sec\": " +
            stratrec::FormatDouble(r.indexed_scalar.batches_per_sec, 3) +
            ", \"speedup\": " + stratrec::FormatDouble(r.speedup, 3) +
            ", \"simd_speedup\": " +
            stratrec::FormatDouble(r.simd_speedup, 3) +
            ", \"snapshot_build_seconds\": " +
            stratrec::FormatDouble(r.snapshot_build_seconds, 6) +
            ", \"index_build_nanos\": " +
            std::to_string(r.index_build_nanos) +
            ", \"alternatives\": " + std::to_string(r.indexed.alternatives) +
            "}";
  }
  json += "\n  ]\n}\n";
  std::printf("\n%s", json.c_str());

  if (FILE* out = std::fopen(output_path, "w")) {
    std::fputs(json.c_str(), out);
    std::fclose(out);
    std::printf("(written to %s)\n", output_path);
  }
  return 0;
}
