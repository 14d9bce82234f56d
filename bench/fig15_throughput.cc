// Figure 15: aggregated throughput of BruteForce vs BatchStrat vs BaselineG,
// varying k, m and |S|. Paper defaults k = 10, m = 5, |S| = 30, W = 0.5
// ("because brute force does not scale beyond that").
//
// Calibration note (see EXPERIMENTS.md): with only |S| = 30 strategies, the
// paper's symmetric request range [0.625, 1] leaves almost every request
// without k suitable strategies; requests here demand modest quality and
// grant generous cost/latency budgets so the optimization is exercised.
#include <cstdio>
#include <functional>

#include "src/api/catalog.h"
#include "src/api/service.h"
#include "src/common/ascii_table.h"
#include "src/workload/generators.h"

namespace {

using stratrec::AsciiTable;
using stratrec::FormatDouble;
namespace api = stratrec::api;
namespace core = stratrec::core;
namespace workload = stratrec::workload;

constexpr int kDefaultS = 30;
constexpr int kDefaultM = 5;
constexpr int kDefaultK = 5;
constexpr double kDefaultW = 1.0;
constexpr int kRuns = 10;

struct Row {
  double brute = 0.0;
  double batchstrat = 0.0;
  double baseline = 0.0;
};

Row Evaluate(int num_s, int m, int k, core::Objective objective) {
  Row row;
  for (int run = 0; run < kRuns; ++run) {
    workload::GeneratorOptions options;
    workload::Generator generator(options, 0xF16'15ull * 100 + run);
    auto service = stratrec::Service::Create(
        api::CatalogFromProfiles(generator.Profiles(num_s)));
    if (!service.ok()) continue;
    api::BatchRequest batch;
    batch.requests = generator.RequestsWithRanges(
        m, k, /*quality=*/{0.50, 0.75}, /*cost=*/{0.70, 1.0},
        /*latency=*/{0.70, 1.0});
    batch.availability = api::AvailabilitySpec::Fixed(kDefaultW);
    batch.objective = objective;
    batch.aggregation = core::AggregationMode::kMax;
    batch.recommend_alternatives = false;  // only the batch stage is measured
    auto solve = [&](const char* algorithm) {
      batch.algorithm = algorithm;
      return service->SubmitBatch(batch);
    };
    auto brute = solve("brute-force");
    auto greedy = solve("batchstrat");
    auto baseline = solve("baseline-g");
    if (!brute.ok() || !greedy.ok() || !baseline.ok()) {
      std::fprintf(stderr, "run failed\n");
      continue;
    }
    row.brute += brute->result.batch.total_objective;
    row.batchstrat += greedy->result.batch.total_objective;
    row.baseline += baseline->result.batch.total_objective;
  }
  row.brute /= kRuns;
  row.batchstrat /= kRuns;
  row.baseline /= kRuns;
  return row;
}

void Panel(const char* title, const char* x_label, const std::vector<int>& xs,
           const std::function<Row(int)>& evaluate) {
  std::printf("\n%s\n", title);
  AsciiTable table({x_label, "BruteForce", "BatchStrat", "BaselineG"});
  for (int x : xs) {
    const Row row = evaluate(x);
    table.AddRow({std::to_string(x), FormatDouble(row.brute, 3),
                  FormatDouble(row.batchstrat, 3),
                  FormatDouble(row.baseline, 3)});
  }
  table.Print();
}

}  // namespace

int main() {
  std::printf(
      "Figure 15: aggregated throughput (objective value, avg of %d runs)\n"
      "defaults: |S|=%d m=%d k=%d W=%.2f (W raised from the paper's 0.5 so capacity\nbinds across multiple requests; see EXPERIMENTS.md)\n",
      kRuns, kDefaultS, kDefaultM, kDefaultK, kDefaultW);

  Panel("(a) varying k", "k", {2, 5, 10, 15}, [](int k) {
    return Evaluate(kDefaultS, kDefaultM, k, core::Objective::kThroughput);
  });
  Panel("(b) varying m", "m", {5, 10, 15, 20}, [](int m) {
    return Evaluate(kDefaultS, m, kDefaultK, core::Objective::kThroughput);
  });
  Panel("(c) varying |S|", "|S|", {10, 20, 30}, [](int s) {
    return Evaluate(s, kDefaultM, kDefaultK, core::Objective::kThroughput);
  });
  return 0;
}
