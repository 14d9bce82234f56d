// Figure 16: aggregated pay-off of BruteForce vs BatchStrat and the
// empirical approximation factor, varying k, m and |S|. The paper reports
// BatchStrat's factor above 0.9 throughout — far better than the theoretical
// 1/2 guarantee (Theorem 3).
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
  double worst_factor = 1.0;

  double MeanFactor() const {
    return brute > 0.0 ? batchstrat / brute : 1.0;
  }
};

Row Evaluate(int num_s, int m, int k) {
  Row row;
  for (int run = 0; run < kRuns; ++run) {
    workload::GeneratorOptions options;
    workload::Generator generator(options, 0xF16'16ull * 100 + run);
    auto service = stratrec::Service::Create(
        api::CatalogFromProfiles(generator.Profiles(num_s)));
    if (!service.ok()) continue;
    api::BatchRequest batch;
    batch.requests = generator.RequestsWithRanges(
        m, k, /*quality=*/{0.50, 0.75}, /*cost=*/{0.70, 1.0},
        /*latency=*/{0.70, 1.0});
    batch.availability = api::AvailabilitySpec::Fixed(kDefaultW);
    batch.objective = core::Objective::kPayoff;
    batch.aggregation = core::AggregationMode::kMax;
    batch.recommend_alternatives = false;  // only the batch stage is measured
    batch.algorithm = "brute-force";
    auto brute = service->SubmitBatch(batch);
    batch.algorithm = "batchstrat";
    auto greedy = service->SubmitBatch(batch);
    if (!brute.ok() || !greedy.ok()) {
      std::fprintf(stderr, "run failed\n");
      continue;
    }
    const double brute_objective =
        brute->result.batch.total_objective;
    const double greedy_objective =
        greedy->result.batch.total_objective;
    row.brute += brute_objective;
    row.batchstrat += greedy_objective;
    if (brute_objective > 0.0) {
      row.worst_factor =
          std::min(row.worst_factor, greedy_objective / brute_objective);
    }
  }
  row.brute /= kRuns;
  row.batchstrat /= kRuns;
  return row;
}

void Panel(const char* title, const char* x_label, const std::vector<int>& xs,
           const std::function<Row(int)>& evaluate) {
  std::printf("\n%s\n", title);
  AsciiTable table(
      {x_label, "BruteForce", "BatchStrat", "approx-factor", "worst-run"});
  for (int x : xs) {
    const Row row = evaluate(x);
    table.AddRow({std::to_string(x), FormatDouble(row.brute, 3),
                  FormatDouble(row.batchstrat, 3),
                  FormatDouble(row.MeanFactor(), 3),
                  FormatDouble(row.worst_factor, 3)});
  }
  table.Print();
}

}  // namespace

int main() {
  std::printf(
      "Figure 16: aggregated pay-off and approximation factor (avg of %d "
      "runs)\ndefaults: |S|=%d m=%d k=%d W=%.2f; theoretical bound 0.5\n",
      kRuns, kDefaultS, kDefaultM, kDefaultK, kDefaultW);

  Panel("(a) varying k", "k", {2, 5, 10, 15},
        [](int k) { return Evaluate(kDefaultS, kDefaultM, k); });
  Panel("(b) varying m", "m", {5, 10, 15, 20},
        [](int m) { return Evaluate(kDefaultS, m, kDefaultK); });
  Panel("(c) varying |S|", "|S|", {10, 20, 30},
        [](int s) { return Evaluate(s, kDefaultM, kDefaultK); });
  return 0;
}
