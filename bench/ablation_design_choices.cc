// Ablation bench for the design choices DESIGN.md calls out:
//   (1) workforce policy — minimal-workforce (our default) vs the paper's
//       literal max-of-three rule (Section 3.2);
//   (2) aggregation — sum-case vs max-case (Figure 3b/3c);
//   (3) the single-item guard on the pay-off greedy (Theorem 3's trick);
//   (4) the multi-objective scalarization's throughput/pay-off trade-off
//       (Section 7 future work).
#include <cstdio>

#include "src/api/catalog.h"
#include "src/api/service.h"
#include "src/common/ascii_table.h"
#include "src/core/multi_objective.h"
#include "src/workload/generators.h"

namespace {

using stratrec::AsciiTable;
using stratrec::FormatDouble;
namespace api = stratrec::api;
namespace core = stratrec::core;
namespace workload = stratrec::workload;

constexpr int kRuns = 10;
constexpr int kNumStrategies = 200;
constexpr int kNumRequests = 10;
constexpr int kK = 3;
constexpr double kW = 0.8;

workload::Generator MakeGenerator(int run) {
  return workload::Generator({}, 0xAB1A'7E0Full + static_cast<uint64_t>(run));
}

std::vector<core::DeploymentRequest> MakeRequests(workload::Generator* g) {
  return g->RequestsWithRanges(kNumRequests, kK, {0.5, 0.75}, {0.7, 1.0},
                               {0.7, 1.0});
}

void PolicyAndAggregationAblation() {
  std::printf(
      "\n(1+2) workforce policy x aggregation: satisfied requests and "
      "workforce used\n");
  AsciiTable table({"policy", "aggregation", "satisfied", "workforce used"});
  for (auto policy : {core::WorkforcePolicy::kMinimalWorkforce,
                      core::WorkforcePolicy::kPaperMaxOfThree}) {
    for (auto aggregation :
         {core::AggregationMode::kSum, core::AggregationMode::kMax}) {
      double satisfied = 0.0, used = 0.0;
      for (int run = 0; run < kRuns; ++run) {
        auto generator = MakeGenerator(run);
        auto service = stratrec::Service::Create(
            api::CatalogFromProfiles(generator.Profiles(kNumStrategies)));
        if (!service.ok()) continue;
        api::BatchRequest batch;
        batch.requests = MakeRequests(&generator);
        batch.availability = api::AvailabilitySpec::Fixed(kW);
        batch.policy = policy;
        batch.aggregation = aggregation;
        batch.recommend_alternatives = false;
        auto report = service->SubmitBatch(batch);
        if (!report.ok()) continue;
        const core::BatchResult& result = report->result.batch;
        satisfied += static_cast<double>(result.satisfied.size());
        used += result.workforce_used;
      }
      table.AddRow(
          {policy == core::WorkforcePolicy::kMinimalWorkforce ? "minimal"
                                                              : "max-of-three",
           aggregation == core::AggregationMode::kSum ? "sum" : "max",
           FormatDouble(satisfied / kRuns, 2), FormatDouble(used / kRuns, 3)});
    }
  }
  table.Print();
  std::printf(
      "(max-of-three inflates per-deployment workforce — full budgets are "
      "spent —\nso fewer requests fit; sum-case charges k strategies, "
      "max-case one.)\n");
}

void GuardAblation() {
  std::printf("\n(3) single-item guard on the pay-off greedy\n");
  AsciiTable table({"variant", "mean payoff", "worst factor vs exact"});
  double guarded_total = 0.0, unguarded_total = 0.0, exact_total = 0.0;
  double guarded_worst = 1.0, unguarded_worst = 1.0;
  for (int run = 0; run < kRuns * 5; ++run) {
    auto generator = MakeGenerator(run);
    auto service = stratrec::Service::Create(
        api::CatalogFromProfiles(generator.Profiles(30)));
    if (!service.ok()) continue;
    api::BatchRequest batch;
    batch.requests = MakeRequests(&generator);
    batch.availability = api::AvailabilitySpec::Fixed(0.5);
    batch.objective = core::Objective::kPayoff;
    batch.aggregation = core::AggregationMode::kMax;
    batch.recommend_alternatives = false;
    auto solve = [&](const char* algorithm) -> stratrec::Result<double> {
      batch.algorithm = algorithm;
      auto report = service->SubmitBatch(batch);
      if (!report.ok()) return report.status();
      return report->result.batch.total_objective;
    };
    auto guarded = solve("batchstrat");
    auto unguarded = solve("baseline-g");
    auto exact = solve("brute-force");
    if (!guarded.ok() || !unguarded.ok() || !exact.ok()) continue;
    guarded_total += *guarded;
    unguarded_total += *unguarded;
    exact_total += *exact;
    if (*exact > 0) {
      guarded_worst = std::min(guarded_worst, *guarded / *exact);
      unguarded_worst = std::min(unguarded_worst, *unguarded / *exact);
    }
  }
  table.AddRow({"BatchStrat (guarded)", FormatDouble(guarded_total / (kRuns * 5), 3),
                FormatDouble(guarded_worst, 3)});
  table.AddRow({"BaselineG (no guard)",
                FormatDouble(unguarded_total / (kRuns * 5), 3),
                FormatDouble(unguarded_worst, 3)});
  table.AddRow({"BruteForce", FormatDouble(exact_total / (kRuns * 5), 3),
                "1.000"});
  table.Print();
}

void ParetoAblation() {
  std::printf(
      "\n(4) multi-objective scalarization: throughput/pay-off trade-off\n");
  auto generator = MakeGenerator(0);
  const auto profiles = generator.Profiles(kNumStrategies);
  // Wide budget (= pay-off) spread and tight capacity so that maximizing
  // count and maximizing pay-off pick different request subsets.
  const auto requests = generator.RequestsWithRanges(
      20, kK, {0.5, 0.75}, {0.3, 1.0}, {0.7, 1.0});
  auto curve = core::SweepPareto(requests, profiles, 0.4, 6);
  if (!curve.ok()) {
    std::fprintf(stderr, "sweep failed: %s\n",
                 curve.status().ToString().c_str());
    return;
  }
  AsciiTable table({"payoff weight", "throughput", "payoff"});
  for (const auto& point : *curve) {
    table.AddRow({FormatDouble(point.payoff_weight, 1),
                  FormatDouble(point.throughput, 1),
                  FormatDouble(point.payoff, 3)});
  }
  table.Print();
}

}  // namespace

int main() {
  std::printf(
      "Ablation: design choices (defaults |S|=%d m=%d k=%d W=%.2f, %d "
      "runs)\n",
      kNumStrategies, kNumRequests, kK, kW, kRuns);
  PolicyAndAggregationAblation();
  GuardAblation();
  ParetoAblation();
  return 0;
}
