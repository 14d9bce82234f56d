// Quickstart: the paper's Example 1 (Table 1) end to end through the
// stratrec::Service facade.
//
// Three requesters submit deployment requests for sentence-translation
// tasks; the platform knows four deployment strategies. The platform
// constructs one Service over its catalog and submits the batch; the
// service serves what it can (d3 gets {s2, s3, s4}) and recommends
// alternative parameters for the others via ADPaR.
//
// Build & run:  cmake -B build && cmake --build build -j &&
//               ./build/examples/example_quickstart
#include <cstdio>

#include "src/api/service.h"
#include "src/common/ascii_table.h"

using stratrec::AsciiTable;
using stratrec::FormatDouble;
namespace api = stratrec::api;
namespace core = stratrec::core;

int main() {
  // --- The platform's strategy catalog (Figure 2). Each strategy's
  // quality/cost/latency depend linearly on worker availability; the models
  // below reproduce Table 1's values at the example's availability W = 0.8.
  core::Catalog catalog;
  catalog.strategies = {
      {"s1", core::ParseStageName("SIM-COL-CRO").value()},
      {"s2", core::ParseStageName("SEQ-IND-CRO").value()},
      {"s3", core::ParseStageName("SIM-IND-CRO").value()},
      {"s4", core::ParseStageName("SIM-IND-HYB").value()},
  };
  // param(w) = alpha * w + beta, chosen so param(0.8) matches Table 1.
  catalog.profiles = {
      {{0.25, 0.30}, {0.3125, 0.00}, {-0.15, 0.40}},  // s1 -> (.50,.25,.28)
      {{0.25, 0.55}, {0.4125, 0.00}, {-0.15, 0.40}},  // s2 -> (.75,.33,.28)
      {{0.25, 0.60}, {0.6250, 0.00}, {-0.20, 0.30}},  // s3 -> (.80,.50,.14)
      {{0.25, 0.68}, {0.7250, 0.00}, {-0.20, 0.30}},  // s4 -> (.88,.58,.14)
  };

  // --- One service per catalog; batches state the optimization goal.
  api::ServiceConfig config;
  config.batch.objective = core::Objective::kThroughput;
  config.batch.aggregation = core::AggregationMode::kMax;
  auto service = stratrec::Service::Create(std::move(catalog), config);
  if (!service.ok()) {
    std::fprintf(stderr, "setup failed: %s\n",
                 service.status().ToString().c_str());
    return 1;
  }
  const auto& strategies = service->strategies();
  const auto& profiles = service->profiles();

  // --- The batch envelope: Table 1's requests (each asking for k = 3
  // strategies) plus the availability source — 50% chance of 700/1000
  // workers, 50% of 900/1000 -> W = 0.8 (Section 2.2).
  api::BatchRequest batch;
  batch.requests = {
      {"d1", {0.4, 0.17, 0.28}, 3},
      {"d2", {0.8, 0.20, 0.28}, 3},
      {"d3", {0.7, 0.83, 0.28}, 3},
  };
  batch.availability = api::AvailabilitySpec::FromPmf({{0.7, 0.5}, {0.9, 0.5}});

  auto report = service->SubmitBatch(batch);
  if (!report.ok()) {
    std::fprintf(stderr, "SubmitBatch failed: %s\n",
                 report.status().ToString().c_str());
    return 1;
  }
  std::printf("Report %s (algorithm %s) at expected availability W = %.2f\n\n",
              report->request_id.c_str(), report->algorithm.c_str(),
              report->availability);

  // --- Estimated strategy parameters at W (reproduces Table 1's lower
  // half). The report carries answers only, so the catalog view is
  // estimated here from the profiles at the report's availability.
  AsciiTable params({"strategy", "stage", "quality", "cost", "latency"});
  for (size_t j = 0; j < strategies.size(); ++j) {
    const core::ParamVector p =
        profiles[j].EstimateParams(report->availability);
    params.AddRow({strategies[j].id(), strategies[j].Describe(),
                   FormatDouble(p.quality, 2), FormatDouble(p.cost, 2),
                   FormatDouble(p.latency, 2)});
  }
  std::printf("Strategy parameters estimated at W = 0.8:\n");
  params.Print();

  // --- Batch outcomes + ADPaR alternatives.
  std::printf("\nBatch deployment outcomes:\n");
  AsciiTable outcomes({"request", "served", "strategies", "workforce"});
  const auto& batch_outcomes = report->result.batch.outcomes;
  for (size_t i = 0; i < batch_outcomes.size(); ++i) {
    const auto& outcome = batch_outcomes[i];
    std::string names;
    for (size_t j : outcome.strategies) {
      if (!names.empty()) names += ",";
      names += strategies[j].id();
    }
    outcomes.AddRow({batch.requests[i].id,
                     outcome.satisfied ? "yes" : "no",
                     names.empty() ? "-" : names,
                     FormatDouble(outcome.workforce, 3)});
  }
  outcomes.Print();

  std::printf("\nADPaR alternatives for unserved requests:\n");
  AsciiTable alternatives(
      {"request", "alt quality", "alt cost", "alt latency", "distance",
       "strategies"});
  for (const auto& alt : report->result.alternatives) {
    std::string names;
    for (size_t j : alt.result.strategies) {
      if (!names.empty()) names += ",";
      names += strategies[j].id();
    }
    alternatives.AddRow({batch.requests[alt.request_index].id,
                         FormatDouble(alt.result.alternative.quality, 2),
                         FormatDouble(alt.result.alternative.cost, 2),
                         FormatDouble(alt.result.alternative.latency, 2),
                         FormatDouble(alt.result.distance, 4), names});
  }
  alternatives.Print();
  return 0;
}
