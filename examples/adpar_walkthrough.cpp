// ADPaR walkthrough: reproduces the paper's Section 4 worked example
// (Tables 2-4) for request d2 of Example 1 — the per-strategy relaxation
// matrix, the sorted (R, I, D) lists, the candidate alternatives the sweep
// evaluates, and the final recommendation, side by side with the paper's
// literal sweep and the baselines via stratrec::Service::RunSweep.
//
// Run: ./build/examples/example_adpar_walkthrough
#include <cstdio>
#include <string>

#include "src/api/catalog.h"
#include "src/api/service.h"
#include "src/common/ascii_table.h"
#include "src/core/adpar.h"

using stratrec::AsciiTable;
using stratrec::FormatDouble;
namespace api = stratrec::api;
namespace core = stratrec::core;

namespace {

/// The paper's 1-based strategy name: index 0 is "s1".
std::string StrategyName(size_t index) {
  std::string name = "s";
  name += std::to_string(index + 1);
  return name;
}

}  // namespace

int main() {
  // Table 1's strategies and the unsatisfiable request d2.
  const std::vector<core::ParamVector> strategies = {
      {0.50, 0.25, 0.28},  // s1
      {0.75, 0.33, 0.28},  // s2
      {0.80, 0.50, 0.14},  // s3
      {0.88, 0.58, 0.14},  // s4
  };
  const core::ParamVector d2{0.8, 0.20, 0.28};
  const int k = 3;

  std::printf("ADPaR walkthrough for d2 = %s, k = %d\n\n",
              d2.ToString().c_str(), k);

  // --- The algorithm internals (paper Tables 3-4), from the core solver's
  // execution trace; the facade's sweep mode below compares final outputs.
  core::AdparTrace trace;
  auto result = core::AdparExact(strategies, d2, k, &trace);
  if (!result.ok()) {
    std::fprintf(stderr, "ADPaR failed: %s\n",
                 result.status().ToString().c_str());
    return 1;
  }

  // --- Step 1 (paper Table 3): per-strategy relaxation requirements.
  std::printf("Step 1 - required relaxation per strategy and parameter:\n");
  AsciiTable step1({"strategy", "cost", "quality", "latency"});
  for (const auto& rel : trace.relaxations) {
    step1.AddRow({StrategyName(rel.strategy),
                  FormatDouble(rel.by_axis[1], 2),
                  FormatDouble(rel.by_axis[0], 2),
                  FormatDouble(rel.by_axis[2], 2)});
  }
  step1.Print();

  // --- Step 2 (paper Table 4): sorted relaxation list R with index I and
  // parameter D.
  std::printf("\nStep 2 - sorted relaxations (R / I / D):\n");
  AsciiTable step2({"R (relaxation)", "I (strategy)", "D (parameter)"});
  for (const auto& entry : trace.sorted) {
    step2.AddRow({FormatDouble(entry.relaxation, 2),
                  StrategyName(entry.strategy),
                  core::ParamAxisName(entry.axis)});
  }
  step2.Print();

  // --- Step 3/4: the candidate alternatives the sweep evaluated.
  std::printf("\nSweep candidates (quality level x cost level, tight "
              "latency):\n");
  AsciiTable candidates({"d'.quality", "d'.cost", "d'.latency", "distance^2"});
  for (const auto& candidate : trace.candidates) {
    candidates.AddRow({FormatDouble(candidate.d_prime.quality, 2),
                       FormatDouble(candidate.d_prime.cost, 2),
                       FormatDouble(candidate.d_prime.latency, 2),
                       FormatDouble(candidate.squared_distance, 4)});
  }
  candidates.Print();

  // --- Final recommendation vs the whole registered solver family, through
  // the facade's sweep mode.
  auto service = stratrec::Service::Create(api::ConstantCatalog(strategies));
  if (!service.ok()) {
    std::fprintf(stderr, "service: %s\n", service.status().ToString().c_str());
    return 1;
  }
  api::SweepRequest sweep;
  sweep.targets = {{"d2", d2, k}};
  sweep.solvers = {"exact", "paper-sweep", "brute", "baseline2", "baseline3"};
  auto sweep_report = service->RunSweep(sweep);
  if (!sweep_report.ok()) {
    std::fprintf(stderr, "RunSweep failed: %s\n",
                 sweep_report.status().ToString().c_str());
    return 1;
  }

  std::printf("\nFinal recommendations (sweep %s):\n",
              sweep_report->request_id.c_str());
  AsciiTable finals({"solver", "d'", "distance", "strategies"});
  for (const auto& outcome : sweep_report->outcomes) {
    if (!outcome.status.ok()) {
      finals.AddRow({outcome.solver, outcome.status.ToString(), "-", "-"});
      continue;
    }
    std::string names;
    for (size_t j : outcome.result.strategies) {
      if (!names.empty()) names += ",";
      names += StrategyName(j);
    }
    finals.AddRow({outcome.solver, outcome.result.alternative.ToString(),
                   FormatDouble(outcome.result.distance, 4), names});
  }
  finals.Print();

  std::printf(
      "\nNote: the paper's text (Section 4.1) states the alternative\n"
      "(0.75, 0.50, 0.28) with {s1, s2, s3}; that box covers only {s2, s3}\n"
      "(s1.quality = 0.50 < 0.75), so it violates the k = 3 constraint. The\n"
      "optimum under Equation 3 is the one printed above; see "
      "EXPERIMENTS.md.\n");
  return 0;
}
