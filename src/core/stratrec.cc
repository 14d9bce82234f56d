#include "src/core/stratrec.h"

namespace stratrec::core {

Result<StratRec> StratRec::Create(std::vector<Strategy> strategies,
                                  std::vector<StrategyProfile> profiles) {
  auto aggregator =
      Aggregator::Create(std::move(strategies), std::move(profiles));
  if (!aggregator.ok()) return aggregator.status();
  return StratRec(std::move(*aggregator));
}

Result<StratRec> StratRec::Create(Catalog catalog) {
  auto aggregator = Aggregator::Create(std::move(catalog));
  if (!aggregator.ok()) return aggregator.status();
  return StratRec(std::move(*aggregator));
}

Result<StratRecReport> StratRec::ProcessBatch(
    const std::vector<DeploymentRequest>& requests,
    const AvailabilityModel& availability,
    const StratRecOptions& options) const {
  return ProcessBatchAtAvailability(
      requests, availability.ExpectedAvailability(), options);
}

Result<StratRecReport> StratRec::ProcessBatchAtAvailability(
    const std::vector<DeploymentRequest>& requests, double availability,
    const StratRecOptions& options) const {
  auto report = aggregator_.RunAtAvailability(
      requests, availability, options.batch,
      options.batch_solver ? options.batch_solver
                           : SolverForAlgorithm(options.algorithm),
      options.materialize_params, options.snapshot);
  if (!report.ok()) return report.status();

  StratRecReport out;
  out.aggregator = std::move(*report);
  const std::vector<size_t>& unsatisfied = out.aggregator.batch.unsatisfied;
  if (!options.recommend_alternatives || unsatisfied.empty()) return out;

  // Default solver: the snapshot-riding AdparExact when a snapshot is
  // available (prebuilt orderings + skyline pruning, bit-identical
  // results), the classic per-request one otherwise.
  const AvailabilitySnapshot* snapshot = options.snapshot.get();
  const AdparSolverFn adpar =
      options.adpar_solver
          ? options.adpar_solver
          : (snapshot != nullptr
                 ? AdparSolverFn([snapshot](const std::vector<ParamVector>&,
                                            const ParamVector& d, int k) {
                     return AdparExact(*snapshot, d, k);
                   })
                 : AdparSolverFn([](const std::vector<ParamVector>& params,
                                    const ParamVector& d, int k) {
                     return AdparExact(params, d, k, nullptr);
                   }));

  // Unsatisfied requests are forwarded to ADPaR (Section 2.2), against the
  // concrete strategy parameters estimated at W: the snapshot's shared
  // block, the report's when the caller materialized it, or a local
  // estimate that never leaves this call. Each solve is independent, so
  // with an executor the fan-out partitions across the pool; solutions land
  // in a per-request slot and are folded back in request order, keeping the
  // report identical to the serial path.
  std::vector<ParamVector> estimated;
  if (snapshot == nullptr && !options.materialize_params) {
    estimated = aggregator_.EstimateParams(availability, options.batch);
  }
  const std::vector<ParamVector>& params_at_w =
      snapshot != nullptr          ? snapshot->params()
      : options.materialize_params ? out.aggregator.strategy_params
                                   : estimated;
  std::vector<Result<AdparResult>> solved(
      unsatisfied.size(), Result<AdparResult>(Status::Internal("unset")));
  auto solve = [&](size_t begin, size_t end) {
    for (size_t u = begin; u < end; ++u) {
      const size_t index = unsatisfied[u];
      solved[u] = adpar(params_at_w, requests[index].thresholds,
                        requests[index].k);
    }
  };
  if (options.batch.executor != nullptr) {
    // ADPaR solves are orders of magnitude heavier than a matrix cell; use
    // a one-request grain so every solve can run on its own worker.
    options.batch.executor->ParallelFor(unsatisfied.size(), 1, solve);
  } else {
    solve(0, unsatisfied.size());
  }
  for (size_t u = 0; u < unsatisfied.size(); ++u) {
    if (solved[u].ok()) {
      out.alternatives.push_back(
          AlternativeRecommendation{unsatisfied[u], std::move(*solved[u])});
    } else {
      out.adpar_failures.push_back(unsatisfied[u]);
    }
  }
  return out;
}

}  // namespace stratrec::core
