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
      options.materialize_params);
  if (!report.ok()) return report.status();

  StratRecReport out;
  out.aggregator = std::move(*report);
  const std::vector<size_t>& unsatisfied = out.aggregator.batch.unsatisfied;
  if (!options.recommend_alternatives || unsatisfied.empty()) return out;

  // Unsatisfied requests are forwarded to ADPaR (Section 2.2), against the
  // concrete strategy parameters estimated at W: the caller's source, asked
  // here and only here, or a snapshot built for this call. Each solve is
  // independent, so with an executor the fan-out partitions across the
  // pool; solutions land in a per-request slot and are folded back in
  // request order, keeping the report identical to the serial path.
  std::shared_ptr<const AvailabilitySnapshot> snapshot;
  if (options.snapshot) {
    snapshot = options.snapshot(availability);
    if (snapshot == nullptr || snapshot->availability() != availability ||
        snapshot->size() != aggregator_.profiles().size()) {
      return Status::InvalidArgument(
          "availability snapshot does not match this run (missing, wrong W "
          "or wrong catalog)");
    }
  } else {
    auto built = aggregator_.BuildSnapshot(
        availability, options.batch.executor, options.batch.parallel_grain);
    if (!built.ok()) return built.status();
    snapshot = std::move(*built);
  }
  std::vector<Result<AdparResult>> solved(
      unsatisfied.size(), Result<AdparResult>(Status::Internal("unset")));
  auto solve = [&](size_t begin, size_t end) {
    for (size_t u = begin; u < end; ++u) {
      const DeploymentRequest& request = requests[unsatisfied[u]];
      solved[u] = options.adpar_solver
                      ? options.adpar_solver(*snapshot, request.thresholds,
                                             request.k)
                      : AdparExact(*snapshot, request.thresholds, request.k);
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
