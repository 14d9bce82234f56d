#include "src/core/stratrec.h"

#include "src/common/float_compare.h"

namespace stratrec::core {

Result<StratRec> StratRec::Create(std::vector<Strategy> strategies,
                                  std::vector<StrategyProfile> profiles) {
  if (strategies.size() != profiles.size()) {
    return Status::InvalidArgument(
        "strategy and profile lists must be index-aligned");
  }
  if (strategies.empty()) {
    return Status::InvalidArgument("catalog needs at least one strategy");
  }
  return StratRec(std::move(strategies), std::move(profiles));
}

Result<StratRec> StratRec::Create(Catalog catalog) {
  return Create(std::move(catalog.strategies), std::move(catalog.profiles));
}

const CatalogIndex& StratRec::index(Executor* executor, size_t grain) const {
  std::call_once(lazy_index_->once, [&] {
    lazy_index_->index = CatalogIndex::Build(profiles_, executor, grain);
    lazy_index_->build_nanos.store(lazy_index_->index.build_nanos(),
                                   std::memory_order_relaxed);
  });
  return lazy_index_->index;
}

uint64_t StratRec::index_build_nanos() const {
  return lazy_index_->build_nanos.load(std::memory_order_relaxed);
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
  if (!InUnitInterval(availability)) {
    return Status::InvalidArgument("availability must lie in [0, 1]");
  }
  Executor* const executor = options.batch.executor;
  const size_t grain = options.batch.parallel_grain;

  // The Aggregator stage: price against the catalog's index unless the
  // caller brought its own pricer (a shard router's scatter), then solve.
  BatchOptions batch_options = options.batch;
  if (!batch_options.pricer) {
    batch_options.pricer = [catalog_index = &index(executor, grain), executor,
                            grain](const std::vector<DeploymentRequest>& batch,
                                   WorkforcePolicy policy)
        -> Result<std::vector<RowTopK>> {
      return PriceRows(batch, *catalog_index, 0, catalog_index->size(), policy,
                       executor, grain);
    };
  }
  StratRecReport out;
  auto batch = options.batch_solver
                   ? options.batch_solver(requests, profiles_, availability,
                                          batch_options)
                   : BatchStrat(requests, profiles_, availability,
                                batch_options);
  if (!batch.ok()) return batch.status();
  out.batch = std::move(*batch);

  const std::vector<size_t>& unsatisfied = out.batch.unsatisfied;
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
        snapshot->size() != profiles_.size()) {
      return Status::InvalidArgument(
          "availability snapshot does not match this run (missing, wrong W "
          "or wrong catalog)");
    }
  } else {
    snapshot = index(executor, grain).BuildSnapshot(availability, executor,
                                                    grain);
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
  if (executor != nullptr) {
    // ADPaR solves are orders of magnitude heavier than a matrix cell; use
    // a one-request grain so every solve can run on its own worker.
    executor->ParallelFor(unsatisfied.size(), 1, solve);
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
