#include "src/core/aggregator.h"

namespace stratrec::core {

Result<Aggregator> Aggregator::Create(std::vector<Strategy> strategies,
                                      std::vector<StrategyProfile> profiles) {
  if (strategies.size() != profiles.size()) {
    return Status::InvalidArgument(
        "strategy and profile lists must be index-aligned");
  }
  if (strategies.empty()) {
    return Status::InvalidArgument("aggregator needs at least one strategy");
  }
  return Aggregator(std::move(strategies), std::move(profiles));
}

Result<Aggregator> Aggregator::Create(Catalog catalog) {
  return Create(std::move(catalog.strategies), std::move(catalog.profiles));
}

Result<AggregatorReport> Aggregator::Run(
    const std::vector<DeploymentRequest>& requests,
    const AvailabilityModel& availability, const BatchOptions& options,
    BatchAlgorithm algorithm) const {
  return RunAtAvailability(requests, availability.ExpectedAvailability(),
                           options, algorithm);
}

Result<AggregatorReport> Aggregator::RunAtAvailability(
    const std::vector<DeploymentRequest>& requests, double availability,
    const BatchOptions& options, BatchAlgorithm algorithm) const {
  return RunAtAvailability(requests, availability, options,
                           SolverForAlgorithm(algorithm));
}

Result<AggregatorReport> Aggregator::RunAtAvailability(
    const std::vector<DeploymentRequest>& requests, double availability,
    const BatchOptions& options, const BatchSolverFn& solver) const {
  return RunAtAvailability(requests, availability, options, solver,
                           /*materialize_params=*/true);
}

Result<AggregatorReport> Aggregator::RunAtAvailability(
    const std::vector<DeploymentRequest>& requests, double availability,
    const BatchOptions& options, const BatchSolverFn& solver,
    bool materialize_params) const {
  if (availability < 0.0 || availability > 1.0) {
    return Status::InvalidArgument("availability must lie in [0, 1]");
  }
  if (!solver) {
    return Status::InvalidArgument("batch solver must be non-null");
  }

  BatchOptions run_options = options;
  if (!run_options.pricer) {
    run_options.pricer =
        [catalog_index = &index(options.executor, options.parallel_grain),
         executor = options.executor, grain = options.parallel_grain](
            const std::vector<DeploymentRequest>& batch,
            WorkforcePolicy policy) -> Result<std::vector<RowTopK>> {
      return PriceRows(batch, *catalog_index, 0, catalog_index->size(),
                       policy, executor, grain);
    };
  }

  AggregatorReport report;
  report.availability = availability;
  if (materialize_params) {
    index(options.executor, options.parallel_grain)
        .EstimateParamsInto(availability, &report.strategy_params,
                            options.executor, options.parallel_grain);
  }
  auto batch = solver(requests, profiles_, availability, run_options);
  if (!batch.ok()) return batch.status();
  report.batch = std::move(*batch);
  return report;
}

const CatalogIndex& Aggregator::index(Executor* executor, size_t grain) const {
  std::call_once(lazy_index_->once, [&] {
    lazy_index_->index = CatalogIndex::Build(profiles_, executor, grain);
    lazy_index_->build_nanos.store(lazy_index_->index.build_nanos(),
                                   std::memory_order_relaxed);
  });
  return lazy_index_->index;
}

uint64_t Aggregator::index_build_nanos() const {
  return lazy_index_->build_nanos.load(std::memory_order_relaxed);
}

Result<std::shared_ptr<const AvailabilitySnapshot>> Aggregator::BuildSnapshot(
    double availability, Executor* executor, size_t grain) const {
  if (availability < 0.0 || availability > 1.0) {
    return Status::InvalidArgument("availability must lie in [0, 1]");
  }
  return index(executor, grain).BuildSnapshot(availability, executor, grain);
}

}  // namespace stratrec::core
