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
                           /*materialize_params=*/true, /*snapshot=*/nullptr);
}

Result<AggregatorReport> Aggregator::RunAtAvailability(
    const std::vector<DeploymentRequest>& requests, double availability,
    const BatchOptions& options, const BatchSolverFn& solver,
    bool materialize_params,
    const std::shared_ptr<const AvailabilitySnapshot>& snapshot) const {
  if (availability < 0.0 || availability > 1.0) {
    return Status::InvalidArgument("availability must lie in [0, 1]");
  }
  if (!solver) {
    return Status::InvalidArgument("batch solver must be non-null");
  }
  if (snapshot != nullptr && (snapshot->availability() != availability ||
                              snapshot->size() != profiles_.size())) {
    return Status::InvalidArgument(
        "availability snapshot does not match this run (wrong W or catalog)");
  }

  BatchOptions run_options = options;
  if (run_options.use_catalog_index && run_options.catalog_index == nullptr) {
    run_options.catalog_index = &index(options.executor, options.parallel_grain);
  }

  AggregatorReport report;
  report.availability = availability;
  if (materialize_params) {
    // A snapshot holds the shared per-W block: one memcpy instead of |S|
    // estimations.
    report.strategy_params = snapshot != nullptr
                                 ? snapshot->params()
                                 : EstimateParams(availability, run_options);
  }
  auto batch = solver(requests, profiles_, availability, run_options);
  if (!batch.ok()) return batch.status();
  report.batch = std::move(*batch);
  return report;
}

std::vector<ParamVector> Aggregator::EstimateParams(
    double availability, const BatchOptions& options) const {
  const CatalogIndex* catalog_index = options.catalog_index;
  if (catalog_index == nullptr && options.use_catalog_index) {
    catalog_index = &index(options.executor, options.parallel_grain);
  }
  std::vector<ParamVector> params;
  if (catalog_index != nullptr) {
    catalog_index->EstimateParamsInto(availability, &params, options.executor,
                                      options.parallel_grain);
  } else {
    params.reserve(profiles_.size());
    for (const StrategyProfile& profile : profiles_) {
      params.push_back(profile.EstimateParams(availability));
    }
  }
  return params;
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
