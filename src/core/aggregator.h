// The Aggregator module of Figure 1: the pipeline that turns a batch of
// deployment requests into recommendations.
//
// Steps (Section 2.2): (1) estimate worker availability from the worker
// pool, (2) estimate per-strategy deployment parameters via the linear
// models, (3) compute workforce requirements, and (4) run the
// optimization-guided batch deployment.
#ifndef STRATREC_CORE_AGGREGATOR_H_
#define STRATREC_CORE_AGGREGATOR_H_

#include <atomic>
#include <memory>
#include <mutex>
#include <vector>

#include "src/common/status.h"
#include "src/core/availability.h"
#include "src/core/batch_scheduler.h"
#include "src/core/catalog_index.h"
#include "src/core/strategy.h"

namespace stratrec::core {

/// A platform's strategy catalog: `profiles[j]` models `strategies[j]`.
/// The unit every facade (Aggregator, StratRec, api::Service) is built from.
struct Catalog {
  std::vector<Strategy> strategies;
  std::vector<StrategyProfile> profiles;

  bool operator==(const Catalog&) const = default;
};

/// Everything the Aggregator derives for one batch.
struct AggregatorReport {
  /// Expected availability W consumed by the optimization.
  double availability = 0.0;
  /// Concrete per-strategy parameters estimated at W (Table 1 style),
  /// index-aligned with the strategy/profile lists. Empty when the run was
  /// asked not to materialize them (see RunAtAvailability's
  /// `materialize_params`): re-estimating O(|S|) parameters per batch is
  /// pure waste for callers that never read them.
  std::vector<ParamVector> strategy_params;
  /// The batch optimization outcome.
  BatchResult batch;

  bool operator==(const AggregatorReport&) const = default;
};

/// Owns the platform's strategy catalog and parameter models.
class Aggregator {
 public:
  /// `strategies` provides naming/metadata; `profiles[j]` models
  /// `strategies[j]`. Both must be index-aligned and equally sized.
  static Result<Aggregator> Create(std::vector<Strategy> strategies,
                                   std::vector<StrategyProfile> profiles);
  static Result<Aggregator> Create(Catalog catalog);

  const std::vector<Strategy>& strategies() const { return strategies_; }
  const std::vector<StrategyProfile>& profiles() const { return profiles_; }

  /// Runs the full pipeline at the expectation of `availability`.
  Result<AggregatorReport> Run(const std::vector<DeploymentRequest>& requests,
                               const AvailabilityModel& availability,
                               const BatchOptions& options,
                               BatchAlgorithm algorithm =
                                   BatchAlgorithm::kBatchStrat) const;

  /// Runs the pipeline at a known expected availability W in [0, 1].
  Result<AggregatorReport> RunAtAvailability(
      const std::vector<DeploymentRequest>& requests, double availability,
      const BatchOptions& options,
      BatchAlgorithm algorithm = BatchAlgorithm::kBatchStrat) const;

  /// Same pipeline with a pluggable batch solver (api-layer registry
  /// backends). `solver` must be non-null.
  Result<AggregatorReport> RunAtAvailability(
      const std::vector<DeploymentRequest>& requests, double availability,
      const BatchOptions& options, const BatchSolverFn& solver) const;

  /// The full-control overload the StratRec / Service layers drive.
  /// `materialize_params` toggles the O(|S|) strategy_params block in the
  /// report, estimated through this catalog's index (bit-identical to
  /// StrategyProfile::EstimateParams). When `options.pricer` is empty, the
  /// solver prices with PriceRows over the same index.
  Result<AggregatorReport> RunAtAvailability(
      const std::vector<DeploymentRequest>& requests, double availability,
      const BatchOptions& options, const BatchSolverFn& solver,
      bool materialize_params) const;

  /// The catalog's SoA index, built on first use and shared by every run
  /// (and by copies of this aggregator). Thread-safe; `executor`, when
  /// non-null, parallelizes a build that happens to be triggered here.
  const CatalogIndex& index(Executor* executor = nullptr,
                            size_t grain = 4096) const;

  /// Nanoseconds the index build took; 0 while the index is unbuilt.
  uint64_t index_build_nanos() const;

  /// Builds an (uncached) availability snapshot over the index: what
  /// StratRec's ADPaR leg runs on when it is given no SnapshotSource. The
  /// Service's SnapshotFor layers its availability-keyed cache on top.
  Result<std::shared_ptr<const AvailabilitySnapshot>> BuildSnapshot(
      double availability, Executor* executor = nullptr,
      size_t grain = 4096) const;

 private:
  /// Lazily-built shared index: one build per catalog, shared across
  /// aggregator copies (the catalog they index is identical).
  /// `build_nanos` mirrors index.build_nanos() behind an atomic so the
  /// stats path can read it without synchronizing with a concurrent build.
  struct LazyIndex {
    std::once_flag once;
    CatalogIndex index;
    std::atomic<uint64_t> build_nanos{0};
  };

  Aggregator(std::vector<Strategy> strategies,
             std::vector<StrategyProfile> profiles)
      : strategies_(std::move(strategies)),
        profiles_(std::move(profiles)),
        lazy_index_(std::make_shared<LazyIndex>()) {}

  std::vector<Strategy> strategies_;
  std::vector<StrategyProfile> profiles_;
  std::shared_ptr<LazyIndex> lazy_index_;
};

}  // namespace stratrec::core

#endif  // STRATREC_CORE_AGGREGATOR_H_
