// StratRec: the end-to-end optimization-driven middle layer (Figure 1).
//
// One class owns the platform's strategy catalog, the catalog's lazily
// built SoA index, and the whole batch pipeline. ProcessBatch() first runs
// the Aggregator stage (Section 2.2): (1) estimate worker availability W
// from the worker pool, (2) estimate per-strategy deployment parameters via
// the linear models, (3) compute workforce requirements, and (4) run the
// optimization-guided batch deployment. Every request the batch optimizer
// could not serve is then forwarded to ADPaR, which recommends the closest
// alternative parameters for which k strategies exist. With Example 1's
// data, d3 is served with {s2, s3, s4} and d1/d2 receive alternatives.
#ifndef STRATREC_CORE_STRATREC_H_
#define STRATREC_CORE_STRATREC_H_

#include <atomic>
#include <memory>
#include <mutex>
#include <vector>

#include "src/common/status.h"
#include "src/core/adpar.h"
#include "src/core/availability.h"
#include "src/core/batch_scheduler.h"
#include "src/core/catalog_index.h"
#include "src/core/strategy.h"

namespace stratrec::core {

/// A platform's strategy catalog: `profiles[j]` models `strategies[j]`.
/// The unit every facade (StratRec, api::Service) is built from.
struct Catalog {
  std::vector<Strategy> strategies;
  std::vector<StrategyProfile> profiles;

  bool operator==(const Catalog&) const = default;
};

/// Configuration of one ProcessBatch() run.
struct StratRecOptions {
  /// When `batch.pricer` is empty, the solve prices with PriceRows over the
  /// catalog's index.
  BatchOptions batch;
  /// When false, unsatisfied requests are reported without alternatives.
  bool recommend_alternatives = true;
  /// Pluggable backends (api-layer registry). `batch_solver` runs the
  /// batch optimization; empty runs BatchStrat. `adpar_solver` overrides
  /// the default snapshot AdparExact (the registry's "exact") for
  /// alternative recommendation, and receives the run's snapshot (see
  /// `snapshot`).
  BatchSolverFn batch_solver;
  AdparSolverFn adpar_solver;
  /// Where the ADPaR leg gets the snapshot at the run's W. Called once,
  /// after the batch solve, and only when alternatives are on and some
  /// request went unserved; a null result, or a snapshot at another W or
  /// over another catalog, fails the run with kInvalidArgument. When empty,
  /// that leg builds one with index().BuildSnapshot. The Service facade
  /// passes its snapshot cache here; results are bit-identical either way.
  SnapshotSource snapshot;
};

/// ADPaR's output for one unsatisfied request.
///
/// A zero-distance alternative is meaningful: it signals the request was
/// *capacity-blocked* — k suitable strategies exist at the current
/// availability, but the batch optimizer spent the workforce on other
/// requests — rather than parameter-infeasible. Requesters can resubmit the
/// unchanged parameters in a later batch.
struct AlternativeRecommendation {
  size_t request_index = 0;
  AdparResult result;

  bool operator==(const AlternativeRecommendation&) const = default;
};

/// Everything StratRec returns for a batch. Every alternative carries the
/// parameters of its own k strategies; the whole catalog's block at W is
/// index().BuildSnapshot(W)->params().
struct StratRecReport {
  /// The batch optimization outcome of the Aggregator stage.
  BatchResult batch;
  /// Alternatives for the requests the batch stage could not serve.
  std::vector<AlternativeRecommendation> alternatives;
  /// Requests ADPaR itself could not help (k exceeds the catalog size).
  std::vector<size_t> adpar_failures;

  bool operator==(const StratRecReport&) const = default;
};

/// The middle layer. Construct once per (platform, task type) with the
/// strategy catalog; run per incoming batch.
class StratRec {
 public:
  /// `strategies` provides naming/metadata; `profiles[j]` models
  /// `strategies[j]`. Both must be index-aligned and non-empty.
  static Result<StratRec> Create(std::vector<Strategy> strategies,
                                 std::vector<StrategyProfile> profiles);
  static Result<StratRec> Create(Catalog catalog);

  const std::vector<Strategy>& strategies() const { return strategies_; }
  const std::vector<StrategyProfile>& profiles() const { return profiles_; }

  /// The catalog's SoA index, built on first use and shared by every run
  /// (and by copies of this StratRec). Thread-safe; `executor`, when
  /// non-null, parallelizes a build that happens to be triggered here.
  const CatalogIndex& index(Executor* executor = nullptr,
                            size_t grain = 4096) const;

  /// Nanoseconds the index build took; 0 while the index is unbuilt.
  uint64_t index_build_nanos() const;

  /// Full pipeline with availability estimated from a distribution.
  Result<StratRecReport> ProcessBatch(
      const std::vector<DeploymentRequest>& requests,
      const AvailabilityModel& availability,
      const StratRecOptions& options = {}) const;

  /// Full pipeline at a known expected availability W in [0, 1].
  Result<StratRecReport> ProcessBatchAtAvailability(
      const std::vector<DeploymentRequest>& requests, double availability,
      const StratRecOptions& options = {}) const;

 private:
  /// Lazily-built shared index: one build per catalog, shared across
  /// StratRec copies (the catalog they index is identical).
  /// `build_nanos` mirrors index.build_nanos() behind an atomic so the
  /// stats path can read it without synchronizing with a concurrent build.
  struct LazyIndex {
    std::once_flag once;
    CatalogIndex index;
    std::atomic<uint64_t> build_nanos{0};
  };

  StratRec(std::vector<Strategy> strategies,
           std::vector<StrategyProfile> profiles)
      : strategies_(std::move(strategies)),
        profiles_(std::move(profiles)),
        lazy_index_(std::make_shared<LazyIndex>()) {}

  std::vector<Strategy> strategies_;
  std::vector<StrategyProfile> profiles_;
  std::shared_ptr<LazyIndex> lazy_index_;
};

}  // namespace stratrec::core

#endif  // STRATREC_CORE_STRATREC_H_
