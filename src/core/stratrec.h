// StratRec: the end-to-end optimization-driven middle layer (Figure 1).
//
// ProcessBatch() runs the Aggregator over a batch of deployment requests;
// every request the batch optimizer could not serve is forwarded to ADPaR,
// which recommends the closest alternative parameters for which k strategies
// exist. This mirrors the paper's Section 2.2 walkthrough: with Example 1's
// data, d3 is served with {s2, s3, s4} and d1/d2 receive alternatives.
#ifndef STRATREC_CORE_STRATREC_H_
#define STRATREC_CORE_STRATREC_H_

#include <vector>

#include "src/core/adpar.h"
#include "src/core/aggregator.h"

namespace stratrec::core {

/// Configuration of one ProcessBatch() run.
struct StratRecOptions {
  BatchOptions batch;
  BatchAlgorithm algorithm = BatchAlgorithm::kBatchStrat;
  /// When false, unsatisfied requests are reported without alternatives.
  bool recommend_alternatives = true;
  /// Pluggable backends (api-layer registry). When set, `batch_solver`
  /// overrides `algorithm` and `adpar_solver` overrides the default
  /// AdparExact for alternative recommendation.
  BatchSolverFn batch_solver;
  AdparSolverFn adpar_solver;
  /// Fill report.aggregator.strategy_params, the O(|S|) catalog block at
  /// W. Off by default: every alternative carries the parameters of its own
  /// k strategies, so no reader of a report needs the block.
  bool materialize_params = false;
  /// Reuse of per-availability state across batches: when set (and built
  /// for this catalog at exactly the run's W), strategy parameters come
  /// from the snapshot's shared block, and — unless `adpar_solver`
  /// overrides it — unsatisfied requests are solved by the index-accepting
  /// AdparExact overload, which serves its sorts and candidate pruning
  /// from the snapshot. The Service facade passes its cached snapshot
  /// here; results are bit-identical with or without one.
  std::shared_ptr<const AvailabilitySnapshot> snapshot;
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

/// Everything StratRec returns for a batch.
struct StratRecReport {
  /// The Aggregator stage (availability, batch outcome, and the strategy
  /// params block when StratRecOptions::materialize_params asked for it).
  AggregatorReport aggregator;
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
  /// See Aggregator::Create for the alignment requirements.
  static Result<StratRec> Create(std::vector<Strategy> strategies,
                                 std::vector<StrategyProfile> profiles);
  static Result<StratRec> Create(Catalog catalog);

  const Aggregator& aggregator() const { return aggregator_; }

  /// Full pipeline with availability estimated from a distribution.
  Result<StratRecReport> ProcessBatch(
      const std::vector<DeploymentRequest>& requests,
      const AvailabilityModel& availability,
      const StratRecOptions& options = {}) const;

  /// Full pipeline at a known expected availability W.
  Result<StratRecReport> ProcessBatchAtAvailability(
      const std::vector<DeploymentRequest>& requests, double availability,
      const StratRecOptions& options = {}) const;

 private:
  explicit StratRec(Aggregator aggregator)
      : aggregator_(std::move(aggregator)) {}
  Aggregator aggregator_;
};

}  // namespace stratrec::core

#endif  // STRATREC_CORE_STRATREC_H_
