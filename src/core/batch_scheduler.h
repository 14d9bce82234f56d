// Optimization-guided batch deployment (paper Section 3.3).
//
// Given per-request aggregated workforce requirements and the available
// workforce W, select the subset of requests to satisfy. Throughput
// maximization (count of satisfied requests) is solved exactly by the greedy
// (Theorem 2); pay-off maximization (sum of request budgets) is NP-hard by
// reduction from 0/1-Knapsack (Theorem 1) and the greedy achieves a
// 1/2-approximation (Theorem 3).
#ifndef STRATREC_CORE_BATCH_SCHEDULER_H_
#define STRATREC_CORE_BATCH_SCHEDULER_H_

#include <functional>
#include <vector>

#include "src/common/executor.h"
#include "src/common/status.h"
#include "src/core/deployment.h"
#include "src/core/workforce.h"

namespace stratrec::core {

/// Prices every request against the whole catalog under a policy: row i is
/// request i's min(k, feasible) cheapest strategies (k = requests[i].k),
/// indexed over the catalog, exactly as PriceRows returns them over
/// [0, |S|). The one seam that says how a batch's rows are priced: StratRec
/// installs PriceRows over its catalog's index, and the shard router
/// installs its scatter and k-way merge.
using RowPricerFn = std::function<Result<std::vector<RowTopK>>(
    const std::vector<DeploymentRequest>&, WorkforcePolicy)>;

/// Platform-centric optimization goal F (Section 2.3, Equation 2).
enum class Objective { kThroughput, kPayoff };

/// Knobs of the batch deployment problem.
struct BatchOptions {
  Objective objective = Objective::kThroughput;
  AggregationMode aggregation = AggregationMode::kSum;
  WorkforcePolicy policy = WorkforcePolicy::kMinimalWorkforce;
  /// When set, the embarrassingly-parallel stages (the PriceRows units of
  /// the m x |S| pricing, the per-request ADPaR fan-out) partition across
  /// this pool. Null keeps every stage on the calling thread. Not owned;
  /// results are bit-identical either way.
  Executor* executor = nullptr;
  /// Minimum work items per chunk when `executor` is set (cells for the
  /// pricing, rounded up to whole PriceRows units).
  size_t parallel_grain = 4096;
  /// How the solve prices its rows (PriceBatch).
  /// StratRec::ProcessBatchAtAvailability installs PriceRows over the
  /// catalog's index when this is empty; a shard router installs its
  /// sharded pricer. A direct SolveBatch call with it empty prices on an
  /// index built from the profile list for the call.
  RowPricerFn pricer;
};

/// Per-request outcome of a batch run; BatchResult::outcomes[i] is
/// request i's.
struct RequestOutcome {
  /// True when the scheduler allocated workforce and k strategies to it.
  bool satisfied = false;
  /// True when k strategies are feasible at all (regardless of W); requests
  /// with eligible == false can only be helped by ADPaR.
  bool eligible = false;
  /// Aggregated workforce this request consumes when satisfied.
  double workforce = 0.0;
  /// f_i: 1 for throughput, the request budget for pay-off.
  double objective_value = 0.0;
  /// The k recommended strategies (indices into the profile/strategy list),
  /// ascending by workforce requirement; empty unless satisfied.
  std::vector<size_t> strategies;

  bool operator==(const RequestOutcome&) const = default;
};

/// Result of one batch optimization.
struct BatchResult {
  std::vector<RequestOutcome> outcomes;  ///< index-aligned with the requests
  double total_objective = 0.0;
  double workforce_used = 0.0;
  std::vector<size_t> satisfied;    ///< request indices served
  std::vector<size_t> unsatisfied;  ///< request indices to forward to ADPaR

  bool operator==(const BatchResult&) const = default;
};

/// The three implemented algorithms (Section 5.2.1).
enum class BatchAlgorithm {
  kBatchStrat,  ///< the paper's greedy with the best-single-item guard
  kBaselineG,   ///< plain density greedy without the guard
  kBruteForce,  ///< exponential exact enumeration (m <= 25)
};

/// Stable lower-case name ("batchstrat", "baseline-g", "brute-force") used
/// by the api-layer algorithm registry and sweep reports.
const char* BatchAlgorithmName(BatchAlgorithm algorithm);

/// A pluggable batch solver: anything with the SolveBatch signature.
/// StratRec's pipeline accepts one of these (StratRecOptions::batch_solver)
/// so backends beyond the built-in enum (api-layer registry entries) slot
/// in without core changes.
using BatchSolverFn = std::function<Result<BatchResult>(
    const std::vector<DeploymentRequest>&, const std::vector<StrategyProfile>&,
    double, const BatchOptions&)>;

/// The built-in solver for `algorithm`, as a BatchSolverFn.
BatchSolverFn SolverForAlgorithm(BatchAlgorithm algorithm);

/// Solves the batch deployment recommendation problem.
///
/// `requests[i].k` is each request's cardinality constraint; `profiles[j]`
/// models strategy j; `available_workforce` is W in [0, 1]. A negative or
/// NaN W, or the first request ValidateRequest refuses, fails the call with
/// kInvalidArgument before any row is priced.
Result<BatchResult> SolveBatch(const std::vector<DeploymentRequest>& requests,
                               const std::vector<StrategyProfile>& profiles,
                               double available_workforce,
                               const BatchOptions& options,
                               BatchAlgorithm algorithm);

/// One request's row aggregate: what the selection half of a solve reads.
/// `strategies` is the request's k-best list in
/// WorkforceMatrix::KBestStrategies order (ascending requirement, ties by
/// strategy index) and `requirement` the aggregated workforce over exactly
/// that list; both are meaningless when `eligible` is false. SolveBatch and
/// SolveBatchWeighted build these from the rows PriceBatch returns.
struct AggregatedRequest {
  bool eligible = false;
  double requirement = 0.0;
  std::vector<size_t> strategies;

  bool operator==(const AggregatedRequest&) const = default;
};

/// The aggregate of one priced row for cardinality k: eligible iff k >= 1
/// and at least k strategies are feasible, with `row`'s list taken over and
/// folded by RowTopK::Aggregate.
AggregatedRequest AggregateRow(RowTopK row, int k, AggregationMode mode);

/// Every request's row over the whole catalog, one per request: from
/// `options.pricer` when it is set, otherwise from PriceRows with the
/// options' policy, executor and grain on an index built from `profiles`
/// for this call. Fails when the pricer fails or returns a row count other
/// than the request count.
Result<std::vector<RowTopK>> PriceBatch(
    const std::vector<DeploymentRequest>& requests,
    const std::vector<StrategyProfile>& profiles, const BatchOptions& options);

/// Convenience wrappers.
Result<BatchResult> BatchStrat(const std::vector<DeploymentRequest>& requests,
                               const std::vector<StrategyProfile>& profiles,
                               double available_workforce,
                               const BatchOptions& options = {});
Result<BatchResult> BaselineG(const std::vector<DeploymentRequest>& requests,
                              const std::vector<StrategyProfile>& profiles,
                              double available_workforce,
                              const BatchOptions& options = {});
Result<BatchResult> BruteForceBatch(
    const std::vector<DeploymentRequest>& requests,
    const std::vector<StrategyProfile>& profiles, double available_workforce,
    const BatchOptions& options = {});

}  // namespace stratrec::core

#endif  // STRATREC_CORE_BATCH_SCHEDULER_H_
