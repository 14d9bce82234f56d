// Multi-objective batch deployment — the paper's stated future work
// ("adapting batch deployment to optimize additional criteria, such as
// worker-centric goals, or to combine multiple goals inside the same
// optimization function", Section 7).
//
// The combined objective for a served request d_i with aggregated workforce
// requirement w_i is the scalarization
//
//   f_i = throughput_weight * 1
//       + payoff_weight    * d_i.cost
//       - effort_weight    * w_i          (worker-centric: conserve effort)
//
// solved with the same density greedy + single-item guard as BatchStrat
// (the guard preserves the 1/2 bound whenever all f_i are non-negative).
// SweepPareto traces the throughput/pay-off trade-off curve by varying the
// mixing weight.
#ifndef STRATREC_CORE_MULTI_OBJECTIVE_H_
#define STRATREC_CORE_MULTI_OBJECTIVE_H_

#include <vector>

#include "src/core/batch_scheduler.h"

namespace stratrec::core {

/// Scalarization weights; all must be finite and >= 0.
struct ObjectiveWeights {
  double throughput = 1.0;
  double payoff = 0.0;
  /// Penalty per unit of workforce consumed (a worker-centric goal: prefer
  /// serving requests that tie up less of the crowd).
  double effort = 0.0;
};

/// Extended result: the scalarized objective plus its components.
struct MultiObjectiveResult {
  BatchResult batch;
  double throughput = 0.0;  ///< number of satisfied requests
  double payoff = 0.0;      ///< sum of served budgets
  double effort = 0.0;      ///< workforce consumed
  double scalarized = 0.0;  ///< the optimized combination
};

/// Solves the batch problem under the combined objective. `algorithm`
/// kBatchStrat uses the guarded greedy; kBruteForce enumerates (m <= 25);
/// kBaselineG is not supported here (it is defined by the pay-off ordering).
/// As in SolveBatch, bad arguments and invalid requests fail the call before
/// any row is priced.
Result<MultiObjectiveResult> SolveBatchWeighted(
    const std::vector<DeploymentRequest>& requests,
    const std::vector<StrategyProfile>& profiles, double available_workforce,
    const ObjectiveWeights& weights, const BatchOptions& options = {},
    BatchAlgorithm algorithm = BatchAlgorithm::kBatchStrat);

/// One point of the throughput/pay-off trade-off curve.
struct ParetoPoint {
  double payoff_weight = 0.0;  ///< throughput weight is (1 - payoff_weight)
  double throughput = 0.0;
  double payoff = 0.0;
};

/// Traces the trade-off curve by sweeping the pay-off mixing weight over
/// [0, 1] in `steps` increments (steps >= 2).
Result<std::vector<ParetoPoint>> SweepPareto(
    const std::vector<DeploymentRequest>& requests,
    const std::vector<StrategyProfile>& profiles, double available_workforce,
    int steps, const BatchOptions& options = {});

}  // namespace stratrec::core

#endif  // STRATREC_CORE_MULTI_OBJECTIVE_H_
