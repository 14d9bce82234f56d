#include "src/core/multi_objective.h"

#include <cmath>
#include <utility>

#include "src/core/knapsack.h"

namespace stratrec::core {

Result<MultiObjectiveResult> SolveBatchWeighted(
    const std::vector<DeploymentRequest>& requests,
    const std::vector<StrategyProfile>& profiles, double available_workforce,
    const ObjectiveWeights& weights, const BatchOptions& options,
    BatchAlgorithm algorithm) {
  if (!(available_workforce >= 0.0)) {  // NaN fails too
    return Status::InvalidArgument("available workforce must be >= 0");
  }
  if (weights.throughput < 0.0 || weights.payoff < 0.0 || weights.effort < 0.0 ||
      !std::isfinite(weights.throughput + weights.payoff + weights.effort)) {
    return Status::InvalidArgument("weights must be finite and >= 0");
  }
  if (algorithm == BatchAlgorithm::kBaselineG) {
    return Status::InvalidArgument(
        "BaselineG is defined by the pay-off ordering; use SolveBatch");
  }

  for (const DeploymentRequest& request : requests) {
    STRATREC_RETURN_NOT_OK(ValidateRequest(request));
  }
  auto rows = PriceBatch(requests, profiles, options);
  if (!rows.ok()) return rows.status();

  MultiObjectiveResult result;
  result.batch.outcomes.resize(requests.size());
  std::vector<AggregatedRequest> aggregated(requests.size());
  std::vector<KnapsackItem> items;
  for (size_t i = 0; i < requests.size(); ++i) {
    RequestOutcome& outcome = result.batch.outcomes[i];
    aggregated[i] =
        AggregateRow(std::move((*rows)[i]), requests[i].k, options.aggregation);
    if (!aggregated[i].eligible) continue;
    outcome.eligible = true;
    KnapsackItem item;
    item.index = i;
    item.weight = aggregated[i].requirement;
    // The effort penalty can make an item's value negative; such items can
    // never improve the objective, so they are dropped up front (the greedy
    // guard requires non-negative values for its approximation bound).
    item.value = weights.throughput + weights.payoff * requests[i].Payoff() -
                 weights.effort * item.weight;
    outcome.objective_value = item.value;
    if (item.value <= 0.0) continue;
    item.sort_value = item.value;
    items.push_back(item);
  }

  std::vector<KnapsackItem> chosen;
  if (algorithm == BatchAlgorithm::kBruteForce) {
    auto exact = BruteForceKnapsack(items, available_workforce);
    if (!exact.ok()) return exact.status();
    chosen = std::move(*exact);
  } else {
    GreedyKnapsackOptions greedy;
    greedy.single_item_guard = true;
    chosen = GreedyKnapsack(std::move(items), available_workforce, greedy);
  }

  for (const KnapsackItem& item : chosen) {
    RequestOutcome& outcome = result.batch.outcomes[item.index];
    outcome.satisfied = true;
    outcome.workforce = item.weight;
    outcome.strategies = std::move(aggregated[item.index].strategies);
    result.batch.total_objective += item.value;
    result.batch.workforce_used += item.weight;
    result.throughput += 1.0;
    result.payoff += requests[item.index].Payoff();
    result.effort += item.weight;
  }
  for (size_t i = 0; i < result.batch.outcomes.size(); ++i) {
    if (result.batch.outcomes[i].satisfied) {
      result.batch.satisfied.push_back(i);
    } else {
      result.batch.unsatisfied.push_back(i);
    }
  }
  result.scalarized = result.batch.total_objective;
  return result;
}

Result<std::vector<ParetoPoint>> SweepPareto(
    const std::vector<DeploymentRequest>& requests,
    const std::vector<StrategyProfile>& profiles, double available_workforce,
    int steps, const BatchOptions& options) {
  if (steps < 2) return Status::InvalidArgument("sweep needs >= 2 steps");
  std::vector<ParetoPoint> curve;
  curve.reserve(static_cast<size_t>(steps));
  for (int s = 0; s < steps; ++s) {
    const double lambda =
        static_cast<double>(s) / static_cast<double>(steps - 1);
    ObjectiveWeights weights;
    weights.throughput = 1.0 - lambda;
    weights.payoff = lambda;
    auto result = SolveBatchWeighted(requests, profiles, available_workforce,
                                     weights, options);
    if (!result.ok()) return result.status();
    curve.push_back(ParetoPoint{lambda, result->throughput, result->payoff});
  }
  return curve;
}

}  // namespace stratrec::core
