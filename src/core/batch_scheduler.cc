#include "src/core/batch_scheduler.h"

#include <algorithm>
#include <cmath>

#include "src/common/float_compare.h"
#include "src/core/catalog_index.h"
#include "src/core/knapsack.h"

namespace stratrec::core {

Result<BatchResult> SolveBatchAggregated(
    const std::vector<DeploymentRequest>& requests,
    const std::vector<AggregatedRequest>& aggregated,
    double available_workforce, const BatchOptions& options,
    BatchAlgorithm algorithm) {
  if (available_workforce < 0.0) {
    return Status::InvalidArgument("available workforce must be >= 0");
  }
  if (aggregated.size() != requests.size()) {
    return Status::InvalidArgument(
        "aggregated rows must be index-aligned with the requests");
  }

  BatchResult result;
  result.outcomes.resize(requests.size());
  std::vector<KnapsackItem> items;
  items.reserve(requests.size());
  for (size_t i = 0; i < requests.size(); ++i) {
    STRATREC_RETURN_NOT_OK(ValidateRequest(requests[i]));
    RequestOutcome& outcome = result.outcomes[i];
    outcome.request_index = i;
    outcome.objective_value = options.objective == Objective::kThroughput
                                  ? 1.0
                                  : requests[i].Payoff();
    if (!aggregated[i].eligible) continue;  // fewer than k strategies
    outcome.eligible = true;
    KnapsackItem item;
    item.index = i;
    item.weight = aggregated[i].requirement;
    item.value = outcome.objective_value;
    // BaselineG always ranks by pay-off density, whatever the objective.
    item.sort_value = requests[i].Payoff();
    items.push_back(item);
  }

  std::vector<KnapsackItem> chosen;
  switch (algorithm) {
    case BatchAlgorithm::kBatchStrat: {
      GreedyKnapsackOptions greedy;
      greedy.single_item_guard = true;
      chosen = GreedyKnapsack(std::move(items), available_workforce, greedy);
      break;
    }
    case BatchAlgorithm::kBaselineG: {
      GreedyKnapsackOptions greedy;
      greedy.single_item_guard = false;
      greedy.use_sort_value = true;  // pay-off density, no guard
      chosen = GreedyKnapsack(std::move(items), available_workforce, greedy);
      break;
    }
    case BatchAlgorithm::kBruteForce: {
      auto exact = BruteForceKnapsack(items, available_workforce);
      if (!exact.ok()) return exact.status();
      chosen = std::move(*exact);
      break;
    }
  }

  for (const KnapsackItem& item : chosen) {
    RequestOutcome& outcome = result.outcomes[item.index];
    outcome.satisfied = true;
    outcome.workforce = item.weight;
    outcome.strategies = aggregated[item.index].strategies;
    result.total_objective += item.value;
    result.workforce_used += item.weight;
  }
  for (size_t i = 0; i < result.outcomes.size(); ++i) {
    if (result.outcomes[i].satisfied) {
      result.satisfied.push_back(i);
    } else {
      result.unsatisfied.push_back(i);
    }
  }
  return result;
}

AggregatedRequest AggregateRow(RowTopK row, int k, AggregationMode mode) {
  AggregatedRequest out;
  if (k < 1) return out;  // rejected by ValidateRequest before any read
  auto requirement = row.Aggregate(k, mode);
  if (!requirement.ok()) return out;  // fewer than k feasible strategies
  out.eligible = true;
  out.requirement = *requirement;
  out.strategies = std::move(row.strategies);
  return out;
}

std::vector<RowTopK> PriceBatch(const std::vector<DeploymentRequest>& requests,
                                const std::vector<StrategyProfile>& profiles,
                                const BatchOptions& options) {
  if (options.use_catalog_index && options.catalog_index != nullptr) {
    return PriceRows(requests, *options.catalog_index, 0,
                     options.catalog_index->size(), options.policy,
                     options.executor, options.parallel_grain);
  }
  const CatalogIndex index = CatalogIndex::Build(profiles, options.executor,
                                                 options.parallel_grain);
  return PriceRows(requests, index, 0, index.size(), options.policy,
                   options.executor, options.parallel_grain);
}

Result<BatchResult> SolveBatch(const std::vector<DeploymentRequest>& requests,
                               const std::vector<StrategyProfile>& profiles,
                               double available_workforce,
                               const BatchOptions& options,
                               BatchAlgorithm algorithm) {
  if (available_workforce < 0.0) {
    return Status::InvalidArgument("available workforce must be >= 0");
  }
  // The k-best list doubles as the aggregation order and as the
  // commit-time strategy list.
  std::vector<RowTopK> rows = PriceBatch(requests, profiles, options);
  std::vector<AggregatedRequest> aggregated(requests.size());
  for (size_t i = 0; i < requests.size(); ++i) {
    aggregated[i] =
        AggregateRow(std::move(rows[i]), requests[i].k, options.aggregation);
  }
  return SolveBatchAggregated(requests, aggregated, available_workforce,
                              options, algorithm);
}

Result<BatchResult> BatchStrat(const std::vector<DeploymentRequest>& requests,
                               const std::vector<StrategyProfile>& profiles,
                               double available_workforce,
                               const BatchOptions& options) {
  return SolveBatch(requests, profiles, available_workforce, options,
                    BatchAlgorithm::kBatchStrat);
}

Result<BatchResult> BaselineG(const std::vector<DeploymentRequest>& requests,
                              const std::vector<StrategyProfile>& profiles,
                              double available_workforce,
                              const BatchOptions& options) {
  return SolveBatch(requests, profiles, available_workforce, options,
                    BatchAlgorithm::kBaselineG);
}

Result<BatchResult> BruteForceBatch(
    const std::vector<DeploymentRequest>& requests,
    const std::vector<StrategyProfile>& profiles, double available_workforce,
    const BatchOptions& options) {
  return SolveBatch(requests, profiles, available_workforce, options,
                    BatchAlgorithm::kBruteForce);
}

const char* BatchAlgorithmName(BatchAlgorithm algorithm) {
  switch (algorithm) {
    case BatchAlgorithm::kBatchStrat:
      return "batchstrat";
    case BatchAlgorithm::kBaselineG:
      return "baseline-g";
    case BatchAlgorithm::kBruteForce:
      return "brute-force";
  }
  return "?";
}

BatchSolverFn SolverForAlgorithm(BatchAlgorithm algorithm) {
  return [algorithm](const std::vector<DeploymentRequest>& requests,
                     const std::vector<StrategyProfile>& profiles,
                     double available_workforce, const BatchOptions& options) {
    return SolveBatch(requests, profiles, available_workforce, options,
                      algorithm);
  };
}

}  // namespace stratrec::core
