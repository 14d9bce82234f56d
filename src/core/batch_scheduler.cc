#include "src/core/batch_scheduler.h"

#include <algorithm>
#include <cmath>
#include <string>

#include "src/common/float_compare.h"
#include "src/core/catalog_index.h"
#include "src/core/knapsack.h"

namespace stratrec::core {

AggregatedRequest AggregateRow(RowTopK row, int k, AggregationMode mode) {
  AggregatedRequest out;
  auto requirement = row.Aggregate(k, mode);
  if (!requirement.ok()) return out;  // k < 1, or fewer than k feasible
  out.eligible = true;
  out.requirement = *requirement;
  out.strategies = std::move(row.strategies);
  return out;
}

Result<std::vector<RowTopK>> PriceBatch(
    const std::vector<DeploymentRequest>& requests,
    const std::vector<StrategyProfile>& profiles, const BatchOptions& options) {
  if (options.pricer) {
    auto rows = options.pricer(requests, options.policy);
    if (rows.ok() && rows->size() != requests.size()) {
      return Status::Internal("row pricer returned " +
                              std::to_string(rows->size()) + " rows for " +
                              std::to_string(requests.size()) + " requests");
    }
    return rows;
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
  if (!(available_workforce >= 0.0)) {  // NaN fails too
    return Status::InvalidArgument("available workforce must be >= 0");
  }
  // Refused before the O(m * |S|) scan, which on a router is a scatter.
  for (const DeploymentRequest& request : requests) {
    STRATREC_RETURN_NOT_OK(ValidateRequest(request));
  }
  // The k-best list doubles as the aggregation order and as the
  // commit-time strategy list.
  auto rows = PriceBatch(requests, profiles, options);
  if (!rows.ok()) return rows.status();

  BatchResult result;
  result.outcomes.resize(requests.size());
  std::vector<AggregatedRequest> aggregated(requests.size());
  std::vector<KnapsackItem> items;
  items.reserve(requests.size());
  for (size_t i = 0; i < requests.size(); ++i) {
    RequestOutcome& outcome = result.outcomes[i];
    outcome.objective_value = options.objective == Objective::kThroughput
                                  ? 1.0
                                  : requests[i].Payoff();
    aggregated[i] =
        AggregateRow(std::move((*rows)[i]), requests[i].k, options.aggregation);
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
    outcome.strategies = std::move(aggregated[item.index].strategies);
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
