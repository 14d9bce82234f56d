#include "src/core/skyline.h"

#include <algorithm>

#include "src/core/kernels/kernels.h"

namespace stratrec::core {

bool Dominates(const ParamVector& p, const ParamVector& q) {
  const bool no_worse = p.quality >= q.quality && p.cost <= q.cost &&
                        p.latency <= q.latency;
  if (!no_worse) return false;
  return p.quality > q.quality || p.cost < q.cost || p.latency < q.latency;
}

std::vector<int> DominanceCounts(const std::vector<ParamVector>& strategies) {
  const size_t n = strategies.size();
  std::vector<int> counts(n, 0);
  // Sorting by relaxation-space coordinate sum lets the inner loop consider
  // only candidates with smaller sums (a dominator's sum is strictly
  // smaller), halving the quadratic constant.
  std::vector<size_t> order(n);
  for (size_t i = 0; i < n; ++i) order[i] = i;
  auto relax_sum = [&](size_t i) {
    const ParamVector& s = strategies[i];
    return (1.0 - s.quality) + s.cost + s.latency;
  };
  std::sort(order.begin(), order.end(),
            [&](size_t a, size_t b) { return relax_sum(a) < relax_sum(b); });
  // Permuted SoA copy of the sorted prefix so the quadratic inner loop runs
  // through the dispatched dominance kernel (4 candidates per AVX2 step).
  std::vector<double> quality(n);
  std::vector<double> cost(n);
  std::vector<double> latency(n);
  for (size_t i = 0; i < n; ++i) {
    const ParamVector& s = strategies[order[i]];
    quality[i] = s.quality;
    cost[i] = s.cost;
    latency[i] = s.latency;
  }
  const kernels::PointSoA pts{quality.data(), cost.data(), latency.data()};
  for (size_t a = 0; a < n; ++a) {
    counts[order[a]] = static_cast<int>(
        kernels::CountDominators(pts, a, strategies[order[a]]));
    // Equal-sum points can still dominate only when identical-sum but
    // unequal coordinates — impossible: domination with equal sums requires
    // equality on all axes, which is not domination. So b < a suffices.
  }
  return counts;
}

std::vector<size_t> Skyline(const std::vector<ParamVector>& strategies) {
  auto skyband = KSkyband(strategies, 1);
  return skyband.ok() ? std::move(*skyband) : std::vector<size_t>{};
}

Result<std::vector<size_t>> KSkyband(const std::vector<ParamVector>& strategies,
                                     int k) {
  if (k < 1) return Status::InvalidArgument("k must be >= 1");
  const std::vector<int> counts = DominanceCounts(strategies);
  std::vector<size_t> band;
  for (size_t i = 0; i < strategies.size(); ++i) {
    if (counts[i] < k) band.push_back(i);
  }
  return band;
}

Result<AdparResult> AdparExactSkyband(const std::vector<ParamVector>& strategies,
                                      const ParamVector& request, int k) {
  if (k < 1) return Status::InvalidArgument("k must be >= 1");
  if (strategies.size() < static_cast<size_t>(k)) {
    return Status::Infeasible("fewer strategies than k");
  }
  auto band = KSkyband(strategies, k);
  if (!band.ok()) return band.status();

  std::vector<ParamVector> pruned;
  pruned.reserve(band->size());
  for (size_t index : *band) pruned.push_back(strategies[index]);

  auto result = AdparExact(pruned, request, k);
  if (!result.ok()) return result.status();
  // Re-select covered strategies against the full catalog so indices refer
  // to the caller's list (the alternative may cover non-skyband strategies
  // too, which is fine — coverage only grows).
  STRATREC_RETURN_NOT_OK(SelectCoveredStrategies(strategies, k, &*result));
  return std::move(*result);
}

}  // namespace stratrec::core
