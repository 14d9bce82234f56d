#include "src/core/adpar.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>

#include "src/common/float_compare.h"
#include "src/core/catalog_index.h"
#include "src/geometry/k_smallest.h"

namespace stratrec::core {
namespace {

void FillTraceSteps(const std::vector<ParamVector>& strategies,
                    const ParamVector& request, AdparTrace* trace) {
  trace->relaxations.clear();
  trace->sorted.clear();
  trace->candidates.clear();
  for (size_t j = 0; j < strategies.size(); ++j) {
    AdparTrace::Relaxation rel;
    rel.strategy = j;
    // Quality needs lowering when the strategy quality is below the bound;
    // cost/latency need raising when the strategy exceeds them.
    rel.by_axis[static_cast<int>(ParamAxis::kQuality)] =
        std::max(0.0, request.quality - strategies[j].quality);
    rel.by_axis[static_cast<int>(ParamAxis::kCost)] =
        std::max(0.0, strategies[j].cost - request.cost);
    rel.by_axis[static_cast<int>(ParamAxis::kLatency)] =
        std::max(0.0, strategies[j].latency - request.latency);
    trace->relaxations.push_back(rel);
  }
  for (const auto& rel : trace->relaxations) {
    for (int axis = 0; axis < 3; ++axis) {
      AdparTrace::SortedEntry entry;
      entry.relaxation = rel.by_axis[axis];
      entry.strategy = rel.strategy;
      entry.axis = static_cast<ParamAxis>(axis);
      trace->sorted.push_back(entry);
    }
  }
  std::stable_sort(trace->sorted.begin(), trace->sorted.end(),
                   [](const AdparTrace::SortedEntry& a,
                      const AdparTrace::SortedEntry& b) {
                     return a.relaxation < b.relaxation;
                   });
}

/// The two-level sweep over a candidate subset, reading *values* only:
/// `cost_sorted` holds the candidate parameter vectors ascending by cost and
/// `quality_desc` their qualities descending — permuted contiguous copies of
/// the ordering (AdparOrderings / PrunedOrderings on the snapshot path,
/// gathered per call on the classic one). The sweep
/// re-scans these arrays per quality candidate, so streaming contiguous
/// memory instead of gathering through the index permutation is what makes
/// large |S| affordable; the float operations per evaluated candidate are
/// literally the same either way, which is what keeps the indexed path
/// bit-identical to the unindexed one.
///
/// Returns the best tight alternative, or +inf squared distance when no
/// candidate covers k subset strategies.
struct SweepBest {
  double squared = std::numeric_limits<double>::infinity();
  ParamVector alternative{};
};

SweepBest SweepValues(const std::vector<ParamVector>& cost_sorted,
                      const std::vector<double>& quality_desc,
                      const ParamVector& request, size_t uk,
                      AdparTrace* trace) {
  // Candidate quality thresholds: the original bound plus every strictly
  // weaker subset quality (tightness — Lemma 1/2), descending and deduped.
  std::vector<double> quality_candidates = {request.quality};
  quality_candidates.reserve(quality_desc.size() + 1);
  for (double q : quality_desc) {
    if (q >= request.quality) continue;
    if (q != quality_candidates.back()) quality_candidates.push_back(q);
  }

  SweepBest best;
  for (double q : quality_candidates) {
    const double dq = q - request.quality;  // <= 0
    const double qd2 = dq * dq;
    // Candidates are sorted descending, so qd2 grows monotonically; once it
    // alone exceeds the incumbent, no later candidate can win.
    if (qd2 >= best.squared) break;

    // Cost sweep over quality-eligible strategies in ascending cost order.
    // A bounded max-heap yields the k-th smallest latency among admitted
    // strategies — the tight latency threshold for the current cost bound.
    geo::KSmallestTracker latencies(uk);
    size_t cursor = 0;
    auto admit_up_to = [&](double cost_bound) {
      while (cursor < cost_sorted.size()) {
        const ParamVector& s = cost_sorted[cursor];
        if (s.cost > cost_bound + kEps) break;
        if (ApproxGe(s.quality, q)) latencies.Push(s.latency);
        ++cursor;
      }
    };

    // Candidate cost thresholds: the original bound plus every strictly
    // larger subset cost (ascending; the sweep only ever relaxes).
    std::vector<double> cost_candidates = {request.cost};
    for (const ParamVector& s : cost_sorted) {
      if (s.cost > request.cost && ApproxGe(s.quality, q)) {
        cost_candidates.push_back(s.cost);
      }
    }

    for (double c : cost_candidates) {
      admit_up_to(c);
      if (!latencies.Full()) continue;
      const double tight_latency =
          std::max(latencies.KthSmallest(), request.latency);
      const double dc = c - request.cost;
      const double dl = tight_latency - request.latency;
      const double sq = qd2 + dc * dc + dl * dl;
      if (trace != nullptr) {
        trace->candidates.push_back({ParamVector{q, c, tight_latency}, sq});
      }
      if (sq < best.squared) {
        best.squared = sq;
        best.alternative = ParamVector{q, c, tight_latency};
        // A zero-distance alternative (the request is capacity-blocked,
        // not parameter-infeasible) is unbeatable: squared distances are
        // non-negative and later candidates only replace on strict
        // improvement, so cutting the sweep here cannot change the result.
        // Trace-enabled calls keep sweeping — the paper-style trace records
        // every evaluated candidate.
        if (best.squared == 0.0 && trace == nullptr) return best;
      }
    }
  }
  return best;
}

Result<AdparResult> FinishSweep(const std::vector<ParamVector>& strategies,
                                const SweepBest& best, int k) {
  if (!std::isfinite(best.squared)) {
    return Status::Internal("sweep found no covering alternative");
  }
  AdparResult result;
  result.alternative = best.alternative;
  result.squared_distance = best.squared;
  result.distance = std::sqrt(best.squared);
  // Covered strategies are always re-selected against the full list, so
  // subset sweeps report the same deterministic k-set as the classic one.
  STRATREC_RETURN_NOT_OK(SelectCoveredStrategies(strategies, k, &result));
  return result;
}

}  // namespace

Status SelectCoveredStrategies(const std::vector<ParamVector>& strategies,
                               int k, AdparResult* result) {
  const ParamVector& d_prime = result->alternative;
  std::vector<size_t> covered;
  for (size_t j = 0; j < strategies.size(); ++j) {
    if (Satisfies(strategies[j], d_prime)) covered.push_back(j);
  }
  if (covered.size() < static_cast<size_t>(k)) {
    return Status::Internal("alternative does not cover k strategies");
  }
  // Only the k cheapest survive; the comparator is a total order (index
  // tiebreak), so the k-prefix partial_sort yields is exactly the prefix a
  // full sort would — at O(n log k) instead of O(n log n) over a covered
  // set that can be most of the catalog.
  std::partial_sort(covered.begin(),
                    covered.begin() + static_cast<ptrdiff_t>(k),
                    covered.end(), [&](size_t a, size_t b) {
                      const ParamVector& pa = strategies[a];
                      const ParamVector& pb = strategies[b];
                      if (pa.cost != pb.cost) return pa.cost < pb.cost;
                      if (pa.latency != pb.latency) {
                        return pa.latency < pb.latency;
                      }
                      if (pa.quality != pb.quality) {
                        return pa.quality > pb.quality;
                      }
                      return a < b;
                    });
  result->strategies.assign(covered.begin(),
                            covered.begin() + static_cast<ptrdiff_t>(k));
  result->strategy_params.clear();
  result->strategy_params.reserve(result->strategies.size());
  for (size_t j : result->strategies) {
    result->strategy_params.push_back(strategies[j]);
  }
  return Status::OK();
}

Result<AdparResult> AdparExact(const std::vector<ParamVector>& strategies,
                               const ParamVector& request, int k,
                               AdparTrace* trace) {
  if (k < 1) return Status::InvalidArgument("k must be >= 1");
  if (strategies.size() < static_cast<size_t>(k)) {
    return Status::Infeasible("fewer strategies than k");
  }
  if (trace != nullptr) FillTraceSteps(strategies, request, trace);

  const size_t n = strategies.size();

  // Per-request orderings (ties by index, which never affects the outcome:
  // equal keys contribute identical candidate values either way). The
  // index-accepting overload serves these from the availability snapshot.
  std::vector<size_t> by_cost(n);
  std::iota(by_cost.begin(), by_cost.end(), size_t{0});
  std::sort(by_cost.begin(), by_cost.end(), [&](size_t a, size_t b) {
    if (strategies[a].cost != strategies[b].cost) {
      return strategies[a].cost < strategies[b].cost;
    }
    return a < b;
  });
  std::vector<size_t> by_quality_desc(n);
  std::iota(by_quality_desc.begin(), by_quality_desc.end(), size_t{0});
  std::sort(by_quality_desc.begin(), by_quality_desc.end(),
            [&](size_t a, size_t b) {
              if (strategies[a].quality != strategies[b].quality) {
                return strategies[a].quality > strategies[b].quality;
              }
              return a < b;
            });

  // One O(n) gather into the permuted value arrays the sweep streams,
  // paid once per call instead of once per quality candidate.
  std::vector<ParamVector> cost_sorted;
  cost_sorted.reserve(n);
  for (size_t j : by_cost) cost_sorted.push_back(strategies[j]);
  std::vector<double> quality_desc;
  quality_desc.reserve(n);
  for (size_t j : by_quality_desc) {
    quality_desc.push_back(strategies[j].quality);
  }
  const SweepBest best = SweepValues(cost_sorted, quality_desc, request,
                                     static_cast<size_t>(k), trace);
  return FinishSweep(strategies, best, k);
}

Result<AdparResult> AdparExact(const AvailabilitySnapshot& snapshot,
                               const ParamVector& request, int k) {
  if (k < 1) return Status::InvalidArgument("k must be >= 1");
  const std::vector<ParamVector>& strategies = snapshot.params();
  if (strategies.size() < static_cast<size_t>(k)) {
    return Status::Infeasible("fewer strategies than k");
  }
  const AdparOrderings& orderings = snapshot.orderings();

  // Candidate pruning: a strategy dominated (in relaxation space) by >= k
  // others can be swapped out of any covering k-subset for a dominator
  // without increasing the tight alternative's distance (skyline.h), so the
  // sweep may skip it. The per-k filtered orderings are computed once and
  // cached on the snapshot; null means pruning is a no-op for this k.
  const auto pruned = snapshot.PrunedFor(k);
  const std::vector<ParamVector>& cost_sorted =
      pruned != nullptr ? pruned->by_cost_params : orderings.by_cost_params;
  const std::vector<double>& quality_desc =
      pruned != nullptr ? pruned->by_quality_desc_quality
                        : orderings.by_quality_desc_quality;

  // The snapshot caches the permuted value arrays, so the sweep starts
  // without the per-call gather the classic overload pays.
  const SweepBest best = SweepValues(cost_sorted, quality_desc, request,
                                     static_cast<size_t>(k),
                                     /*trace=*/nullptr);
  return FinishSweep(strategies, best, k);
}

}  // namespace stratrec::core
