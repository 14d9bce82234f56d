#include "src/core/adpar_baselines.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "src/common/float_compare.h"
#include "src/geometry/rtree.h"

namespace stratrec::core {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

// The tight alternative covering every strategy in `subset`: each request
// threshold is relaxed exactly as far as the worst subset member requires.
ParamVector ClampAgainstSubset(const std::vector<ParamVector>& strategies,
                               const std::vector<size_t>& subset,
                               const ParamVector& request) {
  ParamVector d = request;
  for (size_t j : subset) {
    d.quality = std::min(d.quality, strategies[j].quality);
    d.cost = std::max(d.cost, strategies[j].cost);
    d.latency = std::max(d.latency, strategies[j].latency);
  }
  return d;
}

Result<AdparResult> MakeResult(const std::vector<ParamVector>& strategies,
                               const ParamVector& request,
                               const ParamVector& d_prime, int k) {
  AdparResult result;
  result.alternative = d_prime;
  result.squared_distance = d_prime.SquaredDistanceTo(request);
  result.distance = std::sqrt(result.squared_distance);
  STRATREC_RETURN_NOT_OK(SelectCoveredStrategies(strategies, k, &result));
  return result;
}

size_t CountCovered(const std::vector<ParamVector>& strategies,
                    const ParamVector& d_prime) {
  size_t covered = 0;
  for (const ParamVector& s : strategies) {
    if (Satisfies(s, d_prime)) ++covered;
  }
  return covered;
}

Result<uint64_t> Combinations(uint64_t n, uint64_t k, uint64_t cap) {
  if (k > n) return static_cast<uint64_t>(0);
  k = std::min(k, n - k);
  // Track a floating-point shadow to detect blow-ups before the exact
  // integer product (which stays integral at every step) can overflow.
  long double approx = 1.0L;
  uint64_t result = 1;
  for (uint64_t i = 1; i <= k; ++i) {
    approx = approx * static_cast<long double>(n - k + i) /
             static_cast<long double>(i);
    if (approx > 2.0L * static_cast<long double>(cap)) {
      return Status::OutOfRange("combination count exceeds cap");
    }
    result = result * (n - k + i) / i;
  }
  if (result > cap) {
    return Status::OutOfRange("combination count exceeds cap");
  }
  return result;
}

}  // namespace

Result<AdparResult> AdparBrute(const std::vector<ParamVector>& strategies,
                               const ParamVector& request, int k,
                               uint64_t max_combinations) {
  if (k < 1) return Status::InvalidArgument("k must be >= 1");
  const size_t n = strategies.size();
  if (n < static_cast<size_t>(k)) {
    return Status::Infeasible("fewer strategies than k");
  }
  auto combos = Combinations(n, static_cast<uint64_t>(k), max_combinations);
  if (!combos.ok()) return combos.status();

  const auto uk = static_cast<size_t>(k);
  std::vector<size_t> subset(uk);
  for (size_t i = 0; i < uk; ++i) subset[i] = i;

  double best_sq = kInf;
  ParamVector best{};
  while (true) {
    const ParamVector d = ClampAgainstSubset(strategies, subset, request);
    const double sq = d.SquaredDistanceTo(request);
    if (sq < best_sq) {
      best_sq = sq;
      best = d;
    }
    // Next combination in lexicographic order.
    size_t pos = uk;
    while (pos > 0 && subset[pos - 1] == n - uk + pos - 1) --pos;
    if (pos == 0) break;
    ++subset[pos - 1];
    for (size_t i = pos; i < uk; ++i) subset[i] = subset[i - 1] + 1;
  }
  return MakeResult(strategies, request, best, k);
}

Result<AdparResult> AdparBaseline2(const std::vector<ParamVector>& strategies,
                                   const ParamVector& request, int k) {
  if (k < 1) return Status::InvalidArgument("k must be >= 1");
  const size_t n = strategies.size();
  const auto uk = static_cast<size_t>(k);
  if (n < uk) return Status::Infeasible("fewer strategies than k");

  ParamVector current = request;
  // Bounded by the number of distinct strategy coordinates: each greedy step
  // relaxes one axis to a new strategy coordinate.
  for (size_t step = 0; step <= 3 * n + 3; ++step) {
    if (CountCovered(strategies, current) >= uk) {
      return MakeResult(strategies, request, current, k);
    }

    // Try every single-axis relaxation that alone reaches k coverage, with
    // the other two axes fixed at their current values.
    double best_sq = kInf;
    ParamVector best{};
    for (int axis = 0; axis < 3; ++axis) {
      // Strategies eligible on the other two axes.
      std::vector<double> coords;
      for (const ParamVector& s : strategies) {
        const bool quality_ok = axis == 0 || ApproxGe(s.quality, current.quality);
        const bool cost_ok = axis == 1 || ApproxLe(s.cost, current.cost);
        const bool latency_ok = axis == 2 || ApproxLe(s.latency, current.latency);
        if (quality_ok && cost_ok && latency_ok) {
          coords.push_back(axis == 0 ? s.quality
                                     : (axis == 1 ? s.cost : s.latency));
        }
      }
      if (coords.size() < uk) continue;
      ParamVector candidate = current;
      if (axis == 0) {
        // k-th largest quality is the weakest lower bound covering k.
        std::nth_element(coords.begin(), coords.begin() + (uk - 1), coords.end(),
                         std::greater<>());
        candidate.quality = std::min(current.quality, coords[uk - 1]);
      } else {
        std::nth_element(coords.begin(), coords.begin() + (uk - 1), coords.end());
        double& field = axis == 1 ? candidate.cost : candidate.latency;
        field = std::max(field, coords[uk - 1]);
      }
      const double sq = candidate.SquaredDistanceTo(request);
      if (sq < best_sq) {
        best_sq = sq;
        best = candidate;
      }
    }
    if (std::isfinite(best_sq)) {
      return MakeResult(strategies, request, best, k);
    }

    // No single axis suffices: take the cheapest one-axis step to the next
    // blocking strategy coordinate and loop.
    double step_best_sq = kInf;
    ParamVector step_best = current;
    for (int axis = 0; axis < 3; ++axis) {
      double next = axis == 0 ? -kInf : kInf;
      bool found = false;
      for (const ParamVector& s : strategies) {
        if (axis == 0 && s.quality < current.quality - kEps) {
          next = std::max(next, s.quality);
          found = true;
        } else if (axis == 1 && s.cost > current.cost + kEps) {
          next = std::min(next, s.cost);
          found = true;
        } else if (axis == 2 && s.latency > current.latency + kEps) {
          next = std::min(next, s.latency);
          found = true;
        }
      }
      if (!found) continue;
      ParamVector candidate = current;
      (axis == 0 ? candidate.quality
                 : (axis == 1 ? candidate.cost : candidate.latency)) = next;
      const double sq = candidate.SquaredDistanceTo(request);
      if (sq < step_best_sq) {
        step_best_sq = sq;
        step_best = candidate;
      }
    }
    if (!std::isfinite(step_best_sq)) {
      // Nothing left to relax, yet coverage < k: impossible when |S| >= k.
      return Status::Internal("Baseline2 exhausted relaxations below k");
    }
    current = step_best;
  }
  return Status::Internal("Baseline2 failed to converge");
}

Result<AdparResult> AdparBaseline3(const std::vector<ParamVector>& strategies,
                                   const ParamVector& request, int k) {
  if (k < 1) return Status::InvalidArgument("k must be >= 1");
  const size_t n = strategies.size();
  const auto uk = static_cast<size_t>(k);
  if (n < uk) return Status::Infeasible("fewer strategies than k");

  // Index strategies as points in the smaller-is-better relaxation space.
  geo::RTree tree;
  for (size_t j = 0; j < n; ++j) {
    tree.Insert(ToRelaxSpace(strategies[j]), static_cast<int64_t>(j));
  }
  const geo::Point3 origin = ToRelaxSpace(request);

  // Scan node MBBs in tree order, exactly as the paper describes: return
  // the top corner of the first node holding exactly k points; when no such
  // node exists, fall back to the smallest node holding more than k (the
  // root always holds n >= k). Unlike ADPaR-Exact, the scan is oblivious to
  // the distance objective — which is why this baseline fares worst in the
  // paper's Figure 17.
  bool found_exact = false;
  ParamVector exact_candidate{};
  size_t best_over_count = n + 1;
  ParamVector over_candidate{};
  tree.VisitNodes([&](const geo::NodeSummary& node) {
    if (node.count < uk || found_exact) return;
    geo::Point3 corner = node.mbb.TopCorner();
    corner.x = std::max(corner.x, origin.x);
    corner.y = std::max(corner.y, origin.y);
    corner.z = std::max(corner.z, origin.z);
    const ParamVector candidate = FromRelaxSpace(corner);
    if (node.count == uk) {
      found_exact = true;
      exact_candidate = candidate;
    } else if (node.count < best_over_count) {
      best_over_count = node.count;
      over_candidate = candidate;
    }
  });

  return MakeResult(strategies, request,
                    found_exact ? exact_candidate : over_candidate, k);
}

}  // namespace stratrec::core
