#include "src/core/adpar_paper_sweep.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>

#include "src/common/float_compare.h"

namespace stratrec::core {
namespace {

constexpr int kQuality = 0;
constexpr int kCost = 1;
constexpr int kLatency = 2;

// Relaxation needed per axis for d' (built from `levels`) to admit s.
std::array<double, 3> RelaxationsFor(const ParamVector& s,
                                     const ParamVector& d) {
  return {std::max(0.0, d.quality - s.quality),
          std::max(0.0, s.cost - d.cost),
          std::max(0.0, s.latency - d.latency)};
}

ParamVector Apply(const ParamVector& d, const std::array<double, 3>& levels) {
  return ParamVector{d.quality - levels[kQuality], d.cost + levels[kCost],
                     d.latency + levels[kLatency]};
}

size_t CountCovered(const std::vector<ParamVector>& strategies,
                    const ParamVector& d_prime) {
  size_t covered = 0;
  for (const ParamVector& s : strategies) {
    if (Satisfies(s, d_prime)) ++covered;
  }
  return covered;
}

double Objective(const std::array<double, 3>& levels) {
  return levels[0] * levels[0] + levels[1] * levels[1] + levels[2] * levels[2];
}

// Step-4 projection: repeatedly try to shrink one axis at a time to the
// smallest level that still covers >= k strategies (the paper computes the
// best of the three single-axis improvements; we iterate to a fixpoint).
std::array<double, 3> ShrinkToFixpoint(
    const std::vector<ParamVector>& strategies, std::array<double, 3> levels,
    size_t k, const std::vector<std::array<double, 3>>& needed) {
  bool improved = true;
  while (improved) {
    improved = false;
    for (int axis = 0; axis < 3; ++axis) {
      if (levels[axis] <= 0.0) continue;
      // The tight level for `axis` given the other two: the k-th smallest
      // axis-relaxation among strategies admitted by the other two axes.
      std::vector<double> candidates;
      for (size_t j = 0; j < strategies.size(); ++j) {
        bool admitted_elsewhere = true;
        for (int other = 0; other < 3; ++other) {
          if (other == axis) continue;
          if (needed[j][other] > levels[other] + kEps) {
            admitted_elsewhere = false;
            break;
          }
        }
        if (admitted_elsewhere) candidates.push_back(needed[j][axis]);
      }
      if (candidates.size() < k) continue;
      std::nth_element(candidates.begin(),
                       candidates.begin() + static_cast<long>(k - 1),
                       candidates.end());
      const double tight = candidates[k - 1];
      if (tight < levels[axis] - kEps) {
        levels[axis] = tight;
        improved = true;
      }
    }
  }
  return levels;
}

}  // namespace

Result<AdparResult> AdparPaperSweep(const std::vector<ParamVector>& strategies,
                                    const ParamVector& request, int k) {
  if (k < 1) return Status::InvalidArgument("k must be >= 1");
  const size_t n = strategies.size();
  const auto uk = static_cast<size_t>(k);
  if (n < uk) return Status::Infeasible("fewer strategies than k");

  // Step 1: relaxation requirements per strategy and axis.
  std::vector<std::array<double, 3>> needed(n);
  for (size_t j = 0; j < n; ++j) {
    needed[j] = RelaxationsFor(strategies[j], request);
  }

  // Step 2: the global sorted list (R, I, D).
  struct Entry {
    double relaxation;
    size_t strategy;
    int axis;
  };
  std::vector<Entry> sorted;
  sorted.reserve(3 * n);
  for (size_t j = 0; j < n; ++j) {
    for (int axis = 0; axis < 3; ++axis) {
      sorted.push_back(Entry{needed[j][axis], j, axis});
    }
  }
  std::stable_sort(sorted.begin(), sorted.end(),
                   [](const Entry& a, const Entry& b) {
                     return a.relaxation < b.relaxation;
                   });

  // Step 3: initialize each sweep-line at the k-th smallest relaxation of
  // its own axis (Lemma 1: d' must reach at least the k-th value per axis).
  std::array<double, 3> levels = {0.0, 0.0, 0.0};
  for (int axis = 0; axis < 3; ++axis) {
    std::vector<double> axis_values(n);
    for (size_t j = 0; j < n; ++j) axis_values[j] = needed[j][axis];
    std::nth_element(axis_values.begin(),
                     axis_values.begin() + static_cast<long>(uk - 1),
                     axis_values.end());
    levels[axis] = axis_values[uk - 1];
  }

  double best_objective = std::numeric_limits<double>::infinity();
  std::array<double, 3> best_levels = {1.0, 1.0, 1.0};

  // Step 4: advance the cursor through the sorted list, raising one axis at
  // a time; whenever the current box covers k strategies, project it tight
  // and record the candidate. The paper returns at the first covering
  // candidate; we keep its objective but also let the cursor finish the
  // current relaxation value run (ties), which only strengthens the
  // heuristic without changing its character.
  auto consider = [&]() {
    const ParamVector d_prime = Apply(request, levels);
    if (CountCovered(strategies, d_prime) < uk) return false;
    const std::array<double, 3> tight =
        ShrinkToFixpoint(strategies, levels, uk, needed);
    const double objective = Objective(tight);
    if (objective < best_objective) {
      best_objective = objective;
      best_levels = tight;
    }
    return true;
  };

  bool covered = consider();
  for (size_t cursor = 0; cursor < sorted.size() && !covered; ++cursor) {
    const Entry& entry = sorted[cursor];
    if (entry.relaxation <= levels[entry.axis]) continue;
    levels[entry.axis] = entry.relaxation;
    covered = consider();
  }
  if (!std::isfinite(best_objective)) {
    // Full relaxation covers everything (|S| >= k guarantees feasibility).
    std::array<double, 3> full = {0.0, 0.0, 0.0};
    for (size_t j = 0; j < n; ++j) {
      for (int axis = 0; axis < 3; ++axis) {
        full[axis] = std::max(full[axis], needed[j][axis]);
      }
    }
    best_levels = ShrinkToFixpoint(strategies, full, uk, needed);
    best_objective = Objective(best_levels);
  }

  AdparResult result;
  result.alternative = Apply(request, best_levels);
  result.squared_distance = best_objective;
  result.distance = std::sqrt(best_objective);
  STRATREC_RETURN_NOT_OK(SelectCoveredStrategies(strategies, k, &result));
  return result;
}

}  // namespace stratrec::core
