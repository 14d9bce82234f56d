// ADPaR: Alternative Deployment Parameter Recommendation (paper Section 4).
//
// Given a request d that cannot be served, find the alternative parameters d'
// minimizing the Euclidean distance to d such that at least k strategies
// satisfy d' (Equation 3). Relaxation is one-directional: d'.quality <=
// d.quality (weaker lower bound), d'.cost >= d.cost and d'.latency >=
// d.latency (weaker upper bounds) — tightening any parameter can only lose
// coverage while increasing distance.
//
// AdparExact keeps the paper's discretized sweep-line idea but organizes it
// as a two-level sweep that is provably exact and O(|S|^2 log k) after an
// O(|S| log |S|) sort (the paper quotes O(|S|^3)):
//
//   The optimal d' is component-wise *tight*: every coordinate equals the
//   original coordinate or some strategy's coordinate (Lemma 1/2). So sweep
//   the <= |S|+1 candidate quality thresholds; for each, sweep the candidate
//   cost thresholds in ascending order over the quality-eligible strategies
//   while a bounded max-heap maintains the k-th smallest latency among
//   admitted strategies, which is exactly the tight latency threshold.
#ifndef STRATREC_CORE_ADPAR_H_
#define STRATREC_CORE_ADPAR_H_

#include <array>
#include <functional>
#include <vector>

#include "src/common/status.h"
#include "src/core/types.h"

namespace stratrec::core {

/// Solution of one ADPaR instance.
struct AdparResult {
  /// The recommended alternative deployment parameters d'.
  ParamVector alternative;
  /// k strategies satisfying `alternative` (indices into the input list),
  /// deterministic order (cheapest cost, then latency, then highest quality).
  std::vector<size_t> strategies;
  /// The parameters of `strategies` in the searched list (the catalog
  /// estimated at W), index-aligned: k entries, so a reader never needs the
  /// O(|S|) block to see what the alternative covers.
  std::vector<ParamVector> strategy_params;
  /// (d'.q - d.q)^2 + (d'.c - d.c)^2 + (d'.l - d.l)^2 — Equation 3.
  double squared_distance = 0.0;
  /// sqrt of the above: the l2 distance the paper plots in Figure 17.
  double distance = 0.0;

  bool operator==(const AdparResult&) const = default;
};

/// Optional execution trace mirroring the paper's worked example
/// (Tables 2-4): per-strategy relaxation requirements and the sorted
/// (R, I, D) lists.
struct AdparTrace {
  /// Step 1: required relaxation per strategy along (quality, cost,
  /// latency); 0 when the strategy already meets that threshold.
  struct Relaxation {
    size_t strategy = 0;
    std::array<double, 3> by_axis = {0.0, 0.0, 0.0};  // indexed by ParamAxis
  };
  std::vector<Relaxation> relaxations;

  /// Step 2: all 3|S| relaxation values sorted ascending; R[j] is the value,
  /// I[j] the strategy index, D[j] the axis.
  struct SortedEntry {
    double relaxation = 0.0;
    size_t strategy = 0;
    ParamAxis axis = ParamAxis::kQuality;
  };
  std::vector<SortedEntry> sorted;

  /// Every candidate d' the sweep evaluated (for the walkthrough figures).
  struct Candidate {
    ParamVector d_prime;
    double squared_distance = 0.0;
  };
  std::vector<Candidate> candidates;
};

/// Exact solver. Fails with kInfeasible when |S| < k and kInvalidArgument on
/// malformed input (k < 1). `trace`, when non-null, is filled with the
/// paper-style execution trace. It sorts per call: it is the paper-trace
/// entry point and the tests' oracle. Every production path (the registry's
/// "exact", StratRec's default, stream sessions) calls the snapshot
/// overload in src/core/catalog_index.h, which reads prebuilt orderings and
/// skips skyline-dominated candidates.
Result<AdparResult> AdparExact(const std::vector<ParamVector>& strategies,
                               const ParamVector& request, int k,
                               AdparTrace* trace = nullptr);

class AvailabilitySnapshot;  // src/core/catalog_index.h

/// A pluggable alternative-recommendation solver (AdparExact, the paper's
/// literal sweep, the baselines, ...). It solves one request against the
/// catalog estimated at the snapshot's W: `snapshot.params()` is the
/// searched list, and the reported strategies index into it. StratRec and
/// the api-layer registry accept any callable with this shape.
using AdparSolverFn = std::function<Result<AdparResult>(
    const AvailabilitySnapshot&, const ParamVector&, int)>;

/// Picks the `k` covered strategies reported for `result->alternative` and
/// fills `result->strategies` plus their `result->strategy_params`. Every
/// solver funnels through here, so all of them report the same
/// deterministic k-set for the same alternative. Fails when fewer than k
/// strategies satisfy the alternative.
Status SelectCoveredStrategies(const std::vector<ParamVector>& strategies,
                               int k, AdparResult* result);

}  // namespace stratrec::core

#endif  // STRATREC_CORE_ADPAR_H_
