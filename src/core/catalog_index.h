// CatalogIndex: the catalog-resident acceleration structure behind the
// batch hot path (paper Figure 18's scalability claim).
//
// Everything the per-batch pipeline needs from the strategy catalog splits
// into two tiers of precomputable state:
//
//   * CatalogIndex — availability-independent. The per-axis linear-model
//     coefficients of every StrategyProfile, transposed into flat SoA
//     arrays (alpha[axis][], beta[axis][]) so the m x |S| workforce-matrix
//     fill and the O(|S|) parameter estimation stream through contiguous
//     doubles instead of chasing per-profile structs. Built once per
//     StratRec, and so once per Service or router (optionally
//     ParallelFor-parallel).
//
//   * AvailabilitySnapshot — keyed on one availability W. The flat
//     ParamVector block EstimateParams(W) produces (shared by every ADPaR
//     solve at that W: batch alternatives, sweep cells and stream
//     sessions), plus the per-axis sorted strategy orderings and a
//     dominance (skyline) prefilter over relaxation space that turn
//     ADPaR's per-request O(|S| log |S|) sort into a one-time cost. Only
//     ADPaR reads a snapshot, so a job fetches one from its SnapshotSource
//     only when ADPaR runs; the ADPaR block is built lazily on first use.
//
// Every indexed path is bit-identical to its unindexed counterpart: the
// SoA estimators evaluate the exact same expressions, the matrix overload
// fills the exact same cells, and the index-accepting AdparExact prunes
// only strategies that provably cannot change the optimum (the k-skyband
// safety argument at AdparOrderings below, applied with a conservative
// undercount). tests/catalog_index_test.cc and tests/skyline_test.cc
// property-test all three.
#ifndef STRATREC_CORE_CATALOG_INDEX_H_
#define STRATREC_CORE_CATALOG_INDEX_H_

#include <array>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <vector>

#include "src/common/executor.h"
#include "src/core/adpar.h"
#include "src/core/linear_model.h"
#include "src/core/types.h"

namespace stratrec::core {

/// The ADPaR-facing slice of a snapshot: per-axis orderings plus the
/// skyline-dominator prefilter. Built once per (catalog, W) and reused by
/// every alternative-recommendation solve at that availability — batch
/// alternatives, sweep cells and stream sessions alike.
///
/// The k-skyband safety argument behind the prefilter: in the
/// smaller-is-better relaxation space (1 - quality, cost, latency), p
/// dominates q when it is no worse on every axis and strictly better on
/// one. If a strategy q is dominated by at least k others, any k-subset
/// containing q can swap q for a dominator not already in the subset
/// without increasing the tight alternative's distance, since the
/// dominator needs component-wise no more relaxation. Iterating the swap
/// shows that some optimal k-subset lies entirely within the k-skyband
/// (the strategies dominated by fewer than k others), so ADPaR may skip
/// everything else. Any undercount of the dominators keeps more
/// strategies and stays safe. This is the only skyband in the library:
/// `skyline`, `skyline_dominators` and AvailabilitySnapshot::PrunedFor.
struct AdparOrderings {
  /// Strategy indices ascending by (cost, index).
  std::vector<size_t> by_cost;
  /// Strategy indices descending by quality (ties ascending by index);
  /// quality-threshold candidates are a filtered scan of this.
  std::vector<size_t> by_quality_desc;
  /// Permuted value copies of the two orderings (by_cost_params[i] =
  /// params[by_cost[i]]; by_quality_desc_quality likewise). The ADPaR sweep
  /// re-scans its ordering per quality candidate and reads only values, so
  /// streaming these contiguous arrays replaces a cache-missing gather per
  /// visited strategy — the values and their order are identical, keeping
  /// the sweep bit-identical to the index-walking form.
  std::vector<ParamVector> by_cost_params;
  std::vector<double> by_quality_desc_quality;
  /// Indices of the relaxation-space skyline (points dominated by nobody),
  /// ascending by coordinate sum. On adversarial catalogs whose true
  /// skyline is huge, the build probes a bounded prefix per point and may
  /// record a superset — harmless, since only genuine dominations are ever
  /// counted from it.
  std::vector<size_t> skyline;
  /// skyline_dominators[j]: how many *skyline* strategies dominate j in
  /// relaxation space, counted against a bounded probe of `skyline` and
  /// capped at kSkylineDominatorCap. A conservative undercount of the true
  /// dominance count, so "skip j when skyline_dominators[j] >= k" only
  /// ever drops strategies the k-skyband argument proves redundant.
  std::vector<uint16_t> skyline_dominators;
};

/// Counting cap for AdparOrderings::skyline_dominators. Solves with
/// k > the cap simply see no pruning (still correct, never wrong).
inline constexpr uint16_t kSkylineDominatorCap = 64;

/// The orderings restricted to one cardinality's candidate subset
/// (strategies not known-dominated by >= k others), as the permuted value
/// arrays the sweep reads (see AdparOrderings).
struct PrunedOrderings {
  std::vector<ParamVector> by_cost_params;
  std::vector<double> by_quality_desc_quality;
};

/// Snaps `w` onto an availability grid of step `quantum` (no-op for a
/// quantum <= 0), clamped to [0, 1]. Batches, sweeps and stream sessions
/// all run at it and key the snapshot cache on it (ServiceConfig::cache),
/// so every path solves at the same W bit for bit.
double QuantizeAvailability(double w, double quantum);

/// Immutable per-availability derived state. Built by
/// CatalogIndex::BuildSnapshot (uncached) and served by a SnapshotSource;
/// always held via shared_ptr<const ...> so every ADPaR solve at one W —
/// batch alternatives, sweep cells and stream sessions — shares a single
/// block.
class AvailabilitySnapshot {
 public:
  double availability() const { return availability_; }
  size_t size() const { return params_.size(); }

  /// EstimateParams(availability()) for every strategy, index-aligned with
  /// the catalog — bit-identical to StrategyProfile::EstimateParams.
  const std::vector<ParamVector>& params() const { return params_; }

  /// The ADPaR block, built on first use (thread-safe; concurrent callers
  /// block on one build). Batch-only workloads never trigger it.
  const AdparOrderings& orderings() const;

  /// The pruned candidate orderings for cardinality k, computed once per k
  /// and cached for the snapshot's lifetime (a batch's requests typically
  /// share one k, so the filter pass amortizes like the sorts do). Null
  /// when pruning is a no-op for this k — k above the dominator cap,
  /// nothing dominated, or fewer than k survivors — in which case the
  /// sweep uses the full orderings.
  std::shared_ptr<const PrunedOrderings> PrunedFor(int k) const;

 private:
  friend class CatalogIndex;
  AvailabilitySnapshot() = default;

  double availability_ = 0.0;
  std::vector<ParamVector> params_;
  mutable std::once_flag orderings_once_;
  mutable AdparOrderings orderings_;
  /// Guards `pruned_`. Entries may hold null (computed, pruning a no-op).
  mutable std::mutex pruned_mutex_;
  mutable std::map<int, std::shared_ptr<const PrunedOrderings>> pruned_;
};

/// Where a job gets the snapshot at W: the one way any path obtains
/// per-W state. A Service serves its availability-keyed cache
/// (ServiceState::SnapshotFor); tests and benches wrap
/// CatalogIndex::BuildSnapshot. A job calls it at most once, and only when
/// ADPaR will read the result. The result must be non-null, built at
/// exactly `w` and over the caller's catalog; core::StratRec checks that.
using SnapshotSource =
    std::function<std::shared_ptr<const AvailabilitySnapshot>(double w)>;

/// The availability-independent tier: SoA coefficient arrays.
class CatalogIndex {
 public:
  /// An empty index (size() == 0); Build() is the real constructor.
  CatalogIndex() = default;

  /// Transposes `profiles` into the SoA arrays. With a non-null `executor`
  /// the fill partitions across the pool in `grain`-sized chunks (the
  /// arrays are written disjointly, so the result is identical to the
  /// serial build).
  static CatalogIndex Build(const std::vector<StrategyProfile>& profiles,
                            Executor* executor = nullptr, size_t grain = 4096);

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  /// Wall-clock nanoseconds the Build() call took (the IndexBuildNanos
  /// counter ServiceStats surfaces).
  uint64_t build_nanos() const { return build_nanos_; }

  /// The flat coefficient arrays, one double per strategy.
  const std::vector<double>& alphas(ParamAxis axis) const {
    return alpha_[static_cast<size_t>(axis)];
  }
  const std::vector<double>& betas(ParamAxis axis) const {
    return beta_[static_cast<size_t>(axis)];
  }

  /// Re-materializes profile j (exactly the coefficients Build consumed).
  StrategyProfile ProfileAt(size_t j) const {
    return StrategyProfile{
        {alpha_[0][j], beta_[0][j]},
        {alpha_[1][j], beta_[1][j]},
        {alpha_[2][j], beta_[2][j]}};
  }

  /// Estimated parameters of strategy j at availability w — the same
  /// clamped per-axis lines StrategyProfile::EstimateParams evaluates,
  /// read from the SoA arrays.
  ParamVector EstimateParams(double w, size_t j) const {
    return ParamVector{ClampUnit(alpha_[0][j] * w + beta_[0][j]),
                       ClampUnit(alpha_[1][j] * w + beta_[1][j]),
                       ClampUnit(alpha_[2][j] * w + beta_[2][j])};
  }

  /// Fills `out` (resized to size()) with EstimateParams(w, j) for every j,
  /// optionally partitioned across `executor`.
  void EstimateParamsInto(double w, std::vector<ParamVector>* out,
                          Executor* executor = nullptr,
                          size_t grain = 4096) const;

  /// Builds the per-availability snapshot: the shared params block now, the
  /// ADPaR orderings lazily on first use. Uncached — the Service layers an
  /// availability-keyed LRU on top of this.
  std::shared_ptr<const AvailabilitySnapshot> BuildSnapshot(
      double w, Executor* executor = nullptr, size_t grain = 4096) const;

 private:
  size_t size_ = 0;
  /// Indexed by ParamAxis: 0 = quality, 1 = cost, 2 = latency.
  std::array<std::vector<double>, 3> alpha_;
  std::array<std::vector<double>, 3> beta_;
  uint64_t build_nanos_ = 0;
};

/// Index-accepting ADPaR: identical results to
/// AdparExact(snapshot.params(), request, k) with the per-request sorts
/// served from the snapshot's prebuilt orderings and skyline-dominated
/// candidates skipped. Defined in src/core/adpar.cc next to the shared
/// sweep core so both entry points run the exact same float operations.
///
/// Equivalence fine print: the optimal *distance* and the feasibility
/// verdict always match the classic solver exactly. The returned
/// alternative vector matches whenever the optimum is unique; when two
/// different tight candidates have exactly equal squared distance (a
/// measure-zero event for continuous parameters), pruning may surface the
/// other — equally optimal — one. Within the snapshot path itself the
/// choice is deterministic (cache hits, pool sizes, and replay all see
/// identical bytes).
Result<AdparResult> AdparExact(const AvailabilitySnapshot& snapshot,
                               const ParamVector& request, int k);

}  // namespace stratrec::core

#endif  // STRATREC_CORE_CATALOG_INDEX_H_
