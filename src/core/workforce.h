// Workforce-requirement computation (paper Section 3.2, Figure 3).
//
// Step 1 computes the m x |S| matrix W where w_ij is the workforce required
// to deploy request d_i with strategy s_j, obtained by inverting the linear
// parameter models (Equation 4). Step 2 aggregates each row into the
// workforce needed to recommend k strategies — either the sum of the k
// smallest requirements (the requester deploys with all k strategies) or the
// k-th smallest (the requester picks one of the k).
//
// Step 2 reads only each row's feasible count and its k smallest
// requirements, so the production pricer never materializes the matrix:
// PriceRows fuses both steps over 4,096-column chunks (O(m * k) memory, not
// O(m * |S|)) and k-way-merges the chunks with MergeTopK, the same merge the
// shard router applies to its shards. WorkforceMatrix is the dense
// reference: tests use it as the oracle, and the stream pricers still fill
// their 1 x |S| row with it.
#ifndef STRATREC_CORE_WORKFORCE_H_
#define STRATREC_CORE_WORKFORCE_H_

#include <limits>
#include <span>
#include <vector>

#include "src/common/executor.h"
#include "src/common/status.h"
#include "src/core/deployment.h"
#include "src/core/linear_model.h"

namespace stratrec::core {

class CatalogIndex;

/// How w_ij is derived from the three per-parameter equality solutions.
///
/// The default is kMinimalWorkforce: the least workforce satisfying every
/// threshold, with upper-bound constraints (cost, and any parameter whose
/// slope makes the threshold an upper bound) acting as feasibility caps.
/// This is the only reading consistent with the paper's own walkthrough —
/// under the literal max-of-three rule, Example 1's d3 (cost budget 0.83)
/// would demand the full-budget workforce w = 2.01 (clamped to 1.0) and
/// could not be served at W = 0.8, contradicting Section 2.2.
enum class WorkforcePolicy {
  /// The least workforce meeting all thresholds (recommended, default).
  kMinimalWorkforce,
  /// The paper's literal rule (Figure 3a): w_ij = max(w_q, w_c, w_l),
  /// clamped into the feasible interval. Because cost grows with workforce,
  /// the cost term is the workforce at which the whole budget is spent, so
  /// feasible deployments consume their full budget (maximizing delivered
  /// quality). Kept as an ablation.
  kPaperMaxOfThree,
};

/// How a row of the matrix is folded into one per-request requirement
/// (Section 3.2 step 2).
enum class AggregationMode {
  kSum,  ///< deploy using all k strategies: sum of the k smallest w_ij
  kMax,  ///< deploy one of the k: the k-th smallest w_ij
};

/// One cell of the workforce matrix.
struct WorkforceCell {
  /// Minimum workforce in [0, 1] to deploy (d_i, s_j); +inf when infeasible.
  double requirement = std::numeric_limits<double>::infinity();
  /// Whether any workforce in [0, 1] satisfies all three thresholds.
  bool feasible = false;
};

/// Computes one cell: inverts each parameter model against the request
/// threshold, intersects the resulting feasibility interval with [0, 1], and
/// applies `policy`.
WorkforceCell ComputeWorkforceCell(
    const StrategyProfile& profile, const ParamVector& thresholds,
    WorkforcePolicy policy = WorkforcePolicy::kMinimalWorkforce);

/// Partial view of one priced row: the total feasible count plus the
/// min(k, feasible) cheapest strategies in KBestStrategies order (ascending
/// requirement, ties by index) with their requirements. It never fails on a
/// short row, because a chunk or a shard cannot know whether its siblings
/// make up the difference. MergeTopK over the parts' rows reproduces the
/// whole row's list exactly, because the whole row's k-best is always
/// contained in the union of the parts' k-bests.
struct RowTopK {
  size_t feasible_count = 0;
  std::vector<size_t> strategies;    ///< ascending (requirement, index)
  std::vector<double> requirements;  ///< index-aligned with `strategies`

  /// The aggregated requirement of a row scanned for cardinality k
  /// (Figures 3b/3c): `requirements` summed in list order for kSum, the
  /// last (k-th smallest) for kMax — the values AggregateRequirement
  /// returns. Fails with kInfeasible when fewer than k strategies are
  /// feasible.
  Result<double> Aggregate(int k, AggregationMode mode) const;

  bool operator==(const RowTopK&) const = default;
};

/// One sorted run of a row's cheapest strategies, as MergeTopK reads it:
/// a part's feasible count and its kept entries, with `offset` added to
/// every entry of `strategies` to make it an index of the merged row.
struct TopKRun {
  size_t feasible_count = 0;
  size_t offset = 0;
  const size_t* strategies = nullptr;    ///< ascending (requirement, index)
  const double* requirements = nullptr;  ///< index-aligned with `strategies`
  size_t size = 0;                       ///< entries in both arrays
};

/// K-way merge of one row's parts (disjoint strategy sets, each run holding
/// its min(k, feasible) cheapest entries) into the whole row's RowTopK: the
/// summed feasible count and the min(k, total) cheapest entries ordered by
/// (requirement, merged index). k < 1 keeps no entries. Both lists are
/// sized exactly, capacity included.
RowTopK MergeTopK(std::span<const TopKRun> runs, int k);

/// Columns of one PriceRows work unit: the unit fills this many cells into
/// a stack buffer and keeps only its cheapest k.
inline constexpr size_t kPriceChunk = 4096;

/// The fused range pricer. For each request, the RowTopK that
/// WorkforceMatrix::TopStrategies(i, k) returns on the dense matrix over
/// strategies [begin, end) of `index`, with k = requests[i].k: strategies are
/// indices within the range (strategy begin + j is entry j), and a row with
/// k < 1 keeps its feasible count but no entries.
///
/// The work is split into (row, kPriceChunk-column chunk) units; each unit
/// fills its cells through kernels::FillWorkforceCells and keeps its chunk's
/// feasible count and cheapest min(k, feasible) entries in flat per-call
/// arrays, and MergeTopK merges each row's chunks. With a non-null
/// `executor` the units partition across the pool, at least `grain` cells
/// per task (rounded up to whole units); null keeps the call on the calling
/// thread. The result is bit-identical either way and under every kernel
/// dispatch level. Requires begin <= end <= index.size().
std::vector<RowTopK> PriceRows(
    const std::vector<DeploymentRequest>& requests, const CatalogIndex& index,
    size_t begin, size_t end,
    WorkforcePolicy policy = WorkforcePolicy::kMinimalWorkforce,
    Executor* executor = nullptr, size_t grain = 4096);

/// The m x |S| workforce-requirement matrix: the dense reference PriceRows
/// is tested against (the stream pricers still fold its 1 x |S| row).
class WorkforceMatrix {
 public:
  /// Builds the matrix for all (request, profile) pairs.
  /// `profiles[j]` models strategy j for this task type.
  ///
  /// Cells are independent, so when `executor` is non-null the cell range is
  /// partitioned across it in `grain`-sized chunks (each cell is written by
  /// exactly one chunk; the result is bit-identical to the serial path).
  /// Null `executor` keeps the computation on the calling thread.
  static WorkforceMatrix Compute(
      const std::vector<DeploymentRequest>& requests,
      const std::vector<StrategyProfile>& profiles,
      WorkforcePolicy policy = WorkforcePolicy::kMinimalWorkforce,
      Executor* executor = nullptr, size_t grain = 4096);

  /// Same matrix filled from a CatalogIndex's SoA coefficient arrays
  /// instead of per-profile structs: each cell reads six flat doubles, so
  /// the inner loop streams contiguous memory. Bit-identical to the
  /// profile overload (property-tested in tests/catalog_index_test.cc).
  static WorkforceMatrix Compute(
      const std::vector<DeploymentRequest>& requests,
      const CatalogIndex& index,
      WorkforcePolicy policy = WorkforcePolicy::kMinimalWorkforce,
      Executor* executor = nullptr, size_t grain = 4096);

  size_t num_requests() const { return rows_; }
  size_t num_strategies() const { return cols_; }

  const WorkforceCell& At(size_t request, size_t strategy) const {
    return cells_[request * cols_ + strategy];
  }

  /// Indices of the k cheapest feasible strategies for row `request`,
  /// ascending by requirement (ties by index), in a vector sized exactly k.
  /// Fails with kInfeasible when fewer than k strategies are feasible.
  Result<std::vector<size_t>> KBestStrategies(size_t request, int k) const;

  /// Aggregated workforce requirement for `request` under the given
  /// cardinality k and mode (Figures 3b/3c). Fails with kInfeasible when
  /// fewer than k strategies are feasible.
  Result<double> AggregateRequirement(size_t request, int k,
                                      AggregationMode mode) const;

  /// Row `request`'s feasible count and its min(k, feasible) cheapest
  /// strategies in KBestStrategies order. Unlike KBestStrategies this never
  /// fails on a short row; it fails only on a bad row index or k < 1. Both
  /// lists are sized exactly min(k, feasible), capacity included, so a
  /// caller that keeps them holds O(k) memory, not O(|S|).
  Result<RowTopK> TopStrategies(size_t request, int k) const;

 private:
  WorkforceMatrix(size_t rows, size_t cols)
      : rows_(rows), cols_(cols), cells_(rows * cols) {}
  size_t rows_;
  size_t cols_;
  std::vector<WorkforceCell> cells_;
};

}  // namespace stratrec::core

#endif  // STRATREC_CORE_WORKFORCE_H_
