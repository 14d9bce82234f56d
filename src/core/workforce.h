// Workforce-requirement computation (paper Section 3.2, Figure 3).
//
// Step 1 computes the m x |S| matrix W where w_ij is the workforce required
// to deploy request d_i with strategy s_j, obtained by inverting the linear
// parameter models (Equation 4). Step 2 aggregates each row into the
// workforce needed to recommend k strategies — either the sum of the k
// smallest requirements (the requester deploys with all k strategies) or the
// k-th smallest (the requester picks one of the k).
//
// Step 2 reads only whether each row has k feasible cells and its k
// smallest requirements, and a row's list of its min(k, feasible) cheapest
// cells answers both: the row holds k feasible cells exactly when the list
// holds k entries. So the production pricer never materializes the matrix:
// PriceRows fuses both steps over 4,096-column chunks (O(m * k) memory, not
// O(m * |S|)) and k-way-merges the chunks with MergeTopK, the same merge
// the shard router applies to its shards. Within a chunk no cell is stored
// either: kernels::SelectWorkforceCells prices it in one pass and keeps
// only the cells that can still be among the row's k cheapest, judged
// against the least k-th best any chunk of the row has reached so far (the
// threshold idea of Fagin, Lotem and Naor, PODS 2001), skipping the
// divisions of every cell it can prove lies at or above that bound.
// WorkforceMatrix is the dense reference: tests use it as the oracle, and
// the stream pricers still fill their 1 x |S| row with it.
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

/// Partial view of one priced row: its min(k, feasible) cheapest strategies
/// in KBestStrategies order (ascending requirement, ties by index) with
/// their requirements, so for k >= 1 the row holds k feasible strategies
/// exactly when the list holds k entries. It never fails on a short row,
/// because a chunk or a shard cannot know whether its siblings make up the
/// difference. MergeTopK over the parts' rows reproduces the whole row's
/// list exactly, because each part's k-best holds every entry of the whole
/// row's k-best that lies in that part.
struct RowTopK {
  std::vector<size_t> strategies;    ///< ascending (requirement, index)
  std::vector<double> requirements;  ///< index-aligned with `strategies`

  /// The aggregated requirement of a row scanned for cardinality k
  /// (Figures 3b/3c): `requirements` summed in list order for kSum, the
  /// last (k-th smallest) for kMax — the values AggregateRequirement
  /// returns. Fails with kInvalidArgument when k < 1 and with kInfeasible
  /// when fewer than k strategies are feasible, that is, when the list
  /// holds fewer than k entries.
  Result<double> Aggregate(int k, AggregationMode mode) const;

  bool operator==(const RowTopK&) const = default;
};

/// One sorted run of a row's cheapest strategies, as MergeTopK reads it:
/// a part's kept entries, with `offset` added to every entry of
/// `strategies` to make it an index of the merged row.
struct TopKRun {
  size_t offset = 0;
  const size_t* strategies = nullptr;    ///< ascending (requirement, index)
  const double* requirements = nullptr;  ///< index-aligned with `strategies`
  size_t size = 0;                       ///< entries in both arrays
};

/// K-way merge of one row's parts (disjoint strategy sets) into the whole
/// row's RowTopK: at most k of the runs' entries, the cheapest by
/// (requirement, merged index). Each run must hold every entry of its part
/// that is among the whole row's k cheapest, so the merge holds exactly the
/// row's min(k, feasible) cheapest. A run may hold more, and may hold fewer
/// than its part's min(k, feasible): a shard's run is its own k-best, and a
/// PriceRows chunk's run stops where the row's shared bound cut it. k < 1
/// merges to an empty row. Both lists are sized exactly, capacity included.
RowTopK MergeTopK(std::span<const TopKRun> runs, int k);

/// Columns of one PriceRows work unit. The unit prices them in 256-cell
/// blocks through kernels::SelectWorkforceCells and keeps only its
/// cheapest k, in a stack array of at most kPriceChunk candidates.
inline constexpr size_t kPriceChunk = 4096;

/// The fused range pricer. For each request, the RowTopK that
/// WorkforceMatrix::TopStrategies(i, k) returns on the dense matrix over
/// strategies [begin, end) of `index`, with k = requests[i].k: strategies are
/// indices within the range (strategy begin + j is entry j). A row with
/// k < 1 prices nothing and comes back empty.
///
/// The work is split into (row, kPriceChunk-column chunk) units, numbered
/// chunk-major so consecutive units reuse one chunk's coefficients. Each
/// row has one shared bound per call, a relaxed atomic: the least k-th-best
/// requirement any of its k-wide units has reached, +inf until one has. For
/// each 256-cell block a unit passes kernels::SelectWorkforceCells the
/// tighter of its own running k-th best (strict <: a later cell of the unit
/// that ties it has a larger index and loses the tie) and the shared bound
/// (<=: a tied cell may have a lower index than the cells behind it), and
/// nth_element shrinks the candidates back to k after each block. Under
/// kMinimalWorkforce a limit <= 0 ends the unit, since no requirement lies
/// below it. A unit keeps the entries it kept, at most min(k, feasible) and
/// possibly fewer, in flat per-call arrays, and MergeTopK merges each row's
/// chunks. Which cells a unit keeps depends on timing, but for a given
/// limit each block keeps the same cells, and every entry of the row's k
/// cheapest is at or below every shared bound, so each unit keeps its share
/// of them and the merged row does not depend on timing. With a non-null
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

  /// Row `request`'s min(k, feasible) cheapest strategies in
  /// KBestStrategies order: the RowTopK PriceRows returns. Unlike
  /// KBestStrategies this never fails on a short row; it fails only on a
  /// bad row index or k < 1. Both lists are sized exactly min(k, feasible),
  /// capacity included, so a caller that keeps them holds O(k) memory, not
  /// O(|S|).
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
