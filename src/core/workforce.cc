#include "src/core/workforce.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstddef>

#include "src/common/float_compare.h"
#include "src/core/catalog_index.h"
#include "src/core/kernels/kernels.h"

namespace stratrec::core {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Cells per SelectWorkforceCells call in PriceRows: between two calls the
/// unit shrinks its candidates back to k and tightens the bound.
constexpr size_t kPriceBlock = 256;

// Feasible workforce interval [lo, hi] for one constraint, and the equality
// solution (where defined). `lower_bound_constraint` is true for quality
// (param must be >= threshold), false for cost/latency (param <= threshold).
struct ConstraintInterval {
  double lo = 0.0;
  double hi = kInf;
  bool has_equality = false;
  double equality = 0.0;
  bool feasible = true;
};

ConstraintInterval AnalyzeConstraint(const LinearModel& model, double threshold,
                                     bool lower_bound_constraint) {
  ConstraintInterval out;
  if (model.alpha == 0.0) {
    // Constant parameter: either every workforce level works or none does.
    const bool ok = lower_bound_constraint ? ApproxGe(model.beta, threshold)
                                           : ApproxLe(model.beta, threshold);
    out.feasible = ok;
    return out;
  }
  out.has_equality = true;
  out.equality = (threshold - model.beta) / model.alpha;
  // param >= t with alpha > 0  -> w >= eq ; with alpha < 0 -> w <= eq.
  // param <= t with alpha > 0  -> w <= eq ; with alpha < 0 -> w >= eq.
  const bool is_lower = lower_bound_constraint == (model.alpha > 0.0);
  if (is_lower) {
    out.lo = out.equality;
  } else {
    out.hi = out.equality;
  }
  return out;
}

/// The SoA coefficient arrays of `index` from strategy `first` on: entry j
/// of every array is strategy first + j.
kernels::CoeffSoA CoeffsFrom(const CatalogIndex& index, size_t first) {
  return {index.alphas(ParamAxis::kQuality).data() + first,
          index.betas(ParamAxis::kQuality).data() + first,
          index.alphas(ParamAxis::kCost).data() + first,
          index.betas(ParamAxis::kCost).data() + first,
          index.alphas(ParamAxis::kLatency).data() + first,
          index.betas(ParamAxis::kLatency).data() + first};
}

}  // namespace

WorkforceCell ComputeWorkforceCell(const StrategyProfile& profile,
                                   const ParamVector& thresholds,
                                   WorkforcePolicy policy) {
  const ConstraintInterval quality =
      AnalyzeConstraint(profile.quality, thresholds.quality,
                        /*lower_bound_constraint=*/true);
  const ConstraintInterval cost =
      AnalyzeConstraint(profile.cost, thresholds.cost,
                        /*lower_bound_constraint=*/false);
  const ConstraintInterval latency =
      AnalyzeConstraint(profile.latency, thresholds.latency,
                        /*lower_bound_constraint=*/false);

  WorkforceCell cell;
  if (!quality.feasible || !cost.feasible || !latency.feasible) return cell;

  // Intersect the three half-lines with the physical range [0, 1]. Explicit
  // comparison chains (not std::max({...})) pin the comparison order, so the
  // SIMD kernels can replicate the fold compare-for-compare.
  double lo = quality.lo;
  if (lo < cost.lo) lo = cost.lo;
  if (lo < latency.lo) lo = latency.lo;
  if (lo < 0.0) lo = 0.0;
  double hi = quality.hi;
  if (cost.hi < hi) hi = cost.hi;
  if (latency.hi < hi) hi = latency.hi;
  if (1.0 < hi) hi = 1.0;
  if (!ApproxLe(lo, hi)) return cell;

  cell.feasible = true;
  switch (policy) {
    case WorkforcePolicy::kMinimalWorkforce:
      cell.requirement = lo;
      break;
    case WorkforcePolicy::kPaperMaxOfThree: {
      // max over the equality solutions (Figure 3a), clamped into the
      // feasible interval; with no invertible model the interval floor
      // applies.
      double candidate = -kInf;
      for (const ConstraintInterval* c : {&quality, &cost, &latency}) {
        if (c->has_equality && candidate < c->equality) {
          candidate = c->equality;
        }
      }
      cell.requirement =
          candidate == -kInf ? lo : Clamp(candidate, lo, hi);
      break;
    }
  }
  return cell;
}

WorkforceMatrix WorkforceMatrix::Compute(
    const std::vector<DeploymentRequest>& requests,
    const std::vector<StrategyProfile>& profiles, WorkforcePolicy policy,
    Executor* executor, size_t grain) {
  WorkforceMatrix matrix(requests.size(), profiles.size());
  const size_t cols = matrix.cols_;
  // Row-major fill with the per-request thresholds hoisted out of the inner
  // loop (loop-invariant per row). An executor partition may start or end
  // mid-row, so each chunk walks row segments.
  auto fill = [&](size_t begin, size_t end) {
    while (begin < end) {
      const size_t row = begin / cols;
      const size_t row_end = std::min(end, (row + 1) * cols);
      const ParamVector& thresholds = requests[row].thresholds;
      for (size_t cell = begin, j = begin - row * cols; cell < row_end;
           ++cell, ++j) {
        matrix.cells_[cell] = ComputeWorkforceCell(profiles[j], thresholds,
                                                   policy);
      }
      begin = row_end;
    }
  };
  const size_t total = matrix.rows_ * cols;
  if (executor != nullptr) {
    executor->ParallelFor(total, grain, fill);
  } else {
    fill(0, total);
  }
  return matrix;
}

WorkforceMatrix WorkforceMatrix::Compute(
    const std::vector<DeploymentRequest>& requests, const CatalogIndex& index,
    WorkforcePolicy policy, Executor* executor, size_t grain) {
  WorkforceMatrix matrix(requests.size(), index.size());
  const size_t cols = matrix.cols_;
  const kernels::CoeffSoA soa = CoeffsFrom(index, 0);
  // Row-major fill through the dispatched kernel, thresholds hoisted per
  // row. An executor partition may start or end mid-row, so each chunk is
  // split into row segments before the kernel call.
  auto fill = [&](size_t begin, size_t end) {
    while (begin < end) {
      const size_t row = begin / cols;
      const size_t row_end = std::min(end, (row + 1) * cols);
      kernels::FillWorkforceCells(soa, begin - row * cols,
                                  row_end - row * cols,
                                  requests[row].thresholds, policy,
                                  matrix.cells_.data() + row * cols);
      begin = row_end;
    }
  };
  const size_t total = matrix.rows_ * cols;
  if (executor != nullptr) {
    executor->ParallelFor(total, grain, fill);
  } else {
    fill(0, total);
  }
  return matrix;
}

RowTopK MergeTopK(std::span<const TopKRun> runs, int k) {
  RowTopK row;
  if (k < 1) return row;
  size_t total = 0;
  for (const TopKRun& run : runs) total += run.size;
  const size_t take = std::min(total, static_cast<size_t>(k));
  row.strategies.reserve(take);
  row.requirements.reserve(take);
  // A min-heap of the runs' heads by (requirement, merged index): the head
  // of the popped run is the next entry of the merged list.
  std::vector<size_t> cursor(runs.size(), 0);
  auto later = [&](size_t a, size_t b) {
    const double wa = runs[a].requirements[cursor[a]];
    const double wb = runs[b].requirements[cursor[b]];
    if (wa != wb) return wb < wa;
    return runs[b].offset + runs[b].strategies[cursor[b]] <
           runs[a].offset + runs[a].strategies[cursor[a]];
  };
  std::vector<size_t> heads;
  heads.reserve(runs.size());
  for (size_t r = 0; r < runs.size(); ++r) {
    if (runs[r].size > 0) heads.push_back(r);
  }
  std::make_heap(heads.begin(), heads.end(), later);
  // The runs hold `total` >= `take` entries, so the heap never runs dry.
  while (row.strategies.size() < take) {
    std::pop_heap(heads.begin(), heads.end(), later);
    const size_t r = heads.back();
    row.strategies.push_back(runs[r].offset + runs[r].strategies[cursor[r]]);
    row.requirements.push_back(runs[r].requirements[cursor[r]]);
    if (++cursor[r] < runs[r].size) {
      std::push_heap(heads.begin(), heads.end(), later);
    } else {
      heads.pop_back();
    }
  }
  return row;
}

std::vector<RowTopK> PriceRows(const std::vector<DeploymentRequest>& requests,
                               const CatalogIndex& index, size_t begin,
                               size_t end, WorkforcePolicy policy,
                               Executor* executor, size_t grain) {
  const size_t width = end - begin;
  const size_t m = requests.size();
  const size_t chunks = (width + kPriceChunk - 1) / kPriceChunk;
  const size_t units = m * chunks;
  // Unit u prices chunk u / m of row u % m, so consecutive units read one
  // chunk's coefficients, and keeps at most min(k, chunk width) entries, at
  // slot[u] of the flat entry arrays; kept[u] of them are filled. A unit of
  // a k < 1 row has no room and prices nothing.
  std::vector<size_t> slot(units + 1, 0);
  for (size_t u = 0; u < units; ++u) {
    const int k = requests[u % m].k;
    const size_t columns = std::min(kPriceChunk, width - u / m * kPriceChunk);
    slot[u + 1] =
        slot[u] + (k < 1 ? 0 : std::min(columns, static_cast<size_t>(k)));
  }
  std::vector<size_t> kept(units, 0);
  std::vector<size_t> strategies(slot[units]);
  std::vector<double> requirements(slot[units]);
  // row_bound[i] is the least k-th best that any unit of row i has held, or
  // +inf. Each is the k-th best of k cells of the row, so none lies below
  // the row's true k-th best, and no unit needs a cell above it.
  std::vector<std::atomic<double>> row_bound(m);
  for (std::atomic<double>& bound : row_bound) {
    bound.store(kInf, std::memory_order_relaxed);
  }

  // Cheapest first, ties by index: the order TopStrategies sorts by.
  auto cheaper = [](const kernels::SelectedCell& a,
                    const kernels::SelectedCell& b) {
    if (a.requirement != b.requirement) return a.requirement < b.requirement;
    return a.column < b.column;
  };
  auto price = [&](size_t first, size_t last) {
    // Every candidate is a distinct cell of one chunk, so a chunk's worth
    // of room suffices. Left uninitialized: the kernel writes each
    // candidate before it is read, and zeroing 64 KiB per unit would add a
    // memset to every 4,096 cells priced.
    kernels::SelectedCell candidates[kPriceChunk];
    for (size_t u = first; u < last; ++u) {
      const size_t keep = slot[u + 1] - slot[u];
      if (keep == 0) continue;
      const size_t column = u / m * kPriceChunk;
      const size_t n = std::min(kPriceChunk, width - column);
      const kernels::CoeffSoA soa = CoeffsFrom(index, begin + column);
      const DeploymentRequest& request = requests[u % m];
      std::atomic<double>& shared = row_bound[u % m];
      // `bound` is the unit's running keep-th best. A later cell that ties
      // it has a larger index, so it loses the tie and strict < drops
      // nothing the row keeps. A cell that ties the row's shared bound may
      // have a lower index than the cells behind it, so that test is <=:
      // the kernel gets the next double up.
      double bound = kInf;
      size_t count = 0;
      for (size_t b = 0; b < n; b += kPriceBlock) {
        const double limit = std::min(
            bound,
            std::nextafter(shared.load(std::memory_order_relaxed), kInf));
        // Every feasible kMinimalWorkforce requirement is >= 0 or -0.0, so
        // a limit <= 0 keeps nothing more.
        if (limit <= 0.0 && policy == WorkforcePolicy::kMinimalWorkforce) {
          break;
        }
        const size_t appended = kernels::SelectWorkforceCells(
            soa, b, std::min(n, b + kPriceBlock), request.thresholds, policy,
            limit, column, candidates + count);
        count += appended;
        if (appended != 0 && count >= keep) {
          std::nth_element(candidates, candidates + keep - 1,
                           candidates + count, cheaper);
          count = keep;
          bound = candidates[keep - 1].requirement;
          // A chunk narrower than k keeps all its cells, so its keep-th
          // best may lie below the row's k-th: only a k-wide unit shares.
          if (keep == static_cast<size_t>(request.k)) {
            double seen = shared.load(std::memory_order_relaxed);
            while (bound < seen &&
                   !shared.compare_exchange_weak(seen, bound,
                                                 std::memory_order_relaxed)) {
            }
          }
        }
      }
      std::sort(candidates, candidates + count, cheaper);
      for (size_t t = 0; t < count; ++t) {
        strategies[slot[u] + t] = candidates[t].column;
        requirements[slot[u] + t] = candidates[t].requirement;
      }
      kept[u] = count;
    }
  };
  if (executor != nullptr) {
    executor->ParallelFor(units, (grain + kPriceChunk - 1) / kPriceChunk,
                          price);
  } else {
    price(0, units);
  }

  std::vector<RowTopK> rows(m);
  std::vector<TopKRun> runs(chunks);
  for (size_t i = 0; i < m; ++i) {
    for (size_t c = 0; c < chunks; ++c) {
      const size_t u = c * m + i;
      runs[c] = {0, strategies.data() + slot[u], requirements.data() + slot[u],
                 kept[u]};
    }
    rows[i] = MergeTopK(runs, requests[i].k);
  }
  return rows;
}

Result<std::vector<size_t>> WorkforceMatrix::KBestStrategies(size_t request,
                                                             int k) const {
  auto top = TopStrategies(request, k);
  if (!top.ok()) return top.status();
  if (top->strategies.size() < static_cast<size_t>(k)) {
    return Status::Infeasible("fewer than k feasible strategies");
  }
  return std::move(top->strategies);
}

Result<RowTopK> WorkforceMatrix::TopStrategies(size_t request, int k) const {
  if (request >= rows_) return Status::OutOfRange("request index");
  if (k < 1) return Status::InvalidArgument("k must be >= 1");
  std::vector<size_t> feasible;
  feasible.reserve(cols_);
  for (size_t j = 0; j < cols_; ++j) {
    if (At(request, j).feasible) feasible.push_back(j);
  }
  RowTopK row;
  const size_t take = std::min(feasible.size(), static_cast<size_t>(k));
  // Partial sort: the cheapest requirements, ties broken by index for
  // determinism.
  auto cheaper = [this, request](size_t a, size_t b) {
    const double wa = At(request, a).requirement;
    const double wb = At(request, b).requirement;
    if (wa != wb) return wa < wb;
    return a < b;
  };
  const auto kept = feasible.begin() + static_cast<ptrdiff_t>(take);
  std::partial_sort(feasible.begin(), kept, feasible.end(), cheaper);
  // Copied out rather than resized, so the list does not keep the scan
  // buffer's O(|S|) capacity.
  row.strategies.assign(feasible.begin(), kept);
  row.requirements.reserve(take);
  for (size_t j : row.strategies) {
    row.requirements.push_back(At(request, j).requirement);
  }
  return row;
}

Result<double> RowTopK::Aggregate(int k, AggregationMode mode) const {
  if (k < 1) return Status::InvalidArgument("k must be >= 1");
  if (strategies.size() < static_cast<size_t>(k)) {
    return Status::Infeasible("fewer than k feasible strategies");
  }
  if (mode == AggregationMode::kSum) {
    double total = 0.0;
    for (double requirement : requirements) total += requirement;
    return total;
  }
  // kMax: the k-th smallest requirement — the last of the sorted k-best.
  return requirements.back();
}

Result<double> WorkforceMatrix::AggregateRequirement(size_t request, int k,
                                                     AggregationMode mode) const {
  auto top = TopStrategies(request, k);
  if (!top.ok()) return top.status();
  return top->Aggregate(k, mode);
}

}  // namespace stratrec::core
