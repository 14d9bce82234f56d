// Portable scalar kernels: the reference semantics every SIMD level must
// reproduce bit for bit. These are deliberately plain loops over the
// per-element helpers in kernels_internal.h — the same helpers the SIMD
// tail loops run — so "scalar kernel", "SIMD tail", and the historical
// unindexed code paths are one implementation.
#include "src/core/kernels/kernels_internal.h"

namespace stratrec::core::kernels::internal {

void ScalarEstimateParams(const CoeffSoA& soa, double w, size_t begin,
                          size_t end, ParamVector* out) {
  for (size_t j = begin; j < end; ++j) {
    out[j] = EstimateOne(soa, w, j);
  }
}

void ScalarFillWorkforceCells(const CoeffSoA& soa, size_t begin, size_t end,
                              const ParamVector& thresholds,
                              WorkforcePolicy policy, WorkforceCell* cells) {
  for (size_t j = begin; j < end; ++j) {
    cells[j] = CellOne(soa, j, thresholds, policy);
  }
}

size_t ScalarSelectWorkforceCells(const CoeffSoA& soa, size_t begin,
                                  size_t end, const ParamVector& thresholds,
                                  WorkforcePolicy policy, double bound,
                                  size_t first, SelectedCell* out) {
  const bool prove = policy == WorkforcePolicy::kMinimalWorkforce;
  const double scaled = ProofLimit(bound);
  size_t kept = 0;
  for (size_t j = begin; j < end; ++j) {
    if (prove && ProvenNotKept(soa, j, thresholds, scaled)) continue;
    const WorkforceCell cell = CellOne(soa, j, thresholds, policy);
    if (cell.feasible && cell.requirement < bound) {
      out[kept++] = {cell.requirement, first + j};
    }
  }
  return kept;
}

bool ScalarAnyDominates(const PointSoA& pts, size_t n, const ParamVector& q) {
  for (size_t i = 0; i < n; ++i) {
    if (DominatesOne(pts, i, q)) return true;
  }
  return false;
}

uint32_t ScalarCountDominatorsBounded(const PointSoA& pts, const double* sums,
                                      size_t n, double sum_limit, uint32_t cap,
                                      const ParamVector& q) {
  uint32_t count = 0;
  for (size_t i = 0; i < n; ++i) {
    if (sums[i] >= sum_limit) break;
    if (DominatesOne(pts, i, q)) {
      if (++count >= cap) break;
    }
  }
  return count;
}

}  // namespace stratrec::core::kernels::internal
