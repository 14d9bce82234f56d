// Implementation-sharing surface of the kernel layer: the per-element
// scalar helpers (the reference semantics both the scalar range kernels and
// every SIMD tail loop run), plus the per-level entry points the dispatcher
// selects between. Tests include this header to drive one level directly;
// everything else should go through src/core/kernels/kernels.h.
#ifndef STRATREC_CORE_KERNELS_KERNELS_INTERNAL_H_
#define STRATREC_CORE_KERNELS_KERNELS_INTERNAL_H_

#include "src/common/float_compare.h"
#include "src/core/kernels/kernels.h"
#include "src/core/linear_model.h"

namespace stratrec::core::kernels::internal {

// ---------------------------------------------------------------------------
// Per-element reference semantics (shared by scalar kernels and SIMD tails)
// ---------------------------------------------------------------------------

/// EstimateParams for one strategy — the exact expression
/// StrategyProfile::EstimateParams evaluates, read from the SoA arrays.
inline ParamVector EstimateOne(const CoeffSoA& soa, double w, size_t j) {
  return ParamVector{
      ClampUnit(soa.quality_alpha[j] * w + soa.quality_beta[j]),
      ClampUnit(soa.cost_alpha[j] * w + soa.cost_beta[j]),
      ClampUnit(soa.latency_alpha[j] * w + soa.latency_beta[j])};
}

/// One workforce cell from the SoA arrays — delegates to the canonical
/// ComputeWorkforceCell so the scalar path *is* the unindexed path.
inline WorkforceCell CellOne(const CoeffSoA& soa, size_t j,
                             const ParamVector& thresholds,
                             WorkforcePolicy policy) {
  const StrategyProfile profile{
      {soa.quality_alpha[j], soa.quality_beta[j]},
      {soa.cost_alpha[j], soa.cost_beta[j]},
      {soa.latency_alpha[j], soa.latency_beta[j]}};
  return ComputeWorkforceCell(profile, thresholds, policy);
}

/// Dominates() of src/core/skyline.h, read from a PointSoA: comparison for
/// comparison the same expression.
inline bool DominatesOne(const PointSoA& pts, size_t i, const ParamVector& q) {
  const bool no_worse = pts.quality[i] >= q.quality &&
                        pts.cost[i] <= q.cost && pts.latency[i] <= q.latency;
  if (!no_worse) return false;
  return pts.quality[i] > q.quality || pts.cost[i] < q.cost ||
         pts.latency[i] < q.latency;
}

// ---------------------------------------------------------------------------
// Per-level range kernels (dispatch targets)
// ---------------------------------------------------------------------------

void ScalarEstimateParams(const CoeffSoA& soa, double w, size_t begin,
                          size_t end, ParamVector* out);
void ScalarFillWorkforceCells(const CoeffSoA& soa, size_t begin, size_t end,
                              const ParamVector& thresholds,
                              WorkforcePolicy policy, WorkforceCell* cells);
size_t ScalarSelectWorkforceCells(const CoeffSoA& soa, size_t begin,
                                  size_t end, const ParamVector& thresholds,
                                  WorkforcePolicy policy, double bound,
                                  size_t first, SelectedCell* out,
                                  size_t* size);
bool ScalarAnyDominates(const PointSoA& pts, size_t n, const ParamVector& q);
uint32_t ScalarCountDominators(const PointSoA& pts, size_t n,
                               const ParamVector& q);
uint32_t ScalarCountDominatorsBounded(const PointSoA& pts, const double* sums,
                                      size_t n, double sum_limit, uint32_t cap,
                                      const ParamVector& q);

/// True when this binary carries real AVX2 kernel bodies (the TU was
/// compiled with -mavx2). When false the Avx2* symbols below exist but
/// forward to the scalar kernels; dispatch never selects them.
bool Avx2CompiledIn();

void Avx2EstimateParams(const CoeffSoA& soa, double w, size_t begin,
                        size_t end, ParamVector* out);
void Avx2FillWorkforceCells(const CoeffSoA& soa, size_t begin, size_t end,
                            const ParamVector& thresholds,
                            WorkforcePolicy policy, WorkforceCell* cells);
size_t Avx2SelectWorkforceCells(const CoeffSoA& soa, size_t begin, size_t end,
                                const ParamVector& thresholds,
                                WorkforcePolicy policy, double bound,
                                size_t first, SelectedCell* out, size_t* size);
bool Avx2AnyDominates(const PointSoA& pts, size_t n, const ParamVector& q);
uint32_t Avx2CountDominators(const PointSoA& pts, size_t n,
                             const ParamVector& q);
uint32_t Avx2CountDominatorsBounded(const PointSoA& pts, const double* sums,
                                    size_t n, double sum_limit, uint32_t cap,
                                    const ParamVector& q);

}  // namespace stratrec::core::kernels::internal

#endif  // STRATREC_CORE_KERNELS_KERNELS_INTERNAL_H_
