// AVX2 kernel bodies: 4 double lanes per step, bit-identical to the scalar
// reference by construction.
//
// Rules that keep the identity exact:
//   * No FMA. Every alpha*w+beta is a separate IEEE multiply and add, like
//     the baseline-ISA scalar code; the TU is compiled with
//     -ffp-contract=off so no compiler re-fuses the intrinsics.
//   * No minpd/maxpd for clamps or min/max chains. Those instructions
//     propagate NaN from a fixed operand position, which is *not* what the
//     scalar `a < b ? b : a` chains do. Every selection is an ordered-quiet
//     compare (false on NaN, like scalar <) plus a blend, replicating the
//     scalar comparison order exactly — so NaN, ±0.0, infinities and
//     denormals flow through identically.
//   * Tails (n % 4) run the same per-element helpers the scalar kernels
//     loop over.
//
// The whole TU is guarded: without STRATREC_KERNELS_AVX2_TU (set by CMake
// only when the compiler accepts -mavx2) the Avx2* symbols forward to the
// scalar kernels and Avx2CompiledIn() reports false, so dispatch never
// selects them.
#include "src/core/kernels/kernels_internal.h"

#if defined(STRATREC_KERNELS_AVX2_TU) && defined(__AVX2__)

#include <immintrin.h>

#include <limits>

namespace stratrec::core::kernels::internal {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

inline __m256d Not(__m256d m) {
  return _mm256_xor_pd(m, _mm256_castsi256_pd(_mm256_set1_epi64x(-1)));
}

/// ClampUnit replicated in scalar order: t = v > 1 ? 1 : v; v < 0 ? 0 : t.
inline __m256d ClampUnitVec(__m256d v) {
  const __m256d zero = _mm256_setzero_pd();
  const __m256d one = _mm256_set1_pd(1.0);
  const __m256d t = _mm256_blendv_pd(v, one, _mm256_cmp_pd(v, one, _CMP_GT_OQ));
  return _mm256_blendv_pd(t, zero, _mm256_cmp_pd(v, zero, _CMP_LT_OQ));
}

/// One axis of ComputeWorkforceCell's AnalyzeConstraint for 4 strategies.
struct AxisVec {
  __m256d has_equality;  ///< alpha != 0 (lane mask)
  __m256d eq;            ///< (t - beta) / alpha; garbage where alpha == 0
  __m256d lo;            ///< interval floor contribution (0 where none)
  __m256d hi;            ///< interval ceiling contribution (+inf where none)
  __m256d feasible;      ///< constant-parameter feasibility (true elsewhere)
};

template <bool kLowerBound>
inline AxisVec AnalyzeAxisVec(const double* alpha, const double* beta,
                              size_t j, double threshold) {
  const __m256d va = _mm256_loadu_pd(alpha + j);
  const __m256d vb = _mm256_loadu_pd(beta + j);
  const __m256d vzero = _mm256_setzero_pd();
  const __m256d vt = _mm256_set1_pd(threshold);

  AxisVec out;
  const __m256d alpha_zero = _mm256_cmp_pd(va, vzero, _CMP_EQ_OQ);
  out.has_equality = Not(alpha_zero);
  out.eq = _mm256_div_pd(_mm256_sub_pd(vt, vb), va);

  // is_lower = lower_bound_constraint == (alpha > 0).
  const __m256d alpha_pos = _mm256_cmp_pd(va, vzero, _CMP_GT_OQ);
  const __m256d is_lower = kLowerBound ? alpha_pos : Not(alpha_pos);
  out.lo = _mm256_blendv_pd(vzero, out.eq,
                            _mm256_and_pd(out.has_equality, is_lower));
  out.hi = _mm256_blendv_pd(_mm256_set1_pd(kInf), out.eq,
                            _mm256_and_pd(out.has_equality, Not(is_lower)));

  // Constant parameter: ApproxGe(beta, t) / ApproxLe(beta, t), evaluated
  // with the scalar operand shapes (beta + eps vs t; beta vs t + eps).
  __m256d ok;
  if constexpr (kLowerBound) {
    ok = _mm256_cmp_pd(_mm256_add_pd(vb, _mm256_set1_pd(kEps)), vt,
                       _CMP_GE_OQ);
  } else {
    ok = _mm256_cmp_pd(vb, _mm256_set1_pd(threshold + kEps), _CMP_LE_OQ);
  }
  out.feasible = _mm256_or_pd(out.has_equality, ok);
  return out;
}

/// candidate = max(candidate, eq) on lanes with an equality solution,
/// replicating scalar std::max's `(a < b) ? b : a`.
inline __m256d FoldEqualityMax(__m256d candidate, const AxisVec& axis) {
  const __m256d take = _mm256_and_pd(
      axis.has_equality, _mm256_cmp_pd(candidate, axis.eq, _CMP_LT_OQ));
  return _mm256_blendv_pd(candidate, axis.eq, take);
}

/// Lane mask (all-ones / all-zero per lane) -> 4-bit mask.
inline int MaskBits(__m256d m) { return _mm256_movemask_pd(m); }

/// Four cells of ComputeWorkforceCell: the feasibility lane mask, and the
/// requirement, meaningful on feasible lanes only (FillWorkforceCells
/// blends +inf into the others).
struct CellsVec {
  __m256d feasible;
  __m256d requirement;
};

/// The general chain: any slope signs, either policy. FillWorkforceCells
/// runs it on every group. Forced inline, like the short path below: GCC 12
/// emits a helper with two callers out of line, and a call per group that
/// returns through memory cost stream-drift-100k ~12% of its throughput.
[[gnu::always_inline]] inline CellsVec PriceGroup(
    const CoeffSoA& soa, size_t j, const ParamVector& thresholds,
    WorkforcePolicy policy) {
  const __m256d vzero = _mm256_setzero_pd();
  const __m256d vone = _mm256_set1_pd(1.0);
  const __m256d vneg_inf = _mm256_set1_pd(-kInf);
  const __m256d veps = _mm256_set1_pd(kEps);
  const AxisVec quality = AnalyzeAxisVec</*kLowerBound=*/true>(
      soa.quality_alpha, soa.quality_beta, j, thresholds.quality);
  const AxisVec cost = AnalyzeAxisVec</*kLowerBound=*/false>(
      soa.cost_alpha, soa.cost_beta, j, thresholds.cost);
  const AxisVec latency = AnalyzeAxisVec</*kLowerBound=*/false>(
      soa.latency_alpha, soa.latency_beta, j, thresholds.latency);

  // lo = max{quality.lo, cost.lo, latency.lo, 0}, hi = min{..., 1} in the
  // scalar chain order (see ComputeWorkforceCell).
  __m256d lo = quality.lo;
  lo = _mm256_blendv_pd(lo, cost.lo, _mm256_cmp_pd(lo, cost.lo, _CMP_LT_OQ));
  lo = _mm256_blendv_pd(lo, latency.lo,
                        _mm256_cmp_pd(lo, latency.lo, _CMP_LT_OQ));
  lo = _mm256_blendv_pd(lo, vzero, _mm256_cmp_pd(lo, vzero, _CMP_LT_OQ));
  __m256d hi = quality.hi;
  hi = _mm256_blendv_pd(hi, cost.hi, _mm256_cmp_pd(cost.hi, hi, _CMP_LT_OQ));
  hi = _mm256_blendv_pd(hi, latency.hi,
                        _mm256_cmp_pd(latency.hi, hi, _CMP_LT_OQ));
  hi = _mm256_blendv_pd(hi, vone, _mm256_cmp_pd(vone, hi, _CMP_LT_OQ));

  // feasible = all three constraints satisfiable && ApproxLe(lo, hi).
  const __m256d interval_ok =
      _mm256_cmp_pd(lo, _mm256_add_pd(hi, veps), _CMP_LE_OQ);
  const __m256d feasible = _mm256_and_pd(
      _mm256_and_pd(quality.feasible, cost.feasible),
      _mm256_and_pd(latency.feasible, interval_ok));

  if (policy == WorkforcePolicy::kMinimalWorkforce) return {feasible, lo};
  // kPaperMaxOfThree: max over the equality solutions, clamped into
  // [lo, hi]; the interval floor when no model is invertible.
  __m256d candidate = vneg_inf;
  candidate = FoldEqualityMax(candidate, quality);
  candidate = FoldEqualityMax(candidate, cost);
  candidate = FoldEqualityMax(candidate, latency);
  // Clamp(candidate, lo, hi) = v < lo ? lo : (v > hi ? hi : v).
  __m256d clamped = _mm256_blendv_pd(
      candidate, hi, _mm256_cmp_pd(candidate, hi, _CMP_GT_OQ));
  clamped = _mm256_blendv_pd(clamped, lo,
                             _mm256_cmp_pd(candidate, lo, _CMP_LT_OQ));
  return {feasible,
          _mm256_blendv_pd(clamped, lo,
                           _mm256_cmp_pd(candidate, vneg_inf, _CMP_EQ_OQ))};
}

/// (t - beta) / alpha for 4 strategies: one axis's equality solution.
inline __m256d EqualityVec(const double* alpha, const double* beta, size_t j,
                           double threshold) {
  return _mm256_div_pd(
      _mm256_sub_pd(_mm256_set1_pd(threshold), _mm256_loadu_pd(beta + j)),
      _mm256_loadu_pd(alpha + j));
}

/// The short path: kMinimalWorkforce on 4 strategies that all have the
/// paper's slope signs (quality and cost alpha > 0, latency alpha < 0).
/// Every axis then has an equality solution on a known side: quality and
/// latency give floors, cost a ceiling, and every axis is satisfiable. So
/// the per-axis zero and sign masks drop out, and the general chain's
/// other operands are the constants 0 (cost's floor) and +inf (the quality
/// and latency ceilings). The compares below are PriceGroup's, in its
/// order, with those constants in place; the latency ceiling's step,
/// +inf < hi, is always false and is left out. So the bits match.
[[gnu::always_inline]] inline CellsVec PricePaperSignsGroup(
    const CoeffSoA& soa, size_t j, const ParamVector& thresholds) {
  const __m256d vzero = _mm256_setzero_pd();
  const __m256d vone = _mm256_set1_pd(1.0);
  const __m256d vinf = _mm256_set1_pd(kInf);
  const __m256d veps = _mm256_set1_pd(kEps);
  const __m256d quality = EqualityVec(soa.quality_alpha, soa.quality_beta, j,
                                      thresholds.quality);
  const __m256d cost =
      EqualityVec(soa.cost_alpha, soa.cost_beta, j, thresholds.cost);
  const __m256d latency = EqualityVec(soa.latency_alpha, soa.latency_beta, j,
                                      thresholds.latency);
  __m256d lo = quality;
  lo = _mm256_blendv_pd(lo, vzero, _mm256_cmp_pd(lo, vzero, _CMP_LT_OQ));
  lo = _mm256_blendv_pd(lo, latency, _mm256_cmp_pd(lo, latency, _CMP_LT_OQ));
  lo = _mm256_blendv_pd(lo, vzero, _mm256_cmp_pd(lo, vzero, _CMP_LT_OQ));
  __m256d hi =
      _mm256_blendv_pd(vinf, cost, _mm256_cmp_pd(cost, vinf, _CMP_LT_OQ));
  hi = _mm256_blendv_pd(hi, vone, _mm256_cmp_pd(vone, hi, _CMP_LT_OQ));
  return {_mm256_cmp_pd(lo, _mm256_add_pd(hi, veps), _CMP_LE_OQ), lo};
}

/// ProvenNotKept for 4 paper-signed strategies: true when every lane's
/// quality or latency term is proven at or above the bound that `scaled` =
/// ProofLimit(bound) stands for. The paper signs fix each product's sign,
/// so a normal product is one in [DBL_MIN, DBL_MAX] for quality and in
/// [-DBL_MAX, -DBL_MIN] for latency.
inline bool ProvenGroup(const CoeffSoA& soa, size_t j,
                        const ParamVector& thresholds, __m256d scaled) {
  const __m256d min_normal =
      _mm256_set1_pd(std::numeric_limits<double>::min());
  const __m256d max_normal =
      _mm256_set1_pd(std::numeric_limits<double>::max());
  const __m256d neg_min_normal =
      _mm256_set1_pd(-std::numeric_limits<double>::min());
  const __m256d neg_max_normal =
      _mm256_set1_pd(-std::numeric_limits<double>::max());
  const __m256d quality =
      _mm256_mul_pd(scaled, _mm256_loadu_pd(soa.quality_alpha + j));
  const __m256d quality_proven = _mm256_and_pd(
      _mm256_cmp_pd(_mm256_sub_pd(_mm256_set1_pd(thresholds.quality),
                                  _mm256_loadu_pd(soa.quality_beta + j)),
                    quality, _CMP_GE_OQ),
      _mm256_and_pd(_mm256_cmp_pd(quality, min_normal, _CMP_GE_OQ),
                    _mm256_cmp_pd(quality, max_normal, _CMP_LE_OQ)));
  const __m256d latency =
      _mm256_mul_pd(scaled, _mm256_loadu_pd(soa.latency_alpha + j));
  const __m256d latency_proven = _mm256_and_pd(
      _mm256_cmp_pd(_mm256_sub_pd(_mm256_set1_pd(thresholds.latency),
                                  _mm256_loadu_pd(soa.latency_beta + j)),
                    latency, _CMP_LE_OQ),
      _mm256_and_pd(_mm256_cmp_pd(latency, neg_min_normal, _CMP_LE_OQ),
                    _mm256_cmp_pd(latency, neg_max_normal, _CMP_GE_OQ)));
  return MaskBits(_mm256_or_pd(quality_proven, latency_proven)) == 0xF;
}

/// Dominance mask for 4 SoA points against a broadcast query point.
inline int DominatesMask(const PointSoA& pts, size_t i, __m256d qq,
                         __m256d qc, __m256d ql) {
  const __m256d pq = _mm256_loadu_pd(pts.quality + i);
  const __m256d pc = _mm256_loadu_pd(pts.cost + i);
  const __m256d pl = _mm256_loadu_pd(pts.latency + i);
  const __m256d no_worse = _mm256_and_pd(
      _mm256_cmp_pd(pq, qq, _CMP_GE_OQ),
      _mm256_and_pd(_mm256_cmp_pd(pc, qc, _CMP_LE_OQ),
                    _mm256_cmp_pd(pl, ql, _CMP_LE_OQ)));
  const __m256d strict = _mm256_or_pd(
      _mm256_cmp_pd(pq, qq, _CMP_GT_OQ),
      _mm256_or_pd(_mm256_cmp_pd(pc, qc, _CMP_LT_OQ),
                   _mm256_cmp_pd(pl, ql, _CMP_LT_OQ)));
  return MaskBits(_mm256_and_pd(no_worse, strict));
}

}  // namespace

bool Avx2CompiledIn() { return true; }

void Avx2EstimateParams(const CoeffSoA& soa, double w, size_t begin,
                        size_t end, ParamVector* out) {
  const __m256d vw = _mm256_set1_pd(w);
  size_t j = begin;
  alignas(32) double q[4];
  alignas(32) double c[4];
  alignas(32) double l[4];
  for (; j + 4 <= end; j += 4) {
    const __m256d vq = ClampUnitVec(_mm256_add_pd(
        _mm256_mul_pd(_mm256_loadu_pd(soa.quality_alpha + j), vw),
        _mm256_loadu_pd(soa.quality_beta + j)));
    const __m256d vc = ClampUnitVec(_mm256_add_pd(
        _mm256_mul_pd(_mm256_loadu_pd(soa.cost_alpha + j), vw),
        _mm256_loadu_pd(soa.cost_beta + j)));
    const __m256d vl = ClampUnitVec(_mm256_add_pd(
        _mm256_mul_pd(_mm256_loadu_pd(soa.latency_alpha + j), vw),
        _mm256_loadu_pd(soa.latency_beta + j)));
    _mm256_store_pd(q, vq);
    _mm256_store_pd(c, vc);
    _mm256_store_pd(l, vl);
    for (int lane = 0; lane < 4; ++lane) {
      out[j + static_cast<size_t>(lane)] =
          ParamVector{q[lane], c[lane], l[lane]};
    }
  }
  for (; j < end; ++j) out[j] = EstimateOne(soa, w, j);
}

void Avx2FillWorkforceCells(const CoeffSoA& soa, size_t begin, size_t end,
                            const ParamVector& thresholds,
                            WorkforcePolicy policy, WorkforceCell* cells) {
  const __m256d vinf = _mm256_set1_pd(kInf);
  size_t j = begin;
  alignas(32) double req[4];
  for (; j + 4 <= end; j += 4) {
    const CellsVec group = PriceGroup(soa, j, thresholds, policy);
    _mm256_store_pd(req,
                    _mm256_blendv_pd(vinf, group.requirement, group.feasible));
    const int feasible_bits = MaskBits(group.feasible);
    for (int lane = 0; lane < 4; ++lane) {
      WorkforceCell& cell = cells[j + static_cast<size_t>(lane)];
      cell.requirement = req[lane];
      cell.feasible = ((feasible_bits >> lane) & 1) != 0;
    }
  }
  for (; j < end; ++j) cells[j] = CellOne(soa, j, thresholds, policy);
}

size_t Avx2SelectWorkforceCells(const CoeffSoA& soa, size_t begin, size_t end,
                                const ParamVector& thresholds,
                                WorkforcePolicy policy, double bound,
                                size_t first, SelectedCell* out) {
  // A local copy: stores to `out` cannot alias it, so the thresholds stay
  // in registers across the loop.
  const ParamVector t = thresholds;
  const bool minimal = policy == WorkforcePolicy::kMinimalWorkforce;
  const __m256d vzero = _mm256_setzero_pd();
  const __m256d vbound = _mm256_set1_pd(bound);
  const __m256d vscaled = _mm256_set1_pd(ProofLimit(bound));
  size_t kept = 0;
  size_t j = begin;
  alignas(32) double req[4];
  for (; j + 4 <= end; j += 4) {
    const __m256d paper_signs = _mm256_and_pd(
        _mm256_and_pd(_mm256_cmp_pd(_mm256_loadu_pd(soa.quality_alpha + j),
                                    vzero, _CMP_GT_OQ),
                      _mm256_cmp_pd(_mm256_loadu_pd(soa.cost_alpha + j),
                                    vzero, _CMP_GT_OQ)),
        _mm256_cmp_pd(_mm256_loadu_pd(soa.latency_alpha + j), vzero,
                      _CMP_LT_OQ));
    const bool short_path = minimal && MaskBits(paper_signs) == 0xF;
    if (short_path && ProvenGroup(soa, j, t, vscaled)) continue;
    const CellsVec group = short_path ? PricePaperSignsGroup(soa, j, t)
                                      : PriceGroup(soa, j, t, policy);
    const unsigned keep = static_cast<unsigned>(
        MaskBits(group.feasible) &
        MaskBits(_mm256_cmp_pd(group.requirement, vbound, _CMP_LT_OQ)));
    if (keep == 0) continue;
    // Branch-free compaction: every lane is written at out[kept], and only
    // a kept lane advances past its slot. At most 3 entries past the kept
    // ones are touched, all within the caller's end - begin.
    _mm256_store_pd(req, group.requirement);
    for (int lane = 0; lane < 4; ++lane) {
      out[kept] = {req[lane], first + j + static_cast<size_t>(lane)};
      kept += (keep >> lane) & 1;
    }
  }
  return kept + ScalarSelectWorkforceCells(soa, j, end, thresholds, policy,
                                           bound, first, out + kept);
}

bool Avx2AnyDominates(const PointSoA& pts, size_t n, const ParamVector& q) {
  const __m256d qq = _mm256_set1_pd(q.quality);
  const __m256d qc = _mm256_set1_pd(q.cost);
  const __m256d ql = _mm256_set1_pd(q.latency);
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    if (DominatesMask(pts, i, qq, qc, ql) != 0) return true;
  }
  for (; i < n; ++i) {
    if (DominatesOne(pts, i, q)) return true;
  }
  return false;
}

uint32_t Avx2CountDominatorsBounded(const PointSoA& pts, const double* sums,
                                    size_t n, double sum_limit, uint32_t cap,
                                    const ParamVector& q) {
  const __m256d qq = _mm256_set1_pd(q.quality);
  const __m256d qc = _mm256_set1_pd(q.cost);
  const __m256d ql = _mm256_set1_pd(q.latency);
  const __m256d vlimit = _mm256_set1_pd(sum_limit);
  uint32_t count = 0;
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    // sums is ascending, so lanes with sums[i] < sum_limit form a prefix;
    // the scalar loop stops at the first lane outside it.
    const int in_prefix = MaskBits(
        _mm256_cmp_pd(_mm256_loadu_pd(sums + i), vlimit, _CMP_LT_OQ));
    const int dominates = DominatesMask(pts, i, qq, qc, ql);
    count += static_cast<uint32_t>(
        __builtin_popcount(static_cast<unsigned>(dominates & in_prefix)));
    if (in_prefix != 0xF) return count < cap ? count : cap;
    if (count >= cap) return cap;
  }
  for (; i < n; ++i) {
    if (sums[i] >= sum_limit) break;
    if (DominatesOne(pts, i, q)) {
      if (++count >= cap) break;
    }
  }
  return count < cap ? count : cap;
}

}  // namespace stratrec::core::kernels::internal

#else  // !(STRATREC_KERNELS_AVX2_TU && __AVX2__)

namespace stratrec::core::kernels::internal {

// No AVX2 in this build: keep the symbols (the dispatcher references them)
// but forward to the scalar kernels. Avx2CompiledIn() == false guarantees
// dispatch never selects this level, so the forwards are belt and braces.
bool Avx2CompiledIn() { return false; }

void Avx2EstimateParams(const CoeffSoA& soa, double w, size_t begin,
                        size_t end, ParamVector* out) {
  ScalarEstimateParams(soa, w, begin, end, out);
}

void Avx2FillWorkforceCells(const CoeffSoA& soa, size_t begin, size_t end,
                            const ParamVector& thresholds,
                            WorkforcePolicy policy, WorkforceCell* cells) {
  ScalarFillWorkforceCells(soa, begin, end, thresholds, policy, cells);
}

size_t Avx2SelectWorkforceCells(const CoeffSoA& soa, size_t begin, size_t end,
                                const ParamVector& thresholds,
                                WorkforcePolicy policy, double bound,
                                size_t first, SelectedCell* out) {
  return ScalarSelectWorkforceCells(soa, begin, end, thresholds, policy, bound,
                                    first, out);
}

bool Avx2AnyDominates(const PointSoA& pts, size_t n, const ParamVector& q) {
  return ScalarAnyDominates(pts, n, q);
}

uint32_t Avx2CountDominatorsBounded(const PointSoA& pts, const double* sums,
                                    size_t n, double sum_limit, uint32_t cap,
                                    const ParamVector& q) {
  return ScalarCountDominatorsBounded(pts, sums, n, sum_limit, cap, q);
}

}  // namespace stratrec::core::kernels::internal

#endif
