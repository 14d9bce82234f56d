// Explicit-width SIMD kernels for the SoA hot loops (runtime dispatched).
//
// The CatalogIndex refactor laid the per-axis linear-model coefficients out
// as flat double arrays precisely so the hot loops of the batch pipeline
// could be vectorized:
//
//   * EstimateParams — the per-availability parameter block estimation
//     (CatalogIndex::EstimateParamsInto behind every BuildSnapshot: the
//     batch cache's misses, and a stream session's first ineligible
//     arrival after each quantized-W move),
//   * SelectWorkforceCells — the pricing scan behind PriceRows, one
//     256-cell block per call: it prices the block for one request, counts
//     the feasible cells and keeps only those below the caller's running
//     k-th best, so no cell is stored,
//   * FillWorkforceCells — the stored cell fill behind the dense
//     WorkforceMatrix::Compute (the stream pricers and perfbench's fill
//     metric),
//   * AnyDominates / CountDominators / CountDominatorsBounded — the
//     relaxation-space dominance tests behind the skyline prefilter
//     (AvailabilitySnapshot::orderings()) and DominanceCounts.
//
// The AVX2 SelectWorkforceCells has a short path. Under kMinimalWorkforce,
// a 4-lane group whose strategies all have the paper's slope signs
// (quality and cost alpha > 0, latency alpha < 0; every generator catalog
// has them) skips the per-axis zero and sign masks: each axis then has an
// equality solution on a known side, and the general chain's 0 and +inf
// operands become constants. It runs the same compares in the same order,
// so its bits match. Every other group, and kPaperMaxOfThree, takes the
// general chain. FillWorkforceCells keeps the general chain on every
// group: a faster stream pricer raises perfbench's stream throughput and
// with it the check log's RSS past its bound (ROADMAP, "Why the stream
// pricer waits").
//
// Two implementations exist for every kernel: a portable scalar one
// (always compiled, the reference semantics) and an AVX2 one (4 double
// lanes, compiled only when the toolchain supports -mavx2). The AVX2 path
// is *bit-identical* to the scalar path by construction: it performs the
// exact same IEEE operations in the exact same order per element — FMA
// contraction is disabled on the kernel TU (plain mul + add, matching the
// baseline-ISA scalar code), clamps and min/max chains are replicated with
// compare+blend in scalar comparison order (so NaN/±0.0/denormal inputs
// flow through identically), and every call site keeps a scalar tail loop
// for the trailing n % 4 elements. tests/kernels_test.cc property-tests the
// equivalence on adversarial inputs; the CatalogIndex equivalence suites
// are the end-to-end safety net.
//
// Dispatch is resolved once at startup from CPUID (and can be overridden
// any time): the STRATREC_FORCE_SCALAR environment variable pins the scalar
// path for a whole process, and Configure() / ForceDispatchLevel() is the
// programmatic knob benches and tests use to measure both paths in one run.
#ifndef STRATREC_CORE_KERNELS_KERNELS_H_
#define STRATREC_CORE_KERNELS_KERNELS_H_

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>

#include "src/core/types.h"
#include "src/core/workforce.h"

namespace stratrec::core::kernels {

// ---------------------------------------------------------------------------
// Runtime dispatch
// ---------------------------------------------------------------------------

/// The instruction sets a kernel call may use. Wider levels are only ever
/// selected when both the build compiled them and the CPU reports support.
enum class DispatchLevel {
  kScalar = 0,  ///< portable reference path, always available
  kAvx2 = 1,    ///< 256-bit lanes (4 doubles), x86-64 with AVX2
};

/// Stable short name: "scalar" or "avx2" (ServiceStats::kernel_dispatch and
/// the bench JSON workload blocks carry this).
const char* DispatchLevelName(DispatchLevel level);

/// True when the AVX2 kernels were compiled into this binary *and* the CPU
/// supports them — i.e. kAvx2 is selectable.
bool Avx2Available();

/// The level kernel calls currently use. Resolved once on first use:
/// kAvx2 when Avx2Available() and the STRATREC_FORCE_SCALAR environment
/// variable is unset (or "0"/empty), kScalar otherwise. Configure()
/// overrides it afterwards.
DispatchLevel ActiveDispatchLevel();

/// Programmatic dispatch override (the KernelConfig knob).
struct KernelConfig {
  /// Pin dispatch to this level; nullopt restores the startup resolution
  /// (CPUID + STRATREC_FORCE_SCALAR). Requests for an unavailable level
  /// fall back to kScalar.
  std::optional<DispatchLevel> force_level;
};

/// Applies `config` process-wide. Thread-safe (the level is one atomic);
/// intended for startup, benches, and tests — flipping it mid-flight is
/// safe but makes concurrent results a mix of levels.
void Configure(const KernelConfig& config);

/// One-line description of how the kernels were compiled (compiler version,
/// whether the AVX2 TU was built, the fp-contract stance). Stamped into the
/// bench JSON workload blocks so artifacts from different boxes/toolchains
/// stay distinguishable.
std::string CompileFlags();

// ---------------------------------------------------------------------------
// Kernel 1: per-availability parameter estimation
// ---------------------------------------------------------------------------

/// The six flat coefficient arrays of a CatalogIndex (one double per
/// strategy, index-aligned). Pointers must stay valid for the call.
struct CoeffSoA {
  const double* quality_alpha = nullptr;
  const double* quality_beta = nullptr;
  const double* cost_alpha = nullptr;
  const double* cost_beta = nullptr;
  const double* latency_alpha = nullptr;
  const double* latency_beta = nullptr;
};

/// out[j] = { ClampUnit(qa[j]*w + qb[j]), ClampUnit(ca[j]*w + cb[j]),
///            ClampUnit(la[j]*w + lb[j]) } for j in [begin, end).
/// `out` is the full index-aligned array (the caller may partition the
/// range across an executor; disjoint ranges compose bit-identically).
void EstimateParams(const CoeffSoA& soa, double w, size_t begin, size_t end,
                    ParamVector* out);

// ---------------------------------------------------------------------------
// Kernel 2: workforce cells, stored (the dense matrix) or selected (PriceRows)
// ---------------------------------------------------------------------------

/// cells[j] = ComputeWorkforceCell(profile_j, thresholds, policy) for j in
/// [begin, end), with profile_j read from the SoA arrays. `cells` is
/// index-aligned with the SoA arrays; the dense WorkforceMatrix::Compute
/// fills whole rows. `thresholds` is loop-invariant — hoist the
/// per-request lookup before calling.
void FillWorkforceCells(const CoeffSoA& soa, size_t begin, size_t end,
                        const ParamVector& thresholds, WorkforcePolicy policy,
                        WorkforceCell* cells);

/// A cell SelectWorkforceCells keeps: its requirement and its column.
/// No member initializers, so a caller's array of them stays uninitialized.
struct SelectedCell {
  double requirement;
  size_t column;
};

/// Prices cells [begin, end) for one request exactly as FillWorkforceCells
/// would, without storing them. Returns how many are feasible. Every
/// feasible cell j whose requirement is strictly below `bound` is appended
/// as {requirement, first + j} at out[*size], in ascending j, and *size
/// grows by one. `out` must have room for end - begin more entries; the
/// AVX2 body also writes throwaway entries past the kept ones, within that
/// room. A bound of -inf keeps nothing (a count-only scan); +inf keeps
/// every feasible cell, since feasible requirements are finite.
size_t SelectWorkforceCells(const CoeffSoA& soa, size_t begin, size_t end,
                            const ParamVector& thresholds,
                            WorkforcePolicy policy, double bound, size_t first,
                            SelectedCell* out, size_t* size);

// ---------------------------------------------------------------------------
// Kernel 3: relaxation-space dominance tests
// ---------------------------------------------------------------------------

/// SoA view of candidate points in parameter space.
struct PointSoA {
  const double* quality = nullptr;
  const double* cost = nullptr;
  const double* latency = nullptr;
};

/// True when any of the first `n` SoA points dominates `q` (Dominates() of
/// src/core/skyline.h). Pure comparisons — trivially bit-identical.
bool AnyDominates(const PointSoA& pts, size_t n, const ParamVector& q);

/// Number of the first `n` SoA points dominating `q` (no early exit).
uint32_t CountDominators(const PointSoA& pts, size_t n, const ParamVector& q);

/// Dominator count with the skyline prefilter's scan semantics: visit
/// points in order, stop at the first i with sums[i] >= sum_limit (sums is
/// ascending, so this is a prefix), stop once `cap` dominators are found.
/// Returns min(count, cap) — exactly the scalar loop's result.
uint32_t CountDominatorsBounded(const PointSoA& pts, const double* sums,
                                size_t n, double sum_limit, uint32_t cap,
                                const ParamVector& q);

}  // namespace stratrec::core::kernels

#endif  // STRATREC_CORE_KERNELS_KERNELS_H_
