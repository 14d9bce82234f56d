// Runtime dispatch for the SoA kernels: the level is resolved once (CPUID +
// STRATREC_FORCE_SCALAR) into one relaxed atomic, then every kernel call is
// a load + branch. Configure() overwrites the atomic; tests and benches use
// it to measure both levels inside one process.
#include <atomic>
#include <cstdlib>
#include <string>

#include "src/core/kernels/kernels_internal.h"

namespace stratrec::core::kernels {

namespace {

constexpr int kUnresolved = -1;

std::atomic<int> g_level{kUnresolved};

bool CpuHasAvx2() {
#if defined(__x86_64__) || defined(_M_X64)
  return __builtin_cpu_supports("avx2") != 0;
#else
  return false;
#endif
}

/// STRATREC_FORCE_SCALAR set to anything but "" or "0" pins scalar.
bool ForceScalarFromEnv() {
  const char* value = std::getenv("STRATREC_FORCE_SCALAR");
  if (value == nullptr || value[0] == '\0') return false;
  return !(value[0] == '0' && value[1] == '\0');
}

DispatchLevel ResolveStartupLevel() {
  if (ForceScalarFromEnv()) return DispatchLevel::kScalar;
  return Avx2Available() ? DispatchLevel::kAvx2 : DispatchLevel::kScalar;
}

DispatchLevel Level() {
  int level = g_level.load(std::memory_order_relaxed);
  if (level == kUnresolved) {
    level = static_cast<int>(ResolveStartupLevel());
    // Concurrent first calls resolve to the same value; last store wins.
    g_level.store(level, std::memory_order_relaxed);
  }
  return static_cast<DispatchLevel>(level);
}

}  // namespace

const char* DispatchLevelName(DispatchLevel level) {
  switch (level) {
    case DispatchLevel::kScalar:
      return "scalar";
    case DispatchLevel::kAvx2:
      return "avx2";
  }
  return "scalar";
}

bool Avx2Available() { return internal::Avx2CompiledIn() && CpuHasAvx2(); }

DispatchLevel ActiveDispatchLevel() { return Level(); }

void Configure(const KernelConfig& config) {
  if (!config.force_level.has_value()) {
    g_level.store(static_cast<int>(ResolveStartupLevel()),
                  std::memory_order_relaxed);
    return;
  }
  DispatchLevel level = *config.force_level;
  if (level == DispatchLevel::kAvx2 && !Avx2Available()) {
    level = DispatchLevel::kScalar;
  }
  g_level.store(static_cast<int>(level), std::memory_order_relaxed);
}

std::string CompileFlags() {
  std::string flags = "cxx=";
#if defined(__VERSION__)
  flags += __VERSION__;
#else
  flags += "unknown";
#endif
  flags += internal::Avx2CompiledIn()
               ? "; avx2-tu=-mavx2 -ffp-contract=off"
               : "; avx2-tu=absent";
  return flags;
}

void EstimateParams(const CoeffSoA& soa, double w, size_t begin, size_t end,
                    ParamVector* out) {
  if (Level() == DispatchLevel::kAvx2) {
    internal::Avx2EstimateParams(soa, w, begin, end, out);
  } else {
    internal::ScalarEstimateParams(soa, w, begin, end, out);
  }
}

void FillWorkforceCells(const CoeffSoA& soa, size_t begin, size_t end,
                        const ParamVector& thresholds, WorkforcePolicy policy,
                        WorkforceCell* cells) {
  if (Level() == DispatchLevel::kAvx2) {
    internal::Avx2FillWorkforceCells(soa, begin, end, thresholds, policy,
                                     cells);
  } else {
    internal::ScalarFillWorkforceCells(soa, begin, end, thresholds, policy,
                                       cells);
  }
}

size_t SelectWorkforceCells(const CoeffSoA& soa, size_t begin, size_t end,
                            const ParamVector& thresholds,
                            WorkforcePolicy policy, double bound, size_t first,
                            SelectedCell* out) {
  if (Level() == DispatchLevel::kAvx2) {
    return internal::Avx2SelectWorkforceCells(soa, begin, end, thresholds,
                                              policy, bound, first, out);
  }
  return internal::ScalarSelectWorkforceCells(soa, begin, end, thresholds,
                                              policy, bound, first, out);
}

bool AnyDominates(const PointSoA& pts, size_t n, const ParamVector& q) {
  if (Level() == DispatchLevel::kAvx2) {
    return internal::Avx2AnyDominates(pts, n, q);
  }
  return internal::ScalarAnyDominates(pts, n, q);
}

uint32_t CountDominatorsBounded(const PointSoA& pts, const double* sums,
                                size_t n, double sum_limit, uint32_t cap,
                                const ParamVector& q) {
  if (Level() == DispatchLevel::kAvx2) {
    return internal::Avx2CountDominatorsBounded(pts, sums, n, sum_limit, cap,
                                                q);
  }
  return internal::ScalarCountDominatorsBounded(pts, sums, n, sum_limit, cap,
                                                q);
}

}  // namespace stratrec::core::kernels
