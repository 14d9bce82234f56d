// Property tests for the SoA SIMD kernels: the AVX2 level must be
// *byte-identical* to the scalar reference on adversarial inputs —
// unaligned lengths (not a multiple of the 4-double lane width, shorter
// than one lane, empty), denormal/±0.0/±inf coefficients, and thresholds
// that drive the constraint analysis through every branch. Identity is
// asserted on the bit patterns (memcmp of the doubles), not on ==, so a
// -0.0 vs +0.0 or differing-NaN divergence fails the test.
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <random>
#include <string>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "src/core/kernels/kernels_internal.h"

namespace stratrec::core {
namespace {

using kernels::CoeffSoA;
using kernels::DispatchLevel;
using kernels::KernelConfig;
using kernels::PointSoA;
namespace ki = kernels::internal;

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr double kDenormal = std::numeric_limits<double>::denorm_min();

/// Coefficient soup biased toward the hard cases: exact zeros (constant
/// parameters), signed zeros, denormals, infinities, and ordinary values
/// spilling outside [0, 1] so ClampUnit has work to do.
double AdversarialValue(std::mt19937_64& rng) {
  std::uniform_real_distribution<double> uniform(-1.5, 1.5);
  switch (rng() % 10) {
    case 0:
      return 0.0;
    case 1:
      return -0.0;
    case 2:
      return kDenormal;
    case 3:
      return -kDenormal;
    case 4:
      return kInf;
    case 5:
      return -kInf;
    default:
      return uniform(rng);
  }
}

struct Arrays {
  std::vector<double> qa, qb, ca, cb, la, lb;
  CoeffSoA soa() const {
    return CoeffSoA{qa.data(), qb.data(), ca.data(),
                    cb.data(), la.data(), lb.data()};
  }
};

Arrays RandomArrays(std::mt19937_64& rng, size_t n) {
  Arrays a;
  for (std::vector<double>* v : {&a.qa, &a.qb, &a.ca, &a.cb, &a.la, &a.lb}) {
    v->resize(n);
    for (double& x : *v) x = AdversarialValue(rng);
  }
  return a;
}

ParamVector RandomThresholds(std::mt19937_64& rng) {
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  return ParamVector{unit(rng), unit(rng), unit(rng)};
}

/// Bitwise comparison: trips on -0.0 vs +0.0 and on NaN payload drift.
void ExpectSameBits(const double* a, const double* b, size_t n,
                    const char* what) {
  for (size_t i = 0; i < n; ++i) {
    uint64_t ba, bb;
    std::memcpy(&ba, &a[i], sizeof(ba));
    std::memcpy(&bb, &b[i], sizeof(bb));
    EXPECT_EQ(ba, bb) << what << " diverges at element " << i << ": " << a[i]
                      << " vs " << b[i];
  }
}

// Lengths around the 4-lane width: empty, sub-lane, exact lanes, ragged
// tails, and a larger block exercising many full vector steps.
const size_t kLengths[] = {0, 1, 2, 3, 4, 5, 7, 8, 9, 15, 64, 257, 1000};

TEST(Kernels, EstimateParamsBitIdenticalScalarVsAvx2) {
  if (!kernels::Avx2Available()) GTEST_SKIP() << "no AVX2 on this host";
  std::mt19937_64 rng(0xE5717A7E);
  for (size_t n : kLengths) {
    const Arrays a = RandomArrays(rng, n);
    for (double w : {0.0, 0.25, 1.0, 0.7071067811865476}) {
      std::vector<ParamVector> scalar(n), avx2(n);
      ki::ScalarEstimateParams(a.soa(), w, 0, n, scalar.data());
      ki::Avx2EstimateParams(a.soa(), w, 0, n, avx2.data());
      ExpectSameBits(reinterpret_cast<const double*>(scalar.data()),
                     reinterpret_cast<const double*>(avx2.data()), n * 3,
                     "EstimateParams");
    }
  }
}

TEST(Kernels, FillWorkforceCellsBitIdenticalScalarVsAvx2) {
  if (!kernels::Avx2Available()) GTEST_SKIP() << "no AVX2 on this host";
  std::mt19937_64 rng(0xF111CE11);
  for (size_t n : kLengths) {
    const Arrays a = RandomArrays(rng, n);
    const ParamVector thresholds = RandomThresholds(rng);
    for (WorkforcePolicy policy : {WorkforcePolicy::kMinimalWorkforce,
                                   WorkforcePolicy::kPaperMaxOfThree}) {
      std::vector<WorkforceCell> scalar(n), avx2(n);
      ki::ScalarFillWorkforceCells(a.soa(), 0, n, thresholds, policy,
                                   scalar.data());
      ki::Avx2FillWorkforceCells(a.soa(), 0, n, thresholds, policy,
                                 avx2.data());
      for (size_t j = 0; j < n; ++j) {
        ExpectSameBits(&scalar[j].requirement, &avx2[j].requirement, 1,
                       "FillWorkforceCells requirement");
        EXPECT_EQ(scalar[j].feasible, avx2[j].feasible)
            << "feasible diverges at " << j;
      }
    }
  }
}

TEST(Kernels, FillWorkforceCellsSubrangeMatchesFullRange) {
  if (!kernels::Avx2Available()) GTEST_SKIP() << "no AVX2 on this host";
  // Partitioned calls (what ParallelFor does to a matrix row) must compose
  // to the same bytes as one whole-range call.
  std::mt19937_64 rng(0x5EB12A46);
  const size_t n = 103;
  const Arrays a = RandomArrays(rng, n);
  const ParamVector thresholds = RandomThresholds(rng);
  std::vector<WorkforceCell> whole(n), pieces(n);
  ki::Avx2FillWorkforceCells(a.soa(), 0, n, thresholds,
                             WorkforcePolicy::kPaperMaxOfThree, whole.data());
  for (size_t begin = 0; begin < n;) {
    const size_t end = std::min(n, begin + 1 + rng() % 9);
    ki::Avx2FillWorkforceCells(a.soa(), begin, end, thresholds,
                               WorkforcePolicy::kPaperMaxOfThree,
                               pieces.data());
    begin = end;
  }
  for (size_t j = 0; j < n; ++j) {
    ExpectSameBits(&whole[j].requirement, &pieces[j].requirement, 1,
                   "subrange requirement");
    EXPECT_EQ(whole[j].feasible, pieces[j].feasible);
  }
}

/// The paper's slope signs (quality and cost alpha > 0, latency alpha < 0)
/// with adversarial magnitudes. One alpha in 16 comes from the adversarial
/// soup instead, so 4-lane groups are both all paper-signed (the AVX2 short
/// path) and mixed (its general chain).
double PaperSignedAlpha(std::mt19937_64& rng, double sign) {
  if (rng() % 16 == 0) return AdversarialValue(rng);
  switch (rng() % 5) {
    case 0:
      return sign * kDenormal;
    case 1:
      return sign * kInf;
    default:
      return sign * std::uniform_real_distribution<double>(1e-3, 1.5)(rng);
  }
}

/// Betas and thresholds drawn from one coarse grid tie exactly, so the
/// equality solutions include signed zeros.
double GridValue(std::mt19937_64& rng) {
  return static_cast<double>(rng() % 5) / 4.0;
}

Arrays PaperSignedArrays(std::mt19937_64& rng, size_t n) {
  Arrays a;
  for (auto [alpha, beta, sign] : {std::tuple{&a.qa, &a.qb, 1.0},
                                   std::tuple{&a.ca, &a.cb, 1.0},
                                   std::tuple{&a.la, &a.lb, -1.0}}) {
    alpha->resize(n);
    beta->resize(n);
    for (size_t j = 0; j < n; ++j) {
      (*alpha)[j] = PaperSignedAlpha(rng, sign);
      (*beta)[j] = rng() % 2 == 0 ? GridValue(rng) : AdversarialValue(rng);
    }
  }
  return a;
}

// SelectWorkforceCells at both levels against the scalar cell fill: the
// same feasible count, and exactly the feasible cells strictly below the
// bound appended after the entries already there, ascending, offset by
// `first`, requirements bit for bit. The bounds are -inf (count only), 0,
// +inf (every feasible cell) and a requirement from the row, which a cell
// ties and strict < must drop.
TEST(Kernels, SelectWorkforceCellsMatchesFill) {
  std::vector<DispatchLevel> levels = {DispatchLevel::kScalar};
  if (kernels::Avx2Available()) levels.push_back(DispatchLevel::kAvx2);
  std::mt19937_64 rng(0x5E1EC7ED);
  constexpr size_t kFirst = 1000;
  size_t kept = 0;
  size_t tied = 0;
  for (const bool paper_signs : {false, true}) {
    for (size_t n : kLengths) {
      const Arrays a =
          paper_signs ? PaperSignedArrays(rng, n) : RandomArrays(rng, n);
      const ParamVector thresholds =
          paper_signs && rng() % 2 == 0
              ? ParamVector{GridValue(rng), GridValue(rng), GridValue(rng)}
              : RandomThresholds(rng);
      for (WorkforcePolicy policy : {WorkforcePolicy::kMinimalWorkforce,
                                     WorkforcePolicy::kPaperMaxOfThree}) {
        std::vector<WorkforceCell> cells(n);
        ki::ScalarFillWorkforceCells(a.soa(), 0, n, thresholds, policy,
                                     cells.data());
        for (const size_t begin : {size_t{0}, n / 3}) {
          std::vector<double> bounds = {-kInf, 0.0, kInf};
          size_t feasible = 0;
          for (size_t j = begin; j < n; ++j) {
            if (!cells[j].feasible) continue;
            ++feasible;
            if (rng() % feasible == 0) {  // a uniform pick from the row
              bounds.resize(3);
              bounds.push_back(cells[j].requirement);
            }
          }
          for (const double bound : bounds) {
            std::vector<kernels::SelectedCell> want;
            for (size_t j = begin; j < n; ++j) {
              if (cells[j].feasible && cells[j].requirement < bound) {
                want.push_back({cells[j].requirement, kFirst + j});
              }
              if (cells[j].feasible && cells[j].requirement == bound) ++tied;
            }
            for (const DispatchLevel level : levels) {
              // One entry is already there; the kernel appends after it.
              std::vector<kernels::SelectedCell> got(n + 1, {-1.0, 7});
              size_t size = 1;
              const auto select = level == DispatchLevel::kScalar
                                      ? ki::ScalarSelectWorkforceCells
                                      : ki::Avx2SelectWorkforceCells;
              const size_t count =
                  select(a.soa(), begin, n, thresholds, policy, bound, kFirst,
                         got.data(), &size);
              const std::string where =
                  std::string(kernels::DispatchLevelName(level)) +
                  (paper_signs ? " paper-signed" : " adversarial") + " n " +
                  std::to_string(n) + " begin " + std::to_string(begin) +
                  " bound " + std::to_string(bound);
              EXPECT_EQ(count, feasible) << where;
              ASSERT_EQ(size, want.size() + 1) << where;
              EXPECT_EQ(got[0].column, 7u) << where;
              for (size_t r = 0; r < want.size(); ++r) {
                EXPECT_EQ(got[r + 1].column, want[r].column) << where;
                EXPECT_EQ(std::memcmp(&got[r + 1].requirement,
                                      &want[r].requirement, sizeof(double)),
                          0)
                    << where << " entry " << r;
              }
            }
            kept += want.size();
          }
        }
      }
    }
  }
  EXPECT_GT(kept, 0u);  // some cells pass the bound
  EXPECT_GT(tied, 0u);  // and some tie it
}

TEST(Kernels, DominanceBitIdenticalScalarVsAvx2) {
  if (!kernels::Avx2Available()) GTEST_SKIP() << "no AVX2 on this host";
  std::mt19937_64 rng(0xD0317A7E);
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  for (size_t n : kLengths) {
    std::vector<double> q(n), c(n), l(n);
    // Cluster coordinates on a coarse grid so exact ties (the boundary
    // between "no worse" and "strictly better") actually occur.
    auto coarse = [&] { return std::round(unit(rng) * 4.0) / 4.0; };
    for (size_t i = 0; i < n; ++i) {
      q[i] = coarse();
      c[i] = coarse();
      l[i] = coarse();
    }
    const PointSoA pts{q.data(), c.data(), l.data()};
    for (int probe = 0; probe < 32; ++probe) {
      const ParamVector query{coarse(), coarse(), coarse()};
      EXPECT_EQ(ki::ScalarAnyDominates(pts, n, query),
                ki::Avx2AnyDominates(pts, n, query));
      EXPECT_EQ(ki::ScalarCountDominators(pts, n, query),
                ki::Avx2CountDominators(pts, n, query));
    }
  }
}

TEST(Kernels, CountDominatorsBoundedMatchesScalarScan) {
  if (!kernels::Avx2Available()) GTEST_SKIP() << "no AVX2 on this host";
  std::mt19937_64 rng(0xB0D4DED5);
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  for (size_t n : kLengths) {
    std::vector<double> q(n), c(n), l(n), sums(n);
    for (size_t i = 0; i < n; ++i) {
      q[i] = unit(rng);
      c[i] = unit(rng);
      l[i] = unit(rng);
      sums[i] = (1.0 - q[i]) + c[i] + l[i];
    }
    std::sort(sums.begin(), sums.end());  // kernel precondition: ascending
    const PointSoA pts{q.data(), c.data(), l.data()};
    for (int probe = 0; probe < 32; ++probe) {
      const ParamVector query{unit(rng), unit(rng), unit(rng)};
      const double limit = unit(rng) * 3.0;
      for (uint32_t cap : {1u, 2u, 64u}) {
        EXPECT_EQ(
            ki::ScalarCountDominatorsBounded(pts, sums.data(), n, limit, cap,
                                             query),
            ki::Avx2CountDominatorsBounded(pts, sums.data(), n, limit, cap,
                                           query));
      }
    }
  }
}

TEST(Kernels, ConfigureForcesAndRestoresDispatch) {
  const DispatchLevel startup = kernels::ActiveDispatchLevel();
  kernels::Configure(KernelConfig{DispatchLevel::kScalar});
  EXPECT_EQ(kernels::ActiveDispatchLevel(), DispatchLevel::kScalar);
  if (kernels::Avx2Available()) {
    kernels::Configure(KernelConfig{DispatchLevel::kAvx2});
    EXPECT_EQ(kernels::ActiveDispatchLevel(), DispatchLevel::kAvx2);
  }
  kernels::Configure(KernelConfig{});  // restore the startup resolution
  EXPECT_EQ(kernels::ActiveDispatchLevel(), startup);
}

TEST(Kernels, ForcingUnavailableLevelFallsBackToScalar) {
  if (kernels::Avx2Available()) {
    GTEST_SKIP() << "AVX2 available; the fallback branch is unreachable";
  }
  kernels::Configure(KernelConfig{DispatchLevel::kAvx2});
  EXPECT_EQ(kernels::ActiveDispatchLevel(), DispatchLevel::kScalar);
  kernels::Configure(KernelConfig{});
}

TEST(Kernels, EnvForceScalarPinsDispatch) {
  // The env var is read at (re-)resolution time; Configure({}) re-resolves.
  ASSERT_EQ(setenv("STRATREC_FORCE_SCALAR", "1", /*overwrite=*/1), 0);
  kernels::Configure(KernelConfig{});
  EXPECT_EQ(kernels::ActiveDispatchLevel(), DispatchLevel::kScalar);
  // "0" and empty mean unset.
  ASSERT_EQ(setenv("STRATREC_FORCE_SCALAR", "0", 1), 0);
  kernels::Configure(KernelConfig{});
  EXPECT_EQ(kernels::ActiveDispatchLevel() == DispatchLevel::kAvx2,
            kernels::Avx2Available());
  ASSERT_EQ(unsetenv("STRATREC_FORCE_SCALAR"), 0);
  kernels::Configure(KernelConfig{});
}

TEST(Kernels, DispatchNamesAndCompileFlags) {
  EXPECT_STREQ(kernels::DispatchLevelName(DispatchLevel::kScalar), "scalar");
  EXPECT_STREQ(kernels::DispatchLevelName(DispatchLevel::kAvx2), "avx2");
  EXPECT_NE(kernels::CompileFlags().find("cxx="), std::string::npos);
  EXPECT_NE(kernels::CompileFlags().find("avx2-tu="), std::string::npos);
}

}  // namespace
}  // namespace stratrec::core
