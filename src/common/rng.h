// Deterministic, seedable random number generation used across the library.
//
// All stochastic components (workload generators, the platform simulator,
// property tests) draw from Rng so that every experiment is reproducible from
// a single 64-bit seed.
#ifndef STRATREC_COMMON_RNG_H_
#define STRATREC_COMMON_RNG_H_

#include <cstddef>
#include <cstdint>
#include <string_view>
#include <utility>
#include <vector>

namespace stratrec {

// Seeded hashing: the one definition of each helper that the library's
// seeded schedules (fault visits, replica picks, client backoff, simulator
// actor seeds and digests, the xoshiro seed expansion) are built from.
// Goldens in tests/fault_test.cc and tests/codec_test.cc pin outputs built
// on them.

/// The golden-ratio increment of SplitMix64.
inline constexpr uint64_t kSplitMix64Gamma = 0x9E3779B97F4A7C15ULL;

/// SplitMix64 (Steele, Lea and Flood, OOPSLA 2014) as a pure function: the
/// output of a generator whose state is `x`, whose next state is
/// x + kSplitMix64Gamma. Also the whitening step of every seeded hash.
inline uint64_t SplitMix64(uint64_t x) {
  x += kSplitMix64Gamma;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

/// The 64-bit FNV-1a offset basis and prime.
inline constexpr uint64_t kFnv1aOffsetBasis = 0xCBF29CE484222325ULL;
inline constexpr uint64_t kFnv1aPrime = 0x100000001B3ULL;

/// 64-bit FNV-1a over the bytes of `text`, continuing from `hash`.
inline uint64_t Fnv1a(std::string_view text,
                      uint64_t hash = kFnv1aOffsetBasis) {
  for (const unsigned char c : text) {
    hash ^= c;
    hash *= kFnv1aPrime;
  }
  return hash;
}

/// A uniform double in [0, 1) from the top 53 bits of `bits`.
inline double UnitFromBits(uint64_t bits) {
  return static_cast<double>(bits >> 11) * 0x1.0p-53;
}

/// xoshiro256** PRNG (Blackman & Vigna) with convenience samplers.
///
/// Not cryptographically secure; chosen for speed, tiny state, and exact
/// cross-platform reproducibility (unlike std::normal_distribution, whose
/// output is implementation-defined).
class Rng {
 public:
  /// Seeds the generator; two Rng instances with equal seeds produce
  /// identical streams.
  explicit Rng(uint64_t seed = 0x9E3779B97F4A7C15ULL);

  /// Next raw 64-bit value.
  uint64_t Next();

  /// Uniform double in [0, 1).
  double Uniform();

  /// Uniform double in [lo, hi). Requires lo <= hi.
  double Uniform(double lo, double hi);

  /// Uniform integer in [lo, hi] inclusive. Requires lo <= hi.
  int64_t UniformInt(int64_t lo, int64_t hi);

  /// Standard normal via Box-Muller (deterministic across platforms).
  double Normal();

  /// Normal with the given mean and standard deviation.
  double Normal(double mean, double stddev);

  /// Normal(mean, stddev) rejected-resampled into [lo, hi].
  double TruncatedNormal(double mean, double stddev, double lo, double hi);

  /// Bernoulli trial with success probability p in [0, 1].
  bool Bernoulli(double p);

  /// Poisson-distributed count with the given rate (Knuth for small lambda,
  /// normal approximation above 30).
  int Poisson(double lambda);

  /// Exponential inter-arrival time with the given rate (> 0).
  double Exponential(double rate);

  /// Fisher-Yates shuffle of `items`.
  template <typename T>
  void Shuffle(std::vector<T>* items) {
    for (std::size_t i = items->size(); i > 1; --i) {
      const auto j = static_cast<std::size_t>(
          UniformInt(0, static_cast<int64_t>(i) - 1));
      std::swap((*items)[i - 1], (*items)[j]);
    }
  }

  /// Derives an independent child generator (for per-task streams).
  Rng Fork();

 private:
  uint64_t state_[4];
  bool has_cached_normal_ = false;
  double cached_normal_ = 0.0;
};

}  // namespace stratrec

#endif  // STRATREC_COMMON_RNG_H_
