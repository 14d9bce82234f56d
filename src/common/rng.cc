#include "src/common/rng.h"

#include <cassert>
#include <cmath>

namespace stratrec {
namespace {

uint64_t Rotl(uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }

constexpr double kTwoPi = 6.283185307179586476925286766559;

}  // namespace

Rng::Rng(uint64_t seed) {
  // The first four outputs of a SplitMix64 generator seeded with `seed`.
  for (auto& word : state_) {
    word = SplitMix64(seed);
    seed += kSplitMix64Gamma;
  }
}

uint64_t Rng::Next() {
  const uint64_t result = Rotl(state_[1] * 5, 7) * 9;
  const uint64_t t = state_[1] << 17;
  state_[2] ^= state_[0];
  state_[3] ^= state_[1];
  state_[1] ^= state_[2];
  state_[0] ^= state_[3];
  state_[2] ^= t;
  state_[3] = Rotl(state_[3], 45);
  return result;
}

double Rng::Uniform() { return UnitFromBits(Next()); }

double Rng::Uniform(double lo, double hi) {
  assert(lo <= hi);
  return lo + (hi - lo) * Uniform();
}

int64_t Rng::UniformInt(int64_t lo, int64_t hi) {
  assert(lo <= hi);
  const uint64_t span = static_cast<uint64_t>(hi - lo) + 1;
  // Rejection sampling to avoid modulo bias.
  const uint64_t limit = UINT64_MAX - UINT64_MAX % span;
  uint64_t v = Next();
  while (v >= limit) v = Next();
  return lo + static_cast<int64_t>(v % span);
}

double Rng::Normal() {
  if (has_cached_normal_) {
    has_cached_normal_ = false;
    return cached_normal_;
  }
  // Box-Muller; u1 bounded away from 0 so log() is finite.
  double u1 = Uniform();
  if (u1 < 1e-300) u1 = 1e-300;
  const double u2 = Uniform();
  const double r = std::sqrt(-2.0 * std::log(u1));
  cached_normal_ = r * std::sin(kTwoPi * u2);
  has_cached_normal_ = true;
  return r * std::cos(kTwoPi * u2);
}

double Rng::Normal(double mean, double stddev) {
  return mean + stddev * Normal();
}

double Rng::TruncatedNormal(double mean, double stddev, double lo, double hi) {
  assert(lo <= hi);
  if (stddev <= 0.0) return std::fmin(std::fmax(mean, lo), hi);
  for (int attempt = 0; attempt < 256; ++attempt) {
    const double v = Normal(mean, stddev);
    if (v >= lo && v <= hi) return v;
  }
  // Pathological truncation window; fall back to clamping.
  return std::fmin(std::fmax(mean, lo), hi);
}

bool Rng::Bernoulli(double p) { return Uniform() < p; }

int Rng::Poisson(double lambda) {
  assert(lambda >= 0.0);
  if (lambda <= 0.0) return 0;
  if (lambda < 30.0) {
    const double threshold = std::exp(-lambda);
    int count = 0;
    double product = Uniform();
    while (product > threshold) {
      ++count;
      product *= Uniform();
    }
    return count;
  }
  // Normal approximation with continuity correction for large lambda.
  const double v = Normal(lambda, std::sqrt(lambda));
  return v < 0.0 ? 0 : static_cast<int>(v + 0.5);
}

double Rng::Exponential(double rate) {
  assert(rate > 0.0);
  double u = Uniform();
  if (u < 1e-300) u = 1e-300;
  return -std::log(u) / rate;
}

Rng Rng::Fork() { return Rng(Next()); }

}  // namespace stratrec
