// Tolerant floating-point comparisons used by the optimization code.
//
// The deployment-parameter space is normalized to [0, 1]; an absolute epsilon
// is therefore appropriate (values never differ by many orders of magnitude).
#ifndef STRATREC_COMMON_FLOAT_COMPARE_H_
#define STRATREC_COMMON_FLOAT_COMPARE_H_

#include <cmath>

namespace stratrec {

/// Default absolute tolerance for comparisons in normalized parameter space.
inline constexpr double kEps = 1e-9;

/// a approximately equal to b.
inline bool ApproxEq(double a, double b, double eps = kEps) {
  return std::fabs(a - b) <= eps;
}

/// a <= b up to tolerance.
inline bool ApproxLe(double a, double b, double eps = kEps) {
  return a <= b + eps;
}

/// a >= b up to tolerance.
inline bool ApproxGe(double a, double b, double eps = kEps) {
  return a + eps >= b;
}

/// Clamps v into [lo, hi].
inline double Clamp(double v, double lo, double hi) {
  return v < lo ? lo : (v > hi ? hi : v);
}

/// Clamps v into the unit interval.
inline double ClampUnit(double v) { return Clamp(v, 0.0, 1.0); }

/// v lies in the unit interval. False for NaN, which `v < 0 || v > 1`
/// lets through, so every [0, 1] range check is written !InUnitInterval(v).
inline bool InUnitInterval(double v) { return v >= 0.0 && v <= 1.0; }

}  // namespace stratrec

#endif  // STRATREC_COMMON_FLOAT_COMPARE_H_
