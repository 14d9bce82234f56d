#include "src/stats/descriptive.h"

#include <algorithm>
#include <cmath>

#include "src/common/float_compare.h"

namespace stratrec::stats {

Result<double> Mean(const std::vector<double>& xs) {
  if (xs.empty()) return Status::InvalidArgument("Mean of empty sample");
  double sum = 0.0;
  for (double x : xs) sum += x;
  return sum / static_cast<double>(xs.size());
}

Result<double> Variance(const std::vector<double>& xs) {
  if (xs.size() < 2) {
    return Status::InvalidArgument("Variance requires n >= 2");
  }
  const double mu = Mean(xs).value();
  double ss = 0.0;
  for (double x : xs) ss += (x - mu) * (x - mu);
  return ss / static_cast<double>(xs.size() - 1);
}

Result<double> StdDev(const std::vector<double>& xs) {
  auto var = Variance(xs);
  if (!var.ok()) return var.status();
  return std::sqrt(*var);
}

Result<double> StdError(const std::vector<double>& xs) {
  auto sd = StdDev(xs);
  if (!sd.ok()) return sd.status();
  return *sd / std::sqrt(static_cast<double>(xs.size()));
}

Result<double> Median(std::vector<double> xs) {
  return Quantile(std::move(xs), 0.5);
}

Result<double> Quantile(std::vector<double> xs, double q) {
  if (xs.empty()) return Status::InvalidArgument("Quantile of empty sample");
  if (!InUnitInterval(q)) {
    return Status::InvalidArgument("quantile must lie in [0,1]");
  }
  std::sort(xs.begin(), xs.end());
  const double pos = q * static_cast<double>(xs.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, xs.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return xs[lo] * (1.0 - frac) + xs[hi] * frac;
}

Result<double> Min(const std::vector<double>& xs) {
  if (xs.empty()) return Status::InvalidArgument("Min of empty sample");
  return *std::min_element(xs.begin(), xs.end());
}

Result<double> Max(const std::vector<double>& xs) {
  if (xs.empty()) return Status::InvalidArgument("Max of empty sample");
  return *std::max_element(xs.begin(), xs.end());
}

Result<double> PearsonCorrelation(const std::vector<double>& xs,
                                  const std::vector<double>& ys) {
  if (xs.size() != ys.size()) {
    return Status::InvalidArgument("correlation requires equal sizes");
  }
  if (xs.size() < 2) {
    return Status::InvalidArgument("correlation requires n >= 2");
  }
  const double mx = Mean(xs).value();
  const double my = Mean(ys).value();
  double sxy = 0.0, sxx = 0.0, syy = 0.0;
  for (size_t i = 0; i < xs.size(); ++i) {
    const double dx = xs[i] - mx;
    const double dy = ys[i] - my;
    sxy += dx * dy;
    sxx += dx * dx;
    syy += dy * dy;
  }
  if (sxx == 0.0 || syy == 0.0) {
    return Status::InvalidArgument("correlation undefined for zero variance");
  }
  return sxy / std::sqrt(sxx * syy);
}

void RunningStats::Add(double x) {
  ++count_;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(count_);
  m2_ += delta * (x - mean_);
}

double RunningStats::variance() const {
  if (count_ < 2) return 0.0;
  return m2_ / static_cast<double>(count_ - 1);
}

double RunningStats::stddev() const { return std::sqrt(variance()); }

double RunningStats::std_error() const {
  if (count_ < 2) return 0.0;
  return stddev() / std::sqrt(static_cast<double>(count_));
}

}  // namespace stratrec::stats
