#include "src/stats/empirical.h"

#include <algorithm>
#include <cmath>
#include <map>

#include "src/common/float_compare.h"

namespace stratrec::stats {

Result<EmpiricalPmf> EmpiricalPmf::Create(std::vector<PmfAtom> atoms) {
  if (atoms.empty()) return Status::InvalidArgument("PMF needs >= 1 atom");
  double total = 0.0;
  for (const auto& atom : atoms) {
    if (!InUnitInterval(atom.probability)) {
      return Status::InvalidArgument("probabilities must lie in [0, 1]");
    }
    total += atom.probability;
  }
  if (std::fabs(total - 1.0) > 1e-6) {
    return Status::InvalidArgument("probabilities must sum to 1");
  }
  for (auto& atom : atoms) atom.probability /= total;
  std::sort(atoms.begin(), atoms.end(),
            [](const PmfAtom& a, const PmfAtom& b) { return a.value < b.value; });
  return EmpiricalPmf(std::move(atoms));
}

Result<EmpiricalPmf> EmpiricalPmf::FromSamples(
    const std::vector<double>& samples) {
  if (samples.empty()) {
    return Status::InvalidArgument("PMF from empty sample");
  }
  std::map<double, int64_t> counts;
  for (double s : samples) ++counts[s];
  std::vector<PmfAtom> atoms;
  atoms.reserve(counts.size());
  const double n = static_cast<double>(samples.size());
  for (const auto& [value, count] : counts) {
    atoms.push_back({value, static_cast<double>(count) / n});
  }
  return EmpiricalPmf(std::move(atoms));
}

double EmpiricalPmf::Expectation() const {
  double e = 0.0;
  for (const auto& atom : atoms_) e += atom.value * atom.probability;
  return e;
}

double EmpiricalPmf::Variance() const {
  const double mu = Expectation();
  double v = 0.0;
  for (const auto& atom : atoms_) {
    v += atom.probability * (atom.value - mu) * (atom.value - mu);
  }
  return v;
}

double EmpiricalPmf::CdfAt(double x) const {
  double p = 0.0;
  for (const auto& atom : atoms_) {
    if (atom.value <= x) p += atom.probability;
  }
  return p;
}

Result<Histogram> Histogram::Create(double lo, double hi, int bins) {
  if (!(lo < hi)) return Status::InvalidArgument("histogram needs lo < hi");
  if (bins < 1) return Status::InvalidArgument("histogram needs bins >= 1");
  return Histogram(lo, hi, bins);
}

void Histogram::Add(double x) {
  const auto bins = static_cast<double>(counts_.size());
  double pos = (x - lo_) / (hi_ - lo_) * bins;
  auto idx = static_cast<int64_t>(std::floor(pos));
  idx = std::clamp<int64_t>(idx, 0, static_cast<int64_t>(counts_.size()) - 1);
  ++counts_[static_cast<size_t>(idx)];
  ++total_;
}

Result<EmpiricalPmf> Histogram::ToPmf() const {
  if (total_ == 0) {
    return Status::FailedPrecondition("histogram has no samples");
  }
  std::vector<PmfAtom> atoms;
  const double width = (hi_ - lo_) / static_cast<double>(counts_.size());
  for (size_t b = 0; b < counts_.size(); ++b) {
    if (counts_[b] == 0) continue;
    PmfAtom atom;
    atom.value = lo_ + (static_cast<double>(b) + 0.5) * width;
    atom.probability =
        static_cast<double>(counts_[b]) / static_cast<double>(total_);
    atoms.push_back(atom);
  }
  return EmpiricalPmf::Create(std::move(atoms));
}

}  // namespace stratrec::stats
