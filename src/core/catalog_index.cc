#include "src/core/catalog_index.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <numeric>

#include "src/core/kernels/kernels.h"

namespace stratrec::core {

namespace {

/// Builds the complete AdparOrderings block for `params`: the by-cost and
/// by-quality-descending index sorts, the bounded-probe skyline, and the
/// capped dominator counts. Deterministic — every comparator is a total
/// order with index tiebreaks — so any two builds over equal params produce
/// identical vectors.
void BuildAdparOrderings(const std::vector<ParamVector>& params,
                         AdparOrderings* out_ptr) {
  const size_t n = params.size();
  AdparOrderings& out = *out_ptr;

  out.by_cost.resize(n);
  std::iota(out.by_cost.begin(), out.by_cost.end(), size_t{0});
  std::sort(out.by_cost.begin(), out.by_cost.end(),
            [&](size_t a, size_t b) {
              if (params[a].cost != params[b].cost) {
                return params[a].cost < params[b].cost;
              }
              return a < b;
            });

  out.by_quality_desc.resize(n);
  std::iota(out.by_quality_desc.begin(), out.by_quality_desc.end(),
            size_t{0});
  std::sort(out.by_quality_desc.begin(), out.by_quality_desc.end(),
            [&](size_t a, size_t b) {
              if (params[a].quality != params[b].quality) {
                return params[a].quality > params[b].quality;
              }
              return a < b;
            });

  // Permuted value arrays for the sweep (see AdparOrderings).
  out.by_cost_params.clear();
  out.by_cost_params.reserve(n);
  for (size_t j : out.by_cost) out.by_cost_params.push_back(params[j]);
  out.by_quality_desc_quality.clear();
  out.by_quality_desc_quality.reserve(n);
  for (size_t j : out.by_quality_desc) {
    out.by_quality_desc_quality.push_back(params[j].quality);
  }

  // Skyline via a relaxation-space coordinate-sum sweep: a dominator's
  // sum is strictly smaller, and domination is transitive, so checking
  // each point against the skyline built so far is exhaustive. Both the
  // membership test and the dominator counting below probe at most
  // kMaxSkylineProbe members, which bounds the build at O(n * probe)
  // even on adversarial (anti-correlated) catalogs whose true skyline is
  // a large fraction of the input. The cap can only make the recorded
  // "skyline" a superset of the true one and the dominator counts an
  // undercount — both directions are safe for the pruning (fewer
  // strategies skipped, never a wrong skip).
  constexpr size_t kMaxSkylineProbe = 1024;
  std::vector<size_t> by_sum(n);
  std::iota(by_sum.begin(), by_sum.end(), size_t{0});
  auto relax_sum = [&](size_t j) {
    return (1.0 - params[j].quality) + params[j].cost + params[j].latency;
  };
  std::sort(by_sum.begin(), by_sum.end(), [&](size_t a, size_t b) {
    if (relax_sum(a) != relax_sum(b)) return relax_sum(a) < relax_sum(b);
    return a < b;
  });
  out.skyline.clear();
  std::vector<double> skyline_sums;  // ascending, parallel to out.skyline
  // SoA mirror of the accepted skyline members so the membership probe and
  // the dominator counts below run through the SIMD dominance kernels.
  std::vector<double> sky_quality;
  std::vector<double> sky_cost;
  std::vector<double> sky_latency;
  for (size_t j : by_sum) {
    const size_t probe = std::min(out.skyline.size(), kMaxSkylineProbe);
    const kernels::PointSoA sky{sky_quality.data(), sky_cost.data(),
                                sky_latency.data()};
    if (!kernels::AnyDominates(sky, probe, params[j])) {
      out.skyline.push_back(j);
      skyline_sums.push_back(relax_sum(j));
      sky_quality.push_back(params[j].quality);
      sky_cost.push_back(params[j].cost);
      sky_latency.push_back(params[j].latency);
    }
  }

  // Capped dominator counts against the skyline only: a strict lower
  // bound of the true dominance count, which is all the k-skyband safety
  // argument needs. A dominator's coordinate sum is strictly smaller and
  // skyline_sums is ascending, so the scan stops at the first member
  // whose sum reaches the probed point's.
  out.skyline_dominators.assign(n, 0);
  const size_t probe_limit = std::min(out.skyline.size(), kMaxSkylineProbe);
  const kernels::PointSoA sky{sky_quality.data(), sky_cost.data(),
                              sky_latency.data()};
  for (size_t j = 0; j < n; ++j) {
    out.skyline_dominators[j] = static_cast<uint16_t>(
        kernels::CountDominatorsBounded(sky, skyline_sums.data(), probe_limit,
                                        relax_sum(j), kSkylineDominatorCap,
                                        params[j]));
  }
}

}  // namespace

double QuantizeAvailability(double w, double quantum) {
  if (quantum <= 0.0) return w;
  const double snapped = std::round(w / quantum) * quantum;
  return snapped < 0.0 ? 0.0 : (snapped > 1.0 ? 1.0 : snapped);
}

const AdparOrderings& AvailabilitySnapshot::orderings() const {
  std::call_once(orderings_once_,
                 [this] { BuildAdparOrderings(params_, &orderings_); });
  return orderings_;
}

std::shared_ptr<const PrunedOrderings> AvailabilitySnapshot::PrunedFor(
    int k) const {
  if (k < 1 || static_cast<size_t>(k) > kSkylineDominatorCap) return nullptr;
  {
    std::lock_guard<std::mutex> lock(pruned_mutex_);
    auto it = pruned_.find(k);
    if (it != pruned_.end()) return it->second;
  }
  // Build outside the lock; a racing duplicate build is benign (first
  // insert wins, the loser's copy is dropped).
  const AdparOrderings& full = orderings();
  const std::vector<uint16_t>& dominators = full.skyline_dominators;
  auto keep = [&](size_t j) {
    return dominators[j] < static_cast<uint16_t>(k);
  };
  std::shared_ptr<PrunedOrderings> built;
  std::vector<ParamVector> by_cost_params;
  for (size_t j : full.by_cost) {
    if (keep(j)) by_cost_params.push_back(params_[j]);
  }
  // The k-skyband always retains at least k strategies (the k smallest
  // relaxation-space sums have fewer than k dominators each), so the
  // pruned sweep stays feasible whenever the full one is; the guard is
  // belt and braces. No survivors removed -> the full orderings are
  // already the candidate set.
  if (by_cost_params.size() >= static_cast<size_t>(k) &&
      by_cost_params.size() < full.by_cost.size()) {
    built = std::make_shared<PrunedOrderings>();
    built->by_cost_params = std::move(by_cost_params);
    built->by_quality_desc_quality.reserve(built->by_cost_params.size());
    for (size_t j : full.by_quality_desc) {
      if (keep(j)) {
        built->by_quality_desc_quality.push_back(params_[j].quality);
      }
    }
  }
  std::lock_guard<std::mutex> lock(pruned_mutex_);
  return pruned_.emplace(k, std::move(built)).first->second;
}

CatalogIndex CatalogIndex::Build(const std::vector<StrategyProfile>& profiles,
                                 Executor* executor, size_t grain) {
  const auto start = std::chrono::steady_clock::now();
  CatalogIndex index;
  index.size_ = profiles.size();
  for (size_t axis = 0; axis < 3; ++axis) {
    index.alpha_[axis].resize(profiles.size());
    index.beta_[axis].resize(profiles.size());
  }
  auto fill = [&](size_t begin, size_t end) {
    for (size_t j = begin; j < end; ++j) {
      const StrategyProfile& p = profiles[j];
      index.alpha_[0][j] = p.quality.alpha;
      index.beta_[0][j] = p.quality.beta;
      index.alpha_[1][j] = p.cost.alpha;
      index.beta_[1][j] = p.cost.beta;
      index.alpha_[2][j] = p.latency.alpha;
      index.beta_[2][j] = p.latency.beta;
    }
  };
  if (executor != nullptr) {
    executor->ParallelFor(profiles.size(), grain, fill);
  } else {
    fill(0, profiles.size());
  }
  index.build_nanos_ = static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - start)
          .count());
  return index;
}

void CatalogIndex::EstimateParamsInto(double w, std::vector<ParamVector>* out,
                                      Executor* executor, size_t grain) const {
  out->resize(size_);
  const kernels::CoeffSoA soa{alpha_[0].data(), beta_[0].data(),
                              alpha_[1].data(), beta_[1].data(),
                              alpha_[2].data(), beta_[2].data()};
  ParamVector* dst = out->data();
  auto fill = [&](size_t begin, size_t end) {
    kernels::EstimateParams(soa, w, begin, end, dst);
  };
  if (executor != nullptr) {
    executor->ParallelFor(size_, grain, fill);
  } else {
    fill(0, size_);
  }
}

std::shared_ptr<const AvailabilitySnapshot> CatalogIndex::BuildSnapshot(
    double w, Executor* executor, size_t grain) const {
  auto snapshot =
      std::shared_ptr<AvailabilitySnapshot>(new AvailabilitySnapshot());
  snapshot->availability_ = w;
  EstimateParamsInto(w, &snapshot->params_, executor, grain);
  return snapshot;
}

}  // namespace stratrec::core
