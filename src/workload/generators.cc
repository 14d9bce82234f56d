#include "src/workload/generators.h"

#include "src/common/float_compare.h"

namespace stratrec::workload {

const char* DimDistributionName(DimDistribution distribution) {
  switch (distribution) {
    case DimDistribution::kUniform:
      return "uniform";
    case DimDistribution::kNormal:
      return "normal";
  }
  return "?";
}

Generator::Generator(const GeneratorOptions& options, uint64_t seed)
    : options_(options), rng_(seed) {}

double Generator::SampleDim() {
  switch (options_.distribution) {
    case DimDistribution::kUniform:
      return rng_.Uniform(options_.uniform_lo, options_.uniform_hi);
    case DimDistribution::kNormal:
      return rng_.TruncatedNormal(options_.normal_mean, options_.normal_std,
                                  0.0, 1.0);
  }
  return 0.0;
}

std::vector<core::ParamVector> Generator::StrategyParams(int count) {
  std::vector<core::ParamVector> params;
  params.reserve(static_cast<size_t>(count));
  for (int i = 0; i < count; ++i) {
    params.push_back(core::ParamVector{SampleDim(), SampleDim(), SampleDim()});
  }
  return params;
}

std::vector<core::StrategyProfile> Generator::Profiles(int count) {
  std::vector<core::StrategyProfile> profiles;
  profiles.reserve(static_cast<size_t>(count));
  const double anchor = options_.anchor_availability;
  for (int i = 0; i < count; ++i) {
    core::StrategyProfile profile;
    // Parameter value at the anchor availability equals the sampled
    // dimension; the slope controls how it responds to worker availability.
    const double quality_dim = SampleDim();
    const double quality_alpha = rng_.Uniform(options_.alpha_lo,
                                              options_.alpha_hi);
    profile.quality = {quality_alpha, quality_dim - quality_alpha * anchor};

    const double cost_dim = SampleDim();
    const double cost_alpha = rng_.Uniform(options_.alpha_lo,
                                           options_.alpha_hi);
    profile.cost = {cost_alpha, cost_dim - cost_alpha * anchor};

    const double latency_dim = SampleDim();
    const double latency_alpha = -rng_.Uniform(options_.alpha_lo,
                                               options_.alpha_hi);
    profile.latency = {latency_alpha, latency_dim - latency_alpha * anchor};
    profiles.push_back(profile);
  }
  return profiles;
}

std::vector<core::DeploymentRequest> Generator::Requests(int count, int k) {
  const Range whole{options_.request_lo, options_.request_hi};
  return RequestsWithRanges(count, k, whole, whole, whole);
}

std::vector<core::DeploymentRequest> Generator::RequestsWithRanges(
    int count, int k, Range quality, Range cost, Range latency) {
  std::vector<core::DeploymentRequest> requests;
  requests.reserve(static_cast<size_t>(count));
  for (int i = 0; i < count; ++i) {
    core::DeploymentRequest request;
    request.id = "d";
    request.id += std::to_string(i + 1);
    request.thresholds.quality = rng_.Uniform(quality.lo, quality.hi);
    request.thresholds.cost = rng_.Uniform(cost.lo, cost.hi);
    request.thresholds.latency = rng_.Uniform(latency.lo, latency.hi);
    request.k = k;
    requests.push_back(std::move(request));
  }
  return requests;
}

}  // namespace stratrec::workload
