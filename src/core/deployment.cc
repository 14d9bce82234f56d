#include "src/core/deployment.h"

#include "src/common/float_compare.h"

namespace stratrec::core {

Status ValidateRequest(const DeploymentRequest& request) {
  if (!InUnitInterval(request.thresholds.quality) ||
      !InUnitInterval(request.thresholds.cost) ||
      !InUnitInterval(request.thresholds.latency)) {
    return Status::InvalidArgument("request '" + request.id +
                                   "': thresholds must lie in [0, 1]");
  }
  if (request.k < 1) {
    return Status::InvalidArgument("request '" + request.id +
                                   "': k must be >= 1");
  }
  return Status::OK();
}

std::vector<size_t> SuitableStrategies(const std::vector<ParamVector>& params,
                                       const ParamVector& thresholds) {
  std::vector<size_t> out;
  for (size_t j = 0; j < params.size(); ++j) {
    if (Satisfies(params[j], thresholds)) out.push_back(j);
  }
  return out;
}

}  // namespace stratrec::core
