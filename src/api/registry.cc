#include "src/api/registry.h"

#include "src/core/adpar_baselines.h"
#include "src/core/adpar_paper_sweep.h"
#include "src/core/catalog_index.h"

namespace stratrec::api {

namespace {

std::string JoinNames(const std::vector<std::string>& names) {
  std::string joined;
  for (const std::string& name : names) {
    if (!joined.empty()) joined += ", ";
    joined += name;
  }
  return joined;
}

/// An ADPaR solver over the catalog's parameter list, read from the
/// snapshot.
core::AdparSolverFn OnParams(Result<core::AdparResult> (*solver)(
    const std::vector<core::ParamVector>&, const core::ParamVector&, int)) {
  return [solver](const core::AvailabilitySnapshot& snapshot,
                  const core::ParamVector& request, int k) {
    return solver(snapshot.params(), request, k);
  };
}

}  // namespace

core::BatchSolverFn MakeWeightedBatchSolver(core::ObjectiveWeights weights) {
  return [weights](const std::vector<core::DeploymentRequest>& requests,
                   const std::vector<core::StrategyProfile>& profiles,
                   double available_workforce,
                   const core::BatchOptions& options)
             -> Result<core::BatchResult> {
    auto result = core::SolveBatchWeighted(requests, profiles,
                                           available_workforce, weights,
                                           options);
    if (!result.ok()) return result.status();
    return std::move(result->batch);
  };
}

AlgorithmRegistry& AlgorithmRegistry::Global() {
  static AlgorithmRegistry* registry = new AlgorithmRegistry();
  return *registry;
}

AlgorithmRegistry::AlgorithmRegistry() {
  for (auto algorithm :
       {core::BatchAlgorithm::kBatchStrat, core::BatchAlgorithm::kBaselineG,
        core::BatchAlgorithm::kBruteForce}) {
    batch_.emplace(core::BatchAlgorithmName(algorithm),
                   core::SolverForAlgorithm(algorithm));
  }
  batch_.emplace("weighted", MakeWeightedBatchSolver(core::ObjectiveWeights{}));
  adpar_.emplace("exact", [](const core::AvailabilitySnapshot& snapshot,
                             const core::ParamVector& request, int k) {
    return core::AdparExact(snapshot, request, k);
  });
  adpar_.emplace("paper-sweep", OnParams(core::AdparPaperSweep));
  adpar_.emplace("baseline2", OnParams(core::AdparBaseline2));
  adpar_.emplace("baseline3", OnParams(core::AdparBaseline3));
  adpar_.emplace("brute",
                 OnParams([](const std::vector<core::ParamVector>& strategies,
                             const core::ParamVector& request, int k) {
                   return core::AdparBrute(strategies, request, k);
                 }));
}

Status AlgorithmRegistry::RegisterBatch(const std::string& name,
                                        core::BatchSolverFn solver) {
  if (name.empty()) return Status::InvalidArgument("backend name is empty");
  if (!solver) return Status::InvalidArgument("batch solver is null");
  std::lock_guard<std::mutex> lock(mutex_);
  if (!batch_.emplace(name, std::move(solver)).second) {
    return Status::FailedPrecondition("batch backend '" + name +
                                      "' is already registered");
  }
  return Status::OK();
}

Status AlgorithmRegistry::RegisterAdpar(const std::string& name,
                                        core::AdparSolverFn solver) {
  if (name.empty()) return Status::InvalidArgument("backend name is empty");
  if (!solver) return Status::InvalidArgument("adpar solver is null");
  std::lock_guard<std::mutex> lock(mutex_);
  if (!adpar_.emplace(name, std::move(solver)).second) {
    return Status::FailedPrecondition("adpar backend '" + name +
                                      "' is already registered");
  }
  return Status::OK();
}

Result<core::BatchSolverFn> AlgorithmRegistry::FindBatch(
    const std::string& name) const {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = batch_.find(name);
  if (it == batch_.end()) {
    std::vector<std::string> names;
    for (const auto& [known, fn] : batch_) names.push_back(known);
    return Status::NotFound("no batch backend named '" + name +
                            "' (known: " + JoinNames(names) + ")");
  }
  return it->second;
}

Result<core::AdparSolverFn> AlgorithmRegistry::FindAdpar(
    const std::string& name) const {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = adpar_.find(name);
  if (it == adpar_.end()) {
    std::vector<std::string> names;
    for (const auto& [known, fn] : adpar_) names.push_back(known);
    return Status::NotFound("no adpar backend named '" + name +
                            "' (known: " + JoinNames(names) + ")");
  }
  return it->second;
}

std::vector<std::string> AlgorithmRegistry::BatchNames() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<std::string> names;
  for (const auto& [name, fn] : batch_) names.push_back(name);
  return names;
}

std::vector<std::string> AlgorithmRegistry::AdparNames() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<std::string> names;
  for (const auto& [name, fn] : adpar_) names.push_back(name);
  return names;
}

}  // namespace stratrec::api
