// Named algorithm registry of the Service API.
//
// Backends are addressed by stable lower-case names so a caller (or a config
// file) can select "batchstrat" vs "brute-force", or ADPaR's "exact" vs the
// paper's literal "paper-sweep", without compiling against the solver. New
// backends register a callable and immediately become selectable from every
// Service and ShardRouter — callers never change.
#ifndef STRATREC_API_REGISTRY_H_
#define STRATREC_API_REGISTRY_H_

#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "src/core/adpar.h"
#include "src/core/batch_scheduler.h"
#include "src/core/multi_objective.h"

namespace stratrec::api {

/// Wraps core::SolveBatchWeighted (the Section-7 multi-objective
/// scalarization) as a registry-compatible batch backend. Register the
/// returned solver under a name of your choice to make a particular weight
/// mix selectable per request; the built-in "weighted" entry uses the
/// default ObjectiveWeights.
core::BatchSolverFn MakeWeightedBatchSolver(core::ObjectiveWeights weights);

/// Process-wide registry of batch-deployment and alternative-recommendation
/// backends. Thread-safe; the built-ins are seeded on first access:
///   batch: "batchstrat", "baseline-g", "brute-force",
///          "weighted" (SolveBatchWeighted at default weights)
///   adpar: "exact", "paper-sweep", "baseline2", "baseline3", "brute"
/// The runtime looks every name up the same way. A batch backend prices
/// through BatchOptions::pricer when it calls core::SolveBatch or
/// SolveBatchWeighted, so a shard router scans its shards for it. An adpar
/// backend receives the job's AvailabilitySnapshot: "exact" rides its
/// orderings, and the others search its params().
class AlgorithmRegistry {
 public:
  static AlgorithmRegistry& Global();

  /// Registers a batch backend. Fails with kFailedPrecondition when `name`
  /// is taken and kInvalidArgument on an empty name or null solver.
  Status RegisterBatch(const std::string& name, core::BatchSolverFn solver);
  /// Registers an alternative-recommendation backend (same error taxonomy).
  Status RegisterAdpar(const std::string& name, core::AdparSolverFn solver);

  /// Looks up a backend; fails with kNotFound listing the known names.
  Result<core::BatchSolverFn> FindBatch(const std::string& name) const;
  Result<core::AdparSolverFn> FindAdpar(const std::string& name) const;

  /// Registered names in lexicographic order.
  std::vector<std::string> BatchNames() const;
  std::vector<std::string> AdparNames() const;

 private:
  AlgorithmRegistry();

  mutable std::mutex mutex_;
  std::map<std::string, core::BatchSolverFn> batch_;
  std::map<std::string, core::AdparSolverFn> adpar_;
};

}  // namespace stratrec::api

#endif  // STRATREC_API_REGISTRY_H_
