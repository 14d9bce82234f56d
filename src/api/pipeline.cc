#include "src/api/pipeline.h"

#include <optional>
#include <utility>

#include "src/api/registry.h"
#include "src/common/executor.h"

namespace stratrec::api::internal {

namespace {

/// The built-in algorithm a registry name denotes, if any. Dispatching on
/// the name is sound because the registry refuses duplicate registrations:
/// "batchstrat" always means the built-in.
std::optional<core::BatchAlgorithm> BuiltinAlgorithm(const std::string& name) {
  for (core::BatchAlgorithm algorithm :
       {core::BatchAlgorithm::kBatchStrat, core::BatchAlgorithm::kBaselineG,
        core::BatchAlgorithm::kBruteForce}) {
    if (name == core::BatchAlgorithmName(algorithm)) return algorithm;
  }
  return std::nullopt;
}

/// The shared per-W snapshot: cache hit, or build (outside any shard
/// lock) and insert. Counts hits/misses on the caller's stats stripe.
std::shared_ptr<const core::AvailabilitySnapshot> SnapshotFor(
    const Pipeline& pipeline, double w) {
  if (auto cached = pipeline.snapshots.Find(w)) {
    pipeline.stats.Add(&ServiceStats::cache_hits);
    return cached;
  }
  pipeline.stats.Add(&ServiceStats::cache_misses);
  auto built = pipeline.stratrec.aggregator().index().BuildSnapshot(
      w, &pipeline.executor, pipeline.config.execution.parallel_grain);
  return pipeline.snapshots.Insert(w, std::move(built));
}

/// The job's W: `spec` resolved against the tier's models and snapped onto
/// the cache grid.
Result<double> ResolveQuantized(const Pipeline& pipeline,
                                const AvailabilitySpec& spec) {
  auto availability =
      pipeline.models.Resolve(spec, pipeline.config.availability);
  if (!availability.ok()) return availability.status();
  // The pipeline (and the report) run at the quantized W, so nearby
  // availabilities share one cached snapshot when the knob is on.
  return core::QuantizeAvailability(*availability,
                                    pipeline.config.cache.availability_quantum);
}

}  // namespace

Result<BatchReport> ExecuteBatch(const Pipeline& pipeline,
                                 const BatchRequest& request,
                                 const std::string& id) {
  const BatchDefaults& defaults = pipeline.config.batch;
  const std::string algorithm = request.algorithm.value_or(defaults.algorithm);
  auto solver = AlgorithmRegistry::Global().FindBatch(algorithm);
  if (!solver.ok()) return solver.status();
  auto availability = ResolveQuantized(pipeline, request.availability);
  if (!availability.ok()) return availability.status();
  const double w = *availability;

  core::StratRecOptions options;
  options.batch.objective = request.objective.value_or(defaults.objective);
  options.batch.aggregation =
      request.aggregation.value_or(defaults.aggregation);
  options.batch.policy = request.policy.value_or(defaults.policy);
  // The embarrassingly-parallel stages (workforce matrix, ADPaR fan-out)
  // partition across the same pool this job runs on; ParallelFor's caller
  // participates, so this is safe even on a single-threaded pool.
  options.batch.executor = &pipeline.executor;
  options.batch.parallel_grain = pipeline.config.execution.parallel_grain;
  options.recommend_alternatives =
      request.recommend_alternatives.value_or(defaults.recommend_alternatives);
  options.batch_solver = std::move(*solver);
  if (pipeline.builtin_solver) {
    if (const auto builtin = BuiltinAlgorithm(algorithm)) {
      options.batch_solver = pipeline.builtin_solver(*builtin);
    }
  }
  if (options.recommend_alternatives) {
    // Only resolved when it will run, so an unknown adpar name cannot fail
    // a batch that never invokes it — and resolved before the O(|S|)
    // snapshot build, so a typo'd name fails fast without touching the
    // cache.
    const std::string adpar_name =
        request.adpar_solver.value_or(defaults.adpar_solver);
    auto adpar = AlgorithmRegistry::Global().FindAdpar(adpar_name);
    if (!adpar.ok()) return adpar.status();
    // Only the alternatives leg reads per-W parameters, so only it fetches
    // a snapshot; batch-only jobs skip the whole O(|S|) block.
    options.snapshot = SnapshotFor(pipeline, w);
    // The built-in exact solver has a snapshot-riding overload (prebuilt
    // orderings + skyline pruning, bit-identical results); leaving the
    // solver unset makes StratRec pick it. Every other backend gets its
    // registry entry. Dispatching on the name is sound for the same reason
    // as BuiltinAlgorithm's.
    if (adpar_name != "exact") options.adpar_solver = std::move(*adpar);
  }

  auto result = pipeline.stratrec.ProcessBatchAtAvailability(request.requests,
                                                             w, options);
  if (!result.ok()) return result.status();

  BatchReport report;
  report.request_id = id;
  report.algorithm = algorithm;
  report.availability = w;
  report.result = std::move(*result);
  pipeline.stats.Add(&ServiceStats::batches);
  pipeline.stats.Add(&ServiceStats::requests_processed,
                     request.requests.size());
  return report;
}

Result<SweepReport> ExecuteSweep(const Pipeline& pipeline,
                                 const SweepRequest& request,
                                 const std::string& id) {
  auto availability = ResolveQuantized(pipeline, request.availability);
  if (!availability.ok()) return availability.status();
  const double w = *availability;

  std::vector<std::string> solvers = request.solvers;
  if (solvers.empty()) solvers.push_back(pipeline.config.batch.adpar_solver);
  // Validate every solver name before the (potentially O(|S|)) snapshot
  // build, so a typo fails fast and touches neither the cache nor the
  // index. A null slot marks the built-in exact solver, filled in below
  // once the snapshot exists.
  std::vector<core::AdparSolverFn> solver_fns;
  solver_fns.reserve(solvers.size());
  for (const std::string& name : solvers) {
    if (name == "exact") {
      solver_fns.emplace_back();
      continue;
    }
    auto solver = AlgorithmRegistry::Global().FindAdpar(name);
    if (!solver.ok()) return solver.status();
    solver_fns.push_back(std::move(*solver));
  }
  // The shared per-W block every cell searches; only each cell's k
  // covered strategies reach the report.
  auto snapshot = SnapshotFor(pipeline, w);
  for (core::AdparSolverFn& fn : solver_fns) {
    if (fn) continue;
    // The built-in exact solver rides the snapshot's prebuilt orderings
    // and skyline pruning (bit-identical to the registry entry).
    fn = [snapshot](const std::vector<core::ParamVector>&,
                    const core::ParamVector& d, int k) {
      return core::AdparExact(*snapshot, d, k);
    };
  }

  SweepReport report;
  report.request_id = id;
  report.availability = w;

  report.outcomes.resize(request.targets.size() * solvers.size());
  pipeline.executor.ParallelFor(
      report.outcomes.size(), /*grain=*/1, [&](size_t begin, size_t end) {
        for (size_t cell = begin; cell < end; ++cell) {
          const size_t i = cell / solvers.size();
          const size_t s = cell % solvers.size();
          const core::DeploymentRequest& target = request.targets[i];
          SweepOutcome& outcome = report.outcomes[cell];
          outcome.target_id =
              target.id.empty() ? "target-" + std::to_string(i) : target.id;
          outcome.solver = solvers[s];
          auto solved = solver_fns[s](snapshot->params(), target.thresholds,
                                      target.k);
          if (solved.ok()) {
            outcome.result = std::move(*solved);
          } else {
            outcome.status = solved.status();
          }
        }
      });
  pipeline.stats.Add(&ServiceStats::sweeps);
  return report;
}

}  // namespace stratrec::api::internal
