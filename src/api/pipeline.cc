#include "src/api/pipeline.h"

#include <chrono>
#include <optional>
#include <utility>

#include "src/api/codec.h"
#include "src/api/registry.h"
#include "src/common/journal.h"
#include "src/common/logging.h"
#include "src/core/kernels/kernels.h"

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
    ServiceState& state, double w) {
  if (auto cached = state.snapshots.Find(w)) {
    state.stats.Add(&ServiceStats::cache_hits);
    return cached;
  }
  state.stats.Add(&ServiceStats::cache_misses);
  auto built = state.stratrec.aggregator().index().BuildSnapshot(
      w, &state.executor, state.config.execution.parallel_grain);
  return state.snapshots.Insert(w, std::move(built));
}

/// The job's W: `spec` resolved against the runtime's models and snapped
/// onto the cache grid.
Result<double> ResolveQuantized(const ServiceState& state,
                                const AvailabilitySpec& spec) {
  auto availability = state.Resolve(spec);
  if (!availability.ok()) return availability.status();
  // The pipeline (and the report) run at the quantized W, so nearby
  // availabilities share one cached snapshot when the knob is on.
  return core::QuantizeAvailability(*availability,
                                    state.config.cache.availability_quantum);
}

/// The Figure-1 batch pipeline, run on a pool worker: registry lookups,
/// availability resolution and grid snapping, the batch solve, and ADPaR
/// alternatives over the cached snapshot at W.
Result<BatchReport> ExecuteBatch(ServiceState& state,
                                 const BatchRequest& request,
                                 const std::string& id) {
  const BatchDefaults& defaults = state.config.batch;
  const std::string algorithm = request.algorithm.value_or(defaults.algorithm);
  auto solver = AlgorithmRegistry::Global().FindBatch(algorithm);
  if (!solver.ok()) return solver.status();
  auto availability = ResolveQuantized(state, request.availability);
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
  options.batch.executor = &state.executor;
  options.batch.parallel_grain = state.config.execution.parallel_grain;
  options.recommend_alternatives =
      request.recommend_alternatives.value_or(defaults.recommend_alternatives);
  options.batch_solver = std::move(*solver);
  if (state.builtin_solver) {
    if (const auto builtin = BuiltinAlgorithm(algorithm)) {
      options.batch_solver = state.builtin_solver(*builtin);
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
    options.snapshot = SnapshotFor(state, w);
    // The built-in exact solver has a snapshot-riding overload (prebuilt
    // orderings + skyline pruning, bit-identical results); leaving the
    // solver unset makes StratRec pick it. Every other backend gets its
    // registry entry. Dispatching on the name is sound for the same reason
    // as BuiltinAlgorithm's.
    if (adpar_name != "exact") options.adpar_solver = std::move(*adpar);
  }

  auto result =
      state.stratrec.ProcessBatchAtAvailability(request.requests, w, options);
  if (!result.ok()) return result.status();

  BatchReport report;
  report.request_id = id;
  report.algorithm = algorithm;
  report.availability = w;
  report.result = std::move(*result);
  state.stats.Add(&ServiceStats::batches);
  state.stats.Add(&ServiceStats::requests_processed, request.requests.size());
  return report;
}

/// The sweep, run on a pool worker: every target x every named ADPaR
/// backend over the cached snapshot at W, the cells fanned out across the
/// pool, each writing its own pre-sized slot.
Result<SweepReport> ExecuteSweep(ServiceState& state,
                                 const SweepRequest& request,
                                 const std::string& id) {
  auto availability = ResolveQuantized(state, request.availability);
  if (!availability.ok()) return availability.status();
  const double w = *availability;

  std::vector<std::string> solvers = request.solvers;
  if (solvers.empty()) solvers.push_back(state.config.batch.adpar_solver);
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
  auto snapshot = SnapshotFor(state, w);
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
  state.executor.ParallelFor(
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
  state.stats.Add(&ServiceStats::sweeps);
  return report;
}

/// The ticket protocol behind both SubmitJob overloads: `body` runs the job
/// and `encode` renders its journal record.
template <typename Report, typename Request, typename Body, typename Encode>
Ticket<Report> Submit(ServiceState* state, Request request, const char* prefix,
                      Body body, Encode encode) {
  auto shared = std::make_shared<TicketShared<Report>>(
      request.request_id.empty() ? state->ids.Next(prefix)
                                 : request.request_id);
  const auto submitted = std::chrono::steady_clock::now();
  state->executor.Submit([state, shared, submitted, body, encode,
                          request = std::move(request)] {
    const bool record_unrun =
        state->journal && state->config.journal.record_cancelled;
    if (!shared->BeginRun()) {
      state->stats.Add(&ServiceStats::cancelled);
      if (record_unrun) {
        state->Record(encode(shared->id, request,
                             Status::Cancelled("ticket " + shared->id +
                                               " cancelled before execution")));
      }
      return;
    }
    // Deadline check after the claim: expired work completes with
    // kDeadlineExceeded instead of executing, and the counter and journal
    // side effects land before Finish wakes the waiter.
    if (DeadlineExpired(request.deadline_ms, submitted)) {
      state->stats.Add(&ServiceStats::deadline_exceeded);
      const Status expired = ExpiredStatus(shared->id);
      if (record_unrun) state->Record(encode(shared->id, request, expired));
      shared->Finish(expired);
      return;
    }
    auto outcome = GuardJob([&] { return body(*state, request, shared->id); });
    // Tap before Finish: once the ticket is retrievable, its pair is in the
    // journal. Encoding runs here on the worker, lock-free.
    if (state->journal) state->Record(encode(shared->id, request, outcome));
    shared->Finish(std::move(outcome));
  });
  return MakeTicket(std::move(shared));
}

}  // namespace

ServiceState::ServiceState(ServiceConfig config_in, core::StratRec stratrec_in,
                           std::shared_ptr<JournalWriter> journal_in)
    : config(std::move(config_in)),
      stratrec(std::move(stratrec_in)),
      snapshots(config.cache),
      journal(std::move(journal_in)),
      executor(config.execution.worker_threads) {
  stratrec.aggregator().index(&executor, config.execution.parallel_grain);
}

Ticket<BatchReport> ServiceState::SubmitJob(BatchRequest request) {
  return Submit<BatchReport>(this, std::move(request), "batch", ExecuteBatch,
                             wire::EncodeBatchRecord);
}

Ticket<SweepReport> ServiceState::SubmitJob(SweepRequest request) {
  return Submit<SweepReport>(this, std::move(request), "sweep", ExecuteSweep,
                             wire::EncodeSweepRecord);
}

ServiceStats ServiceState::Stats() const {
  ServiceStats out = stats.Snapshot();
  AddExecutorGauges(executor, &out);
  out.index_build_nanos =
      static_cast<size_t>(stratrec.aggregator().index_build_nanos());
  out.kernel_dispatch =
      core::kernels::DispatchLevelName(core::kernels::ActiveDispatchLevel());
  return out;
}

void ServiceState::Record(const std::string& line) const {
  const Status appended = journal->Append(line);
  if (!appended.ok()) {
    LogMessage(LogLevel::kError,
               "journal record dropped: " + appended.ToString());
  }
}

}  // namespace stratrec::api::internal
