#include "src/router/shard_router.h"

#include <atomic>
#include <chrono>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "src/api/pipeline.h"
#include "src/common/executor.h"
#include "src/common/fault.h"
#include "src/core/workforce.h"

namespace stratrec::router {

namespace internal {

/// The routing state behind every ShardRouter handle: the shard ranges of
/// the runtime's index and the replica pools that scan them. The runtime
/// owns it through its builtin_solver hook, so the runtime's member order
/// (src/api/pipeline.h) is also the router's teardown contract.
struct RouterState {
  /// The runtime every router ticket runs on; it owns this state.
  api::internal::ServiceState& runtime;
  RouterConfig config;
  /// offsets[s] = global index of shard s's first strategy; offsets[N] =
  /// catalog size. Row j of shard s's scan is global strategy offsets[s] + j.
  std::vector<size_t> offsets;
  /// Scatter sequence number feeding the deterministic replica picks.
  std::atomic<uint64_t> scatter_seq{0};
  /// replica_pools[s * replicas + r] scans shard s for replica r.
  std::vector<std::unique_ptr<Executor>> replica_pools;

  RouterState(api::internal::ServiceState& runtime_in, RouterConfig config_in,
              std::vector<size_t> offsets_in)
      : runtime(runtime_in),
        config(std::move(config_in)),
        offsets(std::move(offsets_in)) {
    const size_t threads = config.service.execution.worker_threads;
    for (size_t i = 0; i < config.shards * config.replicas; ++i) {
      replica_pools.push_back(std::make_unique<Executor>(threads));
    }
  }

  Executor& ReplicaPool(size_t s, size_t r) {
    return *replica_pools[s * config.replicas + r];
  }
};

namespace {

/// One shard's scan: per request, the range's feasible count and its
/// min(k, feasible) cheapest strategies, indexed within the range.
using RangeScan = std::vector<core::RowTopK>;
using ScanTicket = api::Ticket<RangeScan>;

/// What every shard scans for one batch. Shared by every attempt of the
/// scatter, because an abandoned hedge scan outlives the batch job.
struct ScanInput {
  std::vector<core::DeploymentRequest> requests;
  core::WorkforcePolicy policy;
};

/// SplitMix64 whitening for the deterministic replica picks (local copy —
/// the fault layer and sim keep their own so the schedules cannot couple).
uint64_t SplitMix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

/// The starting replica of shard `s` for scatter number `sequence`: a pure
/// function of (replica_seed, sequence, shard), so two routers with the
/// same seed spread the same request sequence identically.
size_t PickReplica(const RouterState* state, uint64_t sequence, size_t s) {
  const size_t n = state->config.replicas;
  if (n <= 1) return 0;
  return static_cast<size_t>(
      SplitMix64(state->config.replica_seed ^ SplitMix64(sequence) ^
                 (0x517cc1b727220a95ull * (s + 1))) %
      n);
}

/// Whether the installed fault plan kills this dispatch. The per-replica
/// site ("router.shard.<s>.replica.<r>") wins over the generic
/// "router.replica" site when both are registered.
bool ReplicaKilled(size_t s, size_t r) {
  auto plan = fault::GlobalFaultPlan();
  if (plan == nullptr) return false;
  const std::string site = fault::ReplicaSiteName(s, r);
  if (plan->HasSite(site)) return plan->Visit(site).inject;
  if (plan->HasSite(fault::kSiteRouterReplica)) {
    return plan->Visit(fault::kSiteRouterReplica).inject;
  }
  return false;
}

/// Deterministic outcome of an injected replica failure. The "[injected]"
/// tag is the classifier the chaos bench uses to separate scheduled faults
/// from real ones (a non-injected 5xx fails the bench).
Status InjectedFailure(size_t s, size_t r) {
  return Status::Internal("[injected] shard " + std::to_string(s) +
                          " replica " + std::to_string(r) + " failed");
}

/// Shard s's range scan on replica r's pool, or nullopt when the fault
/// plan kills the dispatch. The pricing partitions across that pool. The
/// scan copies its range and grain, so an abandoned one reads nothing of
/// the routing state: only the index.
std::optional<ScanTicket> Dispatch(RouterState* state,
                                   std::shared_ptr<const ScanInput> input,
                                   size_t s, size_t r) {
  if (ReplicaKilled(s, r)) return std::nullopt;
  auto shared = std::make_shared<api::internal::TicketShared<RangeScan>>("");
  Executor* pool = &state->ReplicaPool(s, r);
  pool->Submit([index = &state->runtime.stratrec.aggregator().index(),
                begin = state->offsets[s], end = state->offsets[s + 1],
                grain = state->runtime.config.execution.parallel_grain, pool,
                shared, input = std::move(input)] {
    shared->Finish(api::internal::GuardJob([&]() -> Result<RangeScan> {
      return core::PriceRows(input->requests, *index, begin, end,
                             input->policy, pool, grain);
    }));
  });
  return api::internal::MakeTicket(std::move(shared));
}

/// Resolves shard s's rows from `primary` (nullopt when that dispatch was
/// killed), failing over through the remaining replicas on error or
/// injected fault, and hedging the first live attempt after hedge_after_ms.
/// Runs on a router pool worker; an abandoned attempt still completes on
/// its replica pool and is dropped.
Result<RangeScan> GatherShard(RouterState* state,
                              const std::shared_ptr<const ScanInput>& input,
                              size_t s, size_t first_replica,
                              std::optional<ScanTicket> primary) {
  using Ms = std::chrono::duration<double, std::milli>;
  const size_t n = state->config.replicas;
  const double hedge_ms = state->config.hedge_after_ms;

  Status last = Status::Internal("shard " + std::to_string(s) +
                                 ": every replica attempt failed");
  for (size_t attempt = 0; attempt < n; ++attempt) {
    const size_t r = (first_replica + attempt) % n;
    if (attempt > 0) state->runtime.stats.Add(&api::ServiceStats::failovers);
    std::optional<ScanTicket> ticket =
        attempt == 0 ? std::move(primary) : Dispatch(state, input, s, r);
    if (!ticket.has_value()) {
      last = InjectedFailure(s, r);
      continue;
    }

    std::optional<Result<RangeScan>> outcome;
    if (attempt == 0 && hedge_ms > 0.0 && n > 1) {
      // Hedge a straggling first attempt: give the primary hedge_ms, then
      // race a duplicate on the next replica and take the first finisher.
      outcome = ticket->WaitFor(Ms(hedge_ms));
      std::optional<ScanTicket> hedge;
      if (!outcome.has_value()) hedge = Dispatch(state, input, s, (r + 1) % n);
      while (!outcome.has_value() && hedge.has_value()) {
        outcome = ticket->WaitFor(Ms(0.5));
        if (outcome.has_value()) break;
        outcome = hedge->WaitFor(Ms(0.5));
        if (outcome.has_value()) {
          state->runtime.stats.Add(&api::ServiceStats::hedges_won);
        }
      }
    }
    if (!outcome.has_value()) outcome = ticket->Wait();
    if (outcome->ok()) return std::move(*outcome);
    last = outcome->status();
  }
  return last;
}

/// Fans one scan out to every shard (one starting replica each, picked
/// deterministically) and collects the rows in shard order, failing over
/// per shard as needed. Runs on a router pool worker; replica pools never
/// wait on router jobs, so blocking here cannot deadlock.
Result<std::vector<RangeScan>> Scatter(
    RouterState* state, const std::shared_ptr<const ScanInput>& input) {
  const size_t n_shards = state->config.shards;
  const uint64_t sequence =
      state->scatter_seq.fetch_add(1, std::memory_order_relaxed);
  // Dispatch phase: one primary attempt per shard, so all shards work
  // concurrently before any gather blocks.
  std::vector<size_t> first(n_shards, 0);
  std::vector<std::optional<ScanTicket>> primaries(n_shards);
  for (size_t s = 0; s < n_shards; ++s) {
    first[s] = PickReplica(state, sequence, s);
    primaries[s] = Dispatch(state, input, s, first[s]);
  }
  std::vector<RangeScan> scans;
  scans.reserve(n_shards);
  Status failed = Status::OK();
  for (size_t s = 0; s < n_shards; ++s) {
    // Gather every shard even after a failure, draining the fan-out.
    auto rows = GatherShard(state, input, s, first[s], std::move(primaries[s]));
    if (!rows.ok()) {
      if (failed.ok()) failed = rows.status();
      continue;
    }
    scans.push_back(std::move(*rows));
  }
  if (!failed.ok()) return failed;
  return scans;
}

/// Merges one request's per-shard rows into the unsharded
/// AggregatedRequest: core::MergeTopK over the shards' runs (global index
/// = offsets[s] + range index), folded by core::AggregateRow. The k-way
/// merge is the one PriceRows applies to its chunks, so the result is
/// bit-identical to pricing the whole catalog in one call.
core::AggregatedRequest MergeRow(const std::vector<RangeScan>& scans,
                                 const std::vector<size_t>& offsets, size_t i,
                                 int k, core::AggregationMode mode) {
  std::vector<core::TopKRun> runs;
  runs.reserve(scans.size());
  for (size_t s = 0; s < scans.size(); ++s) {
    const core::RowTopK& row = scans[s][i];
    runs.push_back({row.feasible_count, offsets[s], row.strategies.data(),
                    row.requirements.data(), row.strategies.size()});
  }
  return core::AggregateRow(core::MergeTopK(runs, k), k, mode);
}

/// The built-in `algorithm` as a sharded row fold: scatter the range scans,
/// merge each request's rows, and run the selection half of the solve.
core::BatchSolverFn ShardedSolver(RouterState* state,
                                  core::BatchAlgorithm algorithm) {
  return [state, algorithm](
             const std::vector<core::DeploymentRequest>& requests,
             const std::vector<core::StrategyProfile>&, double w,
             const core::BatchOptions& options) -> Result<core::BatchResult> {
    std::vector<core::AggregatedRequest> aggregated(requests.size());
    if (!requests.empty()) {
      auto scans = Scatter(state, std::make_shared<const ScanInput>(
                                      ScanInput{requests, options.policy}));
      if (!scans.ok()) return scans.status();
      for (size_t i = 0; i < requests.size(); ++i) {
        aggregated[i] = MergeRow(*scans, state->offsets, i, requests[i].k,
                                 options.aggregation);
      }
    }
    return core::SolveBatchAggregated(requests, aggregated, w, options,
                                      algorithm);
  };
}

}  // namespace

}  // namespace internal

// ---------------------------------------------------------------------------
// ShardRouter
// ---------------------------------------------------------------------------

Result<ShardRouter> ShardRouter::Create(core::Catalog catalog,
                                        RouterConfig config) {
  if (config.shards < 1) {
    return Status::InvalidArgument("router needs at least one shard");
  }
  if (config.replicas < 1) {
    return Status::InvalidArgument(
        "router needs at least one replica per shard");
  }
  if (catalog.strategies.size() != catalog.profiles.size()) {
    return Status::InvalidArgument(
        "strategy and profile lists must be index-aligned");
  }
  if (catalog.strategies.size() < config.shards) {
    return Status::InvalidArgument(
        "more shards than strategies (every shard needs at least one)");
  }
  STRATREC_RETURN_NOT_OK(api::ValidateConfig(config.service));

  // Contiguous ranges with sizes differing by at most one.
  const size_t total = catalog.strategies.size();
  const size_t base = total / config.shards;
  const size_t remainder = total % config.shards;
  std::vector<size_t> offsets(config.shards + 1, 0);
  for (size_t s = 0; s < config.shards; ++s) {
    offsets[s + 1] = offsets[s] + base + (s < remainder ? 1 : 0);
  }

  auto stratrec = core::StratRec::Create(std::move(catalog));
  if (!stratrec.ok()) return stratrec.status();
  // The router never journals, so its runtime gets no journal writer.
  auto runtime = std::make_shared<api::internal::ServiceState>(
      config.service, std::move(*stratrec), /*journal_in=*/nullptr);
  auto routing = std::make_shared<internal::RouterState>(
      *runtime, std::move(config), std::move(offsets));
  internal::RouterState* state = routing.get();
  runtime->builtin_solver = [routing = std::move(routing)](
                                core::BatchAlgorithm algorithm) {
    return internal::ShardedSolver(routing.get(), algorithm);
  };
  // The handle points at the routing state and shares the runtime's
  // ownership, since the runtime owns the routing state.
  return ShardRouter(
      std::shared_ptr<internal::RouterState>(std::move(runtime), state));
}

api::Ticket<api::BatchReport> ShardRouter::SubmitBatchAsync(
    api::BatchRequest request) const {
  return state_->runtime.SubmitJob(std::move(request));
}

api::Ticket<api::SweepReport> ShardRouter::RunSweepAsync(
    api::SweepRequest request) const {
  return state_->runtime.SubmitJob(std::move(request));
}

Result<api::BatchReport> ShardRouter::SubmitBatch(
    api::BatchRequest request) const {
  return SubmitBatchAsync(std::move(request)).Wait();
}

Result<api::SweepReport> ShardRouter::RunSweep(api::SweepRequest request) const {
  return RunSweepAsync(std::move(request)).Wait();
}

Status ShardRouter::RegisterAvailabilityModel(
    std::string name, core::AvailabilityModel model) const {
  return state_->runtime.models.Register(std::move(name), std::move(model));
}

bool ShardRouter::TryAdmit() const {
  if (state_->config.max_queue_depth == 0) return true;
  size_t depth = state_->runtime.executor.QueueDepth();
  for (const auto& pool : state_->replica_pools) depth += pool->QueueDepth();
  if (depth < state_->config.max_queue_depth) return true;
  state_->runtime.stats.Add(&api::ServiceStats::rejected_requests);
  return false;
}

void ShardRouter::NoteRetryAfterHint() const {
  state_->runtime.stats.Add(&api::ServiceStats::retry_after_hints);
}

size_t ShardRouter::shards() const { return state_->config.shards; }

size_t ShardRouter::replicas() const { return state_->config.replicas; }

const RouterConfig& ShardRouter::config() const { return state_->config; }

api::ServiceStats ShardRouter::stats() const {
  api::ServiceStats out = state_->runtime.Stats();
  for (const auto& pool : state_->replica_pools) {
    api::internal::AddExecutorGauges(*pool, &out);
  }
  return out;
}

}  // namespace stratrec::router
