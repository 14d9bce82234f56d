// ShardRouter — one logical catalog scanned as N contiguous strategy
// ranges, behind the same envelope API as a single Service.
//
// A router is a Service with a sharded solver. It wraps the same runtime as
// api::Service (src/api/pipeline.h): one core::StratRec over the whole
// catalog (one CatalogIndex), one availability-snapshot cache, one worker
// pool, one ticket protocol and one stats fold. What the router adds is
// routing, held by the runtime as its built-in batch solver. The catalog
// is split into N contiguous ranges of that index (sizes differing by at
// most one); each range is scanned on its own replica pools:
//
//   router pool       tickets, availability resolution, the batch selection,
//    |                ADPaR alternatives, sweeps, custom registry solvers
//    +-- shard 0      strategies [o0, o1) of the index: replica pools 0..R-1
//    +-- shard 1      strategies [o1, o2): replica pools 0..R-1
//    +-- ...
//
// Only the pricing of the batch solve (paper Section 3.2) is sharded: for
// the built-in algorithms (batchstrat / baseline-g / brute-force) every
// shard prices its range of the index (core::PriceRows over [begin, end),
// which never materializes the workforce matrix) and returns each
// request's feasible count and k cheapest strategies; the router merges
// the rows by (requirement, global index) with core::MergeTopK — the merge
// PriceRows applies to its own chunks — and runs the selection half of the
// solve (core::SolveBatchAggregated). Everything else runs once, on the
// router's own snapshot, through the runtime an unsharded Service runs.
// The row merge reproduces the unsharded k-best lists and folds bit for
// bit, and the rest is the same code, so a router over any shard count
// returns *byte-identical* reports and counters to one unsharded Service
// for the same request trace (property-tested in
// tests/router_property_test.cc).
//
// Admission control for the serving tier: TryAdmit() compares the summed
// executor queue-depth gauges (router pool + every replica pool) against
// RouterConfig::max_queue_depth; the HTTP front end maps a refusal to
// 429 + Retry-After. The router never journals: a journal block in the
// service template is ignored.
//
// Fault tolerance: RouterConfig::replicas runs R pools per shard over the
// same range of the same index. A scatter picks a starting replica per
// shard (seeded, deterministic), fails over to the next replica when an
// attempt errors or is killed by the installed fault::FaultPlan
// ("router.replica" / "router.shard.<s>.replica.<r>" sites), and optionally
// hedges a straggling first attempt after hedge_after_ms. Every replica
// scans identical data, so any replica's rows are THE shard's rows and
// byte identity holds under arbitrary failover (property-tested with
// replicas {1, 2, 3} x injected failures, and hedging with replicas
// {2, 3}). Requests whose deadline_ms budget expires while queued complete
// with kDeadlineExceeded through the runtime's ticket protocol instead of
// running.
#ifndef STRATREC_ROUTER_SHARD_ROUTER_H_
#define STRATREC_ROUTER_SHARD_ROUTER_H_

#include <memory>
#include <string>

#include "src/api/config.h"
#include "src/api/envelope.h"
#include "src/api/service.h"
#include "src/api/ticket.h"

namespace stratrec::router {

namespace internal {
struct RouterState;
}  // namespace internal

/// Configuration of one ShardRouter.
struct RouterConfig {
  /// Shard count; Create fails when it exceeds the catalog size (every
  /// shard needs at least one strategy).
  size_t shards = 2;
  /// Pools per shard. Every replica scans the same range of the same
  /// index, so any replica's rows *are* the shard's rows — failover and
  /// hedging cannot perturb byte-identity. Scatter picks a starting replica
  /// per shard deterministically (seeded by `replica_seed` and a
  /// router-local sequence number) and fails over to the next replica on
  /// error or injected fault. 1 (the default) runs one pool per shard.
  size_t replicas = 1;
  /// Seed of the deterministic replica picks; two routers with the same
  /// seed route the same request sequence to the same replicas.
  uint64_t replica_seed = 0;
  /// Hedging: when > 0 (and replicas > 1), a first attempt still pending
  /// after this many ms gets a duplicate scan on the next replica, and the
  /// shard takes whichever finishes first (stats().hedges_won counts hedge
  /// wins). 0 disables hedging.
  double hedge_after_ms = 0.0;
  /// The router's request handling, exactly as on a Service: `batch`
  /// defaults, the default `availability` spec, and `cache` (the quantum
  /// and the router's one snapshot cache). `execution` sizes the router
  /// pool and every replica pool alike. `journal` is ignored.
  api::ServiceConfig service;
  /// Admission ceiling: TryAdmit() refuses when the summed queue-depth
  /// gauges (router + replica pools) reach this. 0 = admit everything.
  size_t max_queue_depth = 0;
};

/// The sharded counterpart of api::Service. Value-semantic handle over
/// shared state; copies address the same router, every method is
/// thread-safe.
class ShardRouter {
 public:
  /// Validates the config, builds the catalog index, splits it into shard
  /// ranges, and spins up the replica pools plus the router pool.
  static Result<ShardRouter> Create(core::Catalog catalog,
                                    RouterConfig config = {});

  /// Batch mode: scatter/gather over the shards, same envelope and ticket
  /// semantics as Service::SubmitBatchAsync, byte-identical reports.
  api::Ticket<api::BatchReport> SubmitBatchAsync(
      api::BatchRequest request) const;
  /// Sweep mode: every target x every named adpar backend at one W, run on
  /// the router's snapshot exactly as on a Service.
  api::Ticket<api::SweepReport> RunSweepAsync(api::SweepRequest request) const;

  /// Synchronous wrappers, mirroring Service.
  Result<api::BatchReport> SubmitBatch(api::BatchRequest request) const;
  Result<api::SweepReport> RunSweep(api::SweepRequest request) const;

  /// Named availability models resolve on the router, so registration is
  /// router-local.
  Status RegisterAvailabilityModel(std::string name,
                                   core::AvailabilityModel model) const;

  /// Admission probe for the serving tier: true admits one request; false
  /// means the summed queue gauges reached `max_queue_depth` (the refusal
  /// is counted in stats().rejected_requests).
  bool TryAdmit() const;
  /// Counts one Retry-After back-off hint handed to a rejected client
  /// (stats().retry_after_hints); the HTTP layer calls this when it
  /// attaches the header.
  void NoteRetryAfterHint() const;

  size_t shards() const;
  /// Replicas per shard (RouterConfig::replicas after validation).
  size_t replicas() const;
  const RouterConfig& config() const;
  /// The router's counters (batches/sweeps/requests_processed/cancelled,
  /// the snapshot cache, the one index build, the admission pair, and
  /// deadline_exceeded/failovers/hedges_won) plus the executor gauges and
  /// steal counters summed over the router pool and every replica pool.
  api::ServiceStats stats() const;

 private:
  explicit ShardRouter(std::shared_ptr<internal::RouterState> state)
      : state_(std::move(state)) {}
  std::shared_ptr<internal::RouterState> state_;
};

}  // namespace stratrec::router

namespace stratrec {
using router::RouterConfig;
using router::ShardRouter;
}  // namespace stratrec

#endif  // STRATREC_ROUTER_SHARD_ROUTER_H_
