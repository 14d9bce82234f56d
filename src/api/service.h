// stratrec::Service — the one public entry point of the middle layer.
//
// The paper's StratRec (Figure 1) is a single optimization service between
// requesters and the platform. This facade makes that literal: a platform
// constructs one Service per strategy catalog and drives it in three modes —
//
//   SubmitBatch()  the Figure-1 batch pipeline (wraps core::StratRec),
//   OpenStream()   a session over the Section-7 dynamic setting
//                  (wraps stream::StreamScheduler behind a handle:
//                  executor-parallel pricing over the CatalogIndex, and
//                  ADPaR alternatives from the batch path's solver on the
//                  service's cached snapshot at the session's quantized
//                  availability, fetched again only when that moves),
//   RunSweep()     the ADPaR solver family side by side, including the
//                  paper's literal sweep (wraps adpar_paper_sweep.h).
//
// The service is asynchronous at heart: SubmitBatchAsync / RunSweepAsync
// enqueue the work on a fixed executor pool (sized by ServiceConfig::
// execution) and return a Ticket<Report> — a future-like handle with
// Wait / TryGet / Cancel / OnComplete (see ticket.h). The synchronous
// methods are thin wrappers (SubmitBatch == SubmitBatchAsync(...).Wait()),
// so every caller funnels through one code path, and the pipeline itself is
// parallel: the pricing (core::PriceRows) and the sweep cross-product
// partition across the same pool. The handle wraps the runtime in
// src/api/pipeline.h, the same one a router::ShardRouter wraps, so both
// tiers share one ticket protocol and one stats fold.
//
// With ServiceConfig::journal configured, the service records itself: a
// config + catalog record at Create, then one wire-codec line per finished
// async job — the (request, outcome) pair, cancelled tickets included — so
// the resulting trace is self-contained and bench_replay_load can rebuild
// an identical service and assert bit-identical reports. Records are
// encoded on the worker that ran the job; the only lock on that path is
// the journal's own append mutex (around one fwrite), never service state.
//
// The Service is a value-semantic handle over shared state (the SimGrid
// facade idiom): copies address the same service, every method is safe to
// call from many threads, and stream sessions keep the service alive.
// Shared state is sharded for concurrency — stream sessions lock only
// themselves, stats ride a striped atomic path, and the named-model table
// is read-mostly behind a shared mutex — so concurrent requests do not
// contend on one service mutex. Algorithms are selected by registry name
// (see registry.h), so new backends plug in without touching any caller.
#ifndef STRATREC_API_SERVICE_H_
#define STRATREC_API_SERVICE_H_

#include <memory>
#include <string>

#include "src/api/config.h"
#include "src/api/envelope.h"
#include "src/api/ticket.h"
#include "src/core/stratrec.h"

namespace stratrec::api {

namespace internal {
struct ServiceState;
struct SessionState;
}  // namespace internal

/// A live stream session: the rolling-BatchStrat scheduler of the paper's
/// closing open problem, owned by the service, driven by one requester
/// event loop at a time (methods are mutex-guarded, so sharing a session
/// across threads is safe too).
class StreamSession {
 public:
  /// Stable session id ("stream-000003"); doubles as the report key.
  const std::string& id() const;

  /// Uniform entry point: applies one event, returns the post-event state.
  /// An event holding a non-finite number fails with kInvalidArgument,
  /// unapplied and unjournaled.
  Result<StreamUpdate> Submit(const StreamEvent& event);

  /// Conveniences over Submit().
  Result<core::AdmissionDecision> Arrive(const core::DeploymentRequest& request);
  Status Revoke(const std::string& request_id);
  Status Complete(const std::string& request_id);
  Status SetAvailability(const AvailabilitySpec& availability);

  /// Capacity snapshot and lifetime counters of this session.
  double availability() const;
  double used_workforce() const;
  size_t active() const;
  size_t pending() const;
  core::OnlineStats stats() const;

 private:
  friend class Service;
  explicit StreamSession(std::shared_ptr<internal::SessionState> state)
      : state_(std::move(state)) {}
  std::shared_ptr<internal::SessionState> state_;
};

/// The session-oriented facade. Construct once per strategy catalog.
class Service {
 public:
  /// Validates the catalog (StratRec alignment rules) and the config
  /// (registry names resolve, availability spec well-formed, executor
  /// sizing sane), then spins up the worker pool.
  static Result<Service> Create(core::Catalog catalog,
                                ServiceConfig config = {});

  /// Convenience overload mirroring core::StratRec::Create.
  static Result<Service> Create(std::vector<core::Strategy> strategies,
                                std::vector<core::StrategyProfile> profiles,
                                ServiceConfig config = {});

  /// Batch mode, asynchronous: enqueues the full Figure-1 pipeline on the
  /// worker pool and returns immediately. The ticket id is the request_id
  /// the finished BatchReport will carry.
  Ticket<BatchReport> SubmitBatchAsync(BatchRequest request) const;

  /// Sweep mode, asynchronous: every target x every named adpar backend at
  /// one W, the cells themselves fanned out across the pool.
  Ticket<SweepReport> RunSweepAsync(SweepRequest request) const;

  /// Synchronous wrappers: SubmitBatchAsync(request).Wait() / the sweep
  /// equivalent — same code path, same results, just blocking.
  Result<BatchReport> SubmitBatch(BatchRequest request) const;
  Result<SweepReport> RunSweep(SweepRequest request) const;

  /// Stream mode: opens an independent session; many sessions may run
  /// concurrently against one service. Options holding a non-finite number
  /// fail with kInvalidArgument and are not journaled.
  Result<StreamSession> OpenStream(const StreamOptions& options = {}) const;

  /// Registers an availability model under `name` for AvailabilitySpec::
  /// Named lookups (e.g. one model per deployment window). Fails with
  /// kFailedPrecondition when the name is taken.
  Status RegisterAvailabilityModel(std::string name,
                                   core::AvailabilityModel model) const;

  /// The catalog the service was built from (owned by the wrapped
  /// core::StratRec — the service keeps no second copy).
  const std::vector<core::Strategy>& strategies() const;
  const std::vector<core::StrategyProfile>& profiles() const;

  const ServiceConfig& config() const;
  /// Worker threads of the service executor (after resolving 0 to the
  /// hardware concurrency).
  size_t worker_threads() const;
  /// Snapshot of the lifetime counters (folds the striped atomics) plus the
  /// executor gauges: queue depth (injection + per-worker deques), active
  /// workers, and the work-stealing steal/local-hit counters.
  ServiceStats stats() const;
  /// Appends a stats-snapshot record to the journal, so a trace carries
  /// saturation checkpoints alongside its (request, outcome) pairs. Fails
  /// with kFailedPrecondition when journaling is not configured.
  Status RecordStatsSnapshot() const;
  /// As above, stamping the record with a virtual-time instant (journal
  /// format v6) — the platform simulator's checkpoint hook, so a trace
  /// tells when in simulated time each saturation snapshot was taken.
  Status RecordStatsSnapshot(double sim_time) const;

 private:
  explicit Service(std::shared_ptr<internal::ServiceState> state)
      : state_(std::move(state)) {}
  std::shared_ptr<internal::ServiceState> state_;
};

}  // namespace stratrec::api

namespace stratrec {
// The facade is the product: surface it at the top-level namespace.
using api::Service;
using api::StreamSession;
using api::Ticket;
}  // namespace stratrec

#endif  // STRATREC_API_SERVICE_H_
