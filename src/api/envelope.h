// Uniform request / report envelopes of the Service API.
//
// Every entry point takes one value-type request and returns one value-type
// report stamped with a stable request id. By default ids are
// service-assigned ("batch-000007", "sweep-000012", "stream-000003") from
// one counter per service, so a report is attributable across modes; a
// request may instead carry its own `request_id`, which the service adopts
// verbatim — the hook out-of-process front ends (and the replay harness,
// which must reproduce recorded ids) use to control attribution. Failures
// travel through the Status / Result taxonomy of src/common/status.h —
// kInvalidArgument for malformed envelopes, kNotFound for unknown registry
// or model names, kInfeasible for well-formed problems without a solution.
//
// Envelopes are serialization-ready value types: every struct here is
// deep-comparable (operator==) and round-trips through the stratrec::wire
// codec (src/api/codec.h) to line-delimited JSON with stable field names —
// the journal format of src/common/journal.h and the wire format a future
// gRPC/HTTP front end shares.
#ifndef STRATREC_API_ENVELOPE_H_
#define STRATREC_API_ENVELOPE_H_

#include <optional>
#include <string>
#include <vector>

#include "src/api/availability.h"
#include "src/common/enum_names.h"
#include "src/core/online.h"
#include "src/core/stratrec.h"

namespace stratrec::api {

// ---------------------------------------------------------------------------
// Batch mode (wraps core::StratRec).
// ---------------------------------------------------------------------------

/// One batch of deployment requests. Optional fields override the service's
/// BatchDefaults for this call only.
struct BatchRequest {
  std::vector<core::DeploymentRequest> requests;
  AvailabilitySpec availability;  ///< kDefault -> service config
  std::optional<std::string> algorithm;
  std::optional<core::Objective> objective;
  std::optional<core::AggregationMode> aggregation;
  std::optional<core::WorkforcePolicy> policy;
  std::optional<bool> recommend_alternatives;
  std::optional<std::string> adpar_solver;
  /// Time budget in milliseconds, relative to submission (relative so a
  /// replayed journal grants the recorded request a fresh budget). 0 (the
  /// default) means no deadline. Work still queued when the budget runs out
  /// completes with kDeadlineExceeded instead of executing; the serving tier
  /// maps that to HTTP 504 and fills it from the X-Stratrec-Deadline-Ms
  /// header.
  double deadline_ms = 0.0;
  /// Caller-assigned report id; empty (the default) means service-assigned.
  /// Uniqueness is the caller's responsibility. Declared last so aggregate
  /// initialization of the workload fields stays source-compatible.
  std::string request_id;

  bool operator==(const BatchRequest&) const = default;
};

/// Outcome of one SubmitBatch call.
struct BatchReport {
  std::string request_id;  ///< stable; caller- or service-assigned
  std::string algorithm;   ///< resolved backend name
  double availability = 0.0;  ///< resolved expected W
  /// Figure-1 pipeline output: aggregator stage, batch outcome, alternatives.
  core::StratRecReport result;

  bool operator==(const BatchReport&) const = default;
};

// ---------------------------------------------------------------------------
// Sweep mode (wraps the ADPaR solver family, including the paper's literal
// sweep from src/core/adpar_paper_sweep.h).
// ---------------------------------------------------------------------------

/// Solve every target with every named adpar backend at one availability —
/// the alternative-recommendation counterpart of SubmitBatch, and the
/// machinery behind the Figure 17 quality comparison.
struct SweepRequest {
  /// Each target supplies thresholds + k; ids label the report rows
  /// (empty ids are replaced by "target-<index>").
  std::vector<core::DeploymentRequest> targets;
  /// Registry names; empty -> the service's default adpar solver.
  std::vector<std::string> solvers;
  AvailabilitySpec availability;  ///< kDefault -> service config
  /// Time budget in ms relative to submission; 0 = none. See
  /// BatchRequest::deadline_ms.
  double deadline_ms = 0.0;
  /// Caller-assigned report id; empty (the default) means service-assigned.
  /// Declared last: see BatchRequest::request_id.
  std::string request_id;

  bool operator==(const SweepRequest&) const = default;
};

/// One (target, solver) cell of a sweep.
struct SweepOutcome {
  std::string target_id;
  std::string solver;
  /// kInfeasible when k exceeds the catalog; the envelope records it per
  /// cell rather than failing the whole sweep.
  Status status;
  core::AdparResult result;  ///< valid iff status.ok()

  bool operator==(const SweepOutcome&) const = default;
};

/// Outcome of one RunSweep call: |targets| x |solvers| cells. Each solved
/// cell carries the parameters of its own k strategies
/// (core::AdparResult::strategy_params), so the report never ships the
/// catalog block the solvers searched.
struct SweepReport {
  std::string request_id;
  double availability = 0.0;
  std::vector<SweepOutcome> outcomes;

  bool operator==(const SweepReport&) const = default;
};

// ---------------------------------------------------------------------------
// Stream mode (wraps stream::StreamScheduler behind a session handle).
// ---------------------------------------------------------------------------

/// Per-session overrides of the service's StreamDefaults plus the session's
/// starting availability.
struct StreamOptions {
  AvailabilitySpec availability;  ///< kDefault -> service config
  std::optional<size_t> max_pending;
  std::optional<bool> readmit_on_release;
  std::optional<core::Objective> objective;
  std::optional<core::AggregationMode> aggregation;
  std::optional<core::WorkforcePolicy> policy;
  /// Serve an ADPaR alternative (paper Section 4) for ineligible arrivals —
  /// the stream twin of BatchRequest::recommend_alternatives. Unset falls
  /// back to StreamDefaults (off).
  std::optional<bool> recommend_alternatives;
  /// Time budget in ms for opening the session, relative to the open call;
  /// 0 = none. See BatchRequest::deadline_ms. (Individual stream events are
  /// synchronous and carry no budget of their own.)
  double deadline_ms = 0.0;
  /// Caller-assigned session id; empty (the default) means service-assigned
  /// ("stream-000003"). The hook the replay harness uses to reproduce
  /// recorded session ids, mirroring BatchRequest::request_id. Declared
  /// last so aggregate initialization stays source-compatible.
  std::string session_id;

  bool operator==(const StreamOptions&) const = default;
};

/// One event of a stream session — the Section 7 open problem's vocabulary:
/// arrivals, revocations, completions, and availability (window) changes.
struct StreamEvent {
  enum class Kind {
    kArrival,
    kRevocation,
    kCompletion,
    kAvailabilityChange,
  };
  Kind kind = Kind::kArrival;
  core::DeploymentRequest request;  ///< kArrival
  std::string request_id;           ///< kRevocation / kCompletion
  AvailabilitySpec availability;    ///< kAvailabilityChange

  static StreamEvent Arrival(core::DeploymentRequest request);
  static StreamEvent Revocation(std::string request_id);
  static StreamEvent Completion(std::string request_id);
  static StreamEvent AvailabilityChange(AvailabilitySpec availability);

  bool operator==(const StreamEvent&) const = default;
};

/// Every stream event kind with its wire name.
inline constexpr EnumName<StreamEvent::Kind> kStreamEventKindNames[] = {
    {StreamEvent::Kind::kArrival, "arrival"},
    {StreamEvent::Kind::kRevocation, "revocation"},
    {StreamEvent::Kind::kCompletion, "completion"},
    {StreamEvent::Kind::kAvailabilityChange, "availability-change"},
};

/// Every admission outcome with its wire name.
inline constexpr EnumName<core::AdmissionDecision::Kind>
    kAdmissionKindNames[] = {
        {core::AdmissionDecision::Kind::kAdmitted, "admitted"},
        {core::AdmissionDecision::Kind::kQueued, "queued"},
        {core::AdmissionDecision::Kind::kRejected, "rejected"},
};

/// "arrival", "revocation", "completion", "availability-change".
const char* StreamEventKindName(StreamEvent::Kind kind);

/// "admitted", "queued", "rejected" — display helper for admission outcomes.
const char* AdmissionKindName(core::AdmissionDecision::Kind kind);

/// What one stream event did, plus a post-event capacity snapshot. Round-
/// trips the wire codec (the "stream-event" journal record pairs it with
/// its StreamEvent), so replay can assert byte-identical updates.
struct StreamUpdate {
  std::string session_id;
  StreamEvent::Kind kind = StreamEvent::Kind::kArrival;
  std::string request_id;            ///< the affected request ("" for window changes)
  core::AdmissionDecision decision;  ///< meaningful for kArrival only
  /// ADPaR alternative for an ineligible arrival; only set when the session
  /// runs with recommend_alternatives and the solve succeeded.
  bool has_alternative = false;
  core::AdparResult alternative;  ///< valid iff has_alternative
  double availability = 0.0;
  double used_workforce = 0.0;
  size_t active = 0;
  size_t pending = 0;

  bool operator==(const StreamUpdate&) const = default;
};

// ---------------------------------------------------------------------------
// Service-level accounting.
// ---------------------------------------------------------------------------

/// Lifetime counters of one Service (snapshot; see Service::stats()).
///
/// Counters are maintained on a striped atomic path (no shared lock), so
/// concurrent requests never contend on stats accounting; stats() folds the
/// stripes into this snapshot. Every numeric field is listed once in
/// kStatsCounters below, which drives the stripes, the folds and the codec.
struct ServiceStats {
  size_t batches = 0;
  size_t sweeps = 0;
  size_t streams_opened = 0;
  size_t stream_events = 0;
  /// Pending stream requests re-admitted by density-order drains after a
  /// revocation, completion, or availability raise freed capacity.
  size_t stream_reschedules = 0;
  /// Snapshot maintenance across all stream sessions: events absorbed in
  /// O(1) that left a session's quantized W in place vs availability
  /// changes that moved it and dropped the session's per-W snapshot (the
  /// next ineligible arrival that wants an alternative builds it again).
  size_t snapshot_delta_updates = 0;
  size_t snapshot_rebuilds = 0;
  /// Deployment requests seen across batches and stream arrivals.
  size_t requests_processed = 0;
  /// Async tickets withdrawn via Cancel() before a worker claimed them.
  size_t cancelled = 0;
  /// Instantaneous executor gauges (not lifetime counters), sampled at
  /// stats() time: tasks waiting across the pool's queues (injection +
  /// per-worker deques, one consistent total) and workers currently running
  /// a task. The raw accessors live on stratrec::Executor (QueueDepth /
  /// ActiveWorkers); they are surfaced here so load shedding has
  /// service-level data.
  size_t queue_depth = 0;
  size_t active_workers = 0;
  /// Work-stealing counters (lifetime, from Executor::StealCount /
  /// LocalHitCount): how pool tasks reached their thread. A high steal
  /// share means the pool is rebalancing across workers; a high local share
  /// means fan-out stayed cache-local on the worker that spawned it.
  size_t steals = 0;
  size_t local_hits = 0;
  /// Availability-snapshot cache counters (lifetime): how often a job that
  /// needed per-W derived state found it cached vs had to build it. A low
  /// hit share on a repeated-availability workload means the cache is
  /// undersized (or quantization too fine) — see ServiceConfig::cache.
  size_t cache_hits = 0;
  size_t cache_misses = 0;
  /// Wall-clock nanoseconds spent building the catalog's SoA index at
  /// Service::Create or ShardRouter::Create (core::CatalogIndex; a one-time
  /// cost every batch amortizes).
  size_t index_build_nanos = 0;
  /// Admission control (lifetime): requests turned away because the queue
  /// gauge exceeded the configured ceiling, and how many of those rejections
  /// carried a back-off hint (HTTP 429 + Retry-After on the serving tier).
  /// Zero on a Service that fronts no admission controller — the shard
  /// router and HTTP tier maintain them, but they travel in ServiceStats so
  /// one stats envelope (and one codec) covers both tiers.
  size_t rejected_requests = 0;
  size_t retry_after_hints = 0;
  /// Fault-tolerance counters (lifetime; journal format v7). Like the
  /// admission counters above, the upper tiers maintain most of them:
  /// `deadline_exceeded` counts work abandoned because its deadline_ms
  /// budget ran out (Service and ShardRouter both); `retries` counts
  /// HttpClient re-sends after a transport failure or 429; `failovers`
  /// counts router scans re-dispatched to another replica after a replica
  /// failed; `hedges_won` counts hedged duplicate scans that beat the
  /// primary.
  size_t deadline_exceeded = 0;
  size_t retries = 0;
  size_t failovers = 0;
  size_t hedges_won = 0;
  /// Active SIMD dispatch level of the SoA kernels ("avx2" or "scalar";
  /// core::kernels::DispatchLevelName), sampled at stats() time. Surfaced on
  /// /v1/stats so a fleet can verify which code path each box runs — a
  /// binary on pre-AVX2 hardware or started with STRATREC_FORCE_SCALAR=1
  /// reports "scalar".
  std::string kernel_dispatch;

  bool operator==(const ServiceStats&) const = default;
};

/// One numeric ServiceStats field: its wire name and its member.
struct StatsCounter {
  const char* name;
  size_t ServiceStats::*member;
};

/// Every numeric ServiceStats field, in wire order. The striped counters,
/// the Service and router folds, and the codec all walk this list, so a new
/// counter is its member above plus one line here (and a journal format
/// bump: the field becomes required on decode).
inline constexpr StatsCounter kStatsCounters[] = {
    {"batches", &ServiceStats::batches},
    {"sweeps", &ServiceStats::sweeps},
    {"streams_opened", &ServiceStats::streams_opened},
    {"stream_events", &ServiceStats::stream_events},
    {"stream_reschedules", &ServiceStats::stream_reschedules},
    {"snapshot_delta_updates", &ServiceStats::snapshot_delta_updates},
    {"snapshot_rebuilds", &ServiceStats::snapshot_rebuilds},
    {"requests_processed", &ServiceStats::requests_processed},
    {"cancelled", &ServiceStats::cancelled},
    {"queue_depth", &ServiceStats::queue_depth},
    {"active_workers", &ServiceStats::active_workers},
    {"steals", &ServiceStats::steals},
    {"local_hits", &ServiceStats::local_hits},
    {"cache_hits", &ServiceStats::cache_hits},
    {"cache_misses", &ServiceStats::cache_misses},
    {"index_build_nanos", &ServiceStats::index_build_nanos},
    {"rejected_requests", &ServiceStats::rejected_requests},
    {"retry_after_hints", &ServiceStats::retry_after_hints},
    {"deadline_exceeded", &ServiceStats::deadline_exceeded},
    {"retries", &ServiceStats::retries},
    {"failovers", &ServiceStats::failovers},
    {"hedges_won", &ServiceStats::hedges_won},
};

}  // namespace stratrec::api

#endif  // STRATREC_API_ENVELOPE_H_
