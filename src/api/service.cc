#include "src/api/service.h"

#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "src/api/codec.h"
#include "src/api/pipeline.h"
#include "src/common/journal.h"
#include "src/stream/stream_scheduler.h"

namespace stratrec::api {

namespace internal {

/// One stream session: the (not thread-safe) stream scheduler plus its own
/// lock and a reference keeping the owning service alive. The scheduler's
/// ParallelFor fan-out (pricing rows, and the build behind a snapshot-cache
/// miss) runs on the service executor from under the session mutex — safe,
/// because the executor's callers participate in their own fan-out.
struct SessionState {
  /// Declared before `scheduler`, so it is destroyed after it: the
  /// scheduler's snapshot source holds this service's raw pointer.
  std::shared_ptr<ServiceState> service;
  std::string id;
  mutable std::mutex mutex;  ///< serializes the wrapped scheduler
  stream::StreamScheduler scheduler;
  /// Per-session submission index, stamped on every journaled stream-event
  /// record (failures included) so replay can detect a compacted-away
  /// prefix as a gap. Guarded by `mutex`.
  size_t seq = 0;
  /// Last-synced scheduler counters, so each Submit adds only its delta to
  /// the service-wide stripes. Guarded by `mutex`.
  size_t synced_reschedules = 0;
  size_t synced_delta_updates = 0;
  size_t synced_rebuilds = 0;

  SessionState(std::shared_ptr<ServiceState> service_in, std::string id_in,
               stream::StreamScheduler scheduler_in)
      : service(std::move(service_in)),
        id(std::move(id_in)),
        scheduler(std::move(scheduler_in)) {}
};

}  // namespace internal

// ---------------------------------------------------------------------------
// Service
// ---------------------------------------------------------------------------

Result<Service> Service::Create(core::Catalog catalog, ServiceConfig config) {
  STRATREC_RETURN_NOT_OK(ValidateConfig(config));

  // Journal taps: open the file and persist the config + catalog records up
  // front, so even a trace with zero pairs is replayable (the trace alone
  // reconstructs an identical service).
  std::shared_ptr<JournalWriter> journal;
  if (!config.journal.path.empty()) {
    JournalWriter::Options journal_options;
    journal_options.flush_every_record = config.journal.flush_every_record;
    journal_options.max_segment_bytes = config.journal.max_segment_bytes;
    journal_options.compact_after_segments =
        config.journal.compact_after_segments;
    journal_options.retain_segments = config.journal.retain_segments;
    // The folding policy lives in the codec (the journal layer stays
    // byte-oriented): keep the records a compacted chain still needs.
    journal_options.compact = wire::CompactRecords;
    auto writer =
        JournalWriter::Open(config.journal.path, std::move(journal_options));
    if (!writer.ok()) return writer.status();
    journal = std::move(*writer);
    STRATREC_RETURN_NOT_OK(journal->Append(wire::EncodeConfigRecord(config)));
    STRATREC_RETURN_NOT_OK(
        journal->Append(wire::EncodeCatalogRecord(catalog)));
  }

  auto stratrec = core::StratRec::Create(std::move(catalog));
  if (!stratrec.ok()) return stratrec.status();
  return Service(std::make_shared<internal::ServiceState>(
      std::move(config), std::move(*stratrec), std::move(journal)));
}

Result<Service> Service::Create(std::vector<core::Strategy> strategies,
                                std::vector<core::StrategyProfile> profiles,
                                ServiceConfig config) {
  return Create(
      core::Catalog{std::move(strategies), std::move(profiles)},
      std::move(config));
}

Ticket<BatchReport> Service::SubmitBatchAsync(BatchRequest request) const {
  return state_->SubmitJob(std::move(request));
}

Ticket<SweepReport> Service::RunSweepAsync(SweepRequest request) const {
  return state_->SubmitJob(std::move(request));
}

Result<BatchReport> Service::SubmitBatch(BatchRequest request) const {
  return SubmitBatchAsync(std::move(request)).Wait();
}

Result<SweepReport> Service::RunSweep(SweepRequest request) const {
  return RunSweepAsync(std::move(request)).Wait();
}

Result<StreamSession> Service::OpenStream(const StreamOptions& options) const {
  // A non-finite double would journal as null, and the trace would no
  // longer read back, so such options open no session and are unrecorded.
  if (!wire::AllFinite(options)) {
    return Status::InvalidArgument(
        "stream options hold a non-finite number, which the wire cannot "
        "carry");
  }
  if (options.max_pending.value_or(0) > kMaxWireInteger) {
    return Status::InvalidArgument(
        "max_pending exceeds 2^53 and would not round-trip the wire codec");
  }
  auto availability = state_->Resolve(options.availability);
  if (!availability.ok()) return availability.status();

  const ServiceConfig& config = state_->config;
  stream::StreamSchedulerOptions scheduler_options;
  scheduler_options.objective =
      options.objective.value_or(config.batch.objective);
  scheduler_options.aggregation =
      options.aggregation.value_or(config.batch.aggregation);
  scheduler_options.policy = options.policy.value_or(config.batch.policy);
  scheduler_options.max_pending =
      options.max_pending.value_or(config.stream.max_pending);
  scheduler_options.readmit_on_release =
      options.readmit_on_release.value_or(config.stream.readmit_on_release);
  scheduler_options.recommend_alternatives =
      options.recommend_alternatives.value_or(
          config.stream.recommend_alternatives);
  // The session runs on the same availability grid as the batch path and
  // fetches its snapshot from the same cache, so a session alternative
  // agrees with the batch one at that W bit for bit.
  scheduler_options.availability_quantum = config.cache.availability_quantum;
  scheduler_options.parallel_grain = config.execution.parallel_grain;

  internal::ServiceState* service = state_.get();
  auto scheduler = stream::StreamScheduler::Create(
      &service->stratrec.index(), &service->executor,
      [service](double w) { return service->SnapshotFor(w); }, *availability,
      scheduler_options);
  if (!scheduler.ok()) return scheduler.status();

  std::string session_id =
      options.session_id.empty() ? state_->ids.Next("stream")
                                 : options.session_id;
  // Session-open tap: with the session id pinned into the recorded options
  // and the resolved availability alongside, replay rebuilds this session
  // byte-for-byte even when the original spec was named or default.
  if (state_->journal) {
    wire::StreamOpenRecord open;
    open.session_id = session_id;
    open.options = options;
    open.options.session_id = session_id;
    open.availability = *availability;
    state_->Record(wire::EncodeStreamOpenRecord(open));
  }

  auto session = std::make_shared<internal::SessionState>(
      state_, std::move(session_id), std::move(*scheduler));
  state_->stats.Add(&ServiceStats::streams_opened);
  return StreamSession(std::move(session));
}

Status Service::RegisterAvailabilityModel(std::string name,
                                          core::AvailabilityModel model) const {
  return state_->models.Register(std::move(name), std::move(model));
}

const std::vector<core::Strategy>& Service::strategies() const {
  return state_->stratrec.strategies();
}

const std::vector<core::StrategyProfile>& Service::profiles() const {
  return state_->stratrec.profiles();
}

const ServiceConfig& Service::config() const { return state_->config; }

size_t Service::worker_threads() const { return state_->executor.threads(); }

ServiceStats Service::stats() const { return state_->Stats(); }

Status Service::RecordStatsSnapshot() const {
  if (!state_->journal) {
    return Status::FailedPrecondition(
        "stats snapshot requested but journaling is not configured");
  }
  return state_->journal->Append(wire::EncodeStatsRecord(stats()));
}

Status Service::RecordStatsSnapshot(double sim_time) const {
  if (!state_->journal) {
    return Status::FailedPrecondition(
        "stats snapshot requested but journaling is not configured");
  }
  return state_->journal->Append(wire::EncodeStatsRecord(stats(), sim_time));
}

// ---------------------------------------------------------------------------
// StreamSession
// ---------------------------------------------------------------------------

const std::string& StreamSession::id() const { return state_->id; }

Result<StreamUpdate> StreamSession::Submit(const StreamEvent& event) {
  // A non-finite double would journal as null, and the trace would no
  // longer read back, so such an event is refused unrecorded and takes no
  // submission index.
  if (!wire::AllFinite(event)) {
    return Status::InvalidArgument(
        "stream event holds a non-finite number, which the wire cannot carry");
  }
  StreamUpdate update;
  update.session_id = state_->id;
  update.kind = event.kind;

  internal::ServiceState* service = state_->service.get();
  std::lock_guard<std::mutex> lock(state_->mutex);
  stream::StreamScheduler& scheduler = state_->scheduler;
  Status status = Status::OK();
  switch (event.kind) {
    case StreamEvent::Kind::kArrival: {
      auto outcome = scheduler.OnArrival(event.request);
      if (!outcome.ok()) {
        status = outcome.status();
        break;
      }
      update.request_id = event.request.id;
      update.decision = std::move(outcome->decision);
      update.has_alternative = outcome->has_alternative;
      if (outcome->has_alternative) {
        update.alternative = std::move(outcome->alternative);
      }
      break;
    }
    case StreamEvent::Kind::kRevocation:
      status = scheduler.OnRevocation(event.request_id);
      update.request_id = event.request_id;
      break;
    case StreamEvent::Kind::kCompletion:
      status = scheduler.OnCompletion(event.request_id);
      update.request_id = event.request_id;
      break;
    case StreamEvent::Kind::kAvailabilityChange: {
      auto resolved = service->Resolve(event.availability);
      if (!resolved.ok()) {
        status = resolved.status();
        break;
      }
      status = scheduler.SetAvailability(*resolved);
      break;
    }
  }
  if (status.ok()) {
    update.availability = scheduler.availability();
    update.used_workforce = scheduler.used_workforce();
    update.active = scheduler.active();
    update.pending = scheduler.pending();
  }

  // Journal tap: every submitted event (failures included) gets a record
  // stamped with the session's submission index, encoded here on the
  // submitting thread — the session mutex makes seq order and journal
  // order agree per session, and the append itself only takes the
  // journal's short file lock.
  if (service->journal) {
    wire::StreamEventRecord record;
    record.session_id = state_->id;
    record.seq = state_->seq;
    record.event = event;
    record.status = status;
    if (status.ok()) record.update = update;
    service->Record(wire::EncodeStreamEventRecord(record));
  }
  state_->seq += 1;

  if (!status.ok()) return status;

  internal::StripedStats& stats = service->stats;
  stats.Add(&ServiceStats::stream_events);
  if (event.kind == StreamEvent::Kind::kArrival) {
    stats.Add(&ServiceStats::requests_processed);
  }
  // Fold this event's scheduler-counter movement into the service stripes
  // (the scheduler keeps totals; the session remembers what it last
  // synced).
  const size_t reschedules = scheduler.reschedules();
  const size_t delta_updates = scheduler.snapshot_delta_updates();
  const size_t rebuilds = scheduler.snapshot_rebuilds();
  stats.Add(&ServiceStats::stream_reschedules,
            reschedules - state_->synced_reschedules);
  stats.Add(&ServiceStats::snapshot_delta_updates,
            delta_updates - state_->synced_delta_updates);
  stats.Add(&ServiceStats::snapshot_rebuilds,
            rebuilds - state_->synced_rebuilds);
  state_->synced_reschedules = reschedules;
  state_->synced_delta_updates = delta_updates;
  state_->synced_rebuilds = rebuilds;
  return update;
}

Result<core::AdmissionDecision> StreamSession::Arrive(
    const core::DeploymentRequest& request) {
  auto update = Submit(StreamEvent::Arrival(request));
  if (!update.ok()) return update.status();
  return std::move(update->decision);
}

Status StreamSession::Revoke(const std::string& request_id) {
  auto update = Submit(StreamEvent::Revocation(request_id));
  return update.ok() ? Status::OK() : update.status();
}

Status StreamSession::Complete(const std::string& request_id) {
  auto update = Submit(StreamEvent::Completion(request_id));
  return update.ok() ? Status::OK() : update.status();
}

Status StreamSession::SetAvailability(const AvailabilitySpec& availability) {
  auto update = Submit(StreamEvent::AvailabilityChange(availability));
  return update.ok() ? Status::OK() : update.status();
}

double StreamSession::availability() const {
  std::lock_guard<std::mutex> lock(state_->mutex);
  return state_->scheduler.availability();
}

double StreamSession::used_workforce() const {
  std::lock_guard<std::mutex> lock(state_->mutex);
  return state_->scheduler.used_workforce();
}

size_t StreamSession::active() const {
  std::lock_guard<std::mutex> lock(state_->mutex);
  return state_->scheduler.active();
}

size_t StreamSession::pending() const {
  std::lock_guard<std::mutex> lock(state_->mutex);
  return state_->scheduler.pending();
}

core::OnlineStats StreamSession::stats() const {
  std::lock_guard<std::mutex> lock(state_->mutex);
  return state_->scheduler.stats();
}

}  // namespace stratrec::api
