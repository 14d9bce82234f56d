#include "src/api/replay.h"

#include <chrono>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

namespace stratrec::wire {

namespace {

/// A named availability spec resolves against models registered on the live
/// service — which are not part of the trace. The recorded report captured
/// the resolved W, so replay pins it as a fixed spec (byte-identical: the
/// codec round-trips doubles exactly). Also applies to kDefault when the
/// recorded config's default is itself named.
void PinNamedAvailability(const JournalTrace& trace,
                          api::AvailabilitySpec* spec, double recorded_w) {
  using Kind = api::AvailabilitySpec::Kind;
  const bool named_default =
      trace.has_config &&
      trace.config.availability.kind == Kind::kNamed;
  if (spec->kind == Kind::kNamed ||
      (spec->kind == Kind::kDefault && named_default)) {
    *spec = api::AvailabilitySpec::Fixed(recorded_w);
  }
}

std::string RoundId(const std::string& request_id, size_t round) {
  return round == 0 ? request_id
                    : request_id + "#" + std::to_string(round);
}

}  // namespace

Result<api::Service> ServiceFromTrace(const JournalTrace& trace,
                                      size_t worker_threads) {
  if (!trace.has_config) {
    return Status::FailedPrecondition("trace has no config record");
  }
  if (!trace.has_catalog) {
    return Status::FailedPrecondition("trace has no catalog record");
  }
  api::ServiceConfig config = trace.config;
  config.journal = api::JournalConfig{};  // replay must not re-record
  if (worker_threads > 0) config.execution.worker_threads = worker_threads;
  return api::Service::Create(trace.catalog, std::move(config));
}

Result<ReplayResult> ReplayTrace(const JournalTrace& trace,
                                 const ReplayOptions& options) {
  auto service = ServiceFromTrace(trace, options.worker_threads);
  if (!service.ok()) return service.status();

  ReplayResult result;

  /// One in-flight replayed pair: the ticket and the line its report must
  /// reproduce (the recorded report re-encoded with the round-suffixed id,
  /// so round copies compare cleanly).
  struct PendingBatch {
    api::Ticket<api::BatchReport> ticket;
    std::string expected;
  };
  struct PendingSweep {
    api::Ticket<api::SweepReport> ticket;
    std::string expected;
  };
  std::vector<PendingBatch> batches;
  std::vector<PendingSweep> sweeps;

  // Index the stream records up front: events grouped per session in
  // journal order (which the per-session mutex made seq order).
  std::unordered_map<std::string, std::vector<const StreamEventRecord*>>
      session_events;
  for (const StreamEventRecord& record : trace.stream_events) {
    session_events[record.session_id].push_back(&record);
  }

  const size_t rounds = options.rounds == 0 ? 1 : options.rounds;
  const auto start = std::chrono::steady_clock::now();
  for (size_t round = 0; round < rounds; ++round) {
    for (const PairRecord& pair : trace.pairs) {
      if (!pair.status.ok()) {
        // Cancelled or failed on record: nothing completed to reproduce.
        if (round == 0) ++result.skipped;
        continue;
      }
      ++result.replayed;
      const std::string id = RoundId(pair.request_id, round);
      if (pair.kind == PairRecord::Kind::kBatch) {
        api::BatchRequest request = pair.batch_request;
        request.request_id = id;
        PinNamedAvailability(trace, &request.availability,
                             pair.batch_report.availability);
        result.work_items += request.requests.size();
        api::BatchReport expected = pair.batch_report;
        expected.request_id = id;
        batches.push_back({service->SubmitBatchAsync(std::move(request)),
                           json::Dump(Encode(expected))});
      } else {
        api::SweepRequest request = pair.sweep_request;
        request.request_id = id;
        PinNamedAvailability(trace, &request.availability,
                             pair.sweep_report.availability);
        result.work_items += pair.sweep_report.outcomes.size();
        api::SweepReport expected = pair.sweep_report;
        expected.request_id = id;
        sweeps.push_back({service->RunSweepAsync(std::move(request)),
                          json::Dump(Encode(expected))});
      }
    }
  }

  // Stream sessions: reopen each recorded session and re-drive its events
  // in seq order. Stream semantics are sequential per session, so this leg
  // is synchronous — the parallelism replay exercises here is inside each
  // event (the scheduler's pricing rows and the snapshot build behind a
  // cache miss fan out across the pool), which is exactly what must not
  // change the bytes.
  for (size_t round = 0; round < rounds; ++round) {
    for (const StreamOpenRecord& open : trace.stream_opens) {
      const auto events_it = session_events.find(open.session_id);
      const std::vector<const StreamEventRecord*>* events =
          events_it == session_events.end() ? nullptr : &events_it->second;

      // A compacted chain keeps every stream-open but may have folded away
      // an event prefix; a seq gap anywhere means the session's scheduler
      // state cannot be reconstructed, so skip it whole.
      bool contiguous = true;
      if (events != nullptr) {
        for (size_t i = 0; i < events->size(); ++i) {
          if ((*events)[i]->seq != i) {
            contiguous = false;
            break;
          }
        }
      }
      if (!contiguous) {
        if (round == 0) ++result.stream_skipped_sessions;
        continue;
      }

      const std::string session_id = RoundId(open.session_id, round);
      api::StreamOptions stream_options = open.options;
      stream_options.session_id = session_id;
      PinNamedAvailability(trace, &stream_options.availability,
                           open.availability);
      auto session = service->OpenStream(stream_options);
      if (!session.ok()) {
        return Status::Internal("replayed session " + session_id +
                                " failed to open: " +
                                session.status().ToString());
      }
      ++result.stream_sessions;

      if (events == nullptr) continue;
      for (const StreamEventRecord* record : *events) {
        ++result.stream_events_replayed;
        api::StreamEvent event = record->event;
        if (event.kind == api::StreamEvent::Kind::kAvailabilityChange &&
            record->status.ok()) {
          // Window changes through a named model resolve against live
          // registrations the trace does not carry; the recorded update
          // captured the resolved W, so pin it like the batch leg does.
          PinNamedAvailability(trace, &event.availability,
                               record->update.availability);
        }
        auto update = session->Submit(event);
        bool matched = false;
        if (record->status.ok()) {
          if (update.ok()) {
            api::StreamUpdate expected = record->update;
            expected.session_id = session_id;
            matched = json::Dump(Encode(expected)) ==
                      json::Dump(Encode(*update));
          }
        } else {
          matched = !update.ok() &&
                    json::Dump(Encode(record->status)) ==
                        json::Dump(Encode(update.status()));
        }
        if (matched) {
          ++result.stream_matched;
        } else {
          result.mismatched.push_back(session_id + "@" +
                                      std::to_string(record->seq));
        }
      }
    }
  }

  for (PendingBatch& pending : batches) {
    auto report = pending.ticket.Wait();
    if (!report.ok()) {
      return Status::Internal("replayed batch " + pending.ticket.id() +
                              " failed: " + report.status().ToString());
    }
    if (json::Dump(Encode(*report)) == pending.expected) {
      ++result.matched;
    } else {
      result.mismatched.push_back(pending.ticket.id());
    }
  }
  for (PendingSweep& pending : sweeps) {
    auto report = pending.ticket.Wait();
    if (!report.ok()) {
      return Status::Internal("replayed sweep " + pending.ticket.id() +
                              " failed: " + report.status().ToString());
    }
    if (json::Dump(Encode(*report)) == pending.expected) {
      ++result.matched;
    } else {
      result.mismatched.push_back(pending.ticket.id());
    }
  }
  const std::chrono::duration<double> elapsed =
      std::chrono::steady_clock::now() - start;
  result.seconds = elapsed.count();
  return result;
}

}  // namespace stratrec::wire
