// stratrec::wire — the envelope wire codec.
//
// Round-trips the Service API's value types (request/report envelopes, the
// ServiceConfig blocks, the strategy catalog, Status) to JSON with stable,
// versioned field names. Three layers of guarantees:
//
//   * lossless: Decode(Encode(x)) == x for every well-formed value — doubles
//     included, bit for bit (json::FormatNumber emits the shortest exact
//     decimal; NaN is rejected at the JSON layer),
//   * deterministic: Encode emits object members in a fixed order, so equal
//     values produce byte-identical lines — the property the replay harness
//     uses to assert that a replayed report matches a recorded one,
//   * self-describing: the journal record helpers wrap each value in a
//     {"kind": ...} line, and src/common/journal.h stamps the file with a
//     format-version header, so a trace is readable without out-of-band
//     schema knowledge.
//
// The same encoding is the planned gRPC/HTTP front end's body format: an
// out-of-process caller POSTs an encoded BatchRequest and receives an
// encoded BatchReport — which is why this codec lives in src/api/ next to
// the envelopes rather than inside the journal.
//
// Optional envelope fields are omitted when unset and restored as unset;
// conditional fields (e.g. a SweepOutcome's result when its status is an
// error) are omitted and restored as default-constructed. Decoders are
// strict: a missing required field or a type mismatch fails with
// kInvalidArgument naming the field. Integers travel as JSON numbers and
// are therefore exact only up to 2^53; decoders reject anything larger
// (and ValidateConfig rejects over-2^53 config knobs at record time, so
// the mismatch cannot first surface when a journal is read back).
#ifndef STRATREC_API_CODEC_H_
#define STRATREC_API_CODEC_H_

#include <string>
#include <vector>

#include "src/api/config.h"
#include "src/api/envelope.h"
#include "src/common/json.h"
#include "src/core/stratrec.h"

namespace stratrec::wire {

// ---------------------------------------------------------------------------
// Value-level codec: JSON trees with stable field names.
// ---------------------------------------------------------------------------

json::Value Encode(const Status& status);
json::Value Encode(const core::ParamVector& params);
json::Value Encode(const core::DeploymentRequest& request);
json::Value Encode(const core::AdparResult& result);
json::Value Encode(const core::Catalog& catalog);
json::Value Encode(const api::AvailabilitySpec& spec);
json::Value Encode(const api::BatchRequest& request);
json::Value Encode(const api::BatchReport& report);
json::Value Encode(const api::SweepRequest& request);
json::Value Encode(const api::SweepReport& report);
json::Value Encode(const api::StreamOptions& options);
json::Value Encode(const api::StreamEvent& event);
json::Value Encode(const api::StreamUpdate& update);
json::Value Encode(const api::ServiceConfig& config);
json::Value Encode(const api::ServiceStats& stats);

/// Whether every double Encode(value) emits is finite, judged from the
/// same field tables: the thresholds, a fixed availability's value, a PMF's
/// atoms or a sample set, and a positive deadline_ms (a deadline <= 0 or
/// NaN stays off the wire and means none). JSON has no NaN or infinity, so
/// the encoder writes null and no decoder reads the record back; the
/// ticket protocol refuses such a request before it queues or journals it,
/// and Service::OpenStream and StreamSession::Submit refuse such options or
/// events before they journal them.
bool AllFinite(const api::BatchRequest& request);
bool AllFinite(const api::SweepRequest& request);
bool AllFinite(const api::StreamOptions& options);
bool AllFinite(const api::StreamEvent& event);

/// Out-parameter shape because Result<Status> would be ambiguous.
Status DecodeStatus(const json::Value& value, Status* out);
Result<core::ParamVector> DecodeParamVector(const json::Value& value);
Result<core::DeploymentRequest> DecodeDeploymentRequest(
    const json::Value& value);
Result<core::AdparResult> DecodeAdparResult(const json::Value& value);
Result<core::Catalog> DecodeCatalog(const json::Value& value);
Result<api::AvailabilitySpec> DecodeAvailabilitySpec(const json::Value& value);
Result<api::BatchRequest> DecodeBatchRequest(const json::Value& value);
Result<api::BatchReport> DecodeBatchReport(const json::Value& value);
Result<api::SweepRequest> DecodeSweepRequest(const json::Value& value);
Result<api::SweepReport> DecodeSweepReport(const json::Value& value);
Result<api::StreamOptions> DecodeStreamOptions(const json::Value& value);
Result<api::StreamEvent> DecodeStreamEvent(const json::Value& value);
Result<api::StreamUpdate> DecodeStreamUpdate(const json::Value& value);
Result<api::ServiceConfig> DecodeServiceConfig(const json::Value& value);
Result<api::ServiceStats> DecodeServiceStats(const json::Value& value);

// ---------------------------------------------------------------------------
// Journal records: one self-describing line per record.
// ---------------------------------------------------------------------------

/// One recorded (request, outcome) pair. `status` is the job's completion
/// status — OK (then the matching report is valid), an error, or kCancelled
/// for a ticket withdrawn before execution.
struct PairRecord {
  enum class Kind { kBatch, kSweep };
  Kind kind = Kind::kBatch;
  /// The id the ticket carried (and the report would have carried).
  std::string request_id;
  Status status;

  api::BatchRequest batch_request;  ///< kBatch
  api::BatchReport batch_report;    ///< kBatch, valid iff status.ok()
  api::SweepRequest sweep_request;  ///< kSweep
  api::SweepReport sweep_report;    ///< kSweep, valid iff status.ok()

  bool operator==(const PairRecord&) const = default;
};

/// One recorded stream-session open: everything replay needs to rebuild the
/// session — the options the caller passed (with session_id pinned to the
/// id the service assigned) plus the availability the spec resolved to, so
/// replay reproduces named/default specs whose backing model has drifted.
struct StreamOpenRecord {
  std::string session_id;
  api::StreamOptions options;
  double availability = 0.0;

  bool operator==(const StreamOpenRecord&) const = default;
};

/// One recorded (StreamEvent, StreamUpdate) pair. `seq` is the per-session
/// submission index — every Submit increments it, failures included — so a
/// replay can detect a compacted-away event prefix as a seq gap.
struct StreamEventRecord {
  std::string session_id;
  size_t seq = 0;
  api::StreamEvent event;
  Status status;
  api::StreamUpdate update;  ///< valid iff status.ok()

  bool operator==(const StreamEventRecord&) const = default;
};

/// Record lines ({"kind":"config"|"catalog"|"batch"|"sweep", ...}), ready
/// for JournalWriter::Append.
std::string EncodeConfigRecord(const api::ServiceConfig& config);
std::string EncodeCatalogRecord(const core::Catalog& catalog);
std::string EncodeBatchRecord(const std::string& request_id,
                              const api::BatchRequest& request,
                              const Result<api::BatchReport>& outcome);
std::string EncodeSweepRecord(const std::string& request_id,
                              const api::SweepRequest& request,
                              const Result<api::SweepReport>& outcome);
/// Stats snapshot record ({"kind":"stats", ...}): a service's lifetime
/// counters plus the executor gauges (queue depth, active workers,
/// steal/local-hit counters), so a trace can carry saturation checkpoints
/// alongside its pairs.
std::string EncodeStatsRecord(const api::ServiceStats& stats);
/// Stats record stamped with a virtual-time instant (journal format v6) —
/// the platform simulator's checkpoint hook: a trace then tells *when* in
/// simulated time each saturation snapshot was taken.
std::string EncodeStatsRecord(const api::ServiceStats& stats,
                              double sim_time);
/// Stream session records ({"kind":"stream-open"|"stream-event", ...}).
std::string EncodeStreamOpenRecord(const StreamOpenRecord& open);
std::string EncodeStreamEventRecord(const StreamEventRecord& record);

/// One decoded stats checkpoint: the counters plus the optional virtual-time
/// stamp (format v6) that simulator-driven traces carry.
struct StatsRecord {
  api::ServiceStats stats;
  bool has_sim_time = false;
  double sim_time = 0.0;

  bool operator==(const StatsRecord&) const = default;
};

/// A fully decoded journal: everything replay needs to rebuild the service
/// and its workload. Pairs keep journal (completion) order.
struct JournalTrace {
  bool has_config = false;
  api::ServiceConfig config;
  bool has_catalog = false;
  core::Catalog catalog;
  std::vector<PairRecord> pairs;
  /// Stats checkpoints, in journal order (may be empty: taps only write
  /// them when asked — see EncodeStatsRecord).
  std::vector<StatsRecord> stats;
  /// Stream sessions: session opens and their (event, update) pairs, each
  /// in journal order. Events of different sessions interleave here exactly
  /// as they completed; within a session, seq orders them.
  std::vector<StreamOpenRecord> stream_opens;
  std::vector<StreamEventRecord> stream_events;
};

/// Decodes record lines (JournalReader::ReadRecords output). Unknown record
/// kinds fail with kInvalidArgument — versioning happens at the file header,
/// not by silently dropping records.
Result<JournalTrace> DecodeTrace(const std::vector<std::string>& records);

/// JournalReader::ReadRecords + DecodeTrace.
Result<JournalTrace> ReadTraceFile(const std::string& path);

/// The journal compaction policy (JournalWriter::Options::compact): folds
/// the records of a cold segment prefix into the minimal list that keeps a
/// compacted chain self-contained — the *last* config, catalog, and stats
/// records, every stream-open (a session may still be live in the retained
/// tail), and any record this codec does not recognize (preserved verbatim,
/// in order). Batch/sweep pairs and stream events are dropped: replay over
/// a compacted chain skips sessions whose event prefix is gone (seq gap)
/// and replays everything that survived unchanged.
std::vector<std::string> CompactRecords(const std::vector<std::string>& records);

}  // namespace stratrec::wire

#endif  // STRATREC_API_CODEC_H_
