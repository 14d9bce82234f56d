// Layered configuration of a stratrec::Service.
//
// One ServiceConfig replaces the scattered StratRecOptions / OnlineOptions /
// BatchOptions structs of the core layer: the `batch` block defaults every
// SubmitBatch/RunSweep call, the `stream` block every OpenStream session,
// and `availability` answers requests that do not name their own source.
// Individual request envelopes may override any of these per call
// (see envelope.h) — config < request, the outer layer always wins.
#ifndef STRATREC_API_CONFIG_H_
#define STRATREC_API_CONFIG_H_

#include <cstddef>
#include <string>

#include "src/api/availability.h"
#include "src/core/batch_scheduler.h"

namespace stratrec::api {

/// Defaults for the batch path (SubmitBatch and the per-cell solves of
/// RunSweep). `algorithm` and `adpar_solver` are registry names so backends
/// swap without recompiling callers.
struct BatchDefaults {
  std::string algorithm = "batchstrat";
  core::Objective objective = core::Objective::kThroughput;
  core::AggregationMode aggregation = core::AggregationMode::kSum;
  core::WorkforcePolicy policy = core::WorkforcePolicy::kMinimalWorkforce;
  /// Forward unsatisfied requests to the adpar solver (Figure 1's ADPaR leg).
  bool recommend_alternatives = true;
  std::string adpar_solver = "exact";

  bool operator==(const BatchDefaults&) const = default;
};

/// Defaults for stream sessions (OpenStream).
struct StreamDefaults {
  /// Requests that cannot be admitted immediately wait here; 0 disables
  /// queueing (immediate reject).
  size_t max_pending = 64;
  /// Drain the pending queue greedily whenever capacity frees up.
  bool readmit_on_release = true;
  /// Serve an ADPaR alternative for ineligible stream arrivals: the solver
  /// BatchDefaults::recommend_alternatives runs, on a snapshot the session
  /// builds at its quantized W. Off by default, so a session that never
  /// asks never builds the O(|S|) block.
  bool recommend_alternatives = false;

  bool operator==(const StreamDefaults&) const = default;
};

/// Sizing of the service executor (the worker pool every SubmitBatchAsync /
/// RunSweepAsync ticket runs on, and the pool the parallel pipeline stages
/// partition across).
struct ExecutionConfig {
  /// Worker threads of the service pool; 0 means hardware concurrency.
  size_t worker_threads = 0;
  /// Minimum cells per task when the m x |S| pricing (core::PriceRows) is
  /// partitioned across the pool, rounded up to whole 4,096-column units.
  /// A batch of one unit stays single-task (and therefore runs on the
  /// submitting worker without any fan-out overhead).
  /// Sweep cells and per-request ADPaR solves are whole solver runs — far
  /// heavier than a matrix cell — so those always fan out one job per item,
  /// independent of this knob.
  size_t parallel_grain = 4096;

  bool operator==(const ExecutionConfig&) const = default;
};

/// The availability-snapshot cache: per-W derived state (the estimated
/// strategy-parameter block plus ADPaR's orderings/pruning tables, see
/// src/core/catalog_index.h) is computed once per distinct availability and
/// shared by every batch and sweep at that W. The cache is sharded (one
/// mutex per shard) so concurrent lookups at different availabilities do
/// not contend.
struct CacheConfig {
  /// Cached snapshots across all shards; least-recently-used entries are
  /// evicted beyond this. 0 disables caching (every job that needs per-W
  /// state rebuilds it).
  size_t snapshot_capacity = 16;
  /// Independently locked shards (>= 1).
  size_t shards = 4;
  /// When > 0, resolved availabilities are snapped to the nearest multiple
  /// of this step *before the pipeline runs*, so nearby W values share one
  /// snapshot (reports carry the quantized W — a documented precision /
  /// hit-rate trade, off by default).
  double availability_quantum = 0.0;

  bool operator==(const CacheConfig&) const = default;
};

/// Record/replay journal of the service (src/common/journal.h). When
/// enabled, the service appends one line-delimited JSON record per finished
/// batch/sweep job — the (request, outcome) pair in wire-codec form — plus
/// a config and a catalog record at startup, so a trace is self-contained:
/// bench_replay_load can rebuild an identical service from the file alone.
/// Records are encoded on the worker that finished the job and appended
/// under the journal's own short file lock; no service-wide mutex exists,
/// let alone is held, on this path.
struct JournalConfig {
  /// Journal file path; empty (the default) disables recording. The file is
  /// truncated at Service::Create.
  std::string path;
  /// Record tickets withdrawn via Cancel() as pairs with a kCancelled
  /// outcome (replay reports them as skipped — a cancellation race is not
  /// reproducible, the completed work is). The record is appended when a
  /// worker dequeues the withdrawn task, at the latest during the drain on
  /// Service destruction — not at the Cancel() call itself.
  bool record_cancelled = true;
  /// fflush() after every record, so a completed pair is in the trace by
  /// the time its ticket is retrievable. Disable for maximum-rate recording
  /// where losing the tail on a crash is acceptable.
  bool flush_every_record = true;
  /// Segment rotation: when > 0, the writer rolls to `<path>.1`,
  /// `<path>.2`, ... once appending a record would push the current segment
  /// past this many bytes (each segment re-opens with its own header line,
  /// and a record never splits across segments). 0 (the default) keeps the
  /// single unbounded file. wire::ReadTraceFile reads the whole segment
  /// chain back as one trace.
  size_t max_segment_bytes = 0;
  /// Compaction: when > 0 (and segments rotate), once more than this many
  /// closed segments accumulate the writer folds the cold ones into a fresh
  /// base segment — keeping the last config, catalog, and stats records plus
  /// every stream-open record, dropping replayed-out pairs and stream events
  /// (wire::CompactRecords) — and renumbers the survivors. Replay over a
  /// compacted chain skips sessions whose event prefix was folded away.
  /// 0 (the default) never compacts.
  size_t compact_after_segments = 0;
  /// How many of the newest closed segments a compaction leaves untouched
  /// (the hot tail a concurrent reader may be following). Only meaningful
  /// when compact_after_segments > 0.
  size_t retain_segments = 1;

  bool operator==(const JournalConfig&) const = default;
};

/// The one config a platform hands to Service::Create.
struct ServiceConfig {
  BatchDefaults batch;
  StreamDefaults stream;
  ExecutionConfig execution;
  CacheConfig cache;
  JournalConfig journal;
  /// Used whenever a request's availability spec is kDefault.
  AvailabilitySpec availability = AvailabilitySpec::Fixed(0.5);

  bool operator==(const ServiceConfig&) const = default;
};

/// Checks the config against the global registry (algorithm names resolve)
/// and validates the default availability spec. Named specs are allowed here
/// — they resolve per call against the service's registered models.
Status ValidateConfig(const ServiceConfig& config);

}  // namespace stratrec::api

#endif  // STRATREC_API_CONFIG_H_
