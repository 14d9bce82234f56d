// The one runtime behind both public handles, api::Service and
// router::ShardRouter: the catalog and its index, the snapshot cache, the
// id sequence, the named models, the striped counters, the journal tap and
// the worker pool, plus the one ticket protocol (SubmitJob) and the one
// stats fold (Stats) both handles call. SubmitJob runs the batch and sweep
// bodies in pipeline.cc, which look every registry name up the same way.
// The only per-tier input is how a batch's rows are priced: a Service
// prices on its own index, and a router installs its sharded pricer
// (src/router/shard_router.h), which every solver that prices through
// core::SolveBatch or SolveBatchWeighted runs with. One copy, so a
// router's reports, failure outcomes and counters are an unsharded
// Service's by construction.
#ifndef STRATREC_API_PIPELINE_H_
#define STRATREC_API_PIPELINE_H_

#include <cstdint>
#include <cstring>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>

#include "src/api/config.h"
#include "src/api/envelope.h"
#include "src/api/lifecycle.h"
#include "src/api/ticket.h"
#include "src/common/executor.h"
#include "src/core/catalog_index.h"
#include "src/core/stratrec.h"

namespace stratrec {
class JournalWriter;
}  // namespace stratrec

namespace stratrec::api::internal {

/// LRU of availability snapshots (core::AvailabilitySnapshot), keyed on the
/// bit pattern of the (already quantized) availability and bounded by
/// CacheConfig::snapshot_capacity. Every ADPaR leg at one W — batch
/// alternatives, sweeps and stream sessions — shares a single snapshot
/// through ServiceState::SnapshotFor, so the O(|S|) parameter estimation and
/// ADPaR's sorts/pruning tables are paid once per distinct availability
/// instead of once per job or session. A job looks the cache up at most
/// once, so the one lock covers a hash probe and a list splice; builds
/// happen outside it, and a racing duplicate build keeps the first inserted
/// entry so callers converge on one shared block.
class SnapshotCache {
 public:
  explicit SnapshotCache(const CacheConfig& config)
      : capacity_(config.snapshot_capacity) {}

  bool enabled() const { return capacity_ > 0; }

  /// The cached snapshot for `w`, or null on a miss (the caller builds and
  /// offers it back via Insert).
  std::shared_ptr<const core::AvailabilitySnapshot> Find(double w) {
    if (!enabled()) return nullptr;
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = entries_.find(KeyFor(w));
    if (it == entries_.end()) return nullptr;
    lru_.splice(lru_.begin(), lru_, it->second.position);
    return it->second.snapshot;
  }

  /// Offers a freshly built snapshot; returns the canonical entry (the
  /// existing one if another worker won the race).
  std::shared_ptr<const core::AvailabilitySnapshot> Insert(
      double w, std::shared_ptr<const core::AvailabilitySnapshot> snapshot) {
    if (!enabled()) return snapshot;
    const uint64_t key = KeyFor(w);
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = entries_.find(key);
    if (it != entries_.end()) {
      lru_.splice(lru_.begin(), lru_, it->second.position);
      return it->second.snapshot;
    }
    lru_.push_front(key);
    it = entries_.emplace(key, Entry{std::move(snapshot), lru_.begin()}).first;
    // One insert overflows by at most one; the back is never the new entry
    // because the capacity is >= 1 here.
    if (entries_.size() > capacity_) {
      entries_.erase(lru_.back());
      lru_.pop_back();
    }
    return it->second.snapshot;
  }

 private:
  struct Entry {
    std::shared_ptr<const core::AvailabilitySnapshot> snapshot;
    std::list<uint64_t>::iterator position;
  };

  static uint64_t KeyFor(double w) {
    uint64_t bits;
    static_assert(sizeof(bits) == sizeof(w));
    std::memcpy(&bits, &w, sizeof(bits));
    return bits;
  }

  const size_t capacity_;
  std::mutex mutex_;
  std::list<uint64_t> lru_;  ///< most-recent first; guarded by mutex_
  std::unordered_map<uint64_t, Entry> entries_;  ///< guarded by mutex_
};

/// The runtime. Member order is the teardown contract, since members are
/// destroyed in reverse:
///   - `executor` goes first, and its drain runs still-queued tickets while
///     the journal and `pricer` (a router's replica pools) are alive;
///   - `pricer` goes next, and a router's replica pools drain abandoned
///     hedge scans while the index inside `stratrec` is alive.
struct ServiceState {
  ServiceConfig config;
  /// The whole catalog, its index and the Figure-1 pipeline.
  /// ProcessBatchAtAvailability is const and therefore safe under
  /// concurrent jobs without locking.
  core::StratRec stratrec;

  IdSequence ids;
  ModelTable models;
  StripedStats stats;
  /// Availability-keyed snapshot cache (ServiceConfig::cache); read only
  /// through SnapshotFor.
  SnapshotCache snapshots;
  /// Record/replay tap; null when JournalConfig::path is empty, and always
  /// on a router. Workers encode their own records and append under the
  /// writer's short file lock.
  std::shared_ptr<JournalWriter> journal;
  /// How every batch prices its rows (core::BatchOptions::pricer). Empty
  /// prices on the index inside `stratrec` (a Service); a router installs
  /// its sharded pricer, which owns the replica pools.
  core::RowPricerFn pricer;
  /// The pool every ticket runs on; the pricing, the ADPaR fan-out and the
  /// sweep cells partition across it.
  Executor executor;

  /// Spins up the pool and builds the catalog's index across it, so every
  /// hot loop rides the index from the first job.
  ServiceState(ServiceConfig config_in, core::StratRec stratrec_in,
               std::shared_ptr<JournalWriter> journal_in);

  /// Enqueues one envelope job on `executor`. The ticket id is the
  /// request's own id, or a minted "batch-"/"sweep-" one. The job runs, in
  /// order: the claim (a ticket Cancel() won counts in `cancelled`), the
  /// dequeue-time deadline (`deadline_exceeded`), the guarded batch or
  /// sweep body, and the journal tap before Finish wakes the waiter.
  Ticket<BatchReport> SubmitJob(BatchRequest request);
  Ticket<SweepReport> SubmitJob(SweepRequest request);

  /// The shared per-W snapshot, the runtime's one core::SnapshotSource:
  /// a cache hit, or a build (outside the cache lock, on `executor`, whose
  /// callers participate) and insert. Counts cache_hits / cache_misses.
  /// Batches, sweeps and stream sessions call it only when ADPaR runs.
  std::shared_ptr<const core::AvailabilitySnapshot> SnapshotFor(double w);

  /// The striped counters plus this pool's gauges, the index build time and
  /// the kernel dispatch level.
  ServiceStats Stats() const;

  Result<double> Resolve(const AvailabilitySpec& spec) const {
    return models.Resolve(spec, config.availability);
  }

  /// Appends one already-encoded record, demoting I/O failures to an error
  /// log: a full disk must not fail the request whose work succeeded.
  void Record(const std::string& line) const;
};

}  // namespace stratrec::api::internal

#endif  // STRATREC_API_PIPELINE_H_
