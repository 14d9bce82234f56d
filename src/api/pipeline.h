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

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

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

/// Sharded LRU of availability snapshots (core::AvailabilitySnapshot),
/// keyed on the bit pattern of the (already quantized) availability. Every
/// ADPaR leg at one W — batch alternatives, sweeps and stream sessions —
/// shares a single snapshot through ServiceState::SnapshotFor, so the
/// O(|S|) parameter estimation and ADPaR's sorts/pruning tables are paid
/// once per distinct availability instead of once per job or session.
/// Builds happen outside the shard lock; a racing duplicate build keeps the
/// first inserted entry so callers converge on one shared block.
class SnapshotCache {
 public:
  /// Shard count is clamped to the capacity so floor division keeps the
  /// total resident snapshots <= snapshot_capacity (a snapshot at |S|=1M
  /// is tens of MB; the bound is the point of the knob).
  explicit SnapshotCache(const CacheConfig& config)
      : capacity_(config.snapshot_capacity),
        shards_(std::max<size_t>(
            size_t{1},
            std::min(config.shards, std::max<size_t>(size_t{1}, capacity_)))) {
    per_shard_capacity_ = std::max<size_t>(1, capacity_ / shards_.size());
  }

  bool enabled() const { return capacity_ > 0; }

  /// The cached snapshot for `w`, or null on a miss (the caller builds and
  /// offers it back via Insert).
  std::shared_ptr<const core::AvailabilitySnapshot> Find(double w) {
    if (!enabled()) return nullptr;
    Shard& shard = ShardFor(w);
    const uint64_t key = KeyFor(w);
    std::lock_guard<std::mutex> lock(shard.mutex);
    auto it = shard.entries.find(key);
    if (it == shard.entries.end()) return nullptr;
    // Move to the LRU front.
    shard.lru.splice(shard.lru.begin(), shard.lru, it->second.position);
    return it->second.snapshot;
  }

  /// Offers a freshly built snapshot; returns the canonical entry (the
  /// existing one if another worker won the race).
  std::shared_ptr<const core::AvailabilitySnapshot> Insert(
      double w, std::shared_ptr<const core::AvailabilitySnapshot> snapshot) {
    if (!enabled()) return snapshot;
    Shard& shard = ShardFor(w);
    const uint64_t key = KeyFor(w);
    std::lock_guard<std::mutex> lock(shard.mutex);
    auto it = shard.entries.find(key);
    if (it != shard.entries.end()) {
      shard.lru.splice(shard.lru.begin(), shard.lru, it->second.position);
      return it->second.snapshot;
    }
    shard.lru.push_front(key);
    shard.entries.emplace(key,
                          Entry{std::move(snapshot), shard.lru.begin()});
    while (shard.entries.size() > per_shard_capacity_) {
      shard.entries.erase(shard.lru.back());
      shard.lru.pop_back();
    }
    return shard.entries.find(key)->second.snapshot;
  }

 private:
  struct Entry {
    std::shared_ptr<const core::AvailabilitySnapshot> snapshot;
    std::list<uint64_t>::iterator position;
  };
  struct alignas(64) Shard {
    std::mutex mutex;
    std::list<uint64_t> lru;  ///< most-recent first
    std::unordered_map<uint64_t, Entry> entries;
  };

  static uint64_t KeyFor(double w) {
    uint64_t bits;
    static_assert(sizeof(bits) == sizeof(w));
    std::memcpy(&bits, &w, sizeof(bits));
    return bits;
  }

  Shard& ShardFor(double w) {
    // splitmix64 finalizer: the exponent-heavy double bits spread poorly
    // by themselves.
    uint64_t x = KeyFor(w);
    x ^= x >> 30;
    x *= 0xBF58476D1CE4E5B9ull;
    x ^= x >> 27;
    x *= 0x94D049BB133111EBull;
    x ^= x >> 31;
    return shards_[x % shards_.size()];
  }

  size_t capacity_;
  size_t per_shard_capacity_;
  std::vector<Shard> shards_;
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
  /// a cache hit, or a build (outside any shard lock, on `executor`, whose
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
