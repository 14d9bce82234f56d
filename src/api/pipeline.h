// The batch and sweep bodies shared by the two tiers that run envelope jobs,
// api::Service and router::ShardRouter, plus the availability-snapshot cache
// they read. One copy, so a router's reports are an unsharded Service's by
// construction: the only per-tier input is the solver a built-in batch
// algorithm runs with (the router's folds shard rows; see
// src/router/shard_router.h).
#ifndef STRATREC_API_PIPELINE_H_
#define STRATREC_API_PIPELINE_H_

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <functional>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/api/config.h"
#include "src/api/envelope.h"
#include "src/api/lifecycle.h"
#include "src/core/catalog_index.h"
#include "src/core/stratrec.h"

namespace stratrec::api::internal {

/// Sharded LRU of availability snapshots (core::AvailabilitySnapshot),
/// keyed on the bit pattern of the (already quantized) availability. Every
/// batch and sweep at one W shares a single snapshot, so the O(|S|)
/// parameter estimation — and ADPaR's sorts/pruning tables — are paid once
/// per distinct availability instead of once per job. Builds happen
/// outside the shard lock; a racing duplicate build keeps the first
/// inserted entry so callers converge on one shared block.
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

/// What the batch and sweep bodies read from the tier running them. Each
/// tier builds one per job over its own state, which outlives the job.
struct Pipeline {
  const ServiceConfig& config;
  /// The whole catalog: its aggregator and index.
  const core::StratRec& stratrec;
  const ModelTable& models;
  SnapshotCache& snapshots;
  StripedStats& stats;
  /// The pool the job runs on; the workforce fill, the ADPaR fan-out and
  /// the sweep cells partition across it.
  Executor& executor;
  /// The solver a built-in batch algorithm ("batchstrat", "baseline-g",
  /// "brute-force") runs with. Null keeps the registry entry (a Service);
  /// the router supplies its sharded row fold.
  std::function<core::BatchSolverFn(core::BatchAlgorithm)> builtin_solver;
};

/// The Figure-1 batch pipeline, run on a pool worker: registry lookups,
/// availability resolution and grid snapping, the batch solve, and ADPaR
/// alternatives over the cached snapshot at W.
Result<BatchReport> ExecuteBatch(const Pipeline& pipeline,
                                 const BatchRequest& request,
                                 const std::string& id);

/// The sweep, run on a pool worker: every target x every named ADPaR
/// backend over the cached snapshot at W, the cells fanned out across the
/// pool, each writing its own pre-sized slot.
Result<SweepReport> ExecuteSweep(const Pipeline& pipeline,
                                 const SweepRequest& request,
                                 const std::string& id);

}  // namespace stratrec::api::internal

#endif  // STRATREC_API_PIPELINE_H_
