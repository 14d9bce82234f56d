// Incrementally maintained per-availability state for stream sessions.
//
// The batch path computes its per-W derived state (the estimated-params
// block plus ADPaR's orderings and skyline prefilter) once per distinct
// availability and shares it through the Service's snapshot cache. A stream
// session cannot ride that cache alone: its availability drifts event by
// event, and rebuilding the O(|S|) block per event would put the Section-7
// dynamic setting right back on the PR-0 cost model.
//
// IncrementalSnapshot keeps one mutable copy of that state and advances it
// with the session:
//
//   * arrivals / revocations / completions never touch the block (workforce
//     pricing is availability-independent — W is capacity, not a pricing
//     input), so those events are absorbed in O(1) and counted as delta
//     updates;
//   * an availability change invalidates the block only when the
//     *quantized* W actually moves (the same grid the Service's cache keys
//     on) — counted as a rebuild;
//   * the params block and the ADPaR orderings are both lazy: only the
//     alternative-recommendation leg reads them, so they are re-estimated
//     (reusing the existing buffers, the fill partitioned across the
//     work-stealing executor via ParallelFor) and re-sorted (the existing
//     permutation, in place) on the first ADPaR solve after a move. A
//     session that never recommends an alternative never holds the O(|S|)
//     block at all. core::BuildAdparOrderings is a
//     total order with index tiebreaks, so the re-sort is bit-identical to
//     a fresh CatalogIndex::BuildSnapshot at the same W — the equivalence
//     tests/stream_replay_test.cc property-checks after arbitrary event
//     interleavings.
//
// Not thread-safe: a session drives its snapshot under the session mutex.
#ifndef STRATREC_STREAM_INCREMENTAL_SNAPSHOT_H_
#define STRATREC_STREAM_INCREMENTAL_SNAPSHOT_H_

#include <cstddef>
#include <vector>

#include "src/common/executor.h"
#include "src/core/catalog_index.h"

namespace stratrec::stream {

class IncrementalSnapshot {
 public:
  /// `index` must outlive the snapshot (the Service owns it). A quantum of
  /// 0 disables quantization: every availability change that moves W at all
  /// re-estimates the block.
  IncrementalSnapshot(const core::CatalogIndex* index, Executor* executor,
                      double initial_availability, double quantum = 0.0,
                      size_t grain = 4096);

  /// The quantized availability the params block is estimated at.
  double quantized_availability() const { return quantized_w_; }

  /// Advances to a new availability. Returns true when the quantized W
  /// moved (the params block and orderings go stale, counted as a
  /// rebuild); false when the change was absorbed without touching the
  /// block (counted as a delta update).
  bool Advance(double availability);

  /// Notes one event that needed no block maintenance at all (arrival,
  /// revocation, completion): pure accounting, O(1).
  void NoteAbsorbedEvent() { ++delta_updates_; }

  /// The estimated-params block at quantized_availability(), index-aligned
  /// with the catalog, re-estimated on first use after a move.
  /// Bit-identical to
  /// CatalogIndex::BuildSnapshot(quantized_availability())->params().
  const std::vector<core::ParamVector>& params();

  /// The ADPaR orderings at quantized_availability(), re-sorted lazily
  /// after a rebuild. Bit-identical to the corresponding
  /// AvailabilitySnapshot::orderings().
  const core::AdparOrderings& orderings();

  /// Events absorbed without re-estimating the block (plus availability
  /// changes whose quantized W did not move).
  size_t delta_updates() const { return delta_updates_; }
  /// Availability changes that moved the quantized W, leaving the block to
  /// be re-estimated in place on its next use.
  size_t rebuilds() const { return rebuilds_; }

 private:
  const core::CatalogIndex* index_;
  Executor* executor_;
  double quantum_;
  size_t grain_;

  double quantized_w_ = 0.0;
  std::vector<core::ParamVector> params_;
  bool params_dirty_ = true;
  core::AdparOrderings orderings_;
  bool orderings_dirty_ = true;

  size_t delta_updates_ = 0;
  size_t rebuilds_ = 0;
};

}  // namespace stratrec::stream

#endif  // STRATREC_STREAM_INCREMENTAL_SNAPSHOT_H_
