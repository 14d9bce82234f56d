// StreamScheduler: the Section-7 dynamic stream setting on the batch
// path's machinery.
//
// The PR-0 core::OnlineScheduler prices every arrival with a serial
// WorkforceMatrix::Compute over per-profile structs — no executor, no
// CatalogIndex, and nothing for an alternative recommendation to read.
// This scheduler is the batch-parity rewrite behind StreamSession:
//
//   * arrivals are priced through the CatalogIndex overload of
//     WorkforceMatrix::Compute, whose 1 x |S| row partitions across the
//     work-stealing executor via ParallelFor (bit-identical cells to the
//     serial fill — the catalog_index property tests pin that);
//   * per-availability derived state is a core::AvailabilitySnapshot
//     fetched from the caller's core::SnapshotSource (a Service passes its
//     snapshot cache, so sessions at one quantized W share one block with
//     each other and with batches and sweeps); the scheduler builds none
//     itself. Arrivals/revocations/completions never touch it (workforce
//     pricing is availability-independent — W is capacity, not a pricing
//     input), an availability change drops it only when the quantized W
//     moves, and the first ineligible arrival after that fetches it again
//     — so a session that never recommends an alternative never asks for
//     the O(|S|) block;
//   * ineligible arrivals (fewer than k feasible strategies) can carry an
//     alternative recommendation (paper Section 4) from the snapshot
//     overload of core::AdparExact — the very solver the batch pipeline's
//     ADPaR leg calls, so a stream alternative equals the batch one at the
//     same quantized W by construction; off by default so existing
//     sessions behave identically;
//   * admission, the bounded pending queue, and the density-order drain
//     ("rolling BatchStrat") keep OnlineScheduler's exact semantics —
//     tests/stream_replay_test.cc locks the two schedulers' decisions
//     together.
//
// Not thread-safe; StreamSession drives it under the session mutex. The
// ParallelFor fan-out inside is safe from there: the executor's callers
// participate, so even a single-threaded pool cannot deadlock.
#ifndef STRATREC_STREAM_STREAM_SCHEDULER_H_
#define STRATREC_STREAM_STREAM_SCHEDULER_H_

#include <deque>
#include <memory>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/common/executor.h"
#include "src/core/adpar.h"
#include "src/core/catalog_index.h"
#include "src/core/online.h"
#include "src/core/workforce.h"

namespace stratrec::stream {

/// Configuration of one scheduler (the Service flattens its StreamDefaults
/// plus the per-session StreamOptions overrides into this).
struct StreamSchedulerOptions {
  core::Objective objective = core::Objective::kThroughput;
  core::AggregationMode aggregation = core::AggregationMode::kSum;
  core::WorkforcePolicy policy = core::WorkforcePolicy::kMinimalWorkforce;
  /// Requests that cannot be admitted immediately wait here; 0 disables
  /// queueing (immediate reject).
  size_t max_pending = 64;
  /// Drain the pending queue greedily whenever capacity frees up.
  bool readmit_on_release = true;
  /// Serve an ADPaR alternative for ineligible arrivals (off by default:
  /// sessions opened without asking behave exactly like the PR-0 path).
  bool recommend_alternatives = false;
  /// Availability grid of the snapshot (matches ServiceConfig::cache).
  double availability_quantum = 0.0;
  /// ParallelFor grain of the pricing row.
  size_t parallel_grain = 4096;
};

/// What one arrival produced: the admission decision, plus an alternative
/// recommendation when the request was ineligible and the scheduler was
/// asked for one.
struct ArrivalOutcome {
  core::AdmissionDecision decision;
  bool has_alternative = false;
  core::AdparResult alternative;
};

class StreamScheduler {
 public:
  /// `index` and `executor` must outlive the scheduler (the Service owns
  /// both), and so must whatever `snapshots` refers to. `snapshots` serves
  /// the snapshot at the quantized W for ADPaR alternatives, over the same
  /// catalog as `index`; it may be empty when alternatives are off. Fails
  /// on an empty catalog, an out-of-range availability, or alternatives
  /// without a source.
  static Result<StreamScheduler> Create(const core::CatalogIndex* index,
                                        Executor* executor,
                                        core::SnapshotSource snapshots,
                                        double availability,
                                        StreamSchedulerOptions options = {});

  /// Handles one arriving request. Request ids must be unique among active
  /// (admitted or queued) requests.
  Result<ArrivalOutcome> OnArrival(const core::DeploymentRequest& request);

  /// Revokes an active or queued request, freeing its capacity. Fails with
  /// kNotFound for unknown ids.
  Status OnRevocation(const std::string& request_id);

  /// Marks an admitted request as finished (its workers are released).
  Status OnCompletion(const std::string& request_id);

  /// Adjusts the workforce capacity. Existing admissions are honored even
  /// if the new capacity is lower; only future admissions see the change.
  Status SetAvailability(double availability);

  double availability() const { return availability_; }
  double used_workforce() const { return used_; }
  double RemainingCapacity() const;
  size_t active() const { return active_.size(); }
  size_t pending() const { return pending_.size(); }
  const core::OnlineStats& stats() const { return stats_; }

  /// Pending requests re-admitted by density-order drains (each one a
  /// rescheduling of earlier-deferred work).
  size_t reschedules() const { return reschedules_; }
  /// Events that left the quantized W in place: arrivals, revocations,
  /// completions, and availability changes within one grid cell.
  size_t snapshot_delta_updates() const { return delta_updates_; }
  /// Availability changes that moved the quantized W, dropping the
  /// snapshot for the next ineligible arrival to fetch again.
  size_t snapshot_rebuilds() const { return rebuilds_; }

 private:
  /// A priced request, whether serving (active map) or waiting (pending
  /// queue): the admission bookkeeping is identical in both states.
  struct Entry {
    core::DeploymentRequest request;
    double workforce = 0.0;
    double value = 0.0;
  };

  StreamScheduler(const core::CatalogIndex* index, Executor* executor,
                  core::SnapshotSource snapshots, double availability,
                  StreamSchedulerOptions options)
      : index_(index),
        executor_(executor),
        snapshots_(std::move(snapshots)),
        options_(options),
        availability_(availability),
        quantized_w_(core::QuantizeAvailability(
            availability, options.availability_quantum)) {}

  /// Prices a request: aggregated workforce + chosen strategies. The
  /// 1 x |S| workforce row partitions across the executor.
  Result<std::pair<double, std::vector<size_t>>> Price(
      const core::DeploymentRequest& request) const;

  double Value(const core::DeploymentRequest& request) const;
  void Admit(const core::DeploymentRequest& request, double workforce,
             double value);
  void DrainPending();
  void NoteUtilization();

  const core::CatalogIndex* index_;
  Executor* executor_;
  core::SnapshotSource snapshots_;
  StreamSchedulerOptions options_;
  double availability_ = 0.0;
  /// availability_ snapped onto the options' grid; the snapshot's W.
  double quantized_w_ = 0.0;
  /// Fetched at quantized_w_ by the first ineligible arrival that wants an
  /// alternative; null until then and after every move of quantized_w_.
  std::shared_ptr<const core::AvailabilitySnapshot> snapshot_;
  size_t delta_updates_ = 0;
  size_t rebuilds_ = 0;
  double used_ = 0.0;
  std::unordered_map<std::string, Entry> active_;
  std::deque<Entry> pending_;
  core::OnlineStats stats_;
  size_t reschedules_ = 0;
};

}  // namespace stratrec::stream

#endif  // STRATREC_STREAM_STREAM_SCHEDULER_H_
