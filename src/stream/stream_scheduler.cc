#include "src/stream/stream_scheduler.h"

#include <algorithm>
#include <limits>

#include "src/common/float_compare.h"

namespace stratrec::stream {

Result<StreamScheduler> StreamScheduler::Create(
    const core::CatalogIndex* index, Executor* executor,
    core::SnapshotSource snapshots, double availability,
    StreamSchedulerOptions options) {
  if (index == nullptr || index->empty()) {
    return Status::InvalidArgument("scheduler needs at least one strategy");
  }
  if (!InUnitInterval(availability)) {
    return Status::InvalidArgument("availability must lie in [0, 1]");
  }
  if (options.recommend_alternatives && !snapshots) {
    return Status::InvalidArgument("alternatives need a snapshot source");
  }
  return StreamScheduler(index, executor, std::move(snapshots), availability,
                         options);
}

Result<std::pair<double, std::vector<size_t>>> StreamScheduler::Price(
    const core::DeploymentRequest& request) const {
  STRATREC_RETURN_NOT_OK(core::ValidateRequest(request));
  // The CatalogIndex overload streams the SoA coefficient arrays and
  // partitions the row across the pool — same cells as the serial
  // per-profile fill, computed in parallel.
  const core::WorkforceMatrix matrix = core::WorkforceMatrix::Compute(
      {request}, *index_, options_.policy, executor_, options_.parallel_grain);
  auto requirement =
      matrix.AggregateRequirement(0, request.k, options_.aggregation);
  if (!requirement.ok()) return requirement.status();
  auto strategies = matrix.KBestStrategies(0, request.k);
  if (!strategies.ok()) return strategies.status();
  return std::make_pair(*requirement, std::move(*strategies));
}

double StreamScheduler::Value(const core::DeploymentRequest& request) const {
  return options_.objective == core::Objective::kThroughput ? 1.0
                                                            : request.Payoff();
}

void StreamScheduler::Admit(const core::DeploymentRequest& request,
                            double workforce, double value) {
  used_ += workforce;
  active_.emplace(request.id, Entry{request, workforce, value});
  stats_.admitted += 1;
  stats_.objective += value;
  NoteUtilization();
}

void StreamScheduler::NoteUtilization() {
  if (availability_ <= 0.0) return;
  stats_.peak_utilization =
      std::max(stats_.peak_utilization, used_ / availability_);
}

Result<ArrivalOutcome> StreamScheduler::OnArrival(
    const core::DeploymentRequest& request) {
  stats_.arrivals += 1;
  if (active_.count(request.id) > 0) {
    return Status::InvalidArgument("duplicate active request id: " +
                                   request.id);
  }
  ++delta_updates_;
  ArrivalOutcome outcome;
  auto priced = Price(request);
  if (!priced.ok()) {
    stats_.rejected += 1;
    outcome.decision.kind = core::AdmissionDecision::Kind::kRejected;
    // The batch pipeline's ADPaR leg, on the snapshot the source serves at
    // the session's quantized W: an ineligible request gets the closest
    // satisfiable parameters. A failed solve (k > |S|) leaves the plain
    // rejection — same containment as batch adpar_failures.
    if (options_.recommend_alternatives &&
        priced.status().code() == StatusCode::kInfeasible) {
      if (snapshot_ == nullptr) snapshot_ = snapshots_(quantized_w_);
      auto alternative =
          core::AdparExact(*snapshot_, request.thresholds, request.k);
      if (alternative.ok()) {
        outcome.has_alternative = true;
        outcome.alternative = std::move(*alternative);
      }
    }
    return outcome;
  }
  const double workforce = priced->first;
  if (ApproxLe(used_ + workforce, availability_)) {
    const double value = Value(request);
    Admit(request, workforce, value);
    outcome.decision.kind = core::AdmissionDecision::Kind::kAdmitted;
    outcome.decision.strategies = std::move(priced->second);
    outcome.decision.workforce = workforce;
    return outcome;
  }
  if (pending_.size() < options_.max_pending) {
    pending_.push_back(Entry{request, workforce, Value(request)});
    stats_.queued += 1;
    outcome.decision.kind = core::AdmissionDecision::Kind::kQueued;
    outcome.decision.workforce = workforce;
    return outcome;
  }
  stats_.rejected += 1;
  outcome.decision.kind = core::AdmissionDecision::Kind::kRejected;
  return outcome;
}

void StreamScheduler::DrainPending() {
  if (!options_.readmit_on_release || pending_.empty()) return;
  // Rolling BatchStrat: re-admit pending requests in density order while
  // they fit the freed capacity. Prices were computed at arrival and stay
  // valid — workforce requirements are availability-independent (W is
  // capacity, not a pricing input).
  std::vector<Entry> entries(pending_.begin(), pending_.end());
  pending_.clear();
  std::stable_sort(
      entries.begin(), entries.end(), [](const Entry& a, const Entry& b) {
        const double da = a.workforce > 0
                              ? a.value / a.workforce
                              : std::numeric_limits<double>::infinity();
        const double db = b.workforce > 0
                              ? b.value / b.workforce
                              : std::numeric_limits<double>::infinity();
        return da > db;
      });
  for (auto& entry : entries) {
    if (active_.count(entry.request.id) == 0 &&
        ApproxLe(used_ + entry.workforce, availability_)) {
      Admit(entry.request, entry.workforce, entry.value);
      reschedules_ += 1;
    } else {
      pending_.push_back(std::move(entry));
    }
  }
}

Status StreamScheduler::OnRevocation(const std::string& request_id) {
  auto it = active_.find(request_id);
  if (it != active_.end()) {
    ++delta_updates_;
    used_ -= it->second.workforce;
    stats_.objective -= it->second.value;
    stats_.revoked += 1;
    active_.erase(it);
    DrainPending();
    return Status::OK();
  }
  for (auto pending_it = pending_.begin(); pending_it != pending_.end();
       ++pending_it) {
    if (pending_it->request.id == request_id) {
      ++delta_updates_;
      pending_.erase(pending_it);
      stats_.revoked += 1;
      return Status::OK();
    }
  }
  return Status::NotFound("unknown request id: " + request_id);
}

Status StreamScheduler::OnCompletion(const std::string& request_id) {
  auto it = active_.find(request_id);
  if (it == active_.end()) {
    return Status::NotFound("request not active: " + request_id);
  }
  ++delta_updates_;
  used_ -= it->second.workforce;
  stats_.completed += 1;
  active_.erase(it);
  DrainPending();
  return Status::OK();
}

Status StreamScheduler::SetAvailability(double availability) {
  if (!InUnitInterval(availability)) {
    return Status::InvalidArgument("availability must lie in [0, 1]");
  }
  availability_ = availability;
  const double quantized =
      core::QuantizeAvailability(availability, options_.availability_quantum);
  if (quantized == quantized_w_) {
    ++delta_updates_;
  } else {
    quantized_w_ = quantized;
    snapshot_ = nullptr;
    ++rebuilds_;
  }
  NoteUtilization();
  if (availability_ > used_) DrainPending();
  return Status::OK();
}

double StreamScheduler::RemainingCapacity() const {
  return std::max(0.0, availability_ - used_);
}

}  // namespace stratrec::stream
