#include "src/core/online.h"

#include <algorithm>

#include "src/common/float_compare.h"

namespace stratrec::core {

Result<OnlineScheduler> OnlineScheduler::Create(
    std::vector<StrategyProfile> profiles, double availability,
    OnlineOptions options) {
  if (profiles.empty()) {
    return Status::InvalidArgument("scheduler needs at least one strategy");
  }
  if (!InUnitInterval(availability)) {
    return Status::InvalidArgument("availability must lie in [0, 1]");
  }
  return OnlineScheduler(std::move(profiles), availability,
                         std::move(options));
}

Result<std::pair<double, std::vector<size_t>>> OnlineScheduler::Price(
    const DeploymentRequest& request) const {
  STRATREC_RETURN_NOT_OK(ValidateRequest(request));
  const WorkforceMatrix matrix =
      WorkforceMatrix::Compute({request}, profiles_, options_.batch.policy);
  auto requirement =
      matrix.AggregateRequirement(0, request.k, options_.batch.aggregation);
  if (!requirement.ok()) return requirement.status();
  auto strategies = matrix.KBestStrategies(0, request.k);
  if (!strategies.ok()) return strategies.status();
  return std::make_pair(*requirement, std::move(*strategies));
}

double OnlineScheduler::Value(const DeploymentRequest& request) const {
  return options_.batch.objective == Objective::kThroughput ? 1.0
                                                            : request.Payoff();
}

void OnlineScheduler::Admit(const DeploymentRequest& request, double workforce,
                            double value) {
  used_ += workforce;
  active_.emplace(request.id, Entry{request, workforce, value});
  stats_.admitted += 1;
  stats_.objective += value;
  NoteUtilization();
}

void OnlineScheduler::NoteUtilization() {
  if (availability_ <= 0.0) return;
  stats_.peak_utilization =
      std::max(stats_.peak_utilization, used_ / availability_);
}

Result<AdmissionDecision> OnlineScheduler::OnArrival(
    const DeploymentRequest& request) {
  stats_.arrivals += 1;
  if (active_.count(request.id) > 0) {
    return Status::InvalidArgument("duplicate active request id: " +
                                   request.id);
  }
  auto priced = Price(request);
  AdmissionDecision decision;
  if (!priced.ok()) {
    stats_.rejected += 1;
    decision.kind = AdmissionDecision::Kind::kRejected;
    return decision;
  }
  const double workforce = priced->first;
  if (ApproxLe(used_ + workforce, availability_)) {
    const double value = Value(request);
    Admit(request, workforce, value);
    decision.kind = AdmissionDecision::Kind::kAdmitted;
    decision.strategies = std::move(priced->second);
    decision.workforce = workforce;
    return decision;
  }
  if (pending_.size() < options_.max_pending) {
    pending_.push_back(Entry{request, workforce, Value(request)});
    stats_.queued += 1;
    decision.kind = AdmissionDecision::Kind::kQueued;
    decision.workforce = workforce;
    return decision;
  }
  stats_.rejected += 1;
  decision.kind = AdmissionDecision::Kind::kRejected;
  return decision;
}

void OnlineScheduler::DrainPending() {
  if (!options_.readmit_on_release || pending_.empty()) return;
  // Rolling BatchStrat: re-admit pending requests in density order while
  // they fit the freed capacity.
  std::vector<Entry> entries(pending_.begin(), pending_.end());
  pending_.clear();
  std::stable_sort(entries.begin(), entries.end(),
                   [](const Entry& a, const Entry& b) {
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
    } else {
      pending_.push_back(std::move(entry));
    }
  }
}

Status OnlineScheduler::OnRevocation(const std::string& request_id) {
  auto it = active_.find(request_id);
  if (it != active_.end()) {
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
      pending_.erase(pending_it);
      stats_.revoked += 1;
      return Status::OK();
    }
  }
  return Status::NotFound("unknown request id: " + request_id);
}

Status OnlineScheduler::OnCompletion(const std::string& request_id) {
  auto it = active_.find(request_id);
  if (it == active_.end()) {
    return Status::NotFound("request not active: " + request_id);
  }
  used_ -= it->second.workforce;
  stats_.completed += 1;
  active_.erase(it);
  DrainPending();
  return Status::OK();
}

Status OnlineScheduler::SetAvailability(double availability) {
  if (!InUnitInterval(availability)) {
    return Status::InvalidArgument("availability must lie in [0, 1]");
  }
  availability_ = availability;
  NoteUtilization();
  if (availability_ > used_) DrainPending();
  return Status::OK();
}

double OnlineScheduler::RemainingCapacity() const {
  return std::max(0.0, availability_ - used_);
}

}  // namespace stratrec::core
