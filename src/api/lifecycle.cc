#include "src/api/lifecycle.h"

#include <cstdio>
#include <mutex>
#include <utility>

#include "src/common/executor.h"

namespace stratrec::api::internal {

bool DeadlineExpired(double deadline_ms,
                     std::chrono::steady_clock::time_point submitted) {
  if (deadline_ms <= 0.0) return false;
  const double elapsed_ms = std::chrono::duration<double, std::milli>(
                                std::chrono::steady_clock::now() - submitted)
                                .count();
  return elapsed_ms > deadline_ms;
}

Status ExpiredStatus(const std::string& id) {
  return Status::DeadlineExceeded("ticket " + id +
                                  " deadline expired before execution");
}

std::string IdSequence::Next(const char* prefix) {
  const uint64_t id = next_.fetch_add(1, std::memory_order_relaxed);
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "%s-%06llu", prefix,
                static_cast<unsigned long long>(id));
  return buffer;
}

Status ModelTable::Register(std::string name, core::AvailabilityModel model) {
  if (name.empty()) {
    return Status::InvalidArgument("availability model name is empty");
  }
  std::unique_lock<std::shared_mutex> lock(mutex_);
  if (!models_.emplace(std::move(name), std::move(model)).second) {
    return Status::FailedPrecondition(
        "availability model name is already registered");
  }
  return Status::OK();
}

Result<double> ModelTable::Resolve(const AvailabilitySpec& spec,
                                   const AvailabilitySpec& configured) const {
  std::shared_lock<std::shared_mutex> lock(mutex_);
  double fallback = 0.5;
  if (configured.kind != AvailabilitySpec::Kind::kDefault &&
      spec.kind == AvailabilitySpec::Kind::kDefault) {
    auto resolved = ResolveAvailability(configured, models_, 0.5);
    if (!resolved.ok()) return resolved.status();
    fallback = *resolved;
  }
  return ResolveAvailability(spec, models_, fallback);
}

ServiceStats StripedStats::Snapshot() const {
  ServiceStats out;
  for (const Stripe& stripe : stripes_) {
    for (size_t i = 0; i < kCounters; ++i) {
      out.*kStatsCounters[i].member +=
          stripe.counters[i].load(std::memory_order_relaxed);
    }
  }
  return out;
}

void AddExecutorGauges(const Executor& executor, ServiceStats* stats) {
  stats->queue_depth += executor.QueueDepth();
  stats->active_workers += executor.ActiveWorkers();
  stats->steals += static_cast<size_t>(executor.StealCount());
  stats->local_hits += static_cast<size_t>(executor.LocalHitCount());
}

}  // namespace stratrec::api::internal
