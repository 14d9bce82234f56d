// Request-lifecycle helpers of the one runtime both public handles wrap
// (api::internal::ServiceState in src/api/pipeline.h, behind api::Service
// and router::ShardRouter): id minting, named-model availability
// resolution, the dequeue-time deadline check, the job exception guard,
// and the striped lifetime counters behind stats().
#ifndef STRATREC_API_LIFECYCLE_H_
#define STRATREC_API_LIFECYCLE_H_

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <exception>
#include <iterator>
#include <shared_mutex>
#include <string>
#include <unordered_map>

#include "src/api/availability.h"
#include "src/api/envelope.h"
#include "src/common/status.h"

namespace stratrec {
class Executor;
}  // namespace stratrec

namespace stratrec::api::internal {

/// Whether a request's relative deadline_ms budget ran out between
/// submission and the moment a worker claimed its ticket. 0 = no deadline.
bool DeadlineExpired(double deadline_ms,
                     std::chrono::steady_clock::time_point submitted);

/// The deterministic outcome of an expired ticket (no elapsed time in the
/// message, so journaled outcomes replay byte-identically).
Status ExpiredStatus(const std::string& id);

/// Runs one job body, converting an escaping exception (a throwing
/// user-registered solver, std::bad_alloc mid-pipeline) into a kInternal
/// ticket outcome; on a pool worker it would terminate the process instead.
template <typename Fn>
auto GuardJob(Fn&& body) -> decltype(body()) {
  try {
    return body();
  } catch (const std::exception& e) {
    return Status::Internal(std::string("job threw: ") + e.what());
  } catch (...) {
    return Status::Internal("job threw a non-std exception");
  }
}

/// Service-assigned ids ("batch-000007", "stream-000003") from one counter
/// per tier, so reports are attributable across modes.
class IdSequence {
 public:
  std::string Next(const char* prefix);

 private:
  std::atomic<uint64_t> next_{1};
};

/// A tier's named availability models: read-mostly, so resolution shares a
/// lock that only registration takes exclusively.
class ModelTable {
 public:
  /// Fails on an empty or already registered name.
  Status Register(std::string name, core::AvailabilityModel model);

  /// Resolves `spec` to W. A kDefault spec falls back to `configured` (the
  /// tier's ServiceConfig::availability), itself resolved against the same
  /// models.
  Result<double> Resolve(const AvailabilitySpec& spec,
                         const AvailabilitySpec& configured) const;

 private:
  mutable std::shared_mutex mutex_;
  std::unordered_map<std::string, core::AvailabilityModel> models_;
};

/// The lifetime counters of ServiceStats on striped atomics: each thread
/// bumps its own cache-line-aligned stripe, so concurrent requests never
/// contend on accounting, and Snapshot() folds the stripes. Both walk
/// kStatsCounters, so a counter added there needs no edit here.
class StripedStats {
 public:
  /// Adds `n` to one counter on the calling thread's stripe.
  void Add(size_t ServiceStats::*counter, uint64_t n = 1) {
    Local()[IndexOf(counter)].fetch_add(n, std::memory_order_relaxed);
  }

  /// Every counter summed over the stripes; gauges a tier samples at read
  /// time (and kernel_dispatch) are left for the caller to fill.
  ServiceStats Snapshot() const;

 private:
  static constexpr size_t kCounters = std::size(kStatsCounters);
  static constexpr size_t kStripes = 16;
  using Counters = std::array<std::atomic<uint64_t>, kCounters>;

  struct alignas(64) Stripe {
    Counters counters{};
  };

  static constexpr size_t IndexOf(size_t ServiceStats::*counter) {
    size_t i = 0;
    while (kStatsCounters[i].member != counter) ++i;
    return i;
  }

  Counters& Local() {
    static std::atomic<size_t> next_slot{0};
    thread_local const size_t slot =
        next_slot.fetch_add(1, std::memory_order_relaxed) % kStripes;
    return stripes_[slot].counters;
  }

  std::array<Stripe, kStripes> stripes_;
};

/// Adds the executor's gauges (queue depth, active workers) and its
/// steal/local-hit counters to `stats`.
void AddExecutorGauges(const Executor& executor, ServiceStats* stats);

}  // namespace stratrec::api::internal

#endif  // STRATREC_API_LIFECYCLE_H_
