#include "src/sim/simulator.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <functional>
#include <memory>
#include <string>
#include <unordered_set>
#include <utility>
#include <vector>

#include "src/api/catalog.h"
#include "src/api/service.h"
#include "src/common/fault.h"
#include "src/common/journal.h"
#include "src/sim/engine.h"
#include "src/workload/generators.h"

namespace stratrec::sim {

namespace {

constexpr double kTwoPi = 6.283185307179586476925286766559;

// Availability clamps: W = 0 starves every scheduler and W = 1 is a degenerate
// full-pool fiction, so processes move inside this band.
constexpr double kMinW = 0.05;
constexpr double kMaxW = 0.95;

// Virtual deployment durations in ticks, before slowdown windows.
constexpr double kServiceTimeLo = 0.5;
constexpr double kServiceTimeHi = 2.5;

std::string TenantTag(size_t tenant) {
  std::string tag = "t";
  tag += std::to_string(tenant);
  return tag;
}

/// One tenant: a Service (optionally wrapped in a stream session), its
/// request generator, and the stream-mode live set.
struct Tenant {
  Tenant(Service service_in, uint64_t request_seed)
      : service(std::move(service_in)), requests({}, request_seed) {}

  Service service;
  std::optional<StreamSession> session;
  workload::Generator requests;
  size_t request_counter = 0;
  /// Stream-mode requests admitted or queued and not yet completed/revoked.
  /// The vector gives storms a deterministic order to sample from; the set
  /// answers "still live?" when a completion event fires after a storm
  /// already revoked its request.
  std::vector<std::string> live;
  std::unordered_set<std::string> live_lookup;
  /// Admission kind at arrival, index-aligned with `live` (kQueued arrivals
  /// are withdrawn via Revocation at completion time — Completion is only
  /// valid for admitted requests).
  std::vector<bool> admitted;
};

/// Mutable availability-process state.
struct AvailabilityState {
  double walk = 0.0;       ///< random-walk W
  size_t occupied = 0;     ///< churn: seats currently occupied
  double current = 0.0;    ///< last effective W pushed to the services
};

double DriftW(const ScenarioConfig& scenario, const AvailabilityState& state,
              double now) {
  switch (scenario.drift.kind) {
    case DriftProcess::Kind::kNone:
      return scenario.drift.base;
    case DriftProcess::Kind::kDiurnal:
      return scenario.drift.base +
             scenario.drift.amplitude *
                 std::sin(kTwoPi * now / scenario.drift.period);
    case DriftProcess::Kind::kRandomWalk:
      return state.walk;
  }
  return scenario.drift.base;
}

double EffectiveW(const ScenarioConfig& scenario,
                  const AvailabilityState& state, double now) {
  double w = DriftW(scenario, state, now);
  if (scenario.churn.enabled && scenario.churn.capacity > 0) {
    w *= static_cast<double>(state.occupied) /
         static_cast<double>(scenario.churn.capacity);
  }
  if (scenario.availability_quantum > 0.0) {
    w = std::round(w / scenario.availability_quantum) *
        scenario.availability_quantum;
  }
  return std::clamp(w, kMinW, kMaxW);
}

double SlowdownFactor(const FaultInjection& faults, double now) {
  if (faults.slowdown_end > faults.slowdown_begin &&
      now >= faults.slowdown_begin && now < faults.slowdown_end) {
    return faults.slowdown_factor;
  }
  return 1.0;
}

LatencySummary Summarize(std::vector<double>* samples) {
  LatencySummary summary;
  summary.samples = samples->size();
  if (samples->empty()) return summary;
  std::sort(samples->begin(), samples->end());
  const auto at = [&](double quantile) {
    const auto index = static_cast<size_t>(std::llround(
        quantile * static_cast<double>(samples->size() - 1)));
    return (*samples)[index];
  };
  summary.p50 = at(0.50);
  summary.p95 = at(0.95);
  summary.p99 = at(0.99);
  summary.max = samples->back();
  return summary;
}

/// The whole mutable run: tick handlers are methods so the event lambdas
/// stay small and every piece of state has one owner.
class Run {
 public:
  Run(const ScenarioConfig& scenario, const RunOptions& options)
      : scenario_(scenario), options_(options), rng_(options.seed) {}

  Result<SimReport> Execute() {
    const auto wall_start = std::chrono::steady_clock::now();
    if (scenario_.tenants == 0) {
      return Status::InvalidArgument("scenario needs at least one tenant");
    }
    if (scenario_.ticks <= 0.0) {
      return Status::InvalidArgument("scenario horizon must be positive");
    }
    report_.scenario = scenario_.name;
    report_.seed = options_.seed;
    report_.worker_threads = options_.worker_threads;

    digest_.Mix("scenario");
    digest_.Mix(scenario_.name);
    digest_.Mix(options_.seed);
    digest_.Mix(static_cast<uint64_t>(scenario_.tenants));
    digest_.Mix(static_cast<uint64_t>(scenario_.strategies));
    digest_.Mix(scenario_.ticks);
    digest_.Mix(static_cast<uint64_t>(scenario_.stream_mode));

    // Brownout drops run through the shared fault layer: a run-local plan
    // (no global state) seeded from the run, one site, rate straight from
    // the scenario knob. Same seed, same drop schedule — and the same
    // machinery the serving tier's chaos bench exercises.
    if (scenario_.faults.drop_probability > 0.0) {
      fault::FaultConfig faults;
      faults.seed = DeriveSeed(options_.seed, "fault-plan");
      faults.sites.emplace_back(
          std::string(fault::kSiteSimBatchDrop),
          fault::SiteSpec{scenario_.faults.drop_probability, 0.0});
      fault_plan_ = std::make_unique<fault::FaultPlan>(std::move(faults));
    }

    availability_.walk = scenario_.drift.base;
    availability_.occupied =
        std::min(scenario_.churn.initial, scenario_.churn.capacity);
    availability_.current = EffectiveW(scenario_, availability_, 0.0);

    if (Status status = BuildTenants(); !status.ok()) return status;

    // The tick chain: tick i runs at virtual time i and schedules i + 1.
    // Completion events interleave at fractional times, strictly ordered by
    // (time, schedule order), so the whole run drains deterministically.
    std::function<void()> tick = [this, &tick]() {
      RunTick();
      ++tick_index_;
      if (static_cast<double>(tick_index_) < scenario_.ticks) {
        queue_.Schedule(static_cast<double>(tick_index_), tick);
      }
    };
    queue_.Schedule(0.0, tick);
    while (queue_.RunNext()) {
    }

    FinishReport();
    report_.wall_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      wall_start)
            .count();
    return std::move(report_);
  }

 private:
  Status BuildTenants() {
    tenants_.reserve(scenario_.tenants);
    for (size_t t = 0; t < scenario_.tenants; ++t) {
      core::Catalog catalog;
      if (t == 0 && options_.catalog.has_value()) {
        catalog = *options_.catalog;
      } else {
        workload::Generator gen(
            {}, DeriveSeed(options_.seed, "catalog-" + TenantTag(t)));
        catalog = api::CatalogFromProfiles(
            gen.Profiles(static_cast<int>(scenario_.strategies)),
            TenantTag(t) + "-s");
      }
      api::ServiceConfig config;
      config.execution.worker_threads = options_.worker_threads;
      config.cache.availability_quantum = scenario_.availability_quantum;
      if (!options_.journal_path.empty()) {
        config.journal.path = t == 0 ? options_.journal_path
                                     : options_.journal_path + "." +
                                           TenantTag(t);
        report_.journals.push_back(config.journal.path);
      }
      auto service = Service::Create(std::move(catalog), config);
      if (!service.ok()) return service.status();
      tenants_.emplace_back(
          std::move(*service),
          DeriveSeed(options_.seed, "requests-" + TenantTag(t)));
      if (scenario_.stream_mode) {
        api::StreamOptions stream_options;
        stream_options.availability =
            api::AvailabilitySpec::Fixed(availability_.current);
        stream_options.recommend_alternatives = true;
        auto session = tenants_.back().service.OpenStream(stream_options);
        if (!session.ok()) return session.status();
        tenants_.back().session = std::move(*session);
      }
    }
    return Status::OK();
  }

  void RunTick() {
    const double now = queue_.now();
    digest_.Mix("tick");
    digest_.Mix(static_cast<uint64_t>(tick_index_));

    UpdateAvailability(now);

    // Arrival units: batches in batch mode, single requests in stream mode.
    int units = 0;
    switch (scenario_.arrivals.kind) {
      case ArrivalProcess::Kind::kPoisson:
        units = rng_.For("arrivals").Poisson(scenario_.arrivals.rate);
        break;
      case ArrivalProcess::Kind::kBursty:
        if (scenario_.arrivals.burst_period > 0 &&
            tick_index_ % static_cast<uint64_t>(
                              scenario_.arrivals.burst_period) == 0) {
          units = static_cast<int>(rng_.For("arrivals").UniformInt(
              scenario_.arrivals.burst_lo, scenario_.arrivals.burst_hi));
        }
        break;
    }
    for (int unit = 0; unit < units; ++unit) {
      const size_t tenant = PickTenant();
      if (scenario_.stream_mode) {
        SubmitStreamArrival(tenant);
      } else {
        SubmitBatchUnit(tenant);
      }
    }

    if (scenario_.stream_mode && scenario_.storms.revocation_period > 0 &&
        tick_index_ > 0 &&
        tick_index_ % static_cast<uint64_t>(
                          scenario_.storms.revocation_period) == 0) {
      RevocationStorm();
    }
    if (!scenario_.stream_mode && scenario_.storms.cancellation_period > 0 &&
        tick_index_ > 0 &&
        tick_index_ % static_cast<uint64_t>(
                          scenario_.storms.cancellation_period) == 0) {
      CancellationWave();
    }

    if (scenario_.stats_snapshot_period >= 1.0 && tick_index_ > 0 &&
        tick_index_ % static_cast<uint64_t>(std::llround(
                          scenario_.stats_snapshot_period)) == 0) {
      // The checkpoint *decision* is an input and is mixed whether or not a
      // journal is attached — a journaled and an unjournaled run of one
      // (scenario, seed) must agree on the digest.
      digest_.Mix("stats");
      digest_.Mix(now);
      if (!options_.journal_path.empty()) {
        for (Tenant& tenant : tenants_) {
          (void)tenant.service.RecordStatsSnapshot(now);
        }
      }
    }
  }

  void UpdateAvailability(double now) {
    if (scenario_.drift.kind == DriftProcess::Kind::kRandomWalk) {
      availability_.walk = std::clamp(
          availability_.walk + rng_.For("drift").Uniform(-scenario_.drift.step,
                                                         scenario_.drift.step),
          scenario_.drift.lo, scenario_.drift.hi);
    }
    if (scenario_.churn.enabled) {
      Rng& churn = rng_.For("churn");
      const int joins = churn.Poisson(scenario_.churn.join_rate);
      const int leaves = churn.Poisson(scenario_.churn.leave_rate);
      const size_t joined = std::min(
          static_cast<size_t>(joins),
          scenario_.churn.capacity - availability_.occupied);
      availability_.occupied += joined;
      const size_t left =
          std::min(static_cast<size_t>(leaves), availability_.occupied);
      availability_.occupied -= left;
      report_.worker_joins += joined;
      report_.worker_leaves += left;
    }
    const double w = EffectiveW(scenario_, availability_, now);
    if (w == availability_.current) return;
    availability_.current = w;
    ++report_.availability_changes;
    digest_.Mix("w-change");
    digest_.Mix(w);
    if (scenario_.stream_mode) {
      for (Tenant& tenant : tenants_) {
        (void)tenant.session->Submit(api::StreamEvent::AvailabilityChange(
            api::AvailabilitySpec::Fixed(w)));
      }
    }
  }

  size_t PickTenant() {
    if (tenants_.size() <= 1) return 0;
    return static_cast<size_t>(rng_.For("tenant-pick").UniformInt(
        0, static_cast<int64_t>(tenants_.size()) - 1));
  }

  std::vector<core::DeploymentRequest> GenerateRequests(size_t tenant_index,
                                                        int count) {
    Tenant& tenant = tenants_[tenant_index];
    // Ranges chosen so most requests are serviceable against the generator's
    // catalogs (modest quality demands, generous budgets); every
    // `hard_every`-th request flips to unsatisfiable thresholds to force the
    // ADPaR alternatives leg.
    auto requests = tenant.requests.RequestsWithRanges(
        count, scenario_.arrivals.k, {0.50, 0.75}, {0.70, 1.0}, {0.70, 1.0});
    for (auto& request : requests) {
      ++tenant.request_counter;
      char id[32];
      std::snprintf(id, sizeof(id), "t%zu-r%06zu", tenant_index,
                    tenant.request_counter);
      request.id = id;
      if (scenario_.arrivals.hard_every > 0 &&
          tenant.request_counter %
                  static_cast<size_t>(scenario_.arrivals.hard_every) ==
              0) {
        request.thresholds = core::ParamVector{0.97, 0.12, 0.15};
      }
      digest_.Mix(request.id);
      digest_.Mix(request.thresholds.quality);
      digest_.Mix(request.thresholds.cost);
      digest_.Mix(request.thresholds.latency);
    }
    return requests;
  }

  /// Draws the virtual deployment duration for work submitted now — an
  /// *input* to the schedule (mixed into the digest at draw time), never a
  /// function of service outcomes.
  double DrawDuration(double now) {
    const double duration =
        rng_.For("service-time").Uniform(kServiceTimeLo, kServiceTimeHi) *
        SlowdownFactor(scenario_.faults, now);
    digest_.Mix("duration");
    digest_.Mix(duration);
    return duration;
  }

  bool DropBatch() {
    if (fault_plan_ == nullptr) return false;
    if (!fault_plan_->Visit(fault::kSiteSimBatchDrop).inject) return false;
    ++report_.dropped_batches;
    digest_.Mix("drop");
    return true;
  }

  void SubmitBatchUnit(size_t tenant_index) {
    const int count = static_cast<int>(rng_.For("batch-size").UniformInt(
        scenario_.arrivals.requests_lo, scenario_.arrivals.requests_hi));
    digest_.Mix("batch");
    digest_.Mix(static_cast<uint64_t>(tenant_index));
    digest_.Mix(static_cast<uint64_t>(count));
    auto requests = GenerateRequests(tenant_index, count);
    const double duration = DrawDuration(queue_.now());
    if (DropBatch()) return;

    api::BatchRequest batch;
    batch.requests = std::move(requests);
    batch.availability = api::AvailabilitySpec::Fixed(availability_.current);
    ++report_.batches_submitted;
    report_.requests_submitted += static_cast<size_t>(count);
    auto outcome = tenants_[tenant_index].service.SubmitBatch(std::move(batch));
    if (!outcome.ok()) {
      ++report_.batch_failures;
      return;
    }
    ++report_.batches_completed;
    report_.requests_satisfied += outcome->result.aggregator.batch.satisfied.size();
    report_.alternatives_served += outcome->result.alternatives.size();
    queue_.ScheduleAfter(duration,
                         [this, duration]() { latencies_.push_back(duration); });
  }

  void SubmitStreamArrival(size_t tenant_index) {
    digest_.Mix("arrival");
    digest_.Mix(static_cast<uint64_t>(tenant_index));
    auto requests = GenerateRequests(tenant_index, 1);
    const double duration = DrawDuration(queue_.now());
    if (DropBatch()) return;

    Tenant& tenant = tenants_[tenant_index];
    const std::string id = requests[0].id;
    auto update =
        tenant.session->Submit(api::StreamEvent::Arrival(std::move(requests[0])));
    if (!update.ok() ||
        update->decision.kind == core::AdmissionDecision::Kind::kRejected) {
      return;
    }
    const bool admitted =
        update->decision.kind == core::AdmissionDecision::Kind::kAdmitted;
    if (update->has_alternative) ++report_.alternatives_served;
    tenant.live.push_back(id);
    tenant.admitted.push_back(admitted);
    tenant.live_lookup.insert(id);
    queue_.ScheduleAfter(
        duration, [this, tenant_index, id, admitted, duration]() {
          Tenant& owner = tenants_[tenant_index];
          if (owner.live_lookup.erase(id) == 0) return;  // storm got it first
          const auto it = std::find(owner.live.begin(), owner.live.end(), id);
          const size_t index =
              static_cast<size_t>(it - owner.live.begin());
          owner.live.erase(it);
          owner.admitted.erase(owner.admitted.begin() +
                               static_cast<ptrdiff_t>(index));
          // Completion is only legal for admitted requests; a request that
          // was queued at arrival is withdrawn instead (Revocation handles
          // queued and since-promoted requests alike).
          (void)owner.session->Submit(
              admitted ? api::StreamEvent::Completion(id)
                       : api::StreamEvent::Revocation(id));
          if (admitted) latencies_.push_back(duration);
        });
  }

  void RevocationStorm() {
    Rng& storm = rng_.For("revocation-storm");
    for (size_t tenant_index = 0; tenant_index < tenants_.size();
         ++tenant_index) {
      Tenant& tenant = tenants_[tenant_index];
      const size_t victims = static_cast<size_t>(
          std::floor(static_cast<double>(tenant.live.size()) *
                     scenario_.storms.revocation_fraction));
      for (size_t v = 0; v < victims && !tenant.live.empty(); ++v) {
        const size_t pick = static_cast<size_t>(storm.UniformInt(
            0, static_cast<int64_t>(tenant.live.size()) - 1));
        const std::string id = tenant.live[pick];
        tenant.live[pick] = tenant.live.back();
        tenant.live.pop_back();
        tenant.admitted[pick] = tenant.admitted.back();
        tenant.admitted.pop_back();
        tenant.live_lookup.erase(id);
        digest_.Mix("revoke");
        digest_.Mix(id);
        (void)tenant.session->Submit(api::StreamEvent::Revocation(id));
      }
    }
  }

  void CancellationWave() {
    digest_.Mix("wave");
    Rng& storm = rng_.For("cancel-storm");
    struct WaveTicket {
      Ticket<api::BatchReport> ticket;
      double duration;
    };
    std::vector<WaveTicket> wave;
    std::vector<bool> cancel;
    wave.reserve(static_cast<size_t>(scenario_.storms.cancellation_wave));
    for (int i = 0; i < scenario_.storms.cancellation_wave; ++i) {
      const size_t tenant_index = PickTenant();
      const int count = static_cast<int>(rng_.For("batch-size").UniformInt(
          scenario_.arrivals.requests_lo, scenario_.arrivals.requests_hi));
      digest_.Mix(static_cast<uint64_t>(tenant_index));
      digest_.Mix(static_cast<uint64_t>(count));
      api::BatchRequest batch;
      batch.requests = GenerateRequests(tenant_index, count);
      batch.availability = api::AvailabilitySpec::Fixed(availability_.current);
      ++report_.batches_submitted;
      report_.requests_submitted += static_cast<size_t>(count);
      wave.push_back(WaveTicket{
          tenants_[tenant_index].service.SubmitBatchAsync(std::move(batch)),
          DrawDuration(queue_.now())});
      // The cancel decision is an input (drawn unconditionally); whether the
      // Cancel() wins against the pool is the one racy outcome the scenario
      // exists to exercise — counted, never mixed into the digest.
      cancel.push_back(storm.Bernoulli(scenario_.storms.cancellation_fraction));
    }
    for (size_t i = 0; i < wave.size(); ++i) {
      if (!cancel[i]) continue;
      ++report_.cancel_attempts;
      digest_.Mix("cancel");
      digest_.Mix(static_cast<uint64_t>(i));
      if (wave[i].ticket.Cancel()) ++report_.cancel_wins;
    }
    for (WaveTicket& entry : wave) {
      auto outcome = entry.ticket.Wait();
      if (outcome.ok()) {
        ++report_.batches_completed;
        report_.requests_satisfied +=
            outcome->result.aggregator.batch.satisfied.size();
        report_.alternatives_served += outcome->result.alternatives.size();
        const double duration = entry.duration;
        queue_.ScheduleAfter(
            duration, [this, duration]() { latencies_.push_back(duration); });
      } else if (outcome.status().code() == StatusCode::kCancelled) {
        ++report_.cancelled_batches;
      } else {
        ++report_.batch_failures;
      }
    }
  }

  void FinishReport() {
    report_.schedule_digest = digest_.value();
    report_.virtual_duration = queue_.now();
    report_.events_fired = queue_.fired();
    report_.latency = Summarize(&latencies_);
    for (Tenant& tenant : tenants_) {
      if (!tenant.session.has_value()) continue;
      const core::OnlineStats stats = tenant.session->stats();
      report_.stream.arrivals += stats.arrivals;
      report_.stream.admitted += stats.admitted;
      report_.stream.queued += stats.queued;
      report_.stream.rejected += stats.rejected;
      report_.stream.revoked += stats.revoked;
      report_.stream.completed += stats.completed;
      report_.stream.objective += stats.objective;
      report_.stream.peak_utilization =
          std::max(report_.stream.peak_utilization, stats.peak_utilization);
    }
    report_.service_stats = tenants_[0].service.stats();
  }

  const ScenarioConfig& scenario_;
  const RunOptions& options_;
  RngStreams rng_;
  /// Brownout drop schedule; null unless the scenario has faults.
  std::unique_ptr<fault::FaultPlan> fault_plan_;
  ScheduleDigest digest_;
  EventQueue queue_;
  std::vector<Tenant> tenants_;
  AvailabilityState availability_;
  uint64_t tick_index_ = 0;
  std::vector<double> latencies_;
  SimReport report_;
};

}  // namespace

Result<SimReport> RunScenario(const ScenarioConfig& scenario,
                              const RunOptions& options) {
  // Tenants (and their stream sessions) are members of Run, so services are
  // destroyed — and journals flushed and closed — before the report returns.
  return Run(scenario, options).Execute();
}

Result<uint64_t> JournalFingerprint(const std::string& path) {
  auto records = JournalReader::ReadAllSegments(path);
  if (!records.ok()) return records.status();
  ScheduleDigest digest;
  for (const std::string& record : *records) {
    // The config record embeds the worker-pool size and stats records carry
    // live executor gauges; everything else must be invariant.
    if (record.rfind("{\"kind\":\"config\"", 0) == 0) continue;
    if (record.rfind("{\"kind\":\"stats\"", 0) == 0) continue;
    digest.Mix(record);
  }
  return digest.value();
}

}  // namespace stratrec::sim
