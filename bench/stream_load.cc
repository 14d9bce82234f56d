// Stream load: the Section-7 dynamic setting under churn — Poisson,
// bursty, and availability-drift event schedules driven through two
// implementations of the same rolling-BatchStrat semantics:
//
//   incremental    stream::StreamScheduler — executor-parallel pricing
//                  over the CatalogIndex; arrivals/revocations/completions
//                  never touch its per-W snapshot, and an availability
//                  change drops it only when the quantized W moves (the
//                  next ineligible arrival that wants an alternative
//                  builds it again);
//
//   full rebuild   the PR-0 core::OnlineScheduler (serial pricing over
//                  profile structs) with the per-availability derived
//                  state recomputed from scratch after every event — the
//                  counterfactual a stream tier without incremental
//                  maintenance would pay to keep its snapshot fresh.
//
// Both paths make bit-identical admission decisions (asserted per
// scenario), so the events/sec ratio isolates the maintenance strategy.
// A record/replay self-check then drives one journaled session through
// the Service facade, with every 10th arrival made ineligible so the ADPaR
// leg serves alternatives, and replays the trace at 1/2/4/8 worker
// threads, requiring byte-identical StreamUpdates at every pool size.
//
// Prints the usual ASCII table plus machine-readable JSON (stdout and
// stream_load.json) so CI can assert incremental >= full rebuild.
//
// Usage: bench_stream_load [strategies] [events_per_scenario] [replay_events]
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "src/api/catalog.h"
#include "src/api/codec.h"
#include "src/api/replay.h"
#include "src/api/service.h"
#include "src/common/ascii_table.h"
#include "src/common/executor.h"
#include "src/common/rng.h"
#include "src/core/catalog_index.h"
#include "src/core/kernels/kernels.h"
#include "src/core/online.h"
#include "src/stream/stream_scheduler.h"
#include "src/workload/generators.h"

namespace {

namespace api = stratrec::api;
namespace core = stratrec::core;
namespace stream = stratrec::stream;
namespace wire = stratrec::wire;
namespace workload = stratrec::workload;

constexpr double kInitialAvailability = 0.5;
/// Snapshot grid of the incremental path: drift steps smaller than this
/// absorb as O(1) delta updates instead of re-estimating the params block.
constexpr double kAvailabilityQuantum = 0.05;

/// One pregenerated stream event. The schedule is fixed before timing
/// starts and identical for both paths, so decisions (and failures, e.g.
/// revoking an id that was rejected on arrival) line up event for event.
struct Event {
  api::StreamEvent::Kind kind = api::StreamEvent::Kind::kArrival;
  core::DeploymentRequest request;  // kArrival
  std::string request_id;           // kRevocation / kCompletion
  double availability = 0.0;        // kAvailabilityChange
};

struct Scenario {
  std::string name;
  std::vector<Event> events;
};

Event ArrivalEvent(core::DeploymentRequest request) {
  Event event;
  event.kind = api::StreamEvent::Kind::kArrival;
  event.request = std::move(request);
  return event;
}

Event ReleaseEvent(api::StreamEvent::Kind kind, std::string request_id) {
  Event event;
  event.kind = kind;
  event.request_id = std::move(request_id);
  return event;
}

Event WindowEvent(double availability) {
  Event event;
  event.kind = api::StreamEvent::Kind::kAvailabilityChange;
  event.availability = availability;
  return event;
}

/// Workload knobs shared by the scenario builders: arrivals drawn from the
/// async bench's ranges (mostly serviceable against the paper catalog).
std::vector<core::DeploymentRequest> RequestPool(workload::Generator* gen,
                                                 const std::string& prefix,
                                                 size_t count) {
  auto requests = gen->RequestsWithRanges(static_cast<int>(count), 10,
                                          {0.50, 0.75}, {0.70, 1.0},
                                          {0.70, 1.0});
  for (size_t i = 0; i < requests.size(); ++i) {
    char id[64];
    std::snprintf(id, sizeof(id), "%s-%06zu", prefix.c_str(), i);
    requests[i].id = id;
  }
  return requests;
}

/// Removes and returns a uniformly chosen id (swap-pop keeps it O(1)).
std::string TakeRandom(std::vector<std::string>* live, stratrec::Rng* rng) {
  const size_t idx = static_cast<size_t>(
      rng->UniformInt(0, static_cast<int64_t>(live->size()) - 1));
  std::string id = std::move((*live)[idx]);
  (*live)[idx] = std::move(live->back());
  live->pop_back();
  return id;
}

/// Poisson(lambda) arrivals per tick; each tick then releases a geometric
/// number of live requests (revocation with probability 0.2, completion
/// otherwise). Fixed availability — pure arrival/release churn.
Scenario PoissonScenario(workload::Generator* gen, uint64_t seed,
                         size_t target) {
  stratrec::Rng rng(seed);
  auto pool = RequestPool(gen, "poisson", target);
  Scenario scenario{"poisson", {}};
  std::vector<std::string> live;
  size_t next = 0;
  while (scenario.events.size() < target) {
    const int arrivals = rng.Poisson(3.0);
    for (int i = 0; i < arrivals && next < pool.size(); ++i) {
      live.push_back(pool[next].id);
      scenario.events.push_back(ArrivalEvent(pool[next++]));
    }
    while (!live.empty() && rng.Bernoulli(0.35)) {
      const auto kind = rng.Bernoulli(0.2)
                            ? api::StreamEvent::Kind::kRevocation
                            : api::StreamEvent::Kind::kCompletion;
      scenario.events.push_back(ReleaseEvent(kind, TakeRandom(&live, &rng)));
    }
  }
  scenario.events.resize(target);
  return scenario;
}

/// Alternating burst / drain phases: a burst submits 12..30 arrivals
/// back-to-back (the pending queue fills and the density-order drain gets
/// exercised), then the drain phase releases about half of the live set.
Scenario BurstyScenario(workload::Generator* gen, uint64_t seed,
                        size_t target) {
  stratrec::Rng rng(seed);
  auto pool = RequestPool(gen, "bursty", target);
  Scenario scenario{"bursty", {}};
  std::vector<std::string> live;
  size_t next = 0;
  while (scenario.events.size() < target) {
    const int burst = static_cast<int>(rng.UniformInt(12, 30));
    for (int i = 0; i < burst && next < pool.size(); ++i) {
      live.push_back(pool[next].id);
      scenario.events.push_back(ArrivalEvent(pool[next++]));
    }
    const size_t releases = live.size() / 2;
    for (size_t i = 0; i < releases && !live.empty(); ++i) {
      const auto kind = rng.Bernoulli(0.3)
                            ? api::StreamEvent::Kind::kRevocation
                            : api::StreamEvent::Kind::kCompletion;
      scenario.events.push_back(ReleaseEvent(kind, TakeRandom(&live, &rng)));
    }
  }
  scenario.events.resize(target);
  return scenario;
}

/// Poisson churn plus an availability random walk: half the ticks emit a
/// window change of +-0.04, clamped to [0.25, 0.85]. Against the 0.05
/// quantum most steps absorb as delta updates and only genuine moves
/// re-estimate — the exact claim the snapshot counters quantify.
Scenario DriftScenario(workload::Generator* gen, uint64_t seed,
                       size_t target) {
  stratrec::Rng rng(seed);
  auto pool = RequestPool(gen, "drift", target);
  Scenario scenario{"drift", {}};
  std::vector<std::string> live;
  size_t next = 0;
  double w = kInitialAvailability;
  while (scenario.events.size() < target) {
    const int arrivals = rng.Poisson(2.0);
    for (int i = 0; i < arrivals && next < pool.size(); ++i) {
      live.push_back(pool[next].id);
      scenario.events.push_back(ArrivalEvent(pool[next++]));
    }
    while (!live.empty() && rng.Bernoulli(0.3)) {
      const auto kind = rng.Bernoulli(0.2)
                            ? api::StreamEvent::Kind::kRevocation
                            : api::StreamEvent::Kind::kCompletion;
      scenario.events.push_back(ReleaseEvent(kind, TakeRandom(&live, &rng)));
    }
    if (rng.Bernoulli(0.5)) {
      w = std::clamp(w + rng.Uniform(-0.04, 0.04), 0.25, 0.85);
      scenario.events.push_back(WindowEvent(w));
    }
  }
  scenario.events.resize(target);
  return scenario;
}

struct DriveResult {
  double seconds = 0.0;
  double events_per_sec = 0.0;
  core::OnlineStats stats;
  size_t reschedules = 0;
  size_t delta_updates = 0;
  size_t rebuilds = 0;
};

DriveResult DriveIncremental(const core::CatalogIndex& index,
                             stratrec::Executor* executor,
                             const std::vector<Event>& events) {
  stream::StreamSchedulerOptions options;
  options.availability_quantum = kAvailabilityQuantum;
  auto scheduler = stream::StreamScheduler::Create(
      &index, executor, kInitialAvailability, options);
  if (!scheduler.ok()) {
    std::fprintf(stderr, "stream scheduler setup failed: %s\n",
                 scheduler.status().ToString().c_str());
    std::exit(1);
  }
  const auto start = std::chrono::steady_clock::now();
  for (const Event& event : events) {
    switch (event.kind) {
      case api::StreamEvent::Kind::kArrival:
        (void)scheduler->OnArrival(event.request);
        break;
      case api::StreamEvent::Kind::kRevocation:
        (void)scheduler->OnRevocation(event.request_id);
        break;
      case api::StreamEvent::Kind::kCompletion:
        (void)scheduler->OnCompletion(event.request_id);
        break;
      case api::StreamEvent::Kind::kAvailabilityChange:
        (void)scheduler->SetAvailability(event.availability);
        break;
    }
  }
  const std::chrono::duration<double> elapsed =
      std::chrono::steady_clock::now() - start;
  DriveResult result;
  result.seconds = elapsed.count();
  result.events_per_sec =
      result.seconds > 0.0
          ? static_cast<double>(events.size()) / result.seconds
          : 0.0;
  result.stats = scheduler->stats();
  result.reschedules = scheduler->reschedules();
  result.delta_updates = scheduler->snapshot_delta_updates();
  result.rebuilds = scheduler->snapshot_rebuilds();
  return result;
}

DriveResult DriveFullRebuild(const std::vector<core::StrategyProfile>& profiles,
                             const core::CatalogIndex& index,
                             const std::vector<Event>& events) {
  auto scheduler =
      core::OnlineScheduler::Create(profiles, kInitialAvailability, {});
  if (!scheduler.ok()) {
    std::fprintf(stderr, "online scheduler setup failed: %s\n",
                 scheduler.status().ToString().c_str());
    std::exit(1);
  }
  // The derived per-W state a naive stream tier keeps fresh by recomputing
  // it after every event: the batch path's own CatalogIndex::BuildSnapshot,
  // exactly what a session that rebuilt its snapshot per event would call
  // (the snapshot cache does not help — every event invalidates it). The
  // O(1) absorption replaces precisely this allocation + O(|S|) estimation.
  std::shared_ptr<const core::AvailabilitySnapshot> snapshot;
  double w = kInitialAvailability;
  const auto start = std::chrono::steady_clock::now();
  for (const Event& event : events) {
    switch (event.kind) {
      case api::StreamEvent::Kind::kArrival:
        (void)scheduler->OnArrival(event.request);
        break;
      case api::StreamEvent::Kind::kRevocation:
        (void)scheduler->OnRevocation(event.request_id);
        break;
      case api::StreamEvent::Kind::kCompletion:
        (void)scheduler->OnCompletion(event.request_id);
        break;
      case api::StreamEvent::Kind::kAvailabilityChange:
        w = event.availability;
        (void)scheduler->SetAvailability(w);
        break;
    }
    snapshot = index.BuildSnapshot(w);
  }
  const std::chrono::duration<double> elapsed =
      std::chrono::steady_clock::now() - start;
  DriveResult result;
  result.seconds = elapsed.count();
  result.events_per_sec =
      result.seconds > 0.0
          ? static_cast<double>(events.size()) / result.seconds
          : 0.0;
  result.stats = scheduler->stats();
  return result;
}

/// Both paths implement one semantics; a drift in the lifetime counters
/// means the ratio below compares different schedulers, not different
/// maintenance strategies — fail loudly instead of reporting it.
void RequireParity(const Scenario& scenario, const core::OnlineStats& a,
                   const core::OnlineStats& b) {
  if (a.arrivals == b.arrivals && a.admitted == b.admitted &&
      a.queued == b.queued && a.rejected == b.rejected &&
      a.revoked == b.revoked && a.completed == b.completed) {
    return;
  }
  std::fprintf(stderr,
               "scenario %s: incremental and full-rebuild decisions diverged "
               "(admitted %zu vs %zu, queued %zu vs %zu, rejected %zu vs "
               "%zu)\n",
               scenario.name.c_str(), a.admitted, b.admitted, a.queued,
               b.queued, a.rejected, b.rejected);
  std::exit(1);
}

struct ReplayCheck {
  size_t threads = 0;
  size_t sessions = 0;
  size_t events = 0;
  size_t matched = 0;
  bool ok = false;
};

/// Records one journaled session through the Service facade, then replays
/// the trace at several pool sizes: every StreamUpdate must come back byte
/// for byte. Every 10th recorded arrival keeps its id but asks for quality
/// >= 0.97 at cost and latency <= 0.2, which the generated catalog cannot
/// serve, so the trace carries ADPaR alternatives; `alternatives` receives
/// how many recorded updates hold one. Returns one row per pool size; exits on
/// infrastructure failures (an unreadable trace is a bug, not a
/// measurement).
std::vector<ReplayCheck> ReplaySelfCheck(
    const std::vector<core::StrategyProfile>& profiles,
    const std::vector<Event>& events, size_t* alternatives) {
  const std::string journal_path = "stream_load.journal";
  std::remove(journal_path.c_str());
  {
    api::ServiceConfig config;
    config.journal.path = journal_path;
    auto service =
        stratrec::Service::Create(api::CatalogFromProfiles(profiles), config);
    if (!service.ok()) {
      std::fprintf(stderr, "recording service setup failed: %s\n",
                   service.status().ToString().c_str());
      std::exit(1);
    }
    api::StreamOptions options;
    options.recommend_alternatives = true;  // exercise the ADPaR leg too
    auto session = service->OpenStream(options);
    if (!session.ok()) {
      std::fprintf(stderr, "recording session failed to open: %s\n",
                   session.status().ToString().c_str());
      std::exit(1);
    }
    workload::Generator ineligible({}, 0x1E11'61B1ull);
    size_t arrivals = 0;
    *alternatives = 0;
    for (const Event& event : events) {
      switch (event.kind) {
        case api::StreamEvent::Kind::kArrival: {
          core::DeploymentRequest request = event.request;
          if (++arrivals % 10 == 0) {
            request.thresholds =
                ineligible
                    .RequestsWithRanges(1, request.k, {0.97, 1.0}, {0.0, 0.2},
                                        {0.0, 0.2})
                    .front()
                    .thresholds;
          }
          auto update = session->Submit(api::StreamEvent::Arrival(request));
          if (update.ok() && update->has_alternative) ++*alternatives;
          break;
        }
        case api::StreamEvent::Kind::kRevocation:
          (void)session->Submit(
              api::StreamEvent::Revocation(event.request_id));
          break;
        case api::StreamEvent::Kind::kCompletion:
          (void)session->Submit(
              api::StreamEvent::Completion(event.request_id));
          break;
        case api::StreamEvent::Kind::kAvailabilityChange:
          (void)session->Submit(api::StreamEvent::AvailabilityChange(
              api::AvailabilitySpec::Fixed(event.availability)));
          break;
      }
    }
  }  // service (and journal) closed here

  auto trace = wire::ReadTraceFile(journal_path);
  if (!trace.ok()) {
    std::fprintf(stderr, "trace read failed: %s\n",
                 trace.status().ToString().c_str());
    std::exit(1);
  }
  std::vector<ReplayCheck> checks;
  for (size_t threads : {1u, 2u, 4u, 8u}) {
    wire::ReplayOptions options;
    options.worker_threads = threads;
    auto result = wire::ReplayTrace(*trace, options);
    if (!result.ok()) {
      std::fprintf(stderr, "replay at %zu threads failed: %s\n", threads,
                   result.status().ToString().c_str());
      std::exit(1);
    }
    checks.push_back({threads, result->stream_sessions,
                      result->stream_events_replayed, result->stream_matched,
                      result->ok()});
  }
  std::remove(journal_path.c_str());
  return checks;
}

}  // namespace

int main(int argc, char** argv) {
  const size_t num_strategies =
      argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 50'000;
  const size_t events_per_scenario =
      argc > 2 ? std::strtoull(argv[2], nullptr, 10) : 1'000;
  const size_t replay_events =
      argc > 3 ? std::strtoull(argv[3], nullptr, 10) : 200;

  std::printf(
      "Stream load: %zu events per scenario against %zu strategies "
      "(snapshot quantum %.2f)\n"
      "incremental = StreamScheduler (O(1) event absorption, parallel "
      "pricing); full rebuild = OnlineScheduler + per-event snapshot "
      "rebuild.\n\n",
      events_per_scenario, num_strategies, kAvailabilityQuantum);

  workload::Generator generator({}, 0x57E4'11BAull);
  const auto profiles = generator.Profiles(static_cast<int>(num_strategies));
  stratrec::Executor executor(0);
  const core::CatalogIndex index =
      core::CatalogIndex::Build(profiles, &executor);

  const std::vector<Scenario> scenarios = {
      PoissonScenario(&generator, 0xA0ull, events_per_scenario),
      BurstyScenario(&generator, 0xB1ull, events_per_scenario),
      DriftScenario(&generator, 0xD2ull, events_per_scenario),
  };

  struct Row {
    std::string name;
    size_t events = 0;
    DriveResult incremental;
    DriveResult rebuild;
    double speedup = 0.0;
  };
  std::vector<Row> rows;
  for (const Scenario& scenario : scenarios) {
    Row row;
    row.name = scenario.name;
    row.events = scenario.events.size();
    // Untimed warm pass over a short prefix (first-touch effects).
    const size_t warm = std::min<size_t>(32, scenario.events.size());
    (void)DriveIncremental(
        index, &executor,
        std::vector<Event>(scenario.events.begin(),
                           scenario.events.begin() + static_cast<long>(warm)));
    row.incremental = DriveIncremental(index, &executor, scenario.events);
    row.rebuild = DriveFullRebuild(profiles, index, scenario.events);
    RequireParity(scenario, row.incremental.stats, row.rebuild.stats);
    row.speedup = row.rebuild.seconds > 0.0
                      ? row.rebuild.seconds / row.incremental.seconds
                      : 0.0;
    rows.push_back(row);
  }

  stratrec::AsciiTable table({"scenario", "events", "incr events/s",
                              "rebuild events/s", "speedup", "admitted",
                              "queued", "rejected", "reschedules",
                              "delta updates", "rebuilds"});
  for (const Row& row : rows) {
    table.AddRow({row.name, std::to_string(row.events),
                  stratrec::FormatDouble(row.incremental.events_per_sec, 1),
                  stratrec::FormatDouble(row.rebuild.events_per_sec, 1),
                  stratrec::FormatDouble(row.speedup, 2) + "x",
                  std::to_string(row.incremental.stats.admitted),
                  std::to_string(row.incremental.stats.queued),
                  std::to_string(row.incremental.stats.rejected),
                  std::to_string(row.incremental.reschedules),
                  std::to_string(row.incremental.delta_updates),
                  std::to_string(row.incremental.rebuilds)});
  }
  table.Print();

  // The drift scenario exercises every event kind, so its prefix is the
  // richest trace to round-trip.
  const std::vector<Event>& drift = scenarios.back().events;
  const size_t recorded =
      std::min<size_t>(replay_events, drift.size());
  size_t alternatives = 0;
  const auto replay = ReplaySelfCheck(
      profiles,
      std::vector<Event>(drift.begin(),
                         drift.begin() + static_cast<long>(recorded)),
      &alternatives);

  std::printf(
      "\nreplay self-check (drift prefix, %zu events, %zu with an ADPaR "
      "alternative):\n",
      recorded, alternatives);
  bool replay_ok = true;
  for (const ReplayCheck& check : replay) {
    replay_ok = replay_ok && check.ok;
    std::printf("  pool %zu: %zu/%zu updates byte-identical (%s)\n",
                check.threads, check.matched, check.events,
                check.ok ? "ok" : "MISMATCH");
  }
  if (!replay_ok) {
    std::fprintf(stderr, "replay self-check failed\n");
    return 1;
  }
  if (alternatives == 0) {
    std::fprintf(stderr,
                 "replay self-check recorded no ADPaR alternative: the "
                 "ineligible arrivals did not reach the alternatives leg\n");
    return 1;
  }

  std::string json =
      "{\n  \"workload\": {\"strategies\": " + std::to_string(num_strategies) +
      ", \"events_per_scenario\": " + std::to_string(events_per_scenario) +
      ", \"availability_quantum\": " +
      stratrec::FormatDouble(kAvailabilityQuantum, 2) +
      ", \"hardware_threads\": " +
      std::to_string(std::thread::hardware_concurrency()) +
      ", \"kernel_dispatch\": \"" +
      stratrec::core::kernels::DispatchLevelName(
          stratrec::core::kernels::ActiveDispatchLevel()) +
      "\", \"compiler_flags\": \"" + stratrec::core::kernels::CompileFlags() +
      "\"},\n  \"scenarios\": [";
  for (size_t i = 0; i < rows.size(); ++i) {
    const Row& row = rows[i];
    json += (i == 0 ? "\n" : ",\n");
    json += "    {\"name\": \"" + row.name +
            "\", \"events\": " + std::to_string(row.events) +
            ", \"incremental_events_per_sec\": " +
            stratrec::FormatDouble(row.incremental.events_per_sec, 2) +
            ", \"full_rebuild_events_per_sec\": " +
            stratrec::FormatDouble(row.rebuild.events_per_sec, 2) +
            ", \"speedup\": " + stratrec::FormatDouble(row.speedup, 4) +
            ", \"admitted\": " + std::to_string(row.incremental.stats.admitted) +
            ", \"queued\": " + std::to_string(row.incremental.stats.queued) +
            ", \"rejected\": " +
            std::to_string(row.incremental.stats.rejected) +
            ", \"reschedules\": " + std::to_string(row.incremental.reschedules) +
            ", \"snapshot_delta_updates\": " +
            std::to_string(row.incremental.delta_updates) +
            ", \"snapshot_rebuilds\": " +
            std::to_string(row.incremental.rebuilds) + "}";
  }
  json += "\n  ],\n  \"replay\": [";
  for (size_t i = 0; i < replay.size(); ++i) {
    const ReplayCheck& check = replay[i];
    json += (i == 0 ? "\n" : ",\n");
    json += "    {\"threads\": " + std::to_string(check.threads) +
            ", \"sessions\": " + std::to_string(check.sessions) +
            ", \"events\": " + std::to_string(check.events) +
            ", \"matched\": " + std::to_string(check.matched) +
            ", \"ok\": " + (check.ok ? "true" : "false") + "}";
  }
  json += "\n  ]\n}\n";
  std::printf("\n%s", json.c_str());

  if (FILE* out = std::fopen("stream_load.json", "w")) {
    std::fputs(json.c_str(), out);
    std::fclose(out);
    std::printf("(written to stream_load.json)\n");
  }
  return 0;
}
