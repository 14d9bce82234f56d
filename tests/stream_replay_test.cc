// Stream subsystem tests: a session's ADPaR alternatives equal the batch
// path's solver on a fresh snapshot at the session's quantized W after
// arbitrary event interleavings (and a batch's alternative through the
// Service), the snapshot counters under sub-grid drift, StreamScheduler's
// decision parity with the PR-0 OnlineScheduler, stream record -> replay
// byte-identity across pool sizes, and replay over a compacted journal
// chain (folded session prefixes are skipped, everything else reproduces).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "src/api/catalog.h"
#include "src/api/replay.h"
#include "src/api/service.h"
#include "src/common/executor.h"
#include "src/common/rng.h"
#include "src/core/catalog_index.h"
#include "src/core/online.h"
#include "src/stream/stream_scheduler.h"
#include "src/workload/generators.h"

namespace stratrec::api {
namespace {

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "stratrec_" + name + ".journal";
}

// TempDir persists across runs; stale segments from an earlier run must not
// leak into a chain read.
void RemoveSegments(const std::string& path) {
  std::remove(path.c_str());
  for (int i = 1; i <= 32; ++i) {
    std::remove((path + "." + std::to_string(i)).c_str());
  }
}

std::vector<core::DeploymentRequest> PoolRequests(uint64_t seed, int count,
                                                  int k) {
  workload::Generator generator({}, seed);
  auto requests = generator.RequestsWithRanges(count, k, {0.5, 0.75},
                                               {0.7, 1.0}, {0.7, 1.0});
  for (size_t i = 0; i < requests.size(); ++i) {
    requests[i].id = "req-" + std::to_string(i);
  }
  return requests;
}

/// Requests the generated catalogs cannot serve (quality >= 0.97 at cost
/// and latency <= 0.2), so each arrival is ineligible.
std::vector<core::DeploymentRequest> IneligibleRequests(uint64_t seed,
                                                        int count, int k) {
  workload::Generator generator({}, seed);
  auto requests = generator.RequestsWithRanges(count, k, {0.97, 1.0},
                                               {0.0, 0.2}, {0.0, 0.2});
  for (size_t i = 0; i < requests.size(); ++i) {
    requests[i].id = "ineligible-" + std::to_string(i);
  }
  return requests;
}

// ---------------------------------------------------------------------------
// Stream alternatives == the snapshot solver at the quantized W.
// ---------------------------------------------------------------------------

// After any interleaving of serviceable and ineligible arrivals, releases,
// and availability jumps or drifts, every alternative a session serves
// equals AdparExact on a fresh CatalogIndex::BuildSnapshot at the session's
// quantized W — the invariant that makes stream replay deterministic and
// stream alternatives match batch ones.
TEST(StreamScheduler, AlternativesMatchFreshSnapshotsUnderInterleavings) {
  workload::Generator generator({}, 0x5EED'0001ull);
  const auto profiles = generator.Profiles(300);
  const core::CatalogIndex index = core::CatalogIndex::Build(profiles);
  Executor executor(2);

  for (uint64_t trial = 0; trial < 8; ++trial) {
    Rng rng(0xABC0ull + trial);
    // Half the trials quantize; half move the snapshot on any W change.
    const double quantum = trial % 2 == 0 ? 0.05 : 0.0;
    stream::StreamSchedulerOptions options;
    options.recommend_alternatives = true;
    options.availability_quantum = quantum;
    auto scheduler = stream::StreamScheduler::Create(&index, &executor,
                                                     rng.Uniform(), options);
    ASSERT_TRUE(scheduler.ok());
    const auto serviceable = PoolRequests(0xFEED'0200ull + trial, 40, 3);
    const auto ineligible = IneligibleRequests(0xFEED'0300ull + trial, 40, 3);

    std::vector<std::string> live;
    size_t alternatives = 0;
    for (int step = 0; step < 80; ++step) {
      const double roll = rng.Uniform();
      if (roll < 0.5) {
        const auto& source = rng.Bernoulli(0.5) ? serviceable : ineligible;
        core::DeploymentRequest request = source[static_cast<size_t>(
            rng.UniformInt(0, static_cast<int64_t>(source.size()) - 1))];
        request.id = "req-" + std::to_string(step);
        auto outcome = scheduler->OnArrival(request);
        ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
        if (outcome->decision.kind !=
            core::AdmissionDecision::Kind::kRejected) {
          live.push_back(request.id);
        }
        if (outcome->has_alternative) {
          ++alternatives;
          const auto fresh = index.BuildSnapshot(
              core::QuantizeAvailability(scheduler->availability(), quantum));
          auto expected =
              core::AdparExact(*fresh, request.thresholds, request.k);
          ASSERT_TRUE(expected.ok()) << expected.status().ToString();
          EXPECT_TRUE(outcome->alternative == *expected)
              << "trial " << trial << " step " << step;
        }
      } else if (roll < 0.7 && !live.empty()) {
        // Release a live request; completing a queued one fails, which the
        // scheduler must absorb without touching the snapshot either.
        const size_t i = static_cast<size_t>(
            rng.UniformInt(0, static_cast<int64_t>(live.size()) - 1));
        (void)(rng.Bernoulli(0.5) ? scheduler->OnRevocation(live[i])
                                  : scheduler->OnCompletion(live[i]));
        live[i] = live.back();
        live.pop_back();
      } else if (roll < 0.85) {
        // Jump anywhere in [0, 1).
        ASSERT_TRUE(scheduler->SetAvailability(rng.Uniform()).ok());
      } else {
        // Small drift; under the quantum this stays in the snapshot's cell.
        const double w = std::clamp(
            scheduler->availability() + rng.Uniform(-0.02, 0.02), 0.0, 1.0);
        ASSERT_TRUE(scheduler->SetAvailability(w).ok());
      }
    }
    EXPECT_GT(alternatives, 0u) << "trial " << trial;
    EXPECT_GT(scheduler->snapshot_delta_updates(), 0u);
  }
}

TEST(StreamScheduler, QuantumAbsorbsSubGridDrift) {
  workload::Generator generator({}, 0x5EED'0002ull);
  const auto profiles = generator.Profiles(50);
  const core::CatalogIndex index = core::CatalogIndex::Build(profiles);

  stream::StreamSchedulerOptions options;
  options.recommend_alternatives = true;
  options.availability_quantum = 0.05;
  auto scheduler =
      stream::StreamScheduler::Create(&index, nullptr, 0.5, options);
  ASSERT_TRUE(scheduler.ok());
  ASSERT_TRUE(scheduler->SetAvailability(0.51).ok());  // same 0.05 cell
  ASSERT_TRUE(scheduler->SetAvailability(0.49).ok());
  EXPECT_EQ(scheduler->snapshot_rebuilds(), 0u);
  EXPECT_EQ(scheduler->snapshot_delta_updates(), 2u);
  ASSERT_TRUE(scheduler->SetAvailability(0.60).ok());  // genuinely moved
  EXPECT_EQ(scheduler->snapshot_rebuilds(), 1u);
  // The next alternative is solved at the session's quantized W:
  // round(0.60 / 0.05) * 0.05 is one ulp above the literal 0.6, and the
  // contract is stated against BuildSnapshot(QuantizeAvailability(w, q)).
  const auto request = IneligibleRequests(0xFEED'0500ull, 1, 3).front();
  auto outcome = scheduler->OnArrival(request);
  ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
  ASSERT_TRUE(outcome->has_alternative);
  auto expected = core::AdparExact(
      *index.BuildSnapshot(core::QuantizeAvailability(0.60, 0.05)),
      request.thresholds, request.k);
  ASSERT_TRUE(expected.ok());
  EXPECT_TRUE(outcome->alternative == *expected);
}

// Through the Service, at one quantized W, a stream session and a batch
// with alternatives on answer the same ineligible request with the same
// AdparResult: both run the snapshot AdparExact.
TEST(StreamScheduler, SessionAlternativeEqualsTheBatchAlternative) {
  workload::Generator generator({}, 0x5EED'0007ull);
  const auto profiles = generator.Profiles(500);
  ServiceConfig config;
  config.cache.availability_quantum = 0.05;
  auto service = Service::Create(CatalogFromProfiles(profiles), config);
  ASSERT_TRUE(service.ok());
  const auto requests = IneligibleRequests(0xFEED'0400ull, 4, 3);

  BatchRequest batch;
  batch.requests = requests;
  batch.availability = AvailabilitySpec::Fixed(0.53);
  batch.recommend_alternatives = true;
  auto report = service->SubmitBatch(batch);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  ASSERT_EQ(report->result.alternatives.size(), requests.size());

  StreamOptions options;
  options.availability = AvailabilitySpec::Fixed(0.53);
  options.recommend_alternatives = true;
  auto session = service->OpenStream(options);
  ASSERT_TRUE(session.ok()) << session.status().ToString();
  for (size_t i = 0; i < requests.size(); ++i) {
    auto update = session->Submit(StreamEvent::Arrival(requests[i]));
    ASSERT_TRUE(update.ok()) << update.status().ToString();
    ASSERT_TRUE(update->has_alternative) << requests[i].id;
    const core::AlternativeRecommendation& batched =
        report->result.alternatives[i];
    EXPECT_EQ(batched.request_index, i);
    EXPECT_TRUE(update->alternative == batched.result) << requests[i].id;
  }
}

// ---------------------------------------------------------------------------
// StreamScheduler == OnlineScheduler, decision by decision.
// ---------------------------------------------------------------------------

// The stream rewrite must keep the PR-0 semantics exactly: same admission
// kinds, strategies, workforce, statuses, and lifetime counters for any
// event interleaving — only the maintenance strategy differs.
TEST(StreamScheduler, DecisionParityWithOnlineScheduler) {
  workload::Generator generator({}, 0x5EED'0003ull);
  const auto profiles = generator.Profiles(200);
  const core::CatalogIndex index = core::CatalogIndex::Build(profiles);
  Executor executor(2);

  for (uint64_t trial = 0; trial < 4; ++trial) {
    const auto requests = PoolRequests(0xFEED'0000ull + trial, 80, 3);
    stream::StreamSchedulerOptions stream_options;
    stream_options.max_pending = 8;
    auto incremental =
        stream::StreamScheduler::Create(&index, &executor, 0.5, stream_options);
    ASSERT_TRUE(incremental.ok());
    core::OnlineOptions online_options;
    online_options.max_pending = 8;
    auto reference =
        core::OnlineScheduler::Create(profiles, 0.5, online_options);
    ASSERT_TRUE(reference.ok());

    Rng rng(0xD1CE'0000ull + trial);
    double w = 0.5;
    size_t next = 0;
    std::vector<std::string> issued;
    for (int step = 0; step < 120; ++step) {
      const double roll = rng.Uniform();
      if (roll < 0.5 && next < requests.size()) {
        const auto& request = requests[next++];
        issued.push_back(request.id);
        auto a = incremental->OnArrival(request);
        auto b = reference->OnArrival(request);
        ASSERT_EQ(a.ok(), b.ok());
        if (a.ok()) {
          EXPECT_EQ(a->decision, *b);
        }
      } else if (roll < 0.75 && !issued.empty()) {
        // Revoke / complete a random issued id — including ids that were
        // rejected or already released, so the failure paths align too.
        const auto& id = issued[static_cast<size_t>(
            rng.UniformInt(0, static_cast<int64_t>(issued.size()) - 1))];
        if (rng.Bernoulli(0.5)) {
          EXPECT_EQ(incremental->OnRevocation(id).code(),
                    reference->OnRevocation(id).code());
        } else {
          EXPECT_EQ(incremental->OnCompletion(id).code(),
                    reference->OnCompletion(id).code());
        }
      } else {
        w = rng.Uniform(0.2, 0.9);
        EXPECT_TRUE(incremental->SetAvailability(w).ok());
        EXPECT_TRUE(reference->SetAvailability(w).ok());
      }
      EXPECT_DOUBLE_EQ(incremental->used_workforce(),
                       reference->used_workforce());
      EXPECT_EQ(incremental->active(), reference->active());
      EXPECT_EQ(incremental->pending(), reference->pending());
    }
    const core::OnlineStats& a = incremental->stats();
    const core::OnlineStats& b = reference->stats();
    EXPECT_EQ(a.arrivals, b.arrivals);
    EXPECT_EQ(a.admitted, b.admitted);
    EXPECT_EQ(a.queued, b.queued);
    EXPECT_EQ(a.rejected, b.rejected);
    EXPECT_EQ(a.revoked, b.revoked);
    EXPECT_EQ(a.completed, b.completed);
    EXPECT_DOUBLE_EQ(a.objective, b.objective);
  }
}

// An admitted arrival keeps exactly its k strategies: the k-best scan must
// not hand the session a list that still holds the O(|S|) scan buffer. An
// ineligible arrival's alternative carries its own k strategies' parameters.
TEST(StreamScheduler, ArrivalsKeepOnlyTheirKStrategies) {
  workload::Generator generator({}, 0x5EED'0004ull);
  const auto profiles = generator.Profiles(2000);
  const core::CatalogIndex index = core::CatalogIndex::Build(profiles);
  stream::StreamSchedulerOptions options;
  options.recommend_alternatives = true;
  auto scheduler = stream::StreamScheduler::Create(&index, nullptr, 0.9,
                                                   options);
  ASSERT_TRUE(scheduler.ok());

  auto requests = PoolRequests(0xFEED'0100ull, 30, 3);
  workload::Generator hopeless_source({}, 0xFEED'0101ull);
  auto hopeless = hopeless_source.RequestsWithRanges(
      5, 3, {0.97, 1.0}, {0.0, 0.05}, {0.0, 0.05});
  for (size_t i = 0; i < hopeless.size(); ++i) {
    hopeless[i].id = "hopeless-" + std::to_string(i);
  }
  requests.insert(requests.end(), hopeless.begin(), hopeless.end());

  size_t admitted = 0;
  size_t alternatives = 0;
  for (const core::DeploymentRequest& request : requests) {
    auto outcome = scheduler->OnArrival(request);
    ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
    if (outcome->decision.kind == core::AdmissionDecision::Kind::kAdmitted) {
      ++admitted;
      EXPECT_EQ(outcome->decision.strategies.size(), 3u);
      EXPECT_EQ(outcome->decision.strategies.capacity(), 3u);
    }
    if (outcome->has_alternative) {
      ++alternatives;
      const core::AdparResult& alternative = outcome->alternative;
      ASSERT_EQ(alternative.strategy_params.size(), 3u);
      for (size_t j = 0; j < 3; ++j) {
        EXPECT_TRUE(alternative.strategy_params[j] ==
                    profiles[alternative.strategies[j]].EstimateParams(0.9));
      }
    }
  }
  EXPECT_GT(admitted, 0u);
  EXPECT_GT(alternatives, 0u);
}

// ---------------------------------------------------------------------------
// Record -> replay byte-identity.
// ---------------------------------------------------------------------------

/// Drives one journaled session through every event kind (successes and
/// failures) and returns the number of Submit calls made.
size_t DriveRecordedSession(const Service& service, bool alternatives) {
  StreamOptions options;
  options.recommend_alternatives = alternatives;
  auto session = service.OpenStream(options);
  if (!session.ok()) {
    ADD_FAILURE() << "session failed to open: "
                  << session.status().ToString();
    return 0;
  }
  const auto requests = PoolRequests(0xCAFEull, 24, 3);
  size_t events = 0;
  for (size_t i = 0; i < requests.size(); ++i) {
    (void)session->Submit(StreamEvent::Arrival(requests[i]));
    ++events;
    if (i % 5 == 2) {
      (void)session->Submit(StreamEvent::Completion(requests[i].id));
      ++events;
    }
    if (i % 7 == 3) {
      (void)session->Submit(StreamEvent::Revocation(requests[i / 2].id));
      ++events;
    }
    if (i % 6 == 4) {
      (void)session->Submit(StreamEvent::AvailabilityChange(
          AvailabilitySpec::Fixed(0.3 + 0.05 * static_cast<double>(i % 8))));
      ++events;
    }
  }
  // A guaranteed failure record: replay must reproduce the Status bytes.
  (void)session->Submit(StreamEvent::Revocation("ghost"));
  ++events;
  return events;
}

TEST(StreamReplay, ByteIdenticalAcrossPoolSizes) {
  const std::string path = TempPath("stream_replay");
  RemoveSegments(path);
  workload::Generator generator({}, 0x5EED'0004ull);
  const auto profiles = generator.Profiles(120);

  size_t recorded_events = 0;
  {
    ServiceConfig config;
    config.journal.path = path;
    auto service = Service::Create(CatalogFromProfiles(profiles), config);
    ASSERT_TRUE(service.ok());
    // The ADPaR-alternatives leg rides the snapshot orderings; record it
    // alongside a plain session so replay covers both shapes.
    recorded_events += DriveRecordedSession(*service, /*alternatives=*/true);
    recorded_events += DriveRecordedSession(*service, /*alternatives=*/false);
  }

  auto trace = wire::ReadTraceFile(path);
  ASSERT_TRUE(trace.ok()) << trace.status().ToString();
  ASSERT_EQ(trace->stream_opens.size(), 2u);
  ASSERT_EQ(trace->stream_events.size(), recorded_events);

  for (size_t threads : {1u, 2u, 4u, 8u}) {
    wire::ReplayOptions options;
    options.worker_threads = threads;
    auto result = wire::ReplayTrace(*trace, options);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_TRUE(result->ok()) << result->mismatched.size() << " mismatches at "
                              << threads << " threads, first: "
                              << result->mismatched.front();
    EXPECT_EQ(result->stream_sessions, 2u);
    EXPECT_EQ(result->stream_events_replayed, recorded_events);
    EXPECT_EQ(result->stream_matched, recorded_events);
    EXPECT_EQ(result->stream_skipped_sessions, 0u);
  }
}

// Replay rounds re-drive stream sessions under round-suffixed ids, so one
// trace can be used as a bigger deterministic workload.
TEST(StreamReplay, RoundsMultiplySessionsAndStillMatch) {
  const std::string path = TempPath("stream_rounds");
  RemoveSegments(path);
  workload::Generator generator({}, 0x5EED'0005ull);
  const auto profiles = generator.Profiles(60);
  size_t recorded_events = 0;
  {
    ServiceConfig config;
    config.journal.path = path;
    auto service = Service::Create(CatalogFromProfiles(profiles), config);
    ASSERT_TRUE(service.ok());
    recorded_events = DriveRecordedSession(*service, /*alternatives=*/false);
  }
  auto trace = wire::ReadTraceFile(path);
  ASSERT_TRUE(trace.ok());
  wire::ReplayOptions options;
  options.rounds = 3;
  auto result = wire::ReplayTrace(*trace, options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(result->ok());
  EXPECT_EQ(result->stream_sessions, 3u);
  EXPECT_EQ(result->stream_matched, 3 * recorded_events);
}

// ---------------------------------------------------------------------------
// Compaction transparency.
// ---------------------------------------------------------------------------

// A journal that compacted while recording still reads as one trace:
// config/catalog/opens survive the fold, and replay skips exactly the
// sessions whose event prefix was folded away (seq gap) — no mismatches.
TEST(StreamReplay, CompactedChainReplaysWithFoldedSessionsSkipped) {
  const std::string path = TempPath("stream_compacted");
  RemoveSegments(path);
  workload::Generator generator({}, 0x5EED'0006ull);
  const auto profiles = generator.Profiles(60);

  size_t recorded_events = 0;
  {
    ServiceConfig config;
    config.journal.path = path;
    // Small segments + an aggressive fold: the early session's events land
    // in segments that are folded away while it is still live.
    config.journal.max_segment_bytes = 2048;
    config.journal.compact_after_segments = 2;
    config.journal.retain_segments = 1;
    auto service = Service::Create(CatalogFromProfiles(profiles), config);
    ASSERT_TRUE(service.ok());
    recorded_events += DriveRecordedSession(*service, /*alternatives=*/false);
    recorded_events += DriveRecordedSession(*service, /*alternatives=*/false);
  }

  auto trace = wire::ReadTraceFile(path);
  ASSERT_TRUE(trace.ok()) << trace.status().ToString();
  EXPECT_TRUE(trace->has_config);
  EXPECT_TRUE(trace->has_catalog);
  // Compaction actually dropped cold events; every open survived the fold.
  EXPECT_LT(trace->stream_events.size(), recorded_events)
      << "expected the chain to compact; raise the event count if the "
         "records shrank below two segments";
  EXPECT_EQ(trace->stream_opens.size(), 2u);

  auto result = wire::ReplayTrace(*trace);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(result->ok()) << "replay over a compacted chain must skip, "
                               "never mismatch";
  EXPECT_EQ(result->stream_sessions + result->stream_skipped_sessions, 2u);
  EXPECT_GT(result->stream_skipped_sessions, 0u)
      << "the folded session should be unreconstructible";
  EXPECT_EQ(result->stream_matched, result->stream_events_replayed);
}

}  // namespace
}  // namespace stratrec::api
