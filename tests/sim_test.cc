// Platform simulator tests: the discrete-event substrate (virtual clock,
// tie-breaking, per-actor PRNG streams), scenario lookup/scaling, and the
// golden determinism contract — the same (scenario, seed) reproduces the
// same event schedule, the same schedule digest, and byte-identical journal
// records across repeated runs and across worker-pool sizes.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "src/api/catalog.h"
#include "src/api/codec.h"
#include "src/api/replay.h"
#include "src/workload/generators.h"
#include "src/common/journal.h"
#include "src/sim/engine.h"
#include "src/sim/scenario.h"
#include "src/sim/simulator.h"

namespace stratrec::sim {
namespace {

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "stratrec_sim_" + name + ".journal";
}

std::string ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

// Scenarios scaled down for unit-test budgets: same shapes as the full
// sweep, a fraction of the horizon and catalog.
ScenarioConfig SmallScenario(const std::string& name) {
  auto scenario = FindScenario(name);
  EXPECT_TRUE(scenario.ok()) << scenario.status().ToString();
  ScaleScenario(&*scenario, /*ticks=*/24.0, /*strategies=*/120);
  return *scenario;
}

// --- EventQueue -----------------------------------------------------------

TEST(EventQueue, FiresInTimeOrderWithStableTies) {
  EventQueue queue;
  std::vector<int> order;
  queue.Schedule(2.0, [&] { order.push_back(3); });
  queue.Schedule(1.0, [&] { order.push_back(1); });
  queue.Schedule(1.0, [&] { order.push_back(2); });  // same time: FIFO
  while (queue.RunNext()) {
  }
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(queue.now(), 2.0);
  EXPECT_EQ(queue.fired(), 3u);
}

TEST(EventQueue, EventsScheduleFurtherEventsAndThePastClampsToNow) {
  EventQueue queue;
  std::vector<double> times;
  queue.Schedule(1.0, [&] {
    times.push_back(queue.now());
    queue.ScheduleAfter(0.5, [&] { times.push_back(queue.now()); });
    queue.Schedule(0.0, [&] { times.push_back(queue.now()); });  // the past
  });
  while (queue.RunNext()) {
  }
  // The past-scheduled event fires at now (1.0), before the +0.5 one.
  EXPECT_EQ(times, (std::vector<double>{1.0, 1.0, 1.5}));
}

TEST(EventQueue, RunUntilStopsAtTheHorizonAndAdvancesTheClock) {
  EventQueue queue;
  int fired = 0;
  queue.Schedule(1.0, [&] { ++fired; });
  queue.Schedule(5.0, [&] { ++fired; });
  EXPECT_EQ(queue.RunUntil(2.0), 1u);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(queue.now(), 2.0);
  EXPECT_EQ(queue.pending(), 1u);
}

// --- RngStreams / DeriveSeed ----------------------------------------------

TEST(RngStreams, SameActorSameStreamAndOrderOfFirstUseDoesNotMatter) {
  RngStreams a(42);
  RngStreams b(42);
  // a touches "x" first; b touches "y" first — the streams must not care.
  const uint64_t ax = a.For("x").Next();
  const uint64_t ay = a.For("y").Next();
  const uint64_t by = b.For("y").Next();
  const uint64_t bx = b.For("x").Next();
  EXPECT_EQ(ax, bx);
  EXPECT_EQ(ay, by);
  EXPECT_NE(ax, ay);  // distinct actors, uncorrelated streams
  EXPECT_NE(DeriveSeed(42, "x"), DeriveSeed(43, "x"));
  EXPECT_EQ(DeriveSeed(42, "x"), DeriveSeed(42, "x"));
}

TEST(ScheduleDigest, MixesOrderSensitivelyAndHexRoundTrips) {
  ScheduleDigest a;
  ScheduleDigest b;
  a.Mix("x");
  a.Mix(uint64_t{1});
  b.Mix(uint64_t{1});
  b.Mix("x");
  EXPECT_NE(a.value(), b.value());
  EXPECT_EQ(ScheduleDigest::Hex(0).size(), 16u);
  EXPECT_EQ(ScheduleDigest::Hex(0xABCDEF), "0000000000abcdef");
}

// --- Scenarios ------------------------------------------------------------

TEST(Scenarios, BuiltinSetCoversTheSweepMatrix) {
  const auto names = ScenarioNames();
  EXPECT_GE(names.size(), 8u);
  for (const std::string& name : names) {
    auto scenario = FindScenario(name);
    ASSERT_TRUE(scenario.ok()) << name;
    EXPECT_EQ(scenario->name, name);
  }
  EXPECT_FALSE(FindScenario("no-such-scenario").ok());
  // The set exercises both modes and the storm/fault machinery.
  bool stream = false, batch = false, faults = false, storms = false;
  for (const ScenarioConfig& scenario : BuiltinScenarios()) {
    stream |= scenario.stream_mode;
    batch |= !scenario.stream_mode;
    faults |= scenario.faults.drop_probability > 0.0;
    storms |= scenario.storms.revocation_period > 0 ||
              scenario.storms.cancellation_period > 0;
  }
  EXPECT_TRUE(stream && batch && faults && storms);
}

TEST(Scenarios, ScaleRescalesFaultWindowsWithTheHorizon) {
  auto scenario = FindScenario("brownout");
  ASSERT_TRUE(scenario.ok());
  const double fraction =
      scenario->faults.slowdown_begin / scenario->ticks;
  ScaleScenario(&*scenario, 30.0, 100);
  EXPECT_EQ(scenario->ticks, 30.0);
  EXPECT_EQ(scenario->strategies, 100u);
  EXPECT_DOUBLE_EQ(scenario->faults.slowdown_begin, fraction * 30.0);
}

// --- The golden determinism contract --------------------------------------

// Same (scenario, seed) and pool: repeated runs must agree on the schedule
// digest, the event count, AND the exact journal bytes.
TEST(Simulator, RepeatedRunsAreByteIdentical) {
  for (const char* name : {"poisson", "bursty", "brownout"}) {
    const ScenarioConfig scenario = SmallScenario(name);
    RunOptions options;
    options.seed = 7;
    options.worker_threads = 2;
    // One path for both runs: the config record embeds the journal path, so
    // byte identity only makes sense when it matches. The writer truncates
    // at Service::Create, so the second run fully replaces the first.
    options.journal_path = TempPath(name);
    auto first = RunScenario(scenario, options);
    ASSERT_TRUE(first.ok()) << first.status().ToString();
    const std::string first_bytes = ReadFileBytes(options.journal_path);
    auto second = RunScenario(scenario, options);
    ASSERT_TRUE(second.ok()) << second.status().ToString();

    EXPECT_EQ(first->schedule_digest, second->schedule_digest) << name;
    EXPECT_EQ(first->events_fired, second->events_fired) << name;
    EXPECT_EQ(first->batches_submitted, second->batches_submitted) << name;
    EXPECT_EQ(first_bytes, ReadFileBytes(options.journal_path))
        << name << ": journal bytes differ between identical runs";
    std::remove(options.journal_path.c_str());
  }
}

// Across pool sizes: the digest is always invariant; for deterministic
// scenarios the journal fingerprint (records minus config/stats lines) is
// too; and every journal replays byte-identically.
TEST(Simulator, PoolSizeNeverLeaksIntoTheSchedule) {
  for (const char* name : {"poisson", "churn"}) {
    const ScenarioConfig scenario = SmallScenario(name);
    uint64_t digest = 0;
    uint64_t fingerprint = 0;
    for (const size_t pool : {size_t{1}, size_t{2}, size_t{4}}) {
      RunOptions options;
      options.seed = 11;
      options.worker_threads = pool;
      options.journal_path = TempPath(std::string(name) + "_pool");
      auto report = RunScenario(scenario, options);
      ASSERT_TRUE(report.ok()) << report.status().ToString();
      auto print = JournalFingerprint(options.journal_path);
      ASSERT_TRUE(print.ok()) << print.status().ToString();
      if (pool == 1) {
        digest = report->schedule_digest;
        fingerprint = *print;
      } else {
        EXPECT_EQ(report->schedule_digest, digest)
            << name << " at pool " << pool;
        ASSERT_TRUE(scenario.deterministic_journal);
        EXPECT_EQ(*print, fingerprint) << name << " at pool " << pool;
      }
      auto trace = wire::ReadTraceFile(options.journal_path);
      ASSERT_TRUE(trace.ok()) << trace.status().ToString();
      auto replayed = wire::ReplayTrace(*trace, {.worker_threads = pool});
      ASSERT_TRUE(replayed.ok()) << replayed.status().ToString();
      EXPECT_TRUE(replayed->ok()) << name << ": " << replayed->mismatched.size()
                                  << " mismatched pairs at pool " << pool;
      std::remove(options.journal_path.c_str());
    }
  }
}

// The cancel-storm scenario races Ticket::Cancel against the pool on
// purpose: its journal bytes may vary, but the schedule digest must not,
// and the journal must still replay byte-identically (cancelled pairs are
// skipped as unreproducible work).
TEST(Simulator, CancelStormKeepsDigestInvariantAndReplaysCleanly) {
  ScenarioConfig scenario = SmallScenario("cancel-storm");
  ASSERT_FALSE(scenario.deterministic_journal);
  uint64_t digest = 0;
  size_t attempts = 0;
  for (const size_t pool : {size_t{1}, size_t{4}}) {
    RunOptions options;
    options.seed = 23;
    options.worker_threads = pool;
    options.journal_path = TempPath("cancel_storm");
    auto report = RunScenario(scenario, options);
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    EXPECT_GT(report->cancel_attempts, 0u);
    if (pool == 1) {
      digest = report->schedule_digest;
      attempts = report->cancel_attempts;
    } else {
      EXPECT_EQ(report->schedule_digest, digest);
      // The *attempts* are inputs (deterministic); the wins are the race.
      EXPECT_EQ(report->cancel_attempts, attempts);
    }
    auto trace = wire::ReadTraceFile(options.journal_path);
    ASSERT_TRUE(trace.ok()) << trace.status().ToString();
    auto replayed = wire::ReplayTrace(*trace, {.worker_threads = pool});
    ASSERT_TRUE(replayed.ok()) << replayed.status().ToString();
    EXPECT_TRUE(replayed->ok());
    std::remove(options.journal_path.c_str());
  }
}

// Scenario behavior: the knobs actually do what they claim.
TEST(Simulator, ScenarioKnobsShapeTheRun) {
  RunOptions options;
  options.seed = 3;
  options.worker_threads = 2;

  // Brownout drops batches and stretches latencies inside its window.
  auto brownout = RunScenario(SmallScenario("brownout"), options);
  ASSERT_TRUE(brownout.ok()) << brownout.status().ToString();
  EXPECT_GT(brownout->dropped_batches, 0u);
  EXPECT_GT(brownout->latency.max, 0.0);

  // Diurnal drift moves the availability; the quantum keeps changes finite.
  auto diurnal = RunScenario(SmallScenario("diurnal"), options);
  ASSERT_TRUE(diurnal.ok()) << diurnal.status().ToString();
  EXPECT_GT(diurnal->availability_changes, 0u);

  // Churn joins and leaves workers; the stream session sees revocations
  // from the revocation-storm scenario.
  auto churn = RunScenario(SmallScenario("churn"), options);
  ASSERT_TRUE(churn.ok()) << churn.status().ToString();
  EXPECT_GT(churn->worker_joins + churn->worker_leaves, 0u);
  EXPECT_GT(churn->stream.arrivals, 0u);

  auto storm = RunScenario(SmallScenario("revocation-storm"), options);
  ASSERT_TRUE(storm.ok()) << storm.status().ToString();
  EXPECT_GT(storm->stream.revoked, 0u);

  // Multi-tenant runs drive one service per tenant (and journal each).
  ScenarioConfig multi = SmallScenario("multi-tenant");
  options.journal_path = TempPath("multi");
  auto tenants = RunScenario(multi, options);
  ASSERT_TRUE(tenants.ok()) << tenants.status().ToString();
  ASSERT_EQ(tenants->journals.size(), multi.tenants);
  for (const std::string& path : tenants->journals) {
    auto trace = wire::ReadTraceFile(path);
    EXPECT_TRUE(trace.ok()) << path << ": " << trace.status().ToString();
    std::remove(path.c_str());
  }
}

// The diurnal scenario writes virtual-time-stamped stats checkpoints
// (journal format v6): the recorded trace carries them in virtual-time
// order, and replay is unaffected by their presence.
TEST(Simulator, StatsSnapshotsCarryVirtualTime) {
  const ScenarioConfig scenario = SmallScenario("diurnal");
  ASSERT_GE(scenario.stats_snapshot_period, 1.0);
  RunOptions options;
  options.seed = 5;
  options.worker_threads = 2;
  options.journal_path = TempPath("diurnal_stats");
  auto report = RunScenario(scenario, options);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  auto trace = wire::ReadTraceFile(options.journal_path);
  ASSERT_TRUE(trace.ok()) << trace.status().ToString();
  ASSERT_FALSE(trace->stats.empty());
  double previous = 0.0;
  for (const wire::StatsRecord& checkpoint : trace->stats) {
    EXPECT_TRUE(checkpoint.has_sim_time);
    EXPECT_GT(checkpoint.sim_time, previous);
    previous = checkpoint.sim_time;
    EXPECT_GT(checkpoint.stats.batches, 0u);
  }
  auto replayed = wire::ReplayTrace(*trace, {.worker_threads = 2});
  ASSERT_TRUE(replayed.ok()) << replayed.status().ToString();
  EXPECT_TRUE(replayed->ok());
  std::remove(options.journal_path.c_str());
}

// RunOptions::catalog pins tenant 0 to a caller-supplied catalog (the
// example's AMT-fitted one); a different catalog must change outcomes but
// not the schedule digest (the digest hashes inputs, not outcomes).
TEST(Simulator, CallerSuppliedCatalogIsServed) {
  const ScenarioConfig scenario = SmallScenario("poisson");
  RunOptions with_default;
  with_default.seed = 9;
  with_default.worker_threads = 1;
  auto baseline = RunScenario(scenario, with_default);
  ASSERT_TRUE(baseline.ok()) << baseline.status().ToString();

  workload::Generator generator({}, 1234);
  RunOptions with_catalog = with_default;
  with_catalog.catalog =
      api::CatalogFromProfiles(generator.Profiles(40), "tiny-s");
  auto custom = RunScenario(scenario, with_catalog);
  ASSERT_TRUE(custom.ok()) << custom.status().ToString();
  EXPECT_EQ(custom->schedule_digest, baseline->schedule_digest);
  EXPECT_EQ(custom->requests_submitted, baseline->requests_submitted);
}

}  // namespace
}  // namespace stratrec::sim
