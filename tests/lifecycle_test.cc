// Request-lifecycle helper tests (src/api/lifecycle.h): the dequeue-time
// deadline check, the job exception guard, id minting, the named-model
// table and the striped lifetime counters that api::Service and
// router::ShardRouter both run on, plus the kStatsCounters table those
// counters walk — and the one copy of availability snapping
// (core::QuantizeAvailability) both tiers apply before a job runs.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <new>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "src/api/lifecycle.h"
#include "src/common/executor.h"
#include "src/core/catalog_index.h"

namespace stratrec::api::internal {
namespace {

using core::QuantizeAvailability;

core::AvailabilityModel PaperModel() {
  // Paper Section 2.1: a 70% chance of 7% of workers and a 30% chance of
  // 2% gives an expected availability of 5.5%.
  return *core::AvailabilityModel::FromPmf({{0.07, 0.7}, {0.02, 0.3}});
}

TEST(Lifecycle, QuantizeAvailabilitySnapsToTheGrid) {
  // Quantum 0 (the default) and a non-positive quantum leave W untouched.
  EXPECT_EQ(QuantizeAvailability(0.123456789, 0.0), 0.123456789);
  EXPECT_EQ(QuantizeAvailability(0.123456789, -0.1), 0.123456789);
  // Nearest grid point, in either direction.
  EXPECT_DOUBLE_EQ(QuantizeAvailability(0.36, 0.05), 0.35);
  EXPECT_DOUBLE_EQ(QuantizeAvailability(0.38, 0.05), 0.40);
  EXPECT_DOUBLE_EQ(QuantizeAvailability(0.80, 0.25), 0.75);
  // Points already on the grid stay there, bit for bit.
  EXPECT_EQ(QuantizeAvailability(0.5, 0.25), 0.5);
  EXPECT_EQ(QuantizeAvailability(0.0, 0.1), 0.0);
}

TEST(Lifecycle, QuantizeAvailabilityClampsToTheUnitInterval) {
  // A coarse grid can round past either end of [0, 1]; W never leaves it.
  EXPECT_EQ(QuantizeAvailability(1.0, 0.4), 1.0);   // round(2.5) * 0.4 = 1.2
  EXPECT_EQ(QuantizeAvailability(0.9, 0.6), 1.0);   // round(1.5) * 0.6
  EXPECT_EQ(QuantizeAvailability(-0.3, 0.4), 0.0);  // round(-0.75) * 0.4
}

TEST(Lifecycle, DeadlineExpiresOnlyOnceAPositiveBudgetRunsOut) {
  const auto now = std::chrono::steady_clock::now();
  const auto an_hour_ago = now - std::chrono::hours(1);
  // 0 and negative budgets mean "no deadline", however old the ticket.
  EXPECT_FALSE(DeadlineExpired(0.0, an_hour_ago));
  EXPECT_FALSE(DeadlineExpired(-5.0, an_hour_ago));
  // A 1 ms budget submitted an hour ago is long gone ...
  EXPECT_TRUE(DeadlineExpired(1.0, an_hour_ago));
  // ... while a budget of days has not run out for a ticket submitted now.
  EXPECT_FALSE(DeadlineExpired(3.0e8, now));
}

TEST(Lifecycle, ExpiredStatusIsDeterministic) {
  // No elapsed time in the message: two expiries of the same ticket must
  // journal byte-identically, so replay can compare outcomes exactly.
  const Status expired = ExpiredStatus("sweep-000042");
  EXPECT_EQ(expired.code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(expired.message(),
            "ticket sweep-000042 deadline expired before execution");
  EXPECT_TRUE(expired == ExpiredStatus("sweep-000042"));
}

TEST(Lifecycle, GuardJobPassesValuesAndErrorsThrough) {
  auto value = GuardJob([]() -> Result<int> { return 7; });
  ASSERT_TRUE(value.ok());
  EXPECT_EQ(value.value(), 7);

  auto error =
      GuardJob([]() -> Result<int> { return Status::Infeasible("no fit"); });
  ASSERT_FALSE(error.ok());
  EXPECT_TRUE(error.status() == Status::Infeasible("no fit"));

  const Status status = GuardJob([]() { return Status::NotFound("gone"); });
  EXPECT_TRUE(status == Status::NotFound("gone"));
}

TEST(Lifecycle, GuardJobTurnsEscapingExceptionsIntoInternal) {
  auto thrown = GuardJob([]() -> Result<int> {
    throw std::runtime_error("solver exploded");
  });
  ASSERT_FALSE(thrown.ok());
  EXPECT_TRUE(thrown.status() ==
              Status::Internal("job threw: solver exploded"));

  auto out_of_memory =
      GuardJob([]() -> Result<int> { throw std::bad_alloc(); });
  ASSERT_FALSE(out_of_memory.ok());
  EXPECT_EQ(out_of_memory.status().code(), StatusCode::kInternal);
  EXPECT_EQ(out_of_memory.status().message().rfind("job threw: ", 0), 0u)
      << out_of_memory.status().ToString();

  const Status non_std = GuardJob([]() -> Status { throw 7; });
  EXPECT_TRUE(non_std == Status::Internal("job threw a non-std exception"));
}

TEST(IdSequence, CountsFromOneAcrossPrefixes) {
  // One counter per tier: batch, sweep and stream ids interleave, so an id
  // alone orders a tier's requests across modes.
  IdSequence ids;
  EXPECT_EQ(ids.Next("batch"), "batch-000001");
  EXPECT_EQ(ids.Next("sweep"), "sweep-000002");
  EXPECT_EQ(ids.Next("stream"), "stream-000003");
  IdSequence other;
  EXPECT_EQ(other.Next("batch"), "batch-000001");
}

TEST(IdSequence, MintsUniqueIdsUnderConcurrency) {
  constexpr int kThreads = 4;
  constexpr int kPerThread = 500;
  IdSequence ids;
  std::vector<std::vector<std::string>> minted(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&ids, &minted, t]() {
      for (int i = 0; i < kPerThread; ++i) {
        minted[t].push_back(ids.Next("batch"));
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  std::set<std::string> unique;
  for (const auto& batch : minted) unique.insert(batch.begin(), batch.end());
  EXPECT_EQ(unique.size(), static_cast<size_t>(kThreads * kPerThread));
  EXPECT_EQ(*unique.begin(), "batch-000001");
  EXPECT_EQ(*unique.rbegin(), "batch-002000");
}

TEST(ModelTable, RejectsEmptyAndDuplicateNames) {
  ModelTable models;
  EXPECT_EQ(models.Register("", PaperModel()).code(),
            StatusCode::kInvalidArgument);
  EXPECT_TRUE(models.Register("amt", PaperModel()).ok());
  EXPECT_EQ(models.Register("amt", PaperModel()).code(),
            StatusCode::kFailedPrecondition);
  EXPECT_TRUE(models.Register("amt-weekend", PaperModel()).ok());
}

TEST(ModelTable, ResolvesSpecsAgainstRegisteredModels) {
  ModelTable models;
  ASSERT_TRUE(models.Register("amt", PaperModel()).ok());
  const AvailabilitySpec configured = AvailabilitySpec::Default();

  auto named = models.Resolve(AvailabilitySpec::Named("amt"), configured);
  ASSERT_TRUE(named.ok());
  EXPECT_NEAR(named.value(), 0.055, 1e-12);

  auto missing = models.Resolve(AvailabilitySpec::Named("mturk"), configured);
  EXPECT_EQ(missing.status().code(), StatusCode::kNotFound);

  // Non-named specs resolve exactly as ResolveAvailability does.
  EXPECT_EQ(models.Resolve(AvailabilitySpec::Fixed(0.3), configured).value(),
            0.3);
  EXPECT_EQ(models.Resolve(AvailabilitySpec::Fixed(1.5), configured)
                .status()
                .code(),
            StatusCode::kInvalidArgument);
}

TEST(ModelTable, DefaultSpecFallsBackToTheConfiguredSpec) {
  ModelTable models;
  ASSERT_TRUE(models.Register("amt", PaperModel()).ok());
  const AvailabilitySpec request = AvailabilitySpec::Default();

  // Nothing configured: the built-in 0.5.
  EXPECT_EQ(models.Resolve(request, AvailabilitySpec::Default()).value(), 0.5);
  // A configured spec answers every default request, named ones included.
  EXPECT_EQ(models.Resolve(request, AvailabilitySpec::Fixed(0.8)).value(),
            0.8);
  EXPECT_NEAR(models.Resolve(request, AvailabilitySpec::Named("amt")).value(),
              0.055, 1e-12);
  // A request's own spec wins over the configured one.
  EXPECT_EQ(models
                .Resolve(AvailabilitySpec::Fixed(0.3),
                         AvailabilitySpec::Fixed(0.8))
                .value(),
            0.3);
}

TEST(ModelTable, BrokenConfiguredSpecFailsOnlyDefaultRequests) {
  ModelTable models;
  const AvailabilitySpec configured = AvailabilitySpec::Named("never");
  EXPECT_EQ(models.Resolve(AvailabilitySpec::Default(), configured)
                .status()
                .code(),
            StatusCode::kNotFound);
  // Requests that bring their own W never touch the configured spec.
  EXPECT_EQ(models.Resolve(AvailabilitySpec::Fixed(0.3), configured).value(),
            0.3);
  // Registering the name later repairs default requests too.
  ASSERT_TRUE(models.Register("never", PaperModel()).ok());
  EXPECT_NEAR(models.Resolve(AvailabilitySpec::Default(), configured).value(),
              0.055, 1e-12);
}

TEST(ModelTable, ResolvesWhileAnotherThreadRegisters) {
  constexpr int kModels = 200;
  ModelTable models;
  const auto name = [](int i) { return "m" + std::to_string(i); };
  std::atomic<bool> wrong{false};
  std::thread writer([&]() {
    for (int i = 0; i < kModels; ++i) {
      EXPECT_TRUE(
          models.Register(name(i), *core::AvailabilityModel::FromSamples({0.25}))
              .ok());
    }
  });
  std::vector<std::thread> readers;
  for (int r = 0; r < 2; ++r) {
    readers.emplace_back([&, r]() {
      for (int round = 0; round < 5; ++round) {
        for (int i = r; i < kModels; i += 2) {
          auto w = models.Resolve(AvailabilitySpec::Named(name(i)),
                                  AvailabilitySpec::Default());
          // Either not registered yet, or the registered model's W.
          if (w.ok() ? w.value() != 0.25
                     : w.status().code() != StatusCode::kNotFound) {
            wrong = true;
          }
        }
      }
    });
  }
  writer.join();
  for (std::thread& reader : readers) reader.join();
  EXPECT_FALSE(wrong.load());
  for (int i = 0; i < kModels; ++i) {
    EXPECT_EQ(models
                  .Resolve(AvailabilitySpec::Named(name(i)),
                           AvailabilitySpec::Default())
                  .value(),
              0.25);
  }
}

TEST(StatsTable, ListsEveryCounterOnceUnderItsOwnName) {
  std::set<std::string> names;
  ServiceStats probe;
  for (size_t i = 0; i < std::size(kStatsCounters); ++i) {
    const StatsCounter& counter = kStatsCounters[i];
    EXPECT_TRUE(names.insert(counter.name).second)
        << "duplicate wire name " << counter.name;
    // Distinct members: writing through entry i never lands on an earlier
    // entry's field.
    probe.*counter.member = i + 1;
    for (size_t j = 0; j < i; ++j) {
      EXPECT_EQ(probe.*kStatsCounters[j].member, j + 1)
          << counter.name << " aliases " << kStatsCounters[j].name;
    }
  }
  // Every numeric field is listed: ServiceStats is the table's counters
  // plus the kernel_dispatch string and nothing else, so a counter added
  // to the struct without its table line fails here.
  EXPECT_EQ(sizeof(ServiceStats),
            std::size(kStatsCounters) * sizeof(size_t) + sizeof(std::string));
}

TEST(StripedStats, EachCounterLandsInItsOwnField) {
  StripedStats stats;
  EXPECT_TRUE(stats.Snapshot() == ServiceStats{});
  for (size_t i = 0; i < std::size(kStatsCounters); ++i) {
    stats.Add(kStatsCounters[i].member, i + 1);
  }
  const ServiceStats snapshot = stats.Snapshot();
  for (size_t i = 0; i < std::size(kStatsCounters); ++i) {
    EXPECT_EQ(snapshot.*kStatsCounters[i].member, i + 1)
        << kStatsCounters[i].name;
  }
  // Gauges sampled at read time are the caller's to fill.
  EXPECT_TRUE(snapshot.kernel_dispatch.empty());
}

TEST(StripedStats, SnapshotFoldsEveryThreadsStripe) {
  // More threads than stripes, so some threads share a stripe and every
  // stripe is folded.
  constexpr int kThreads = 24;
  constexpr int kAdds = 1000;
  StripedStats stats;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&stats]() {
      for (int i = 0; i < kAdds; ++i) {
        stats.Add(&ServiceStats::batches);
        stats.Add(&ServiceStats::requests_processed, 3);
      }
      stats.Add(&ServiceStats::hedges_won);
    });
  }
  for (std::thread& thread : threads) thread.join();
  const ServiceStats snapshot = stats.Snapshot();
  EXPECT_EQ(snapshot.batches, static_cast<size_t>(kThreads * kAdds));
  EXPECT_EQ(snapshot.requests_processed,
            static_cast<size_t>(3 * kThreads * kAdds));
  EXPECT_EQ(snapshot.hedges_won, static_cast<size_t>(kThreads));
  EXPECT_EQ(snapshot.sweeps, 0u);
}

TEST(Lifecycle, AddExecutorGaugesAddsToTheCallersCounts) {
  Executor executor(1);
  std::promise<void> started;
  std::promise<void> release;
  std::shared_future<void> released = release.get_future().share();
  executor.Submit([&started, released]() {
    started.set_value();
    released.wait();
  });
  started.get_future().wait();
  // The one worker is busy, so these two wait in the injection queue.
  executor.Submit([]() {});
  executor.Submit([]() {});

  ServiceStats stats;
  stats.queue_depth = 10;
  stats.active_workers = 1;
  stats.steals = 3;
  stats.local_hits = 4;
  AddExecutorGauges(executor, &stats);
  EXPECT_EQ(stats.queue_depth, 12u);
  EXPECT_EQ(stats.active_workers, 2u);
  EXPECT_EQ(stats.steals, 3u + executor.StealCount());
  EXPECT_EQ(stats.local_hits, 4u + executor.LocalHitCount());
  release.set_value();
}

}  // namespace
}  // namespace stratrec::api::internal
