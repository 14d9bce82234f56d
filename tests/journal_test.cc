// Journal subsystem tests: writer/reader framing, the Service taps under
// synchronous and concurrent async load (cancelled tickets included),
// caller-supplied request ids, executor gauges in ServiceStats, and
// trace-driven replay reproducing recorded reports byte for byte.
#include <gtest/gtest.h>

#include <algorithm>
#include <condition_variable>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "src/api/catalog.h"
#include "src/api/registry.h"
#include "src/api/replay.h"
#include "src/common/journal.h"

namespace stratrec::api {
namespace {

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "stratrec_" + name + ".journal";
}

core::Catalog Table1Catalog() {
  core::Catalog catalog;
  catalog.strategies = {
      {"s1", core::ParseStageName("SIM-COL-CRO").value()},
      {"s2", core::ParseStageName("SEQ-IND-CRO").value()},
      {"s3", core::ParseStageName("SIM-IND-CRO").value()},
      {"s4", core::ParseStageName("SIM-IND-HYB").value()},
  };
  catalog.profiles = {
      {{0.25, 0.30}, {0.3125, 0.00}, {-0.15, 0.40}},
      {{0.25, 0.55}, {0.4125, 0.00}, {-0.15, 0.40}},
      {{0.25, 0.60}, {0.6250, 0.00}, {-0.20, 0.30}},
      {{0.25, 0.68}, {0.7250, 0.00}, {-0.20, 0.30}},
  };
  return catalog;
}

BatchRequest Table1Batch() {
  BatchRequest batch;
  batch.requests = {
      {"d1", {0.4, 0.17, 0.28}, 3},
      {"d2", {0.8, 0.20, 0.28}, 3},
      {"d3", {0.7, 0.83, 0.28}, 3},
  };
  batch.availability = AvailabilitySpec::Fixed(0.8);
  batch.aggregation = core::AggregationMode::kMax;
  return batch;
}

// ---------------------------------------------------------------------------
// Writer / reader framing.
// ---------------------------------------------------------------------------

TEST(Journal, WriterReaderRoundTrip) {
  const std::string path = TempPath("roundtrip");
  {
    auto writer = JournalWriter::Open(path, JournalWriter::Options{});
    ASSERT_TRUE(writer.ok());
    EXPECT_TRUE((*writer)->Append("{\"kind\":\"a\"}").ok());
    EXPECT_TRUE((*writer)->Append("{\"kind\":\"b\"}").ok());
    EXPECT_EQ((*writer)->records_written(), 2u);
  }
  auto records = JournalReader::ReadRecords(path);
  ASSERT_TRUE(records.ok()) << records.status().ToString();
  ASSERT_EQ(records->size(), 2u);
  EXPECT_EQ(records->front(), "{\"kind\":\"a\"}");
  EXPECT_EQ(records->back(), "{\"kind\":\"b\"}");
}

TEST(Journal, ReaderValidatesHeaderAndDropsTruncatedTail) {
  EXPECT_EQ(JournalReader::ReadRecords(TempPath("missing")).status().code(),
            StatusCode::kNotFound);

  const std::string path = TempPath("framing");
  {  // Foreign format name.
    FILE* f = fopen(path.c_str(), "wb");
    fputs("{\"format\":\"other\",\"version\":1}\nrec\n", f);
    fclose(f);
    EXPECT_EQ(JournalReader::ReadRecords(path).status().code(),
              StatusCode::kInvalidArgument);
  }
  {  // Newer version.
    FILE* f = fopen(path.c_str(), "wb");
    fputs("{\"format\":\"stratrec-journal\",\"version\":99}\nrec\n", f);
    fclose(f);
    EXPECT_EQ(JournalReader::ReadRecords(path).status().code(),
              StatusCode::kInvalidArgument);
  }
  {  // A crash-truncated final line (no '\n') is dropped, not an error.
    FILE* f = fopen(path.c_str(), "wb");
    const std::string header = "{\"format\":\"stratrec-journal\",\"version\":" +
                               std::to_string(kJournalFormatVersion) + "}";
    fputs((header + "\nwhole\ntorn").c_str(), f);
    fclose(f);
    auto records = JournalReader::ReadRecords(path);
    ASSERT_TRUE(records.ok());
    ASSERT_EQ(records->size(), 1u);
    EXPECT_EQ(records->front(), "whole");
  }
}

// ---------------------------------------------------------------------------
// Segment rotation.
// ---------------------------------------------------------------------------

// TempDir persists across runs; stale segments from an earlier run must not
// leak into a rotation chain read.
void RemoveSegments(const std::string& path) {
  std::remove(path.c_str());
  for (int i = 1; i <= 32; ++i) {
    std::remove((path + "." + std::to_string(i)).c_str());
  }
}

TEST(Journal, SegmentRotationRollsAndReadsBackInOrder) {
  const std::string path = TempPath("rotation");
  RemoveSegments(path);
  const std::string record(40, 'r');  // uniform 41-byte lines
  {
    JournalWriter::Options options;
    options.max_segment_bytes = 128;
    auto writer = JournalWriter::Open(path, options);
    ASSERT_TRUE(writer.ok());
    for (int i = 0; i < 10; ++i) {
      ASSERT_TRUE((*writer)->Append(record + std::to_string(i)).ok());
    }
    EXPECT_EQ((*writer)->records_written(), 10u);
  }
  // Rotation actually happened: the base file holds only a prefix, and at
  // least one numbered segment exists with its own valid header.
  auto base = JournalReader::ReadRecords(path);
  ASSERT_TRUE(base.ok()) << base.status().ToString();
  EXPECT_LT(base->size(), 10u);
  auto second = JournalReader::ReadRecords(path + ".1");
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  EXPECT_GT(second->size(), 0u);

  // The chain read returns every record in write order.
  auto all = JournalReader::ReadAllSegments(path);
  ASSERT_TRUE(all.ok()) << all.status().ToString();
  ASSERT_EQ(all->size(), 10u);
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ((*all)[i], record + std::to_string(i));
  }
}

TEST(Journal, OversizedRecordGetsASegmentToItself) {
  const std::string path = TempPath("oversized");
  RemoveSegments(path);
  const std::string huge(500, 'h');  // larger than the whole segment bound
  {
    JournalWriter::Options options;
    options.max_segment_bytes = 64;
    auto writer = JournalWriter::Open(path, options);
    ASSERT_TRUE(writer.ok());
    ASSERT_TRUE((*writer)->Append(huge).ok());   // stays: segment was empty
    ASSERT_TRUE((*writer)->Append("tiny").ok());  // rolls first
  }
  auto base = JournalReader::ReadRecords(path);
  ASSERT_TRUE(base.ok());
  ASSERT_EQ(base->size(), 1u);
  EXPECT_EQ(base->front(), huge);
  auto all = JournalReader::ReadAllSegments(path);
  ASSERT_TRUE(all.ok());
  ASSERT_EQ(all->size(), 2u);
  EXPECT_EQ(all->back(), "tiny");
}

// Readers accept the kJournalMinReadVersion..kJournalFormatVersion window.
// The v8 bump changed record shapes (reports dropped the catalog block and
// ADPaR results carry their own strategy parameters), so the window is v8
// alone: v7 and older must be rejected, as must anything newer than this
// build.
TEST(Journal, VersionWindowAcceptsV8AndRejectsOutsiders) {
  const auto write_version = [](const std::string& path, int version) {
    FILE* f = fopen(path.c_str(), "wb");
    fputs(("{\"format\":\"stratrec-journal\",\"version\":" +
           std::to_string(version) + "}\nrec\n")
              .c_str(),
          f);
    fclose(f);
  };
  static_assert(kJournalFormatVersion == 8);
  static_assert(kJournalMinReadVersion == 8);

  const std::string path = TempPath("version_window");
  write_version(path, kJournalFormatVersion);  // v8: this build
  auto records = JournalReader::ReadRecords(path);
  ASSERT_TRUE(records.ok()) << records.status().ToString();
  ASSERT_EQ(records->size(), 1u);
  EXPECT_EQ(records->front(), "rec");

  write_version(path, 7);  // v7: carries the catalog block, too old
  EXPECT_EQ(JournalReader::ReadRecords(path).status().code(),
            StatusCode::kInvalidArgument);
  write_version(path, kJournalFormatVersion + 1);  // v9: from the future
  EXPECT_EQ(JournalReader::ReadRecords(path).status().code(),
            StatusCode::kInvalidArgument);
}

// The writer stamps the current version on every fresh segment.
TEST(Journal, WriterStampsTheCurrentFormatVersion) {
  const std::string path = TempPath("stamped_version");
  {
    auto writer = JournalWriter::Open(path, JournalWriter::Options{});
    ASSERT_TRUE(writer.ok());
    ASSERT_TRUE((*writer)->Append("r").ok());
  }
  FILE* f = fopen(path.c_str(), "rb");
  ASSERT_NE(f, nullptr);
  char line[128] = {};
  ASSERT_NE(fgets(line, sizeof(line), f), nullptr);
  fclose(f);
  EXPECT_EQ(std::string(line),
            "{\"format\":\"stratrec-journal\",\"version\":" +
                std::to_string(kJournalFormatVersion) + "}\n");
}

// ---------------------------------------------------------------------------
// Compaction.
// ---------------------------------------------------------------------------

TEST(Journal, CompactionRequiresRotationAndSaneRetention) {
  JournalWriter::Options options;
  options.compact_after_segments = 2;  // but no max_segment_bytes
  EXPECT_EQ(JournalWriter::Open(TempPath("bad_compact1"), options)
                .status()
                .code(),
            StatusCode::kInvalidArgument);
  options.max_segment_bytes = 128;
  options.retain_segments = 2;  // must be < compact_after_segments
  EXPECT_EQ(JournalWriter::Open(TempPath("bad_compact2"), options)
                .status()
                .code(),
            StatusCode::kInvalidArgument);
}

// The writer folds cold segments through a caller-supplied, codec-agnostic
// callback; the chain stays readable and keeps the fold's output plus the
// retained tail, in order.
TEST(Journal, WriterFoldsColdSegmentsThroughTheCallback) {
  const std::string path = TempPath("compaction");
  RemoveSegments(path);
  const std::string record(40, 'r');  // uniform 41-byte lines, 2 per segment
  {
    JournalWriter::Options options;
    options.max_segment_bytes = 96;
    options.compact_after_segments = 2;
    options.retain_segments = 1;
    options.compact = [](const std::vector<std::string>& cold) {
      return std::vector<std::string>{
          "{\"kind\":\"folded\",\"count\":" + std::to_string(cold.size()) +
          "}"};
    };
    auto writer = JournalWriter::Open(path, options);
    ASSERT_TRUE(writer.ok()) << writer.status().ToString();
    for (int i = 0; i < 12; ++i) {
      ASSERT_TRUE((*writer)->Append(record + std::to_string(i)).ok());
    }
    EXPECT_GT((*writer)->compactions(), 0u);
    EXPECT_EQ((*writer)->records_written(), 12u);
  }
  auto all = JournalReader::ReadAllSegments(path);
  ASSERT_TRUE(all.ok()) << all.status().ToString();
  // The fold's output leads the chain, and fewer raw records remain than
  // were written (the rest live inside the summary).
  ASSERT_FALSE(all->empty());
  EXPECT_NE(all->front().find("\"kind\":\"folded\""), std::string::npos);
  EXPECT_LT(all->size(), 12u);
  // The retained tail is the most recent records, still in write order.
  const std::string& last = all->back();
  EXPECT_EQ(last, record + "11");
}

TEST(Journal, ServiceTraceSpansSegmentsAndStillReplays) {
  const std::string path = TempPath("segmented_trace");
  RemoveSegments(path);
  ServiceConfig config;
  config.batch.aggregation = core::AggregationMode::kMax;
  config.journal.path = path;
  // Small enough that the config/catalog records and three batch pairs
  // cannot share one segment.
  config.journal.max_segment_bytes = 2048;
  {
    auto service = Service::Create(Table1Catalog(), config);
    ASSERT_TRUE(service.ok());
    for (int i = 0; i < 3; ++i) {
      ASSERT_TRUE(service->SubmitBatch(Table1Batch()).ok());
    }
  }
  ASSERT_TRUE(JournalReader::ReadRecords(path + ".1").ok())
      << "expected the trace to roll past the first segment";

  // ReadTraceFile follows the chain: the full workload is one trace.
  auto trace = wire::ReadTraceFile(path);
  ASSERT_TRUE(trace.ok()) << trace.status().ToString();
  EXPECT_TRUE(trace->has_config);
  EXPECT_TRUE(trace->has_catalog);
  EXPECT_EQ(trace->config.journal.max_segment_bytes, 2048u);
  ASSERT_EQ(trace->pairs.size(), 3u);

  auto replayed = wire::ReplayTrace(*trace);
  ASSERT_TRUE(replayed.ok()) << replayed.status().ToString();
  EXPECT_EQ(replayed->replayed, 3u);
  EXPECT_EQ(replayed->matched, 3u);
}

// ---------------------------------------------------------------------------
// Service taps.
// ---------------------------------------------------------------------------

TEST(Journal, ServiceRecordsConfigCatalogAndPairs) {
  const std::string path = TempPath("sync_pairs");
  BatchReport batch_report;
  SweepReport sweep_report;
  ServiceConfig config;
  config.batch.aggregation = core::AggregationMode::kMax;
  config.execution.worker_threads = 2;
  config.journal.path = path;
  {
    auto service = Service::Create(Table1Catalog(), config);
    ASSERT_TRUE(service.ok());

    auto batch = service->SubmitBatch(Table1Batch());
    ASSERT_TRUE(batch.ok());
    batch_report = *batch;

    SweepRequest sweep;
    sweep.targets = {{"t1", {0.9, 0.1, 0.1}, 2}, {"t2", {0.5, 0.9, 0.9}, 9}};
    sweep.solvers = {"exact"};
    sweep.availability = AvailabilitySpec::Fixed(0.8);
    auto swept = service->RunSweep(sweep);
    ASSERT_TRUE(swept.ok());
    sweep_report = *swept;
  }

  auto trace = wire::ReadTraceFile(path);
  ASSERT_TRUE(trace.ok()) << trace.status().ToString();
  EXPECT_TRUE(trace->has_config);
  EXPECT_TRUE(trace->has_catalog);
  EXPECT_TRUE(trace->catalog.strategies == Table1Catalog().strategies);
  EXPECT_EQ(trace->config.execution.worker_threads, 2u);
  ASSERT_EQ(trace->pairs.size(), 2u);

  const wire::PairRecord& recorded_batch = trace->pairs[0];
  EXPECT_EQ(recorded_batch.kind, wire::PairRecord::Kind::kBatch);
  EXPECT_TRUE(recorded_batch.status.ok());
  EXPECT_TRUE(recorded_batch.batch_report == batch_report);
  EXPECT_TRUE(recorded_batch.batch_request == Table1Batch());

  const wire::PairRecord& recorded_sweep = trace->pairs[1];
  EXPECT_EQ(recorded_sweep.kind, wire::PairRecord::Kind::kSweep);
  EXPECT_TRUE(recorded_sweep.status.ok());
  EXPECT_TRUE(recorded_sweep.sweep_report == sweep_report);
  // The infeasible t2 cell (k=9 > |S|) travels inside the OK report.
  ASSERT_EQ(recorded_sweep.sweep_report.outcomes.size(), 2u);
  EXPECT_EQ(recorded_sweep.sweep_report.outcomes[1].status.code(),
            StatusCode::kInfeasible);

  // Replay the trace at a different pool size: byte-identical reports.
  wire::ReplayOptions options;
  options.worker_threads = 3;
  auto replayed = wire::ReplayTrace(*trace, options);
  ASSERT_TRUE(replayed.ok()) << replayed.status().ToString();
  EXPECT_EQ(replayed->replayed, 2u);
  EXPECT_EQ(replayed->matched, 2u);
  EXPECT_EQ(replayed->skipped, 0u);
  EXPECT_TRUE(replayed->ok());
}

TEST(Journal, CallerSuppliedRequestIdIsAdopted) {
  const std::string path = TempPath("caller_id");
  ServiceConfig config;
  config.batch.aggregation = core::AggregationMode::kMax;
  config.journal.path = path;
  auto service = Service::Create(Table1Catalog(), config);
  ASSERT_TRUE(service.ok());

  BatchRequest request = Table1Batch();
  request.request_id = "front-end/42";
  auto ticket = service->SubmitBatchAsync(request);
  EXPECT_EQ(ticket.id(), "front-end/42");
  auto report = ticket.Wait();
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->request_id, "front-end/42");
  // The next service-assigned id is unaffected.
  auto assigned = service->SubmitBatch(Table1Batch());
  ASSERT_TRUE(assigned.ok());
  EXPECT_EQ(assigned->request_id.rfind("batch-", 0), 0u);
}

// A batch backend that parks the single worker until released, so queued
// tickets provably stay queued (same idiom as async_service_test).
struct JournalGate {
  std::mutex mutex;
  std::condition_variable cv;
  bool entered = false;
  bool released = false;
};
JournalGate& Gate() {
  static JournalGate* gate = new JournalGate();
  return *gate;
}

TEST(Journal, AsyncLoadRecordsExactlyTheCompletedPairsAndReplays) {
  ASSERT_TRUE(AlgorithmRegistry::Global()
                  .RegisterBatch(
                      "journal-gate",
                      [](const std::vector<core::DeploymentRequest>& requests,
                         const std::vector<core::StrategyProfile>&, double,
                         const core::BatchOptions&)
                          -> Result<core::BatchResult> {
                        JournalGate& gate = Gate();
                        std::unique_lock<std::mutex> lock(gate.mutex);
                        gate.entered = true;
                        gate.cv.notify_all();
                        gate.cv.wait(lock,
                                     [&gate]() { return gate.released; });
                        core::BatchResult result;
                        result.outcomes.resize(requests.size());
                        return result;
                      })
                  .ok());

  const std::string path = TempPath("async_load");
  std::set<std::string> completed_ids;
  std::string cancelled_id;
  ServiceConfig config;
  config.batch.aggregation = core::AggregationMode::kMax;
  config.execution.worker_threads = 1;  // FIFO: provable queueing
  config.journal.path = path;
  {
    auto service = Service::Create(Table1Catalog(), config);
    ASSERT_TRUE(service.ok());

    BatchRequest gated = Table1Batch();
    gated.algorithm = "journal-gate";
    gated.recommend_alternatives = false;
    auto running = service->SubmitBatchAsync(gated);
    {
      JournalGate& gate = Gate();
      std::unique_lock<std::mutex> lock(gate.mutex);
      gate.cv.wait(lock, [&gate]() { return gate.entered; });
    }

    // Concurrent submissions while the worker is parked; all stay queued.
    std::vector<Ticket<BatchReport>> tickets;
    for (int i = 0; i < 4; ++i) {
      tickets.push_back(service->SubmitBatchAsync(Table1Batch()));
    }

    // With the worker parked, the executor gauges are deterministic.
    const ServiceStats mid = service->stats();
    EXPECT_EQ(mid.active_workers, 1u);
    EXPECT_EQ(mid.queue_depth, 4u);

    ASSERT_TRUE(tickets[1].Cancel());
    cancelled_id = tickets[1].id();

    {
      std::lock_guard<std::mutex> lock(Gate().mutex);
      Gate().released = true;
    }
    Gate().cv.notify_all();

    completed_ids.insert(running.id());
    ASSERT_TRUE(running.Wait().ok());
    for (int i = 0; i < 4; ++i) {
      if (i == 1) continue;
      completed_ids.insert(tickets[i].id());
      ASSERT_TRUE(tickets[i].Wait().ok());
    }
  }  // service destructor drains the queue -> every record is on disk

  auto trace = wire::ReadTraceFile(path);
  ASSERT_TRUE(trace.ok()) << trace.status().ToString();
  ASSERT_EQ(trace->pairs.size(), 5u);  // 4 completed + 1 cancelled

  std::set<std::string> recorded_ok;
  size_t recorded_cancelled = 0;
  for (const wire::PairRecord& pair : trace->pairs) {
    if (pair.status.ok()) {
      recorded_ok.insert(pair.request_id);
    } else {
      EXPECT_EQ(pair.status.code(), StatusCode::kCancelled);
      EXPECT_EQ(pair.request_id, cancelled_id);
      // The withdrawn request itself is preserved.
      EXPECT_TRUE(pair.batch_request == Table1Batch());
      ++recorded_cancelled;
    }
  }
  EXPECT_EQ(recorded_ok, completed_ids);
  EXPECT_EQ(recorded_cancelled, 1u);

  // Replay skips the cancelled pair and reproduces the completed four.
  auto replayed = wire::ReplayTrace(*trace);
  ASSERT_TRUE(replayed.ok()) << replayed.status().ToString();
  EXPECT_EQ(replayed->skipped, 1u);
  EXPECT_EQ(replayed->replayed, 4u);
  EXPECT_EQ(replayed->matched, 4u);
}

TEST(Journal, RecordCancelledCanBeDisabled) {
  const std::string path = TempPath("no_cancelled");
  ServiceConfig config;
  config.batch.aggregation = core::AggregationMode::kMax;
  config.execution.worker_threads = 1;
  config.journal.path = path;
  config.journal.record_cancelled = false;
  {
    auto service = Service::Create(Table1Catalog(), config);
    ASSERT_TRUE(service.ok());
    // Park the worker with a slow-but-normal batch? Not needed: cancel can
    // only win while queued, so stack two submissions and cancel the second
    // immediately — if the race is lost the pair is recorded as completed,
    // so only count cancelled records.
    auto first = service->SubmitBatchAsync(Table1Batch());
    auto second = service->SubmitBatchAsync(Table1Batch());
    second.Cancel();
    (void)first.Wait();
    (void)second.Wait();
  }
  auto trace = wire::ReadTraceFile(path);
  ASSERT_TRUE(trace.ok());
  for (const wire::PairRecord& pair : trace->pairs) {
    EXPECT_TRUE(pair.status.ok());  // no cancelled records on disk
  }
}

TEST(Journal, StatsSnapshotsLandInTheTraceAndReplayIgnoresThem) {
  const std::string path = TempPath("stats_snapshots");
  ServiceConfig config;
  config.batch.aggregation = core::AggregationMode::kMax;
  config.execution.worker_threads = 1;
  config.journal.path = path;
  // A finished batch can leave one already-claimed ParallelFor helper in a
  // deque for a beat after Wait() returns; poll the gauge to zero before
  // snapshotting so the recorded queue_depth is deterministic.
  const auto drained_snapshot = [](const Service& service) {
    while (service.stats().queue_depth != 0) std::this_thread::yield();
    return service.RecordStatsSnapshot();
  };
  {
    auto service = Service::Create(Table1Catalog(), config);
    ASSERT_TRUE(service.ok());
    ASSERT_TRUE(service->SubmitBatch(Table1Batch()).ok());
    ASSERT_TRUE(drained_snapshot(*service).ok());
    ASSERT_TRUE(service->SubmitBatch(Table1Batch()).ok());
    ASSERT_TRUE(drained_snapshot(*service).ok());
  }
  auto trace = wire::ReadTraceFile(path);
  ASSERT_TRUE(trace.ok()) << trace.status().ToString();

  // Two checkpoints interleaved with two pairs: the lifetime counters
  // advance between them and the pool is drained at snapshot time (the
  // sync submissions have completed), so queue_depth is deterministic.
  ASSERT_EQ(trace->stats.size(), 2u);
  EXPECT_EQ(trace->stats[0].stats.batches, 1u);
  EXPECT_EQ(trace->stats[1].stats.batches, 2u);
  EXPECT_EQ(trace->stats[0].stats.queue_depth, 0u);
  EXPECT_EQ(trace->stats[1].stats.queue_depth, 0u);

  // Checkpoints never disturb the replay contract: the pairs replay and
  // bit-match exactly as they would without them.
  ASSERT_EQ(trace->pairs.size(), 2u);
  auto replayed = wire::ReplayTrace(*trace);
  ASSERT_TRUE(replayed.ok()) << replayed.status().ToString();
  EXPECT_EQ(replayed->replayed, 2u);
  EXPECT_EQ(replayed->matched, 2u);
}

TEST(Journal, StatsSnapshotRequiresJournaling) {
  auto service = Service::Create(Table1Catalog());
  ASSERT_TRUE(service.ok());
  EXPECT_EQ(service->RecordStatsSnapshot().code(),
            StatusCode::kFailedPrecondition);
}

TEST(Journal, ReplayRequiresConfigAndCatalog) {
  wire::JournalTrace trace;
  EXPECT_EQ(wire::ServiceFromTrace(trace).status().code(),
            StatusCode::kFailedPrecondition);
  trace.has_config = true;
  trace.config.batch.aggregation = core::AggregationMode::kMax;
  EXPECT_EQ(wire::ServiceFromTrace(trace).status().code(),
            StatusCode::kFailedPrecondition);
  trace.has_catalog = true;
  trace.catalog = Table1Catalog();
  auto service = wire::ServiceFromTrace(trace);
  EXPECT_TRUE(service.ok()) << service.status().ToString();
}

}  // namespace
}  // namespace stratrec::api
