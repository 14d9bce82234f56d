// Wire codec tests: decode(encode(x)) == x property over randomized
// envelopes (all three request kinds plus reports, specs, config, catalog,
// status), byte-stable re-encoding, stable field names, and strict decode
// errors. Randomness rides the repo Rng, so every failure reproduces from
// the seed.
#include <gtest/gtest.h>

#include <cmath>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "src/api/codec.h"
#include "src/common/rng.h"

namespace stratrec::wire {
namespace {

// ---------------------------------------------------------------------------
// Random envelope generators. Values stay NaN-free (the parameter space is
// finite by construction); strings exercise escaping.
// ---------------------------------------------------------------------------

std::string RandomString(Rng& rng, size_t max_len = 10) {
  static constexpr char kAlphabet[] =
      "abcXYZ019 _-/\\\"\n\t{}:,[]\x01";
  const size_t len = static_cast<size_t>(rng.UniformInt(0, max_len));
  std::string out;
  out.reserve(len);
  for (size_t i = 0; i < len; ++i) {
    out.push_back(
        kAlphabet[rng.UniformInt(0, sizeof(kAlphabet) - 2)]);
  }
  return out;
}

double RandomDouble(Rng& rng) {
  switch (rng.UniformInt(0, 4)) {
    case 0:
      return 0.0;
    case 1:
      return 1.0;
    case 2:
      return 1.0 / 3.0;  // no finite decimal expansion
    case 3:
      return rng.Uniform() * 1e-12;  // tiny magnitudes
    default:
      return rng.Uniform();
  }
}

core::ParamVector RandomParams(Rng& rng) {
  return {RandomDouble(rng), RandomDouble(rng), RandomDouble(rng)};
}

core::DeploymentRequest RandomRequest(Rng& rng) {
  core::DeploymentRequest request;
  request.id = RandomString(rng);
  request.thresholds = RandomParams(rng);
  request.k = static_cast<int>(rng.UniformInt(1, 5));
  return request;
}

std::vector<size_t> RandomIndices(Rng& rng) {
  std::vector<size_t> out(static_cast<size_t>(rng.UniformInt(0, 4)));
  for (size_t& v : out) v = static_cast<size_t>(rng.UniformInt(0, 1000));
  return out;
}

api::AvailabilitySpec RandomSpec(Rng& rng) {
  switch (rng.UniformInt(0, 4)) {
    case 0:
      return api::AvailabilitySpec::Default();
    case 1:
      return api::AvailabilitySpec::Fixed(RandomDouble(rng));
    case 2: {
      std::vector<stats::PmfAtom> atoms(
          static_cast<size_t>(rng.UniformInt(0, 3)));
      for (stats::PmfAtom& atom : atoms) {
        atom = {RandomDouble(rng), RandomDouble(rng)};
      }
      return api::AvailabilitySpec::FromPmf(std::move(atoms));
    }
    case 3: {
      std::vector<double> samples(static_cast<size_t>(rng.UniformInt(0, 3)));
      for (double& s : samples) s = RandomDouble(rng);
      return api::AvailabilitySpec::FromSamples(std::move(samples));
    }
    default:
      return api::AvailabilitySpec::Named(RandomString(rng));
  }
}

Status RandomStatus(Rng& rng) {
  static constexpr StatusCode kCodes[] = {
      StatusCode::kOk,        StatusCode::kInvalidArgument,
      StatusCode::kNotFound,  StatusCode::kOutOfRange,
      StatusCode::kFailedPrecondition, StatusCode::kInfeasible,
      StatusCode::kCancelled, StatusCode::kInternal,
      StatusCode::kDeadlineExceeded,
  };
  const StatusCode code = kCodes[rng.UniformInt(0, 8)];
  if (code == StatusCode::kOk) return Status::OK();
  return Status(code, RandomString(rng));
}

api::BatchRequest RandomBatchRequest(Rng& rng) {
  api::BatchRequest request;
  request.requests.resize(static_cast<size_t>(rng.UniformInt(0, 4)));
  for (core::DeploymentRequest& r : request.requests) r = RandomRequest(rng);
  request.availability = RandomSpec(rng);
  if (rng.Bernoulli(0.5)) request.algorithm = RandomString(rng);
  if (rng.Bernoulli(0.5)) {
    request.objective = rng.Bernoulli(0.5) ? core::Objective::kThroughput
                                           : core::Objective::kPayoff;
  }
  if (rng.Bernoulli(0.5)) {
    request.aggregation = rng.Bernoulli(0.5) ? core::AggregationMode::kSum
                                             : core::AggregationMode::kMax;
  }
  if (rng.Bernoulli(0.5)) {
    request.policy = rng.Bernoulli(0.5)
                         ? core::WorkforcePolicy::kMinimalWorkforce
                         : core::WorkforcePolicy::kPaperMaxOfThree;
  }
  if (rng.Bernoulli(0.5)) request.recommend_alternatives = rng.Bernoulli(0.5);
  if (rng.Bernoulli(0.5)) request.adpar_solver = RandomString(rng);
  if (rng.Bernoulli(0.5)) request.request_id = RandomString(rng);
  if (rng.Bernoulli(0.5)) request.deadline_ms = 1.0 + 1000.0 * rng.Uniform();
  return request;
}

core::AdparResult RandomAdparResult(Rng& rng) {
  core::AdparResult result;
  result.alternative = RandomParams(rng);
  result.strategies = RandomIndices(rng);
  for (size_t i = 0; i < result.strategies.size(); ++i) {
    result.strategy_params.push_back(RandomParams(rng));
  }
  result.squared_distance = RandomDouble(rng);
  result.distance = RandomDouble(rng);
  return result;
}

api::BatchReport RandomBatchReport(Rng& rng) {
  api::BatchReport report;
  report.request_id = RandomString(rng);
  report.algorithm = RandomString(rng);
  report.availability = RandomDouble(rng);
  report.result.aggregator.availability = RandomDouble(rng);
  core::BatchResult& batch = report.result.aggregator.batch;
  batch.outcomes.resize(static_cast<size_t>(rng.UniformInt(0, 3)));
  for (core::RequestOutcome& outcome : batch.outcomes) {
    outcome.request_index = static_cast<size_t>(rng.UniformInt(0, 99));
    outcome.satisfied = rng.Bernoulli(0.5);
    outcome.eligible = rng.Bernoulli(0.5);
    outcome.workforce = RandomDouble(rng);
    outcome.objective_value = RandomDouble(rng);
    outcome.strategies = RandomIndices(rng);
  }
  batch.total_objective = RandomDouble(rng);
  batch.workforce_used = RandomDouble(rng);
  batch.satisfied = RandomIndices(rng);
  batch.unsatisfied = RandomIndices(rng);
  report.result.alternatives.resize(
      static_cast<size_t>(rng.UniformInt(0, 2)));
  for (core::AlternativeRecommendation& alt : report.result.alternatives) {
    alt.request_index = static_cast<size_t>(rng.UniformInt(0, 99));
    alt.result = RandomAdparResult(rng);
  }
  report.result.adpar_failures = RandomIndices(rng);
  return report;
}

api::SweepRequest RandomSweepRequest(Rng& rng) {
  api::SweepRequest request;
  request.targets.resize(static_cast<size_t>(rng.UniformInt(0, 4)));
  for (core::DeploymentRequest& target : request.targets) {
    target = RandomRequest(rng);
  }
  request.solvers.resize(static_cast<size_t>(rng.UniformInt(0, 3)));
  for (std::string& solver : request.solvers) solver = RandomString(rng);
  request.availability = RandomSpec(rng);
  if (rng.Bernoulli(0.5)) request.request_id = RandomString(rng);
  if (rng.Bernoulli(0.5)) request.deadline_ms = 1.0 + 1000.0 * rng.Uniform();
  return request;
}

api::SweepReport RandomSweepReport(Rng& rng) {
  api::SweepReport report;
  report.request_id = RandomString(rng);
  report.availability = RandomDouble(rng);
  report.outcomes.resize(static_cast<size_t>(rng.UniformInt(0, 4)));
  for (api::SweepOutcome& outcome : report.outcomes) {
    outcome.target_id = RandomString(rng);
    outcome.solver = RandomString(rng);
    outcome.status = RandomStatus(rng);
    // The codec only carries a result for OK cells; error cells round-trip
    // as default-constructed.
    if (outcome.status.ok()) outcome.result = RandomAdparResult(rng);
  }
  return report;
}

api::StreamOptions RandomStreamOptions(Rng& rng) {
  api::StreamOptions options;
  options.availability = RandomSpec(rng);
  if (rng.Bernoulli(0.5)) {
    options.max_pending = static_cast<size_t>(rng.UniformInt(0, 128));
  }
  if (rng.Bernoulli(0.5)) options.readmit_on_release = rng.Bernoulli(0.5);
  if (rng.Bernoulli(0.5)) {
    options.objective = rng.Bernoulli(0.5) ? core::Objective::kThroughput
                                           : core::Objective::kPayoff;
  }
  if (rng.Bernoulli(0.5)) options.recommend_alternatives = rng.Bernoulli(0.5);
  if (rng.Bernoulli(0.5)) options.deadline_ms = 1.0 + 1000.0 * rng.Uniform();
  if (rng.Bernoulli(0.5)) options.session_id = RandomString(rng);
  return options;
}

core::AdmissionDecision RandomAdmissionDecision(Rng& rng) {
  core::AdmissionDecision decision;
  switch (rng.UniformInt(0, 2)) {
    case 0:
      decision.kind = core::AdmissionDecision::Kind::kAdmitted;
      break;
    case 1:
      decision.kind = core::AdmissionDecision::Kind::kQueued;
      break;
    default:
      decision.kind = core::AdmissionDecision::Kind::kRejected;
      break;
  }
  decision.strategies = RandomIndices(rng);
  decision.workforce = RandomDouble(rng);
  return decision;
}

api::StreamUpdate RandomStreamUpdate(Rng& rng) {
  api::StreamUpdate update;
  update.session_id = RandomString(rng);
  switch (rng.UniformInt(0, 3)) {
    case 0:
      update.kind = api::StreamEvent::Kind::kArrival;
      break;
    case 1:
      update.kind = api::StreamEvent::Kind::kRevocation;
      break;
    case 2:
      update.kind = api::StreamEvent::Kind::kCompletion;
      break;
    default:
      update.kind = api::StreamEvent::Kind::kAvailabilityChange;
      break;
  }
  update.request_id = RandomString(rng);
  update.decision = RandomAdmissionDecision(rng);
  if (rng.Bernoulli(0.5)) {
    update.has_alternative = true;
    update.alternative = RandomAdparResult(rng);
  }
  update.availability = RandomDouble(rng);
  update.used_workforce = RandomDouble(rng);
  update.active = static_cast<size_t>(rng.UniformInt(0, 1000));
  update.pending = static_cast<size_t>(rng.UniformInt(0, 1000));
  return update;
}

api::StreamEvent RandomStreamEvent(Rng& rng) {
  switch (rng.UniformInt(0, 3)) {
    case 0:
      return api::StreamEvent::Arrival(RandomRequest(rng));
    case 1:
      return api::StreamEvent::Revocation(RandomString(rng));
    case 2:
      return api::StreamEvent::Completion(RandomString(rng));
    default:
      return api::StreamEvent::AvailabilityChange(RandomSpec(rng));
  }
}

api::ServiceConfig RandomConfig(Rng& rng) {
  api::ServiceConfig config;
  config.batch.algorithm = RandomString(rng);
  config.batch.objective = rng.Bernoulli(0.5) ? core::Objective::kThroughput
                                              : core::Objective::kPayoff;
  config.batch.aggregation = rng.Bernoulli(0.5) ? core::AggregationMode::kSum
                                                : core::AggregationMode::kMax;
  config.batch.policy = rng.Bernoulli(0.5)
                            ? core::WorkforcePolicy::kMinimalWorkforce
                            : core::WorkforcePolicy::kPaperMaxOfThree;
  config.batch.recommend_alternatives = rng.Bernoulli(0.5);
  config.batch.adpar_solver = RandomString(rng);
  config.stream.max_pending = static_cast<size_t>(rng.UniformInt(0, 1000));
  config.stream.readmit_on_release = rng.Bernoulli(0.5);
  config.stream.recommend_alternatives = rng.Bernoulli(0.5);
  config.execution.worker_threads = static_cast<size_t>(rng.UniformInt(0, 64));
  config.execution.parallel_grain =
      static_cast<size_t>(rng.UniformInt(1, 10000));
  config.cache.snapshot_capacity =
      static_cast<size_t>(rng.UniformInt(0, 128));
  config.cache.shards = static_cast<size_t>(rng.UniformInt(1, 16));
  config.cache.availability_quantum =
      rng.Bernoulli(0.5) ? 0.0 : rng.Uniform(0.0, 1.0);
  config.journal.path = RandomString(rng);
  config.journal.record_cancelled = rng.Bernoulli(0.5);
  config.journal.flush_every_record = rng.Bernoulli(0.5);
  config.journal.max_segment_bytes =
      rng.Bernoulli(0.5) ? 0 : static_cast<size_t>(rng.UniformInt(1, 1 << 20));
  config.journal.compact_after_segments =
      static_cast<size_t>(rng.UniformInt(0, 64));
  config.journal.retain_segments = static_cast<size_t>(rng.UniformInt(0, 8));
  config.availability = RandomSpec(rng);
  return config;
}

api::ServiceStats RandomServiceStats(Rng& rng) {
  api::ServiceStats stats;
  stats.batches = static_cast<size_t>(rng.UniformInt(0, 100000));
  stats.sweeps = static_cast<size_t>(rng.UniformInt(0, 100000));
  stats.streams_opened = static_cast<size_t>(rng.UniformInt(0, 100000));
  stats.stream_events = static_cast<size_t>(rng.UniformInt(0, 100000));
  stats.stream_reschedules = static_cast<size_t>(rng.UniformInt(0, 100000));
  stats.snapshot_delta_updates =
      static_cast<size_t>(rng.UniformInt(0, 100000));
  stats.snapshot_rebuilds = static_cast<size_t>(rng.UniformInt(0, 100000));
  stats.requests_processed = static_cast<size_t>(rng.UniformInt(0, 100000));
  stats.cancelled = static_cast<size_t>(rng.UniformInt(0, 100000));
  stats.queue_depth = static_cast<size_t>(rng.UniformInt(0, 100000));
  stats.active_workers = static_cast<size_t>(rng.UniformInt(0, 64));
  stats.steals = static_cast<size_t>(rng.UniformInt(0, 100000));
  stats.local_hits = static_cast<size_t>(rng.UniformInt(0, 100000));
  stats.cache_hits = static_cast<size_t>(rng.UniformInt(0, 100000));
  stats.cache_misses = static_cast<size_t>(rng.UniformInt(0, 100000));
  stats.index_build_nanos = static_cast<size_t>(rng.UniformInt(0, 1 << 30));
  stats.rejected_requests = static_cast<size_t>(rng.UniformInt(0, 100000));
  stats.retry_after_hints = static_cast<size_t>(rng.UniformInt(0, 100000));
  stats.deadline_exceeded = static_cast<size_t>(rng.UniformInt(0, 100000));
  stats.retries = static_cast<size_t>(rng.UniformInt(0, 100000));
  stats.failovers = static_cast<size_t>(rng.UniformInt(0, 100000));
  stats.hedges_won = static_cast<size_t>(rng.UniformInt(0, 100000));
  stats.kernel_dispatch = rng.Bernoulli(0.5) ? "avx2" : "scalar";
  return stats;
}

core::Catalog RandomCatalog(Rng& rng) {
  core::Catalog catalog;
  const size_t n = static_cast<size_t>(rng.UniformInt(0, 5));
  const std::vector<core::StageSpec> specs = core::AllStageSpecs();
  for (size_t j = 0; j < n; ++j) {
    std::vector<core::StageSpec> stages(
        static_cast<size_t>(rng.UniformInt(1, 3)));
    for (core::StageSpec& stage : stages) {
      stage = specs[rng.UniformInt(0, specs.size() - 1)];
    }
    std::string name = "s";
    name += std::to_string(j);
    catalog.strategies.emplace_back(std::move(name), std::move(stages));
    core::StrategyProfile profile;
    profile.quality = {rng.Uniform(-1.0, 1.0), rng.Uniform(-1.0, 1.0)};
    profile.cost = {rng.Uniform(-1.0, 1.0), rng.Uniform(-1.0, 1.0)};
    profile.latency = {rng.Uniform(-1.0, 1.0), rng.Uniform(-1.0, 1.0)};
    catalog.profiles.push_back(profile);
  }
  return catalog;
}

/// decode(encode(x)) == x, and re-encoding the decoded value is
/// byte-identical (the stability the replay bit-match relies on).
template <typename T, typename DecodeFn>
void ExpectRoundTrip(const T& value, DecodeFn decode, const char* what) {
  const std::string encoded = json::Dump(Encode(value));
  auto parsed = json::Parse(encoded);
  ASSERT_TRUE(parsed.ok()) << what << ": " << parsed.status().ToString()
                           << "\n" << encoded;
  auto decoded = decode(*parsed);
  ASSERT_TRUE(decoded.ok()) << what << ": " << decoded.status().ToString()
                            << "\n" << encoded;
  EXPECT_TRUE(value == *decoded) << what << " round-trip changed the value\n"
                                 << encoded;
  EXPECT_EQ(json::Dump(Encode(*decoded)), encoded)
      << what << " re-encoding is not byte-stable";
}

constexpr int kIterations = 300;

TEST(CodecProperty, BatchRequestRoundTrips) {
  Rng rng(0xC0DEC'0001ull);
  for (int i = 0; i < kIterations; ++i) {
    ExpectRoundTrip(RandomBatchRequest(rng), DecodeBatchRequest,
                    "BatchRequest");
  }
}

TEST(CodecProperty, SweepRequestRoundTrips) {
  Rng rng(0xC0DEC'0002ull);
  for (int i = 0; i < kIterations; ++i) {
    ExpectRoundTrip(RandomSweepRequest(rng), DecodeSweepRequest,
                    "SweepRequest");
  }
}

TEST(CodecProperty, StreamEnvelopesRoundTrip) {
  Rng rng(0xC0DEC'0003ull);
  for (int i = 0; i < kIterations; ++i) {
    ExpectRoundTrip(RandomStreamOptions(rng), DecodeStreamOptions,
                    "StreamOptions");
    ExpectRoundTrip(RandomStreamEvent(rng), DecodeStreamEvent, "StreamEvent");
    ExpectRoundTrip(RandomStreamUpdate(rng), DecodeStreamUpdate,
                    "StreamUpdate");
  }
}

TEST(CodecProperty, ReportsRoundTrip) {
  Rng rng(0xC0DEC'0004ull);
  for (int i = 0; i < kIterations; ++i) {
    ExpectRoundTrip(RandomBatchReport(rng), DecodeBatchReport, "BatchReport");
    ExpectRoundTrip(RandomSweepReport(rng), DecodeSweepReport, "SweepReport");
  }
}

TEST(CodecProperty, ConfigCatalogAndSpecRoundTrip) {
  Rng rng(0xC0DEC'0005ull);
  for (int i = 0; i < kIterations; ++i) {
    ExpectRoundTrip(RandomConfig(rng), DecodeServiceConfig, "ServiceConfig");
    ExpectRoundTrip(RandomCatalog(rng), DecodeCatalog, "Catalog");
    ExpectRoundTrip(RandomSpec(rng), DecodeAvailabilitySpec,
                    "AvailabilitySpec");
  }
}

TEST(CodecProperty, ServiceStatsRoundTrip) {
  Rng rng(0xC0DEC'0008ull);
  for (int i = 0; i < kIterations; ++i) {
    ExpectRoundTrip(RandomServiceStats(rng), DecodeServiceStats,
                    "ServiceStats");
  }
}

TEST(CodecProperty, StatusRoundTrips) {
  Rng rng(0xC0DEC'0006ull);
  for (int i = 0; i < kIterations; ++i) {
    const Status status = RandomStatus(rng);
    auto parsed = json::Parse(json::Dump(Encode(status)));
    ASSERT_TRUE(parsed.ok());
    Status decoded;
    ASSERT_TRUE(DecodeStatus(*parsed, &decoded).ok());
    EXPECT_TRUE(status == decoded);
  }
}

// ---------------------------------------------------------------------------
// Format stability and strictness.
// ---------------------------------------------------------------------------

// Every public Encode overload and every journal record kind, pinned byte
// for byte. A change to any of these literals changes every recorded trace
// and every HTTP body: bump kJournalFormatVersion with it.
TEST(Codec, FieldNamesAreStable) {
  const auto dump = [](const auto& value) { return json::Dump(Encode(value)); };

  core::DeploymentRequest request{"d1", {0.5, 0.25, 0.75}, 2};
  EXPECT_EQ(json::Dump(Encode(request)),
            "{\"id\":\"d1\",\"thresholds\":{\"quality\":0.5,\"cost\":0.25,"
            "\"latency\":0.75},\"k\":2}");

  EXPECT_EQ(json::Dump(Encode(api::AvailabilitySpec::Fixed(0.5))),
            "{\"kind\":\"fixed\",\"value\":0.5}");
  EXPECT_EQ(json::Dump(Encode(Status::Infeasible("k > |S|"))),
            "{\"code\":\"Infeasible\",\"message\":\"k > |S|\"}");
  EXPECT_EQ(json::Dump(Encode(Status::DeadlineExceeded("too slow"))),
            "{\"code\":\"DeadlineExceeded\",\"message\":\"too slow\"}");
  EXPECT_EQ(dump(Status::OK()), R"({"code":"OK"})");
  EXPECT_EQ(dump(core::ParamVector{0.5, 0.25, 0.75}),
            R"({"quality":0.5,"cost":0.25,"latency":0.75})");

  // Every AvailabilitySpec kind.
  EXPECT_EQ(dump(api::AvailabilitySpec::Default()), R"({"kind":"default"})");
  EXPECT_EQ(dump(api::AvailabilitySpec::FromPmf({{0.25, 0.5}, {0.75, 0.5}})),
            R"({"kind":"pmf","atoms":[{"value":0.25,"probability":0.5},)"
            R"({"value":0.75,"probability":0.5}]})");
  EXPECT_EQ(dump(api::AvailabilitySpec::FromSamples({0.25, 0.5})),
            R"({"kind":"samples","samples":[0.25,0.5]})");
  EXPECT_EQ(dump(api::AvailabilitySpec::Named("weekday")),
            R"({"kind":"named","name":"weekday"})");

  core::AdparResult result;
  result.alternative = {0.625, 0.25, 0.5};
  result.strategies = {3, 7};
  result.strategy_params = {{0.75, 0.125, 0.25}, {0.625, 0.25, 0.5}};
  result.squared_distance = 0.015625;
  result.distance = 0.125;
  EXPECT_EQ(dump(result),
            R"({"alternative":{"quality":0.625,"cost":0.25,"latency":0.5},)"
            R"("strategies":[3,7],"strategy_params":[{"quality":0.75,)"
            R"("cost":0.125,"latency":0.25},{"quality":0.625,"cost":0.25,)"
            R"("latency":0.5}],"squared_distance":0.015625,"distance":0.125})");

  core::Catalog catalog;
  const core::StageSpec sim_col_hyb{core::Structure::kSimultaneous,
                                    core::Organization::kCollaborative,
                                    core::WorkStyle::kHybrid};
  catalog.strategies.emplace_back(
      "s1", std::vector<core::StageSpec>{{}, sim_col_hyb});
  catalog.profiles.push_back({{0.5, 0.25}, {-0.5, 0.75}, {0.125, 0.375}});
  EXPECT_EQ(dump(catalog),
            R"({"strategies":[{"id":"s1","stages":["SEQ-IND-CRO",)"
            R"("SIM-COL-HYB"]}],"profiles":[{"quality":{"alpha":0.5,)"
            R"("beta":0.25},"cost":{"alpha":-0.5,"beta":0.75},)"
            R"("latency":{"alpha":0.125,"beta":0.375}}]})");

  // Batch envelopes: the all-unset request, then every optional field set.
  api::BatchRequest batch;
  EXPECT_EQ(dump(batch),
            R"({"requests":[],"availability":{"kind":"default"}})");
  api::BatchRequest full_batch;
  full_batch.requests = {request};
  full_batch.availability = api::AvailabilitySpec::Fixed(0.5);
  full_batch.algorithm = "baseline-g";
  full_batch.objective = core::Objective::kPayoff;
  full_batch.aggregation = core::AggregationMode::kMax;
  full_batch.policy = core::WorkforcePolicy::kPaperMaxOfThree;
  full_batch.recommend_alternatives = false;
  full_batch.adpar_solver = "paper-sweep";
  full_batch.deadline_ms = 250.0;
  full_batch.request_id = "b-1";
  EXPECT_EQ(dump(full_batch),
            R"({"request_id":"b-1","requests":[{"id":"d1",)"
            R"("thresholds":{"quality":0.5,"cost":0.25,"latency":0.75},)"
            R"("k":2}],"availability":{"kind":"fixed","value":0.5},)"
            R"("algorithm":"baseline-g","objective":"payoff",)"
            R"("aggregation":"max","policy":"paper-max-of-three",)"
            R"("recommend_alternatives":false,"adpar_solver":"paper-sweep",)"
            R"("deadline_ms":250})");

  api::BatchReport report;
  report.request_id = "batch-000001";
  report.algorithm = "batchstrat";
  report.availability = 0.5;
  report.result.aggregator.availability = 0.5;
  // In-process only: the catalog block never reaches the wire.
  report.result.aggregator.strategy_params = {{0.75, 0.125, 0.25}};
  core::BatchResult& outcome = report.result.aggregator.batch;
  outcome.outcomes = {{0, true, true, 0.25, 1.0, {2, 5}},
                      {1, false, false, 0.0, 0.0, {}}};
  outcome.total_objective = 1.0;
  outcome.workforce_used = 0.25;
  outcome.satisfied = {0};
  outcome.unsatisfied = {1};
  report.result.alternatives = {{1, result}};
  report.result.adpar_failures = {4};
  EXPECT_EQ(dump(report),
            R"({"request_id":"batch-000001","algorithm":"batchstrat",)"
            R"("availability":0.5,)"
            R"("result":{"aggregator":{"availability":0.5,)"
            R"("batch":{"outcomes":[{"request_index":0,"satisfied":true,)"
            R"("eligible":true,"workforce":0.25,"objective_value":1,)"
            R"("strategies":[2,5]},{"request_index":1,"satisfied":false,)"
            R"("eligible":false,"workforce":0,"objective_value":0,)"
            R"("strategies":[]}],"total_objective":1,"workforce_used":0.25,)"
            R"("satisfied":[0],"unsatisfied":[1]}},)"
            R"("alternatives":[{"request_index":1,)"
            R"("result":{"alternative":{"quality":0.625,"cost":0.25,)"
            R"("latency":0.5},"strategies":[3,7],)"
            R"("strategy_params":[{"quality":0.75,"cost":0.125,)"
            R"("latency":0.25},{"quality":0.625,"cost":0.25,"latency":0.5}],)"
            R"("squared_distance":0.015625,"distance":0.125}}],)"
            R"("adpar_failures":[4]}})");

  // Sweep envelopes, with an OK cell and an error cell (whose result is
  // never encoded).
  api::SweepRequest sweep;
  EXPECT_EQ(dump(sweep),
            R"({"targets":[],"solvers":[],"availability":{"kind":"default"}})");
  api::SweepRequest full_sweep;
  full_sweep.targets = {request};
  full_sweep.solvers = {"exact", "paper-sweep"};
  full_sweep.availability = api::AvailabilitySpec::Named("weekday");
  full_sweep.deadline_ms = 80.5;
  full_sweep.request_id = "s-1";
  EXPECT_EQ(dump(full_sweep),
            R"({"request_id":"s-1","targets":[{"id":"d1",)"
            R"("thresholds":{"quality":0.5,"cost":0.25,"latency":0.75},)"
            R"("k":2}],"solvers":["exact","paper-sweep"],)"
            R"("availability":{"kind":"named","name":"weekday"},)"
            R"("deadline_ms":80.5})");

  api::SweepReport sweep_report;
  sweep_report.request_id = "sweep-000002";
  sweep_report.availability = 0.5;
  sweep_report.outcomes = {{"d1", "exact", Status::OK(), result},
                           {"d1", "paper-sweep", Status::Infeasible("k > |S|"),
                            result}};
  EXPECT_EQ(dump(sweep_report),
            R"({"request_id":"sweep-000002","availability":0.5,)"
            R"("outcomes":[{"target_id":"d1","solver":"exact",)"
            R"("status":{"code":"OK"},)"
            R"("result":{"alternative":{"quality":0.625,"cost":0.25,)"
            R"("latency":0.5},"strategies":[3,7],)"
            R"("strategy_params":[{"quality":0.75,"cost":0.125,)"
            R"("latency":0.25},{"quality":0.625,"cost":0.25,"latency":0.5}],)"
            R"("squared_distance":0.015625,"distance":0.125}},)"
            R"({"target_id":"d1","solver":"paper-sweep",)"
            R"("status":{"code":"Infeasible","message":"k > |S|"}}]})");

  // Stream envelopes: all-unset and full options, every event kind, and an
  // update with and without an alternative.
  api::StreamOptions options;
  EXPECT_EQ(dump(options), R"({"availability":{"kind":"default"}})");
  api::StreamOptions full_options;
  full_options.availability = api::AvailabilitySpec::Fixed(0.75);
  full_options.max_pending = 8;
  full_options.readmit_on_release = false;
  full_options.objective = core::Objective::kPayoff;
  full_options.aggregation = core::AggregationMode::kMax;
  full_options.policy = core::WorkforcePolicy::kPaperMaxOfThree;
  full_options.recommend_alternatives = true;
  full_options.deadline_ms = 12.25;
  full_options.session_id = "stream-7";
  EXPECT_EQ(dump(full_options),
            R"({"availability":{"kind":"fixed","value":0.75},)"
            R"("max_pending":8,"readmit_on_release":false,)"
            R"("objective":"payoff","aggregation":"max",)"
            R"("policy":"paper-max-of-three","recommend_alternatives":true,)"
            R"("deadline_ms":12.25,"session_id":"stream-7"})");

  EXPECT_EQ(dump(api::StreamEvent::Arrival(request)),
            R"({"kind":"arrival","request":{"id":"d1",)"
            R"("thresholds":{"quality":0.5,"cost":0.25,"latency":0.75},)"
            R"("k":2}})");
  EXPECT_EQ(dump(api::StreamEvent::Revocation("d1")),
            R"({"kind":"revocation","request_id":"d1"})");
  EXPECT_EQ(dump(api::StreamEvent::Completion("d1")),
            R"({"kind":"completion","request_id":"d1"})");
  EXPECT_EQ(dump(api::StreamEvent::AvailabilityChange(
                api::AvailabilitySpec::Fixed(0.25))),
            R"({"kind":"availability-change","availability":{"kind":"fixed",)"
            R"("value":0.25}})");

  api::StreamUpdate admitted;
  admitted.session_id = "stream-7";
  admitted.kind = api::StreamEvent::Kind::kArrival;
  admitted.request_id = "d1";
  admitted.decision = {core::AdmissionDecision::Kind::kAdmitted, {2, 5}, 0.25};
  admitted.availability = 0.5;
  admitted.used_workforce = 0.25;
  admitted.active = 3;
  admitted.pending = 1;
  EXPECT_EQ(dump(admitted),
            R"({"session_id":"stream-7","kind":"arrival","request_id":"d1",)"
            R"("decision":{"kind":"admitted","strategies":[2,5],)"
            R"("workforce":0.25},"availability":0.5,"used_workforce":0.25,)"
            R"("active":3,"pending":1})");
  api::StreamUpdate rejected = admitted;
  rejected.decision = {core::AdmissionDecision::Kind::kRejected, {}, 0.0};
  rejected.has_alternative = true;
  rejected.alternative = result;
  EXPECT_EQ(dump(rejected),
            R"({"session_id":"stream-7","kind":"arrival","request_id":"d1",)"
            R"("decision":{"kind":"rejected","strategies":[],"workforce":0},)"
            R"("alternative":{"alternative":{"quality":0.625,"cost":0.25,)"
            R"("latency":0.5},"strategies":[3,7],)"
            R"("strategy_params":[{"quality":0.75,"cost":0.125,)"
            R"("latency":0.25},{"quality":0.625,"cost":0.25,"latency":0.5}],)"
            R"("squared_distance":0.015625,"distance":0.125},)"
            R"("availability":0.5,"used_workforce":0.25,"active":3,)"
            R"("pending":1})");

  api::ServiceConfig config;
  EXPECT_EQ(dump(config),
            R"({"batch":{"algorithm":"batchstrat","objective":"throughput",)"
            R"("aggregation":"sum","policy":"minimal-workforce",)"
            R"("recommend_alternatives":true,"adpar_solver":"exact"},)"
            R"("stream":{"max_pending":64,"readmit_on_release":true,)"
            R"("recommend_alternatives":false},)"
            R"("execution":{"worker_threads":0,"parallel_grain":4096},)"
            R"("cache":{"snapshot_capacity":16,"shards":4,)"
            R"("availability_quantum":0},"journal":{"path":"",)"
            R"("record_cancelled":true,"flush_every_record":true,)"
            R"("max_segment_bytes":0,"compact_after_segments":0,)"
            R"("retain_segments":1},"availability":{"kind":"fixed",)"
            R"("value":0.5}})");

  // The stats block the journal checkpoints ride on. Renaming a field here
  // silently breaks every recorded trace — update the format version too.
  api::ServiceStats stats;
  stats.batches = 1;
  stats.sweeps = 2;
  stats.streams_opened = 3;
  stats.stream_events = 4;
  stats.stream_reschedules = 16;
  stats.snapshot_delta_updates = 17;
  stats.snapshot_rebuilds = 18;
  stats.requests_processed = 5;
  stats.cancelled = 6;
  stats.queue_depth = 7;
  stats.active_workers = 8;
  stats.steals = 9;
  stats.local_hits = 10;
  stats.cache_hits = 11;
  stats.cache_misses = 12;
  stats.index_build_nanos = 13;
  stats.rejected_requests = 14;
  stats.retry_after_hints = 15;
  stats.deadline_exceeded = 19;
  stats.retries = 20;
  stats.failovers = 21;
  stats.hedges_won = 22;
  stats.kernel_dispatch = "avx2";
  EXPECT_EQ(json::Dump(Encode(stats)),
            "{\"batches\":1,\"sweeps\":2,\"streams_opened\":3,"
            "\"stream_events\":4,\"stream_reschedules\":16,"
            "\"snapshot_delta_updates\":17,\"snapshot_rebuilds\":18,"
            "\"requests_processed\":5,\"cancelled\":6,"
            "\"queue_depth\":7,\"active_workers\":8,\"steals\":9,"
            "\"local_hits\":10,\"cache_hits\":11,\"cache_misses\":12,"
            "\"index_build_nanos\":13,\"rejected_requests\":14,"
            "\"retry_after_hints\":15,\"deadline_exceeded\":19,"
            "\"retries\":20,\"failovers\":21,\"hedges_won\":22,"
            "\"kernel_dispatch\":\"avx2\"}");

  // Every journal record kind; pairs and stream events with and without
  // their report or update.
  EXPECT_EQ(EncodeConfigRecord(config),
            R"({"kind":"config","config":{"batch":{"algorithm":"batchstrat",)"
            R"("objective":"throughput","aggregation":"sum",)"
            R"("policy":"minimal-workforce","recommend_alternatives":true,)"
            R"("adpar_solver":"exact"},"stream":{"max_pending":64,)"
            R"("readmit_on_release":true,"recommend_alternatives":false},)"
            R"("execution":{"worker_threads":0,"parallel_grain":4096},)"
            R"("cache":{"snapshot_capacity":16,"shards":4,)"
            R"("availability_quantum":0},"journal":{"path":"",)"
            R"("record_cancelled":true,"flush_every_record":true,)"
            R"("max_segment_bytes":0,"compact_after_segments":0,)"
            R"("retain_segments":1},"availability":{"kind":"fixed",)"
            R"("value":0.5}}})");
  EXPECT_EQ(EncodeCatalogRecord(catalog),
            R"({"kind":"catalog","catalog":{"strategies":[{"id":"s1",)"
            R"("stages":["SEQ-IND-CRO","SIM-COL-HYB"]}],)"
            R"("profiles":[{"quality":{"alpha":0.5,"beta":0.25},)"
            R"("cost":{"alpha":-0.5,"beta":0.75},"latency":{"alpha":0.125,)"
            R"("beta":0.375}}]}})");
  EXPECT_EQ(EncodeBatchRecord("b-1", full_batch, report),
            R"({"kind":"batch","request_id":"b-1",)"
            R"("request":{"request_id":"b-1","requests":[{"id":"d1",)"
            R"("thresholds":{"quality":0.5,"cost":0.25,"latency":0.75},)"
            R"("k":2}],"availability":{"kind":"fixed","value":0.5},)"
            R"("algorithm":"baseline-g","objective":"payoff",)"
            R"("aggregation":"max","policy":"paper-max-of-three",)"
            R"("recommend_alternatives":false,"adpar_solver":"paper-sweep",)"
            R"("deadline_ms":250},"status":{"code":"OK"},)"
            R"("report":{"request_id":"batch-000001",)"
            R"("algorithm":"batchstrat","availability":0.5,)"
            R"("result":{"aggregator":{"availability":0.5,)"
            R"("batch":{"outcomes":[{"request_index":0,"satisfied":true,)"
            R"("eligible":true,"workforce":0.25,"objective_value":1,)"
            R"("strategies":[2,5]},{"request_index":1,"satisfied":false,)"
            R"("eligible":false,"workforce":0,"objective_value":0,)"
            R"("strategies":[]}],"total_objective":1,"workforce_used":0.25,)"
            R"("satisfied":[0],"unsatisfied":[1]}},)"
            R"("alternatives":[{"request_index":1,)"
            R"("result":{"alternative":{"quality":0.625,"cost":0.25,)"
            R"("latency":0.5},"strategies":[3,7],)"
            R"("strategy_params":[{"quality":0.75,"cost":0.125,)"
            R"("latency":0.25},{"quality":0.625,"cost":0.25,"latency":0.5}],)"
            R"("squared_distance":0.015625,"distance":0.125}}],)"
            R"("adpar_failures":[4]}}})");
  EXPECT_EQ(EncodeBatchRecord("b-2", batch, Status::NotFound("no such solver")),
            R"({"kind":"batch","request_id":"b-2","request":{"requests":[],)"
            R"("availability":{"kind":"default"}},)"
            R"("status":{"code":"NotFound","message":"no such solver"}})");
  EXPECT_EQ(EncodeSweepRecord("s-1", full_sweep, sweep_report),
            R"({"kind":"sweep","request_id":"s-1",)"
            R"("request":{"request_id":"s-1","targets":[{"id":"d1",)"
            R"("thresholds":{"quality":0.5,"cost":0.25,"latency":0.75},)"
            R"("k":2}],"solvers":["exact","paper-sweep"],)"
            R"("availability":{"kind":"named","name":"weekday"},)"
            R"("deadline_ms":80.5},"status":{"code":"OK"},)"
            R"("report":{"request_id":"sweep-000002","availability":0.5,)"
            R"("outcomes":[{"target_id":"d1","solver":"exact",)"
            R"("status":{"code":"OK"},)"
            R"("result":{"alternative":{"quality":0.625,"cost":0.25,)"
            R"("latency":0.5},"strategies":[3,7],)"
            R"("strategy_params":[{"quality":0.75,"cost":0.125,)"
            R"("latency":0.25},{"quality":0.625,"cost":0.25,"latency":0.5}],)"
            R"("squared_distance":0.015625,"distance":0.125}},)"
            R"({"target_id":"d1","solver":"paper-sweep",)"
            R"("status":{"code":"Infeasible","message":"k > |S|"}}]}})");
  EXPECT_EQ(EncodeSweepRecord("s-2", sweep, Status::Cancelled("withdrawn")),
            R"({"kind":"sweep","request_id":"s-2","request":{"targets":[],)"
            R"("solvers":[],"availability":{"kind":"default"}},)"
            R"("status":{"code":"Cancelled","message":"withdrawn"}})");
  api::ServiceStats idle;
  idle.kernel_dispatch = "scalar";
  EXPECT_EQ(EncodeStatsRecord(idle),
            R"({"kind":"stats","stats":{"batches":0,"sweeps":0,)"
            R"("streams_opened":0,"stream_events":0,"stream_reschedules":0,)"
            R"("snapshot_delta_updates":0,"snapshot_rebuilds":0,)"
            R"("requests_processed":0,"cancelled":0,"queue_depth":0,)"
            R"("active_workers":0,"steals":0,"local_hits":0,"cache_hits":0,)"
            R"("cache_misses":0,"index_build_nanos":0,"rejected_requests":0,)"
            R"("retry_after_hints":0,"deadline_exceeded":0,"retries":0,)"
            R"("failovers":0,"hedges_won":0,"kernel_dispatch":"scalar"}})");
  EXPECT_EQ(EncodeStatsRecord(idle, 42.5),
            R"({"kind":"stats","sim_time":42.5,"stats":{"batches":0,)"
            R"("sweeps":0,"streams_opened":0,"stream_events":0,)"
            R"("stream_reschedules":0,"snapshot_delta_updates":0,)"
            R"("snapshot_rebuilds":0,"requests_processed":0,"cancelled":0,)"
            R"("queue_depth":0,"active_workers":0,"steals":0,"local_hits":0,)"
            R"("cache_hits":0,"cache_misses":0,"index_build_nanos":0,)"
            R"("rejected_requests":0,"retry_after_hints":0,)"
            R"("deadline_exceeded":0,"retries":0,"failovers":0,)"
            R"("hedges_won":0,"kernel_dispatch":"scalar"}})");
  StreamOpenRecord open;
  open.session_id = "stream-7";
  open.options = full_options;
  open.availability = 0.75;
  EXPECT_EQ(EncodeStreamOpenRecord(open),
            R"({"kind":"stream-open","session_id":"stream-7",)"
            R"("options":{"availability":{"kind":"fixed","value":0.75},)"
            R"("max_pending":8,"readmit_on_release":false,)"
            R"("objective":"payoff","aggregation":"max",)"
            R"("policy":"paper-max-of-three","recommend_alternatives":true,)"
            R"("deadline_ms":12.25,"session_id":"stream-7"},)"
            R"("availability":0.75})");
  StreamEventRecord event;
  event.session_id = "stream-7";
  event.seq = 4;
  event.event = api::StreamEvent::Arrival(request);
  event.update = rejected;
  EXPECT_EQ(EncodeStreamEventRecord(event),
            R"({"kind":"stream-event","session_id":"stream-7","seq":4,)"
            R"("event":{"kind":"arrival","request":{"id":"d1",)"
            R"("thresholds":{"quality":0.5,"cost":0.25,"latency":0.75},)"
            R"("k":2}},"status":{"code":"OK"},)"
            R"("update":{"session_id":"stream-7","kind":"arrival",)"
            R"("request_id":"d1","decision":{"kind":"rejected",)"
            R"("strategies":[],"workforce":0},)"
            R"("alternative":{"alternative":{"quality":0.625,"cost":0.25,)"
            R"("latency":0.5},"strategies":[3,7],)"
            R"("strategy_params":[{"quality":0.75,"cost":0.125,)"
            R"("latency":0.25},{"quality":0.625,"cost":0.25,"latency":0.5}],)"
            R"("squared_distance":0.015625,"distance":0.125},)"
            R"("availability":0.5,"used_workforce":0.25,"active":3,)"
            R"("pending":1}})");
  event.seq = 5;
  event.event = api::StreamEvent::Revocation("ghost");
  event.status = Status::NotFound("unknown request id: ghost");
  EXPECT_EQ(EncodeStreamEventRecord(event),
            R"({"kind":"stream-event","session_id":"stream-7","seq":5,)"
            R"("event":{"kind":"revocation","request_id":"ghost"},)"
            R"("status":{"code":"NotFound",)"
            R"("message":"unknown request id: ghost"}})");
}

/// FNV-1a over the encodings of kIterations seeded values from one
/// generator: any change to a field name, field order, omit rule, or number
/// format moves the digest.
template <typename T>
uint64_t EncodingDigest(uint64_t seed, T (*generate)(Rng&)) {
  Rng rng(seed);
  uint64_t hash = 0xcbf29ce484222325ull;
  for (int i = 0; i < kIterations; ++i) {
    for (const char c : json::Dump(Encode(generate(rng))) + "\n") {
      hash ^= static_cast<unsigned char>(c);
      hash *= 0x100000001b3ull;
    }
  }
  return hash;
}

TEST(Codec, SeededEncodingsKeepTheirDigests) {
  EXPECT_EQ(EncodingDigest(1, RandomStatus), 0x4b296145ebec194cull);
  EXPECT_EQ(EncodingDigest(2, RandomParams), 0xbdf11b6aff68d9e7ull);
  EXPECT_EQ(EncodingDigest(3, RandomRequest), 0xf02eaf05ca21ae63ull);
  EXPECT_EQ(EncodingDigest(4, RandomAdparResult), 0x2d9b307c13e94304ull);
  EXPECT_EQ(EncodingDigest(5, RandomCatalog), 0xced635eb09c903e5ull);
  EXPECT_EQ(EncodingDigest(6, RandomSpec), 0x36bc0217d324067aull);
  EXPECT_EQ(EncodingDigest(7, RandomBatchRequest), 0xc1f6f87d48958813ull);
  EXPECT_EQ(EncodingDigest(8, RandomBatchReport), 0x1d9fbea4046bd7a4ull);
  EXPECT_EQ(EncodingDigest(9, RandomSweepRequest), 0x64334304e2306dceull);
  EXPECT_EQ(EncodingDigest(10, RandomSweepReport), 0x990cc9efb3b8a0b3ull);
  EXPECT_EQ(EncodingDigest(11, RandomStreamOptions), 0x93eb10bdb7ab1e4eull);
  EXPECT_EQ(EncodingDigest(12, RandomStreamEvent), 0x8b69801fd2edd1f3ull);
  EXPECT_EQ(EncodingDigest(13, RandomStreamUpdate), 0xa4179346d0fdbe40ull);
  EXPECT_EQ(EncodingDigest(14, RandomConfig), 0xbe4f9070a70d5aeeull);
  EXPECT_EQ(EncodingDigest(15, RandomServiceStats), 0xf10039fa334c1d3dull);
}

// Every enumerator of every wire enum travels under one name, and that name
// decodes back to the same enumerator.
TEST(Codec, EveryWireEnumRoundTripsByName) {
  for (int i = 0; i <= static_cast<int>(StatusCode::kDeadlineExceeded); ++i) {
    const StatusCode code = static_cast<StatusCode>(i);
    const Status status = code == StatusCode::kOk ? Status::OK()
                                                  : Status(code, "m");
    const json::Value encoded = Encode(status);
    EXPECT_EQ(encoded.Find("code")->AsString(), StatusCodeName(code));
    Status decoded;
    ASSERT_TRUE(DecodeStatus(encoded, &decoded).ok()) << StatusCodeName(code);
    EXPECT_EQ(decoded.code(), code);
  }

  // The three request-level enums ride BatchRequest's optional overrides.
  const auto batch_round_trip = [](api::BatchRequest request, const char* key,
                                   const std::string& name) {
    const json::Value encoded = Encode(request);
    EXPECT_EQ(encoded.Find(key)->AsString(), name);
    auto decoded = DecodeBatchRequest(encoded);
    EXPECT_TRUE(decoded.ok() && *decoded == request) << name;
  };
  for (const auto& [objective, name] :
       {std::pair{core::Objective::kThroughput, "throughput"},
        std::pair{core::Objective::kPayoff, "payoff"}}) {
    api::BatchRequest request;
    request.objective = objective;
    batch_round_trip(request, "objective", name);
  }
  for (const auto& [mode, name] :
       {std::pair{core::AggregationMode::kSum, "sum"},
        std::pair{core::AggregationMode::kMax, "max"}}) {
    api::BatchRequest request;
    request.aggregation = mode;
    batch_round_trip(request, "aggregation", name);
  }
  for (const auto& [policy, name] :
       {std::pair{core::WorkforcePolicy::kMinimalWorkforce,
                  "minimal-workforce"},
        std::pair{core::WorkforcePolicy::kPaperMaxOfThree,
                  "paper-max-of-three"}}) {
    api::BatchRequest request;
    request.policy = policy;
    batch_round_trip(request, "policy", name);
  }

  for (const auto& [spec, name] :
       {std::pair{api::AvailabilitySpec::Default(), "default"},
        std::pair{api::AvailabilitySpec::Fixed(0.5), "fixed"},
        std::pair{api::AvailabilitySpec::FromPmf({{0.5, 1.0}}), "pmf"},
        std::pair{api::AvailabilitySpec::FromSamples({0.5}), "samples"},
        std::pair{api::AvailabilitySpec::Named("m"), "named"}}) {
    const json::Value encoded = Encode(spec);
    EXPECT_EQ(encoded.Find("kind")->AsString(), name);
    auto decoded = DecodeAvailabilitySpec(encoded);
    EXPECT_TRUE(decoded.ok() && *decoded == spec) << name;
  }

  // The stream enums ride StreamUpdate.
  using EventKind = api::StreamEvent::Kind;
  for (const auto& [kind, name] :
       {std::pair{EventKind::kArrival, "arrival"},
        std::pair{EventKind::kRevocation, "revocation"},
        std::pair{EventKind::kCompletion, "completion"},
        std::pair{EventKind::kAvailabilityChange, "availability-change"}}) {
    EXPECT_STREQ(api::StreamEventKindName(kind), name);
    api::StreamUpdate update;
    update.kind = kind;
    const json::Value encoded = Encode(update);
    EXPECT_EQ(encoded.Find("kind")->AsString(), name);
    auto decoded = DecodeStreamUpdate(encoded);
    EXPECT_TRUE(decoded.ok() && decoded->kind == kind) << name;
  }
  using Admission = core::AdmissionDecision::Kind;
  for (const auto& [kind, name] :
       {std::pair{Admission::kAdmitted, "admitted"},
        std::pair{Admission::kQueued, "queued"},
        std::pair{Admission::kRejected, "rejected"}}) {
    EXPECT_STREQ(api::AdmissionKindName(kind), name);
    api::StreamUpdate update;
    update.decision.kind = kind;
    const json::Value encoded = Encode(update);
    EXPECT_EQ(encoded.Find("decision")->Find("kind")->AsString(), name);
    auto decoded = DecodeStreamUpdate(encoded);
    EXPECT_TRUE(decoded.ok() && decoded->decision.kind == kind) << name;
  }
}

// Every stats counter is required on decode: the journal read floor (v8)
// is past v7, which introduced the last of them, so a block missing one is
// malformed rather than old.
TEST(Codec, StatsWithoutHedgesWonFailToDecode) {
  const std::string missing =
      "{\"batches\":1,\"sweeps\":2,\"streams_opened\":3,"
      "\"stream_events\":4,\"stream_reschedules\":16,"
      "\"snapshot_delta_updates\":17,\"snapshot_rebuilds\":18,"
      "\"requests_processed\":5,\"cancelled\":6,"
      "\"queue_depth\":7,\"active_workers\":8,\"steals\":9,"
      "\"local_hits\":10,\"cache_hits\":11,\"cache_misses\":12,"
      "\"index_build_nanos\":13,\"rejected_requests\":14,"
      "\"retry_after_hints\":15,\"deadline_exceeded\":19,"
      "\"retries\":20,\"failovers\":21,\"kernel_dispatch\":\"avx2\"}";
  auto decoded = DecodeServiceStats(*json::Parse(missing));
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(decoded.status().message().find("hedges_won"), std::string::npos)
      << decoded.status().ToString();
}

// deadline_ms is emitted only when set: a request without a deadline must
// encode byte-identically to its pre-v7 form, and a set deadline must
// round-trip on all three envelope kinds.
TEST(Codec, DeadlineMsIsOmittedWhenUnsetAndRoundTripsWhenSet) {
  api::BatchRequest batch;
  batch.availability = api::AvailabilitySpec::Fixed(0.5);
  EXPECT_EQ(json::Dump(Encode(batch)).find("deadline_ms"), std::string::npos);
  batch.deadline_ms = 250.0;
  const std::string encoded = json::Dump(Encode(batch));
  EXPECT_NE(encoded.find("\"deadline_ms\":250"), std::string::npos) << encoded;
  auto decoded = DecodeBatchRequest(*json::Parse(encoded));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->deadline_ms, 250.0);

  api::SweepRequest sweep;
  sweep.availability = api::AvailabilitySpec::Fixed(0.5);
  EXPECT_EQ(json::Dump(Encode(sweep)).find("deadline_ms"), std::string::npos);
  sweep.deadline_ms = 80.5;
  auto sweep_decoded =
      DecodeSweepRequest(*json::Parse(json::Dump(Encode(sweep))));
  ASSERT_TRUE(sweep_decoded.ok());
  EXPECT_EQ(sweep_decoded->deadline_ms, 80.5);

  api::StreamOptions options;
  EXPECT_EQ(json::Dump(Encode(options)).find("deadline_ms"),
            std::string::npos);
  options.deadline_ms = 12.25;
  auto options_decoded =
      DecodeStreamOptions(*json::Parse(json::Dump(Encode(options))));
  ASSERT_TRUE(options_decoded.ok());
  EXPECT_EQ(options_decoded->deadline_ms, 12.25);
}

TEST(Codec, StatsRecordDecodesIntoTheTrace) {
  api::ServiceStats stats;
  stats.batches = 3;
  stats.queue_depth = 12;
  stats.active_workers = 4;
  stats.steals = 17;
  stats.local_hits = 23;
  const std::string record = EncodeStatsRecord(stats);
  EXPECT_EQ(record.rfind("{\"kind\":\"stats\",\"stats\":", 0), 0u) << record;
  // A stats checkpoint decodes next to the pairs without disturbing them.
  auto trace = DecodeTrace({record, record});
  ASSERT_TRUE(trace.ok()) << trace.status().ToString();
  EXPECT_TRUE(trace->pairs.empty());
  ASSERT_EQ(trace->stats.size(), 2u);
  EXPECT_TRUE(trace->stats[0].stats == stats);
  EXPECT_FALSE(trace->stats[0].has_sim_time);
  EXPECT_TRUE(trace->stats[1].stats == stats);
  // Encoding is byte-deterministic: two identical snapshots, two identical
  // record lines.
  EXPECT_EQ(EncodeStatsRecord(stats), record);

  // The v6 virtual-time-stamped variant round-trips the stamp.
  const std::string stamped = EncodeStatsRecord(stats, 42.5);
  EXPECT_EQ(stamped.rfind("{\"kind\":\"stats\",\"sim_time\":", 0), 0u)
      << stamped;
  auto stamped_trace = DecodeTrace({stamped});
  ASSERT_TRUE(stamped_trace.ok()) << stamped_trace.status().ToString();
  ASSERT_EQ(stamped_trace->stats.size(), 1u);
  EXPECT_TRUE(stamped_trace->stats[0].has_sim_time);
  EXPECT_EQ(stamped_trace->stats[0].sim_time, 42.5);
  EXPECT_TRUE(stamped_trace->stats[0].stats == stats);
}

TEST(Codec, StreamRecordsDecodeIntoTheTrace) {
  Rng rng(0xC0DEC'0007ull);
  StreamOpenRecord open;
  open.session_id = "stream-000001";
  open.options = RandomStreamOptions(rng);
  open.availability = 0.625;

  StreamEventRecord succeeded;
  succeeded.session_id = open.session_id;
  succeeded.seq = 0;
  succeeded.event = api::StreamEvent::Arrival(RandomRequest(rng));
  succeeded.update = RandomStreamUpdate(rng);

  StreamEventRecord failed;
  failed.session_id = open.session_id;
  failed.seq = 1;
  failed.event = api::StreamEvent::Revocation("ghost");
  failed.status = Status::NotFound("unknown request id: ghost");

  const std::string open_line = EncodeStreamOpenRecord(open);
  EXPECT_EQ(open_line.rfind("{\"kind\":\"stream-open\",", 0), 0u)
      << open_line;
  const std::string ok_line = EncodeStreamEventRecord(succeeded);
  EXPECT_EQ(ok_line.rfind("{\"kind\":\"stream-event\",", 0), 0u) << ok_line;
  const std::string failed_line = EncodeStreamEventRecord(failed);

  auto trace = DecodeTrace({open_line, ok_line, failed_line});
  ASSERT_TRUE(trace.ok()) << trace.status().ToString();
  ASSERT_EQ(trace->stream_opens.size(), 1u);
  EXPECT_TRUE(trace->stream_opens[0] == open);
  ASSERT_EQ(trace->stream_events.size(), 2u);
  EXPECT_TRUE(trace->stream_events[0] == succeeded);
  EXPECT_TRUE(trace->stream_events[1] == failed);
  // Byte-determinism is what replay's bit-match stands on.
  EXPECT_EQ(EncodeStreamOpenRecord(trace->stream_opens[0]), open_line);
  EXPECT_EQ(EncodeStreamEventRecord(trace->stream_events[0]), ok_line);
  EXPECT_EQ(EncodeStreamEventRecord(trace->stream_events[1]), failed_line);
}

TEST(Codec, CompactRecordsKeepsTheSelfContainedCore) {
  Rng rng(0xC0DEC'0009ull);
  const std::string config_a = EncodeConfigRecord(RandomConfig(rng));
  const std::string config_b = EncodeConfigRecord(RandomConfig(rng));
  const std::string catalog = EncodeCatalogRecord(RandomCatalog(rng));
  const std::string stats_a = EncodeStatsRecord(RandomServiceStats(rng));
  const std::string stats_b = EncodeStatsRecord(RandomServiceStats(rng));
  api::BatchRequest batch_request = RandomBatchRequest(rng);
  const std::string pair =
      EncodeBatchRecord("b1", batch_request, RandomBatchReport(rng));
  StreamOpenRecord open;
  open.session_id = "stream-000001";
  open.availability = 0.5;
  const std::string open_line = EncodeStreamOpenRecord(open);
  StreamEventRecord event;
  event.session_id = open.session_id;
  event.event = api::StreamEvent::Completion("d1");
  event.update = RandomStreamUpdate(rng);
  const std::string event_line = EncodeStreamEventRecord(event);
  const std::string unknown = "{\"kind\":\"future-record\",\"x\":1}";

  const auto folded = CompactRecords({config_a, stats_a, pair, open_line,
                                      unknown, event_line, config_b, catalog,
                                      stats_b});
  // Last config/catalog/stats survive; opens and unknown records survive in
  // order; the pair and the stream event are dropped.
  ASSERT_EQ(folded.size(), 5u);
  EXPECT_EQ(folded[0], config_b);
  EXPECT_EQ(folded[1], catalog);
  EXPECT_EQ(folded[2], open_line);
  EXPECT_EQ(folded[3], unknown);
  EXPECT_EQ(folded[4], stats_b);

  // Folding is idempotent: re-compacting the survivors changes nothing.
  EXPECT_EQ(CompactRecords(folded), folded);
}

TEST(Codec, OptionalFieldsAreOmittedAndRestoredUnset) {
  api::BatchRequest request;
  request.availability = api::AvailabilitySpec::Fixed(0.5);
  const std::string encoded = json::Dump(Encode(request));
  EXPECT_EQ(encoded.find("algorithm"), std::string::npos);
  EXPECT_EQ(encoded.find("request_id"), std::string::npos);
  auto decoded = DecodeBatchRequest(*json::Parse(encoded));
  ASSERT_TRUE(decoded.ok());
  EXPECT_FALSE(decoded->algorithm.has_value());
  EXPECT_TRUE(decoded->request_id.empty());
}

TEST(Codec, DecodeRejectsMalformedEnvelopes) {
  const auto decode = [](const std::string& text) {
    auto parsed = json::Parse(text);
    EXPECT_TRUE(parsed.ok()) << text;
    return DecodeBatchRequest(*parsed);
  };
  // Missing required fields.
  EXPECT_EQ(decode("{}").status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(decode("{\"requests\":[]}").status().code(),
            StatusCode::kInvalidArgument);
  // Wrong types.
  EXPECT_EQ(decode("{\"requests\":7,\"availability\":{\"kind\":\"default\"}}")
                .status()
                .code(),
            StatusCode::kInvalidArgument);
  // Unknown enum names.
  EXPECT_EQ(decode("{\"requests\":[],\"availability\":{\"kind\":\"default\"},"
                   "\"objective\":\"profit\"}")
                .status()
                .code(),
            StatusCode::kInvalidArgument);
}

TEST(Codec, JsonParserIsStrict) {
  EXPECT_FALSE(json::Parse("{\"a\":1,}").ok());
  EXPECT_FALSE(json::Parse("{\"a\" 1}").ok());
  EXPECT_FALSE(json::Parse("[1 2]").ok());
  EXPECT_FALSE(json::Parse("\"unterminated").ok());
  EXPECT_FALSE(json::Parse("{} trailing").ok());
  EXPECT_FALSE(json::Parse("nan").ok());
  EXPECT_FALSE(json::Parse("1e999").ok());  // overflows to infinity
  EXPECT_TRUE(json::Parse(" { \"a\" : [ 1 , true , null ] } ").ok());
}

TEST(Codec, NumbersRoundTripBitExactly) {
  Rng rng(0xC0DEC'0007ull);
  for (int i = 0; i < 1000; ++i) {
    const double value =
        (rng.Uniform() - 0.5) * std::pow(10.0, rng.UniformInt(-300, 300));
    auto parsed = json::Parse(json::FormatNumber(value));
    ASSERT_TRUE(parsed.ok());
    EXPECT_EQ(parsed->AsNumber(), value);
  }
  EXPECT_EQ(json::Parse(json::FormatNumber(1.0 / 3.0))->AsNumber(), 1.0 / 3.0);
  EXPECT_EQ(json::FormatNumber(0.5), "0.5");
  EXPECT_EQ(json::FormatNumber(1.0), "1");
}

TEST(Codec, NonFiniteNumbersDumpAsNullNotInvalidJson) {
  // JSON has no NaN literal; a non-finite double must not corrupt the
  // document (one bad value used to make a whole journal unparseable).
  EXPECT_EQ(json::FormatNumber(std::nan("")), "null");
  EXPECT_EQ(json::FormatNumber(1.0 / 0.0), "null");
  json::Value obj = json::Value::Object();
  obj.Add("x", std::nan(""));
  auto reparsed = json::Parse(json::Dump(obj));
  ASSERT_TRUE(reparsed.ok());
  EXPECT_TRUE(reparsed->Find("x")->is_null());
  // The loss surfaces as a clean field-level decode error.
  core::ParamVector params{std::nan(""), 0.5, 0.5};
  EXPECT_EQ(DecodeParamVector(*json::Parse(json::Dump(Encode(params))))
                .status()
                .code(),
            StatusCode::kInvalidArgument);
}

TEST(Codec, IntegerDecodeRejectsOutOfRangeValues) {
  // Casting an unrepresentable double to int/size_t is UB; a corrupt or
  // hand-edited journal must fail cleanly instead.
  auto request = DecodeDeploymentRequest(*json::Parse(
      "{\"id\":\"d\",\"thresholds\":{\"quality\":0,\"cost\":0,"
      "\"latency\":0},\"k\":1e300}"));
  EXPECT_EQ(request.status().code(), StatusCode::kInvalidArgument);
  auto result = DecodeAdparResult(*json::Parse(
      "{\"alternative\":{\"quality\":0,\"cost\":0,\"latency\":0},"
      "\"strategies\":[1e300],\"squared_distance\":0,\"distance\":0}"));
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

// ---------------------------------------------------------------------------
// Field-table decode rules: which members are required, what a present
// member must look like, and how conditional members follow their value.
// ---------------------------------------------------------------------------

/// `obj` without its member `key`.
json::Value Without(const json::Value& obj, const std::string& key) {
  json::Value out = json::Value::Object();
  for (const auto& [name, value] : obj.members()) {
    if (name != key) out.Add(name, value);
  }
  return out;
}

/// Drops each top-level member of Encode(value) in turn. A required member
/// fails the decode with an error naming it; an omittable one (an optional,
/// an omit-rule or a flagged member) decodes without it.
template <typename T, typename DecodeFn>
void ExpectOnlyOmittableMembersMayBeDropped(
    const T& value, DecodeFn decode, const std::set<std::string>& omittable,
    const char* what) {
  const json::Value encoded = Encode(value);
  for (const auto& member : encoded.members()) {
    const std::string& key = member.first;
    auto decoded = decode(Without(encoded, key));
    if (omittable.count(key) != 0) {
      EXPECT_TRUE(decoded.ok()) << what << " without '" << key
                                << "': " << decoded.status().ToString();
    } else {
      ASSERT_FALSE(decoded.ok()) << what << " decoded without '" << key << "'";
      EXPECT_EQ(decoded.status().ToString(),
                "InvalidArgument: missing field '" + key + "'")
          << what;
    }
  }
}

TEST(Codec, OnlyOmittableMembersMayBeMissing) {
  Rng rng(0xC0DEC'000Aull);
  for (int i = 0; i < kIterations / 10; ++i) {
    ExpectOnlyOmittableMembersMayBeDropped(RandomParams(rng),
                                           DecodeParamVector, {},
                                           "ParamVector");
    ExpectOnlyOmittableMembersMayBeDropped(
        RandomRequest(rng), DecodeDeploymentRequest, {}, "DeploymentRequest");
    ExpectOnlyOmittableMembersMayBeDropped(
        RandomAdparResult(rng), DecodeAdparResult, {}, "AdparResult");
    ExpectOnlyOmittableMembersMayBeDropped(RandomSpec(rng),
                                           DecodeAvailabilitySpec, {},
                                           "AvailabilitySpec");
    ExpectOnlyOmittableMembersMayBeDropped(RandomCatalog(rng), DecodeCatalog,
                                           {}, "Catalog");
    ExpectOnlyOmittableMembersMayBeDropped(
        RandomBatchRequest(rng), DecodeBatchRequest,
        {"request_id", "algorithm", "objective", "aggregation", "policy",
         "recommend_alternatives", "adpar_solver", "deadline_ms"},
        "BatchRequest");
    ExpectOnlyOmittableMembersMayBeDropped(
        RandomBatchReport(rng), DecodeBatchReport, {}, "BatchReport");
    ExpectOnlyOmittableMembersMayBeDropped(
        RandomSweepRequest(rng), DecodeSweepRequest,
        {"request_id", "deadline_ms"}, "SweepRequest");
    ExpectOnlyOmittableMembersMayBeDropped(
        RandomSweepReport(rng), DecodeSweepReport, {}, "SweepReport");
    ExpectOnlyOmittableMembersMayBeDropped(
        RandomStreamOptions(rng), DecodeStreamOptions,
        {"max_pending", "readmit_on_release", "objective", "aggregation",
         "policy", "recommend_alternatives", "deadline_ms", "session_id"},
        "StreamOptions");
    ExpectOnlyOmittableMembersMayBeDropped(
        RandomStreamEvent(rng), DecodeStreamEvent, {}, "StreamEvent");
    ExpectOnlyOmittableMembersMayBeDropped(RandomStreamUpdate(rng),
                                           DecodeStreamUpdate,
                                           {"alternative"}, "StreamUpdate");
    ExpectOnlyOmittableMembersMayBeDropped(
        RandomConfig(rng), DecodeServiceConfig, {}, "ServiceConfig");
    ExpectOnlyOmittableMembersMayBeDropped(
        RandomServiceStats(rng), DecodeServiceStats, {}, "ServiceStats");
  }
}

TEST(Codec, DecodeErrorsNameTheOffendingField) {
  const auto error = [](const auto& decoded) {
    EXPECT_FALSE(decoded.ok());
    return decoded.status().ToString();
  };
  EXPECT_EQ(error(DecodeParamVector(*json::Parse("[1,2,3]"))),
            "InvalidArgument: param vector must be a JSON object");
  EXPECT_EQ(error(DecodeParamVector(*json::Parse(
                "{\"quality\":\"high\",\"cost\":0,\"latency\":0}"))),
            "InvalidArgument: field 'quality' must be a number");
  // A bad member deep inside an envelope is reported by its own name.
  EXPECT_EQ(error(DecodeBatchRequest(*json::Parse(
                "{\"requests\":[{\"id\":\"d\",\"thresholds\":{\"quality\":0,"
                "\"cost\":0,\"latency\":0},\"k\":1.5}],"
                "\"availability\":{\"kind\":\"default\"}}"))),
            "InvalidArgument: field 'k' must be an integer in range");
  EXPECT_EQ(error(DecodeSweepRequest(*json::Parse(
                "{\"targets\":[],\"solvers\":\"exact\","
                "\"availability\":{\"kind\":\"default\"}}"))),
            "InvalidArgument: field 'solvers' must be an array");
  // Optional members may be absent, but when present they are typed.
  const std::string batch_prefix =
      "{\"requests\":[],\"availability\":{\"kind\":\"default\"},";
  EXPECT_EQ(error(DecodeBatchRequest(
                *json::Parse(batch_prefix + "\"algorithm\":7}"))),
            "InvalidArgument: field 'algorithm' must be a string");
  EXPECT_EQ(error(DecodeBatchRequest(
                *json::Parse(batch_prefix + "\"recommend_alternatives\":1}"))),
            "InvalidArgument: field 'recommend_alternatives' must be a "
            "boolean");
  EXPECT_EQ(error(DecodeBatchRequest(
                *json::Parse(batch_prefix + "\"policy\":\"greedy\"}"))),
            "InvalidArgument: field 'policy' has unknown value 'greedy'");
}

TEST(Codec, UnknownMembersAreIgnoredOnDecode) {
  // A newer writer may add members; this reader decodes what it knows,
  // at the top level and inside nested tables alike.
  Rng rng(0xC0DEC'000Bull);
  api::BatchRequest request = RandomBatchRequest(rng);
  request.requests = {RandomRequest(rng)};
  std::string encoded = json::Dump(Encode(request));
  encoded.insert(1, "\"future\":[1,{\"a\":null}],");
  const size_t thresholds = encoded.find("\"thresholds\":{");
  ASSERT_NE(thresholds, std::string::npos) << encoded;
  encoded.insert(thresholds + 14, "\"unit\":\"ms\",");
  auto decoded = DecodeBatchRequest(*json::Parse(encoded));
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString() << "\n" << encoded;
  EXPECT_TRUE(*decoded == request);

  const api::ServiceStats stats = RandomServiceStats(rng);
  std::string stats_encoded = json::Dump(Encode(stats));
  stats_encoded.insert(1, "\"future_counter\":3,");
  auto stats_decoded = DecodeServiceStats(*json::Parse(stats_encoded));
  ASSERT_TRUE(stats_decoded.ok()) << stats_decoded.status().ToString();
  EXPECT_TRUE(*stats_decoded == stats);
}

TEST(Codec, TaggedUnionMembersFollowTheirKind) {
  const auto spec = [](const std::string& text) {
    return DecodeAvailabilitySpec(*json::Parse(text));
  };
  // The member a kind carries is required ...
  EXPECT_EQ(spec("{\"kind\":\"fixed\"}").status().ToString(),
            "InvalidArgument: missing field 'value'");
  EXPECT_EQ(spec("{\"kind\":\"pmf\",\"value\":0.5}").status().ToString(),
            "InvalidArgument: missing field 'atoms'");
  EXPECT_EQ(spec("{\"kind\":\"named\"}").status().ToString(),
            "InvalidArgument: missing field 'name'");
  // ... and the members of other kinds are ignored, not decoded.
  auto stray = spec("{\"kind\":\"default\",\"value\":0.3,\"name\":\"amt\"}");
  ASSERT_TRUE(stray.ok()) << stray.status().ToString();
  EXPECT_TRUE(*stray == api::AvailabilitySpec::Default());
  EXPECT_EQ(spec("{\"kind\":\"sometimes\"}").status().ToString(),
            "InvalidArgument: field 'kind' has unknown value 'sometimes'");

  const auto event = [](const std::string& text) {
    return DecodeStreamEvent(*json::Parse(text));
  };
  EXPECT_EQ(event("{\"kind\":\"completion\"}").status().ToString(),
            "InvalidArgument: missing field 'request_id'");
  EXPECT_EQ(event("{\"kind\":\"arrival\",\"request_id\":\"d1\"}")
                .status()
                .ToString(),
            "InvalidArgument: missing field 'request'");
  auto revocation =
      event("{\"kind\":\"revocation\",\"request_id\":\"d1\",\"request\":7}");
  ASSERT_TRUE(revocation.ok()) << revocation.status().ToString();
  EXPECT_TRUE(*revocation == api::StreamEvent::Revocation("d1"));
  auto change = event(
      "{\"kind\":\"availability-change\","
      "\"availability\":{\"kind\":\"fixed\",\"value\":0.4}}");
  ASSERT_TRUE(change.ok()) << change.status().ToString();
  EXPECT_TRUE(*change == api::StreamEvent::AvailabilityChange(
                             api::AvailabilitySpec::Fixed(0.4)));
}

TEST(Codec, SweepCellsCarryAResultOnlyWhenOk) {
  const std::string result =
      "\"result\":{\"alternative\":{\"quality\":0.5,\"cost\":0.5,"
      "\"latency\":0.5},\"strategies\":[1],\"strategy_params\":"
      "[{\"quality\":0.6,\"cost\":0.4,\"latency\":0.3}],"
      "\"squared_distance\":0.25,\"distance\":0.5}";
  const auto report = [](const std::string& cell) {
    return DecodeSweepReport(*json::Parse(
        "{\"request_id\":\"s\",\"availability\":0.5,\"outcomes\":[" + cell +
        "]}"));
  };
  // An OK cell without its result is malformed.
  EXPECT_EQ(report("{\"target_id\":\"d1\",\"solver\":\"exact\","
                   "\"status\":{\"code\":\"OK\"}}")
                .status()
                .ToString(),
            "InvalidArgument: missing field 'result'");
  // An error cell's result is not read, even when one is on the wire.
  auto failed = report(
      "{\"target_id\":\"d1\",\"solver\":\"exact\",\"status\":{\"code\":"
      "\"Infeasible\",\"message\":\"no fit\"}," +
      result + "}");
  ASSERT_TRUE(failed.ok()) << failed.status().ToString();
  ASSERT_EQ(failed->outcomes.size(), 1u);
  EXPECT_TRUE(failed->outcomes[0].status == Status::Infeasible("no fit"));
  EXPECT_TRUE(failed->outcomes[0].result == core::AdparResult{});
  // An OK cell decodes its result.
  auto solved = report(
      "{\"target_id\":\"d1\",\"solver\":\"exact\",\"status\":{\"code\":"
      "\"OK\"}," +
      result + "}");
  ASSERT_TRUE(solved.ok()) << solved.status().ToString();
  EXPECT_EQ(solved->outcomes[0].result.distance, 0.5);
  EXPECT_EQ(solved->outcomes[0].result.strategies, std::vector<size_t>{1});
}

TEST(Codec, StreamUpdateAlternativeFollowsItsFlag) {
  Rng rng(0xC0DEC'000Cull);
  api::StreamUpdate update = RandomStreamUpdate(rng);
  update.has_alternative = false;
  update.alternative = RandomAdparResult(rng);
  // An alternative whose flag is down stays off the wire ...
  const json::Value encoded = Encode(update);
  EXPECT_EQ(encoded.Find("alternative"), nullptr);
  auto decoded = DecodeStreamUpdate(encoded);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_FALSE(decoded->has_alternative);
  EXPECT_TRUE(decoded->alternative == core::AdparResult{});
  // ... and the decoder raises the flag from the member's presence.
  update.has_alternative = true;
  auto flagged = DecodeStreamUpdate(Encode(update));
  ASSERT_TRUE(flagged.ok()) << flagged.status().ToString();
  EXPECT_TRUE(flagged->has_alternative);
  EXPECT_TRUE(flagged->alternative == update.alternative);
  // A present alternative must still be well-formed.
  std::string broken = json::Dump(Encode(update));
  const size_t at = broken.find("\"alternative\":{");
  ASSERT_NE(at, std::string::npos);
  broken.replace(at, 15, "\"alternative\":7,\"was\":{");
  EXPECT_EQ(DecodeStreamUpdate(*json::Parse(broken)).status().ToString(),
            "InvalidArgument: adpar result must be a JSON object");
}

TEST(Codec, OmitRulesCanonicalizeUnsetValues) {
  // A non-positive deadline means "none": it stays off the wire, so the
  // request decodes to the default 0.
  api::BatchRequest batch;
  batch.availability = api::AvailabilitySpec::Fixed(0.5);
  batch.deadline_ms = -5.0;
  const std::string canonical = json::Dump(Encode(batch));
  EXPECT_EQ(canonical.find("deadline_ms"), std::string::npos) << canonical;
  EXPECT_EQ(DecodeBatchRequest(*json::Parse(canonical))->deadline_ms, 0.0);
  // Unset values spelled out by a hand-written request decode, and
  // re-encode to the canonical form without them.
  for (const char* spelled :
       {"{\"request_id\":\"\",\"requests\":[],"
        "\"availability\":{\"kind\":\"fixed\",\"value\":0.5},"
        "\"deadline_ms\":0}",
        "{\"requests\":[],\"availability\":{\"kind\":\"fixed\","
        "\"value\":0.5},\"deadline_ms\":-1}"}) {
    auto decoded = DecodeBatchRequest(*json::Parse(spelled));
    ASSERT_TRUE(decoded.ok()) << spelled;
    EXPECT_TRUE(decoded->request_id.empty());
    EXPECT_EQ(json::Dump(Encode(*decoded)), canonical) << spelled;
  }
  auto options = DecodeStreamOptions(*json::Parse(
      "{\"availability\":{\"kind\":\"default\"},\"session_id\":\"\","
      "\"deadline_ms\":0}"));
  ASSERT_TRUE(options.ok()) << options.status().ToString();
  EXPECT_EQ(json::Dump(Encode(*options)),
            json::Dump(Encode(api::StreamOptions{})));
}

TEST(Codec, IntegerLeavesAcceptExactlyTheirRange) {
  const auto max_pending = [](const std::string& number) {
    return DecodeStreamOptions(*json::Parse(
        "{\"availability\":{\"kind\":\"default\"},\"max_pending\":" + number +
        "}"));
  };
  // size_t: every integer a double holds exactly, and nothing else.
  auto largest = max_pending("9007199254740992");
  ASSERT_TRUE(largest.ok()) << largest.status().ToString();
  EXPECT_EQ(largest->max_pending, size_t{1} << 53);
  EXPECT_TRUE(max_pending("0").ok());
  for (const char* bad : {"9007199254740994", "-1", "2.5", "\"3\""}) {
    EXPECT_EQ(max_pending(bad).status().code(), StatusCode::kInvalidArgument)
        << bad;
  }

  const auto k = [](const std::string& number) {
    return DecodeDeploymentRequest(*json::Parse(
        "{\"id\":\"d\",\"thresholds\":{\"quality\":0,\"cost\":0,"
        "\"latency\":0},\"k\":" +
        number + "}"));
  };
  // int: exactly [INT_MIN, INT_MAX].
  EXPECT_EQ(k("2147483647")->k, 2147483647);
  EXPECT_EQ(k("-2147483648")->k, -2147483647 - 1);
  for (const char* bad : {"2147483648", "-2147483649", "1e-3", "true"}) {
    EXPECT_EQ(k(bad).status().code(), StatusCode::kInvalidArgument) << bad;
  }
}

TEST(Codec, StatusMessageIsOptionalButTyped) {
  const auto decode = [](const std::string& text) {
    Status out = Status::Internal("untouched");
    const Status status = DecodeStatus(*json::Parse(text), &out);
    return std::pair{status, out};
  };
  auto [ok, bare] = decode("{\"code\":\"NotFound\"}");
  EXPECT_TRUE(ok.ok());
  EXPECT_TRUE(bare == Status(StatusCode::kNotFound, ""));
  EXPECT_EQ(decode("{\"code\":\"NotFound\",\"message\":3}").first.ToString(),
            "InvalidArgument: field 'message' must be a string");
  EXPECT_EQ(decode("{\"code\":\"Bogus\"}").first.ToString(),
            "InvalidArgument: field 'code' has unknown value 'Bogus'");
  EXPECT_EQ(decode("{\"message\":\"m\"}").first.ToString(),
            "InvalidArgument: missing field 'code'");
  EXPECT_EQ(decode("\"OK\"").first.ToString(),
            "InvalidArgument: status must be a JSON object");
  // A failed decode leaves the output alone.
  EXPECT_TRUE(decode("{\"code\":\"Bogus\"}").second ==
              Status::Internal("untouched"));
}

TEST(Codec, DecodeTraceNamesTheBadRecord) {
  const std::string config = EncodeConfigRecord(api::ServiceConfig{});
  // Line numbers count the header as line 1.
  EXPECT_EQ(DecodeTrace({config, "{\"kind\":"}).status().message().rfind(
                "journal record on line 3: ", 0),
            0u);
  EXPECT_EQ(DecodeTrace({config, config, "{\"kind\":\"mystery\"}"})
                .status()
                .ToString(),
            "InvalidArgument: unknown journal record kind 'mystery' on "
            "line 4");
  EXPECT_EQ(DecodeTrace({"[1]"}).status().ToString(),
            "InvalidArgument: journal record must be a JSON object");
  EXPECT_EQ(DecodeTrace({"{\"config\":{}}"}).status().ToString(),
            "InvalidArgument: missing field 'kind'");
  // A record whose payload is malformed fails with the payload's error.
  EXPECT_EQ(DecodeTrace({"{\"kind\":\"catalog\",\"catalog\":{}}"})
                .status()
                .ToString(),
            "InvalidArgument: missing field 'strategies'");
}

TEST(Codec, PairRecordsCarryAReportOnlyWhenOk) {
  Rng rng(0xC0DEC'000Dull);
  const api::BatchRequest batch = RandomBatchRequest(rng);
  const std::string failed =
      EncodeBatchRecord("batch-000001", batch, Status::Infeasible("no fit"));
  EXPECT_EQ(failed.find("\"report\""), std::string::npos) << failed;
  const api::SweepRequest sweep = RandomSweepRequest(rng);
  const api::SweepReport sweep_report = RandomSweepReport(rng);
  const std::string solved =
      EncodeSweepRecord("sweep-000002", sweep, sweep_report);

  auto trace = DecodeTrace({failed, solved});
  ASSERT_TRUE(trace.ok()) << trace.status().ToString();
  ASSERT_EQ(trace->pairs.size(), 2u);
  const PairRecord& batch_pair = trace->pairs[0];
  EXPECT_EQ(batch_pair.kind, PairRecord::Kind::kBatch);
  EXPECT_EQ(batch_pair.request_id, "batch-000001");
  EXPECT_TRUE(batch_pair.status == Status::Infeasible("no fit"));
  EXPECT_TRUE(batch_pair.batch_request == batch);
  EXPECT_TRUE(batch_pair.batch_report == api::BatchReport{});
  const PairRecord& sweep_pair = trace->pairs[1];
  EXPECT_EQ(sweep_pair.kind, PairRecord::Kind::kSweep);
  EXPECT_TRUE(sweep_pair.status.ok());
  EXPECT_TRUE(sweep_pair.sweep_request == sweep);
  EXPECT_TRUE(sweep_pair.sweep_report == sweep_report);

  // An OK pair without its report is malformed.
  std::string truncated = solved.substr(0, solved.find(",\"report\":")) + "}";
  EXPECT_EQ(DecodeTrace({truncated}).status().ToString(),
            "InvalidArgument: missing field 'report'");
}

}  // namespace
}  // namespace stratrec::wire
