// Serving-tier transport tests: the HTTP front end over a ShardRouter on
// loopback. Covers the happy path (health, stats, batch and sweep
// round-trips matching the in-process reports, keep-alive reuse) and the
// malformed-input taxonomy — truncated bodies, oversized content-length,
// bad JSON, unknown routes, wrong methods — each answered with the right
// 4xx *without* a Service ever seeing the request (asserted on the router
// counters). Admission control is exercised end to end: a parked worker
// plus a full queue turns into 429 + Retry-After on the wire. The
// fault-tolerance surface rides the same harness: graceful drain on Stop,
// X-Stratrec-Deadline-Ms (400 on garbage, 504 past budget), and the
// RetryingHttpClient against injected connection drops — which must retry
// transport failures but never 5xx.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "src/api/codec.h"
#include "src/api/registry.h"
#include "src/common/fault.h"
#include "src/common/json.h"
#include "src/net/http_client.h"
#include "src/net/serving.h"

namespace stratrec::net {
namespace {

core::Catalog SmallCatalog() {
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

api::BatchRequest SmallBatch() {
  api::BatchRequest batch;
  batch.requests = {
      {"d1", {0.4, 0.17, 0.28}, 3},
      {"d2", {0.8, 0.20, 0.28}, 3},
  };
  batch.availability = api::AvailabilitySpec::Fixed(0.8);
  batch.aggregation = core::AggregationMode::kMax;
  batch.request_id = "http-batch-1";
  return batch;
}

struct Tier {
  ShardRouter router;
  HttpServer server;
};

RouterConfig TwoShards() {
  RouterConfig config;
  config.shards = 2;
  return config;
}

Tier StartTier(RouterConfig config = TwoShards()) {
  auto router = ShardRouter::Create(SmallCatalog(), std::move(config));
  EXPECT_TRUE(router.ok()) << router.status().ToString();
  auto server = StartServing(*router);
  EXPECT_TRUE(server.ok()) << server.status().ToString();
  return Tier{*router, *server};
}

Result<HttpClient> Dial(const HttpServer& server) {
  return HttpClient::Connect("127.0.0.1", server.port());
}

TEST(HttpServer, HealthStatsAndSolvesOverOneKeepAliveConnection) {
  Tier tier = StartTier();
  auto client = Dial(tier.server);
  ASSERT_TRUE(client.ok()) << client.status().ToString();

  auto health = client->Get("/healthz");
  ASSERT_TRUE(health.ok()) << health.status().ToString();
  EXPECT_EQ(health->status_code, 200);
  EXPECT_EQ(health->body, "{\"status\":\"ok\"}");

  // POST /v1/batch returns exactly the in-process report bytes.
  const api::BatchRequest request = SmallBatch();
  auto expected = tier.router.SubmitBatch(request);
  ASSERT_TRUE(expected.ok());
  auto posted = client->PostJson("/v1/batch",
                                 json::Dump(wire::Encode(request)));
  ASSERT_TRUE(posted.ok()) << posted.status().ToString();
  EXPECT_EQ(posted->status_code, 200);
  EXPECT_EQ(posted->body, json::Dump(wire::Encode(*expected)));

  // Same connection again: sweep.
  api::SweepRequest sweep;
  sweep.targets = {{"t1", {0.9, 0.1, 0.1}, 2}};
  sweep.availability = api::AvailabilitySpec::Fixed(0.8);
  sweep.request_id = "http-sweep-1";
  auto swept = client->PostJson("/v1/sweep",
                                json::Dump(wire::Encode(sweep)));
  ASSERT_TRUE(swept.ok()) << swept.status().ToString();
  EXPECT_EQ(swept->status_code, 200);
  auto decoded = wire::DecodeSweepReport(json::Parse(swept->body).value());
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->request_id, "http-sweep-1");

  // Stats travel the wire codec and reflect the traffic above.
  auto stats_response = client->Get("/v1/stats");
  ASSERT_TRUE(stats_response.ok());
  EXPECT_EQ(stats_response->status_code, 200);
  auto stats =
      wire::DecodeServiceStats(json::Parse(stats_response->body).value());
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(stats->batches, 2u);  // in-process + HTTP
  EXPECT_EQ(stats->sweeps, 1u);
  tier.server.Stop();
}

TEST(HttpServer, SolverErrorsMapToTheRightStatusCodes) {
  Tier tier = StartTier();
  auto client = Dial(tier.server);
  ASSERT_TRUE(client.ok());

  // Unknown registry algorithm -> 404 with the registry message in-body.
  api::BatchRequest request = SmallBatch();
  request.algorithm = "no-such-solver";
  auto response = client->PostJson("/v1/batch",
                                   json::Dump(wire::Encode(request)));
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(response->status_code, 404);
  EXPECT_NE(response->body.find("no-such-solver"), std::string::npos);

  // Invalid request contents (k < 1) -> 400.
  request = SmallBatch();
  request.requests[0].k = 0;
  response = client->PostJson("/v1/batch",
                              json::Dump(wire::Encode(request)));
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(response->status_code, 400);
  tier.server.Stop();
}

// ---------------------------------------------------------------------------
// Malformed transport input: the right 4xx, and no Service involvement.
// ---------------------------------------------------------------------------

void ExpectNoSolverTraffic(const ShardRouter& router) {
  const api::ServiceStats stats = router.stats();
  EXPECT_EQ(stats.batches, 0u);
  EXPECT_EQ(stats.sweeps, 0u);
  EXPECT_EQ(stats.requests_processed, 0u);
}

TEST(HttpServer, TruncatedBodyIsA400WithoutTouchingAService) {
  Tier tier = StartTier();
  auto client = Dial(tier.server);
  ASSERT_TRUE(client.ok());
  ASSERT_TRUE(client
                  ->SendRaw("POST /v1/batch HTTP/1.1\r\n"
                            "Content-Length: 1000\r\n\r\n"
                            "only a few bytes")
                  .ok());
  client->FinishSending();  // EOF mid-body
  auto response = client->ReadResponse();
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_EQ(response->status_code, 400);
  EXPECT_NE(response->body.find("truncated body"), std::string::npos);
  tier.server.Stop();
  ExpectNoSolverTraffic(tier.router);
}

TEST(HttpServer, OversizedContentLengthIsA413BeforeTheBodyIsRead) {
  auto router = ShardRouter::Create(SmallCatalog(), TwoShards());
  ASSERT_TRUE(router.ok());
  HttpServerConfig http;
  http.max_body_bytes = 1024;
  auto server = StartServing(*router, http);
  ASSERT_TRUE(server.ok());

  auto client = HttpClient::Connect("127.0.0.1", server->port());
  ASSERT_TRUE(client.ok());
  // Declare far more than the cap; never send the body at all — the
  // refusal must not wait for it.
  ASSERT_TRUE(client
                  ->SendRaw("POST /v1/batch HTTP/1.1\r\n"
                            "Content-Length: 10485760\r\n\r\n")
                  .ok());
  auto response = client->ReadResponse();
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_EQ(response->status_code, 413);
  server->Stop();
  ExpectNoSolverTraffic(*router);
}

TEST(HttpServer, MalformedHeadIsA400) {
  Tier tier = StartTier();
  auto client = Dial(tier.server);
  ASSERT_TRUE(client.ok());
  ASSERT_TRUE(client->SendRaw("NONSENSE\r\n\r\n").ok());
  auto response = client->ReadResponse();
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(response->status_code, 400);
  tier.server.Stop();
  ExpectNoSolverTraffic(tier.router);
}

TEST(HttpServer, BadJsonBodyIsA400WithoutASolve) {
  Tier tier = StartTier();
  auto client = Dial(tier.server);
  ASSERT_TRUE(client.ok());
  auto response = client->PostJson("/v1/batch", "this is not json{{{");
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(response->status_code, 400);
  // A schema mismatch after valid JSON is also a 400.
  response = client->PostJson("/v1/batch", "{\"unexpected\":true}");
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(response->status_code, 400);
  tier.server.Stop();
  ExpectNoSolverTraffic(tier.router);
}

TEST(HttpServer, UnknownRoutesAndWrongMethods) {
  Tier tier = StartTier();
  auto client = Dial(tier.server);
  ASSERT_TRUE(client.ok());

  auto response = client->Get("/v1/nope");
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(response->status_code, 404);

  response = client->PostJson("/healthz", "{}");
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(response->status_code, 405);
  ASSERT_NE(response->FindHeader("Allow"), nullptr);
  EXPECT_EQ(*response->FindHeader("Allow"), "GET");

  response = client->Get("/v1/batch");
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(response->status_code, 405);
  tier.server.Stop();
  ExpectNoSolverTraffic(tier.router);
}

// ---------------------------------------------------------------------------
// Admission control end to end.
// ---------------------------------------------------------------------------

// A registry batch solver that parks its caller until released, so the
// router's queue depth is controllable from the test (same idiom as
// journal_test.cc).
struct AdmissionGate {
  std::mutex mutex;
  std::condition_variable cv;
  int entered = 0;
  bool released = false;
};
AdmissionGate& Gate() {
  static AdmissionGate* gate = new AdmissionGate();
  return *gate;
}

TEST(HttpServer, SaturatedQueueAnswers429WithRetryAfter) {
  ASSERT_TRUE(api::AlgorithmRegistry::Global()
                  .RegisterBatch(
                      "http-gate",
                      [](const std::vector<core::DeploymentRequest>& requests,
                         const std::vector<core::StrategyProfile>&, double,
                         const core::BatchOptions&)
                          -> Result<core::BatchResult> {
                        AdmissionGate& gate = Gate();
                        std::unique_lock<std::mutex> lock(gate.mutex);
                        ++gate.entered;
                        gate.cv.notify_all();
                        gate.cv.wait(lock,
                                     [&gate]() { return gate.released; });
                        core::BatchResult result;
                        result.outcomes.resize(requests.size());
                        return result;
                      })
                  .ok());

  RouterConfig config;
  config.shards = 1;
  config.service.execution.worker_threads = 1;  // the gate parks the pool
  config.max_queue_depth = 1;  // one queued job saturates admission
  Tier tier = StartTier(config);

  api::BatchRequest gated = SmallBatch();
  gated.algorithm = "http-gate";
  gated.recommend_alternatives = false;
  const std::string gated_body = json::Dump(wire::Encode(gated));

  // First request occupies the worker (parked in the gate)...
  auto first = Dial(tier.server);
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(first->SendRaw(SerializeRequest([&]() {
                HttpRequest r;
                r.method = "POST";
                r.target = "/v1/batch";
                r.body = gated_body;
                return r;
              }()))
                  .ok());
  {
    AdmissionGate& gate = Gate();
    std::unique_lock<std::mutex> lock(gate.mutex);
    gate.cv.wait(lock, [&gate]() { return gate.entered >= 1; });
  }

  // ...the second is admitted (depth 0 at probe time) and queues...
  auto second = Dial(tier.server);
  ASSERT_TRUE(second.ok());
  ASSERT_TRUE(second->SendRaw(SerializeRequest([&]() {
                HttpRequest r;
                r.method = "POST";
                r.target = "/v1/batch";
                r.body = gated_body;
                return r;
              }()))
                  .ok());
  while (tier.router.stats().queue_depth < 1) std::this_thread::yield();

  // ...and the third hits the ceiling: 429 + Retry-After, body unparsed.
  auto third = Dial(tier.server);
  ASSERT_TRUE(third.ok());
  auto rejected = third->PostJson("/v1/batch", gated_body);
  ASSERT_TRUE(rejected.ok()) << rejected.status().ToString();
  EXPECT_EQ(rejected->status_code, 429);
  ASSERT_NE(rejected->FindHeader("Retry-After"), nullptr);
  EXPECT_EQ(*rejected->FindHeader("Retry-After"), "1");

  {
    std::lock_guard<std::mutex> lock(Gate().mutex);
    Gate().released = true;
  }
  Gate().cv.notify_all();

  auto first_response = first->ReadResponse();
  ASSERT_TRUE(first_response.ok()) << first_response.status().ToString();
  EXPECT_EQ(first_response->status_code, 200);
  auto second_response = second->ReadResponse();
  ASSERT_TRUE(second_response.ok());
  EXPECT_EQ(second_response->status_code, 200);

  const api::ServiceStats stats = tier.router.stats();
  EXPECT_EQ(stats.rejected_requests, 1u);
  EXPECT_EQ(stats.retry_after_hints, 1u);
  EXPECT_EQ(stats.batches, 2u);

  // The hint is visible through the wire-codec stats fold: GET /v1/stats
  // must carry the same retry_after_hints counter (the 429 path end to end).
  auto stats_client = Dial(tier.server);
  ASSERT_TRUE(stats_client.ok());
  auto stats_response = stats_client->Get("/v1/stats");
  ASSERT_TRUE(stats_response.ok()) << stats_response.status().ToString();
  ASSERT_EQ(stats_response->status_code, 200);
  auto decoded_stats =
      wire::DecodeServiceStats(json::Parse(stats_response->body).value());
  ASSERT_TRUE(decoded_stats.ok()) << decoded_stats.status().ToString();
  EXPECT_EQ(decoded_stats->retry_after_hints, 1u);
  EXPECT_EQ(decoded_stats->rejected_requests, 1u);
  tier.server.Stop();
}

// ---------------------------------------------------------------------------
// Graceful drain, deadlines on the wire, and the retrying client.
// ---------------------------------------------------------------------------

/// A second parking gate with its own registry backend ("park-gate") so
/// these tests don't disturb the admission test's gate, plus per-test Reset.
struct ParkGate {
  std::mutex mutex;
  std::condition_variable cv;
  int entered = 0;
  bool released = false;

  void AwaitEntered() {
    std::unique_lock<std::mutex> lock(mutex);
    cv.wait(lock, [this]() { return entered >= 1; });
  }
  void Release() {
    {
      std::lock_guard<std::mutex> lock(mutex);
      released = true;
    }
    cv.notify_all();
  }
  void Reset() {
    std::lock_guard<std::mutex> lock(mutex);
    entered = 0;
    released = false;
  }
};
ParkGate& Park() {
  static ParkGate* gate = new ParkGate();
  return *gate;
}

void RegisterParkBackendOnce() {
  static const bool registered = []() {
    return api::AlgorithmRegistry::Global()
        .RegisterBatch(
            "park-gate",
            [](const std::vector<core::DeploymentRequest>& requests,
               const std::vector<core::StrategyProfile>&, double,
               const core::BatchOptions&) -> Result<core::BatchResult> {
              ParkGate& gate = Park();
              std::unique_lock<std::mutex> lock(gate.mutex);
              ++gate.entered;
              gate.cv.notify_all();
              gate.cv.wait(lock, [&gate]() { return gate.released; });
              core::BatchResult result;
              result.outcomes.resize(requests.size());
              return result;
            })
        .ok();
  }();
  ASSERT_TRUE(registered);
}

api::BatchRequest ParkedBatch() {
  api::BatchRequest batch = SmallBatch();
  batch.algorithm = "park-gate";
  batch.recommend_alternatives = false;
  return batch;
}

std::string PostBytes(const std::string& target, const std::string& body) {
  HttpRequest request;
  request.method = "POST";
  request.target = target;
  request.body = body;
  return SerializeRequest(request);
}

// Stop() must refuse new connects immediately but let already-pipelined
// requests complete and flush in order — the peer is owed both responses.
TEST(HttpServerDrain, StopFlushesPipelinedResponsesAndRefusesNewConnects) {
  RegisterParkBackendOnce();
  Park().Reset();

  RouterConfig config;
  config.shards = 1;
  config.service.execution.worker_threads = 1;
  Tier tier = StartTier(config);

  auto client = Dial(tier.server);
  ASSERT_TRUE(client.ok());
  // Pipeline two requests on one connection: the first parks the pool
  // worker, the second (healthz) completes inline but must queue behind it.
  const std::string pipelined =
      PostBytes("/v1/batch", json::Dump(wire::Encode(ParkedBatch()))) +
      "GET /healthz HTTP/1.1\r\nContent-Length: 0\r\n\r\n";
  ASSERT_TRUE(client->SendRaw(pipelined).ok());
  Park().AwaitEntered();

  std::thread stopper([&tier]() { tier.server.Stop(); });
  // Stop closes the listener before touching connections: a connect racing
  // the drain window must be refused while the parked work is still owed.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_FALSE(Dial(tier.server).ok());

  Park().Release();
  stopper.join();

  auto first = client->ReadResponse();
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  EXPECT_EQ(first->status_code, 200);
  auto second = client->ReadResponse();
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  EXPECT_EQ(second->status_code, 200);
  EXPECT_EQ(second->body, "{\"status\":\"ok\"}");
}

TEST(HttpDeadline, MalformedDeadlineHeaderIsA400) {
  Tier tier = StartTier();
  auto client = Dial(tier.server);
  ASSERT_TRUE(client.ok());

  HttpRequest request;
  request.method = "POST";
  request.target = "/v1/batch";
  request.AddHeader("X-Stratrec-Deadline-Ms", "soon-ish");
  request.body = json::Dump(wire::Encode(SmallBatch()));
  auto response = client->RoundTrip(request);
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_EQ(response->status_code, 400);
  EXPECT_NE(response->body.find("X-Stratrec-Deadline-Ms"), std::string::npos);

  request.headers.clear();
  request.AddHeader("X-Stratrec-Deadline-Ms", "-5");
  response = client->RoundTrip(request);
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(response->status_code, 400);
  tier.server.Stop();
  ExpectNoSolverTraffic(tier.router);
}

// An expired deadline surfaces as 504 Gateway Timeout on the wire, and the
// header overrides the body's deadline_ms.
TEST(HttpDeadline, ExpiredHeaderDeadlineIsA504) {
  RegisterParkBackendOnce();
  Park().Reset();

  RouterConfig config;
  config.shards = 1;
  config.service.execution.worker_threads = 1;
  Tier tier = StartTier(config);

  auto parked = Dial(tier.server);
  ASSERT_TRUE(parked.ok());
  ASSERT_TRUE(
      parked
          ->SendRaw(PostBytes("/v1/batch",
                              json::Dump(wire::Encode(ParkedBatch()))))
          .ok());
  Park().AwaitEntered();

  auto doomed = Dial(tier.server);
  ASSERT_TRUE(doomed.ok());
  HttpRequest request;
  request.method = "POST";
  request.target = "/v1/batch";
  request.AddHeader("X-Stratrec-Deadline-Ms", "5");
  request.body = json::Dump(wire::Encode(SmallBatch()));
  ASSERT_TRUE(doomed->SendRaw(SerializeRequest(request)).ok());

  // Hold the queue past the 5ms budget before freeing the worker.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  Park().Release();

  auto response = doomed->ReadResponse();
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_EQ(response->status_code, 504);
  EXPECT_NE(response->body.find("DeadlineExceeded"), std::string::npos);

  auto parked_response = parked->ReadResponse();
  ASSERT_TRUE(parked_response.ok());
  EXPECT_EQ(parked_response->status_code, 200);
  EXPECT_EQ(tier.router.stats().deadline_exceeded, 1u);
  tier.server.Stop();
}

TEST(RetryingClient, BackoffScheduleIsDeterministicAndJittered) {
  RetryPolicy policy;
  policy.base_backoff_ms = 10.0;
  policy.max_backoff_ms = 250.0;
  policy.seed = 42;
  for (uint64_t sequence = 0; sequence < 4; ++sequence) {
    for (size_t attempt = 0; attempt < 6; ++attempt) {
      const double wait =
          RetryingHttpClient::BackoffMs(policy, sequence, attempt);
      EXPECT_EQ(wait, RetryingHttpClient::BackoffMs(policy, sequence, attempt));
      const double cap =
          std::min(10.0 * std::pow(2.0, static_cast<double>(attempt)), 250.0);
      EXPECT_GE(wait, cap * 0.5);
      EXPECT_LT(wait, cap);
    }
  }
  // A different seed reshuffles the jitter.
  RetryPolicy other = policy;
  other.seed = 43;
  EXPECT_NE(RetryingHttpClient::BackoffMs(policy, 0, 0),
            RetryingHttpClient::BackoffMs(other, 0, 0));
}

TEST(RetryingClient, ReconnectsAndRetriesThroughInjectedConnectionDrops) {
  Tier tier = StartTier();
  RetryPolicy policy;
  policy.max_attempts = 3;
  policy.base_backoff_ms = 1.0;
  policy.max_backoff_ms = 4.0;
  RetryingHttpClient client("127.0.0.1", tier.server.port(), policy);

  auto healthy = client.Get("/healthz");
  ASSERT_TRUE(healthy.ok()) << healthy.status().ToString();
  EXPECT_EQ(healthy->status_code, 200);
  EXPECT_EQ(client.retries(), 0u);

  // Every framed request dropped: the client burns its whole budget and
  // reports the transport failure instead of hanging or lying.
  fault::InstallGlobalFaultPlan(
      {0xD20, {{std::string(fault::kSiteHttpDrop), {1.0, 0.0}}}});
  auto dropped = client.Get("/healthz");
  EXPECT_FALSE(dropped.ok());
  EXPECT_EQ(client.retries(), 2u);  // max_attempts - 1

  // Faults cleared: the next request reconnects and succeeds.
  fault::ClearGlobalFaultPlan();
  auto recovered = client.Get("/healthz");
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_EQ(recovered->status_code, 200);
  tier.server.Stop();
}

// Real 5xx must pass through unretried — masking them would hide every
// genuine failure behind the retry budget (and break the chaos bench's
// injected-fault accounting).
TEST(RetryingClient, DoesNotRetryServerErrors) {
  // replicas = 1 and a dead replica: every scatter fails with the tagged
  // injected error and there is nowhere to fail over to.
  fault::InstallGlobalFaultPlan(
      {0xD21, {{std::string(fault::kSiteRouterReplica), {1.0, 0.0}}}});
  Tier tier = StartTier();
  RetryPolicy policy;
  policy.max_attempts = 4;
  RetryingHttpClient client("127.0.0.1", tier.server.port(), policy);

  auto response =
      client.PostJson("/v1/batch", json::Dump(wire::Encode(SmallBatch())));
  fault::ClearGlobalFaultPlan();
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_EQ(response->status_code, 500);
  EXPECT_NE(response->body.find("[injected]"), std::string::npos);
  EXPECT_EQ(client.retries(), 0u);
  tier.server.Stop();
}

}  // namespace
}  // namespace stratrec::net
