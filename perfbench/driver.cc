// The StratRec benchmark driver: runs one workload for a fixed window and
// prints one JSON result line (the last line of stdout).
//
// Workloads (see README.md for why each exists and which layer metric
// should move which end-to-end metric):
//
//   http-batch-100k        |S|=100k, 1 shard, 4 closed-loop keep-alive
//                          clients, 3 batches to 1 sweep, alternatives on,
//                          W fixed at 0.5 (every request shares a snapshot)
//   http-batch-1m-sharded  |S|=1M, 4 shards, 4 closed-loop clients, batches
//                          only, no alternatives, a fresh continuous W per
//                          request (no two requests share a snapshot)
//   stream-drift-100k      |S|=100k, one Service, 4 stream sessions on 4
//                          threads, alternatives on, availability quantum
//                          0.05, a reactive arrival/release/window mix
//
// Untraced runs (--trace 0) report the end-to-end metrics. Traced runs
// (--trace 1) replay a seeded sample of the workload's ops serially through
// each layer's public calls, wrapped in spans, then make one loaded pass
// that samples the service gauges, and report the per-layer metrics.
// Nothing inside src/ is instrumented: every span is recorded here, around
// calls into the layers.
//
// Every input derives from --seed. Output checks run outside the timed
// window; a failed check counts its op as failed and the program exits 1.
//
// Usage: perfbench_driver --workload <name> --seed <n> --seconds <s>
//                         --trace <0|1> [--trace-out <path>]
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <latch>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "perfbench/measure.h"
#include "src/api/catalog.h"
#include "src/api/codec.h"
#include "src/api/service.h"
#include "src/common/json.h"
#include "src/common/rng.h"
#include "src/core/catalog_index.h"
#include "src/core/kernels/kernels.h"
#include "src/core/workforce.h"
#include "src/net/http_client.h"
#include "src/net/serving.h"
#include "src/router/shard_router.h"
#include "src/workload/generators.h"

namespace {

namespace api = stratrec::api;
namespace core = stratrec::core;
namespace json = stratrec::json;
namespace net = stratrec::net;
namespace wire = stratrec::wire;
namespace workload = stratrec::workload;
using perfbench::Median;
using perfbench::OpOutcome;
using perfbench::OpTally;
using perfbench::ScopedSpan;
using perfbench::Timed;
using perfbench::Trace;
using Clock = std::chrono::steady_clock;

/// `net.transport_ms` (round trip minus decode + solve + encode, timed
/// separately) may come out below zero by at most this share of the round
/// trip. Outside it, the traced run warns and stamps
/// "transport_within_tolerance": false; it does not fail, because the
/// stages are timed on a shared machine, not checked outputs.
constexpr double kTransportTolerance = 0.25;

double MsSince(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

/// splitmix64 over (seed, salt): independent streams from one --seed.
uint64_t Mix(uint64_t seed, uint64_t salt) {
  uint64_t z = seed + 0x9E3779B97F4A7C15ull * (salt + 1);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

uint64_t Fnv1a(const std::string& bytes, uint64_t hash = 0xCBF29CE484222325ull) {
  for (unsigned char c : bytes) {
    hash ^= c;
    hash *= 0x100000001B3ull;
  }
  return hash;
}

/// Peak resident set (VmHWM) of this process in MiB.
double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

[[noreturn]] void Die(const std::string& message) {
  std::fprintf(stderr, "perfbench: %s\n", message.c_str());
  std::exit(1);
}

template <typename T>
T Expect(stratrec::Result<T> result, const char* what) {
  if (!result.ok()) Die(std::string(what) + ": " + result.status().ToString());
  return std::move(result).value();
}

/// Median of a few set-up timings, in seconds.
template <typename SetUpOnce>
double MedianSetupSeconds(size_t repeats, SetUpOnce&& set_up_once) {
  std::vector<double> seconds;
  for (size_t i = 0; i < repeats; ++i) seconds.push_back(set_up_once());
  return Median(seconds);
}

// ---------------------------------------------------------------------------
// Result line
// ---------------------------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct RunResult {
  bool correct = true;
  OpTally tally;
  std::vector<Metric> metrics;
  /// Stamp fields printed on the line before the result.
  json::Value stamp = json::Value::Object();

  void Add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
};

json::Value BaseStamp(const std::string& workload_name, uint64_t seed,
                      double seconds, bool trace) {
  json::Value stamp = json::Value::Object();
  stamp.Add("workload", workload_name);
  stamp.Add("seed", static_cast<double>(seed));
  stamp.Add("seconds", seconds);
  stamp.Add("trace", trace);
  stamp.Add("hardware_threads",
            static_cast<size_t>(std::thread::hardware_concurrency()));
  stamp.Add("kernel_dispatch", core::kernels::DispatchLevelName(
                                   core::kernels::ActiveDispatchLevel()));
  stamp.Add("compiler_flags", core::kernels::CompileFlags());
  return stamp;
}

/// Prints the stamp line, then the result line, and returns the exit code.
int Emit(RunResult result) {
  const bool ok = result.correct && result.tally.failed() == 0;
  result.stamp.Add("ops_attempted", result.tally.attempted());
  result.stamp.Add("ops_succeeded", result.tally.succeeded());
  result.stamp.Add("ops_failed", result.tally.failed());
  json::Value stamp_line = json::Value::Object();
  stamp_line.Add("stamp", std::move(result.stamp));
  std::printf("%s\n", json::Dump(stamp_line).c_str());

  std::string line = std::string("{\"correct\": ") + (ok ? "true" : "false") +
                     ", \"attempted\": " +
                     std::to_string(result.tally.attempted()) +
                     ", \"failed\": " + std::to_string(result.tally.failed()) +
                     ", \"metrics\": {";
  for (size_t i = 0; i < result.metrics.size(); ++i) {
    const Metric& metric = result.metrics[i];
    line += (i == 0 ? "\"" : ", \"") + metric.name + "\": {\"value\": " +
            json::FormatNumber(metric.value) + ", \"unit\": \"" + metric.unit +
            "\"}";
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
  std::fflush(stdout);
  return ok ? 0 : 1;
}

/// The tail-percentile rule: a run that cannot back its p95 with enough
/// samples reports nothing.
double RequirePercentile(const std::vector<double>& samples, double p,
                         const char* name) {
  auto value = perfbench::Percentile(samples, p);
  if (!value) {
    Die(std::string("refusing to report ") + name + ": " +
        std::to_string(samples.size()) + " samples leave fewer than " +
        std::to_string(perfbench::kMinSamplesBeyond) + " beyond it");
  }
  return *value;
}

/// Polls a gauge every 5 ms on its own thread until Stop().
class GaugeSampler {
 public:
  explicit GaugeSampler(std::function<double()> probe)
      : probe_(std::move(probe)), thread_([this] {
          while (!stop_.load()) {
            samples_.push_back(probe_());
            std::this_thread::sleep_for(std::chrono::milliseconds(5));
          }
        }) {}
  ~GaugeSampler() { Stop(); }
  GaugeSampler(const GaugeSampler&) = delete;
  GaugeSampler& operator=(const GaugeSampler&) = delete;

  /// Joins the thread and returns the mean sample.
  double Stop() {
    stop_.store(true);
    if (thread_.joinable()) thread_.join();
    double sum = 0.0;
    for (double s : samples_) sum += s;
    return samples_.empty() ? 0.0 : sum / static_cast<double>(samples_.size());
  }

 private:
  std::function<double()> probe_;
  std::atomic<bool> stop_{false};
  std::vector<double> samples_;
  std::thread thread_;
};

double Ratio(double part, double rest) {
  return part + rest > 0.0 ? part / (part + rest) : 0.0;
}

/// Counter deltas of the service layer over one loaded pass.
struct StatsDelta {
  double cache_hit_ratio = 0.0;
  double steal_ratio = 0.0;
  double rebuild_ratio = 0.0;
};

StatsDelta Delta(const api::ServiceStats& before, const api::ServiceStats& after) {
  auto d = [](size_t a, size_t b) { return static_cast<double>(b - a); };
  StatsDelta out;
  out.cache_hit_ratio = Ratio(d(before.cache_hits, after.cache_hits),
                              d(before.cache_misses, after.cache_misses));
  out.steal_ratio = Ratio(d(before.steals, after.steals),
                          d(before.local_hits, after.local_hits));
  out.rebuild_ratio =
      Ratio(d(before.snapshot_rebuilds, after.snapshot_rebuilds),
            d(before.snapshot_delta_updates, after.snapshot_delta_updates));
  return out;
}

// ---------------------------------------------------------------------------
// Core probe: the per-W state one op needs, built serially by the benchmark
// through core's public calls.
// ---------------------------------------------------------------------------

struct CoreSamples {
  std::vector<double> snapshot_ms, orderings_ms, fill_ms, adpar_ms;
  std::vector<double> fill_ns_per_cell, estimate_ns_per_strategy;
  double checksum = 0.0;  // keeps the results observable
};

void ProbeCore(const core::CatalogIndex& index, double w,
               const std::vector<core::DeploymentRequest>& requests,
               Trace* trace, uint64_t op, int parent, CoreSamples* out) {
  const double strategies = static_cast<double>(index.size());
  std::shared_ptr<const core::AvailabilitySnapshot> snapshot;
  const double snapshot_ms =
      Timed(trace, "core.snapshot_build", op, parent,
            [&] { snapshot = index.BuildSnapshot(w); });
  out->orderings_ms.push_back(
      Timed(trace, "core.orderings_build", op, parent, [&] {
        out->checksum +=
            static_cast<double>(snapshot->orderings().skyline.size());
      }));
  const double fill_ms = Timed(trace, "core.workforce_fill", op, parent, [&] {
    out->checksum +=
        core::WorkforceMatrix::Compute(requests, index).At(0, 0).requirement;
  });
  for (const core::DeploymentRequest& request : requests) {
    out->adpar_ms.push_back(
        Timed(trace, "core.adpar_solve", op, parent, [&] {
          auto result =
              core::AdparExact(*snapshot, request.thresholds, request.k);
          if (result.ok()) out->checksum += result->distance;
        }));
  }
  out->snapshot_ms.push_back(snapshot_ms);
  out->fill_ms.push_back(fill_ms);
  out->fill_ns_per_cell.push_back(
      fill_ms * 1e6 / (static_cast<double>(requests.size()) * strategies));
  out->estimate_ns_per_strategy.push_back(snapshot_ms * 1e6 / strategies);
}

void AddCoreMetrics(const CoreSamples& core_samples, double index_build_ms,
                    RunResult* result) {
  result->Add("core.index_build_ms", index_build_ms, "ms");
  result->Add("core.snapshot_build_ms", Median(core_samples.snapshot_ms), "ms");
  result->Add("core.orderings_build_ms", Median(core_samples.orderings_ms),
              "ms");
  result->Add("core.workforce_fill_ms", Median(core_samples.fill_ms), "ms");
  result->Add("core.adpar_solve_ms", Median(core_samples.adpar_ms), "ms");
  result->Add("kernels.fill_ns_per_cell", Median(core_samples.fill_ns_per_cell),
              "ns");
  result->Add("kernels.estimate_ns_per_strategy",
              Median(core_samples.estimate_ns_per_strategy), "ns");
}

core::Catalog MakeCatalog(size_t strategies, uint64_t seed) {
  workload::Generator generator({}, Mix(seed, 1));
  return api::CatalogFromProfiles(
      generator.Profiles(static_cast<int>(strategies)));
}

// ---------------------------------------------------------------------------
// HTTP workloads
// ---------------------------------------------------------------------------

struct HttpShape {
  const char* name;
  size_t strategies;
  size_t shards;
  size_t clients;
  bool sweeps;          ///< every 4th op of a client is a sweep
  bool alternatives;    ///< BatchRequest::recommend_alternatives
  bool per_request_w;   ///< a fresh continuous W per batch (else 0.5)
  size_t setup_repeats;
  size_t check_samples;  ///< ops per run re-solved on an unsharded Service
  size_t trace_ops;      ///< serial replays in the traced run
};

constexpr HttpShape kHttpShapes[] = {
    {"http-batch-100k", 100'000, 1, 4, true, true, false, 15, 8, 12},
    {"http-batch-1m-sharded", 1'000'000, 4, 4, false, false, true, 7, 6, 4},
};

struct HttpOp {
  bool sweep = false;
  std::string target;
  std::string body;
};

/// One client's seeded op stream, generated lazily outside the timer.
class HttpOpSource {
 public:
  HttpOpSource(const HttpShape& shape, uint64_t seed, size_t client)
      : shape_(shape),
        client_(client),
        generator_({}, Mix(seed, 0x100 + client)),
        w_rng_(Mix(seed, 0x200 + client)) {}

  HttpOp Next() {
    const size_t r = next_++;
    const std::string suffix =
        "-c" + std::to_string(client_) + "-" + std::to_string(r);
    HttpOp op;
    if (shape_.sweeps && r % 4 == 3) {
      api::SweepRequest sweep;
      sweep.targets = generator_.RequestsWithRanges(4, 4, {0.60, 0.95},
                                                    {0.40, 0.9}, {0.40, 0.9});
      sweep.availability = api::AvailabilitySpec::Fixed(0.5);
      sweep.request_id = "bench-sweep" + suffix;
      op.sweep = true;
      op.target = "/v1/sweep";
      op.body = json::Dump(wire::Encode(sweep));
      return op;
    }
    api::BatchRequest batch;
    batch.requests = generator_.RequestsWithRanges(8, 6, {0.50, 0.80},
                                                   {0.60, 1.0}, {0.60, 1.0});
    const double w = shape_.per_request_w ? w_rng_.Uniform(0.40, 0.80) : 0.5;
    batch.availability = api::AvailabilitySpec::Fixed(w);
    batch.aggregation = core::AggregationMode::kMax;
    batch.recommend_alternatives = shape_.alternatives;
    batch.request_id = "bench-batch" + suffix;
    op.target = "/v1/batch";
    op.body = json::Dump(wire::Encode(batch));
    return op;
  }

 private:
  const HttpShape& shape_;
  size_t client_;
  size_t next_ = 0;
  workload::Generator generator_;
  stratrec::Rng w_rng_;
};

/// The serving tier under test: router + HTTP front end.
struct Tier {
  std::optional<stratrec::ShardRouter> router;
  std::optional<net::HttpServer> server;

  void Stop() {
    if (server) server->Stop();
    server.reset();
    router.reset();
  }
};

stratrec::RouterConfig MakeRouterConfig(const HttpShape& shape) {
  stratrec::RouterConfig config;
  config.shards = shape.shards;
  return config;
}

/// ShardRouter::Create + net::StartServing; returns the seconds it took.
double StartTier(const core::Catalog& catalog,
                 const stratrec::RouterConfig& config, Tier* tier) {
  core::Catalog copy = catalog;
  const auto start = Clock::now();
  tier->router.emplace(
      Expect(stratrec::ShardRouter::Create(std::move(copy), config),
             "router setup"));
  tier->server.emplace(
      Expect(net::StartServing(*tier->router), "server setup"));
  return MsSince(start) / 1e3;
}

/// An op whose response is checked after the window.
struct KeptOp {
  HttpOp op;
  std::string response;
};

struct LoopResult {
  std::vector<double> latencies_ms;  ///< successful ops in the window
  OpTally tally;
  double window_s = 0.0;
  std::vector<KeptOp> kept;
};

/// The closed loop: each client sends its next request only after the
/// previous response has been read, for `seconds` after a common start (and
/// at least `min_ops` requests). Ops whose (client, index) is in `keep` have
/// their bodies kept.
LoopResult RunHttpLoop(const HttpShape& shape, uint64_t seed, uint16_t port,
                       double seconds, size_t min_ops,
                       const std::set<std::pair<size_t, size_t>>& keep) {
  struct ClientLog {
    std::vector<double> latencies_ms;
    OpTally tally;
    std::vector<KeptOp> kept;
  };
  std::vector<ClientLog> logs(shape.clients);
  std::latch ready(static_cast<std::ptrdiff_t>(shape.clients) + 1);
  std::atomic<int64_t> deadline_ns{0};
  std::atomic<bool> go{false};
  std::vector<std::thread> clients;
  for (size_t c = 0; c < shape.clients; ++c) {
    clients.emplace_back([&, c] {
      ClientLog& log = logs[c];
      auto client = net::HttpClient::Connect("127.0.0.1", port);
      HttpOpSource source(shape, seed, c);
      ready.count_down();
      while (!go.load()) std::this_thread::yield();
      if (!client.ok()) {
        log.tally.Record(OpOutcome::kTransportError);
        return;
      }
      const int64_t deadline = deadline_ns.load();
      for (size_t index = 0;
           index < min_ops || perfbench::NowNanos() < deadline; ++index) {
        HttpOp op = source.Next();
        const auto start = Clock::now();
        auto response = client->PostJson(op.target, op.body);
        const double elapsed = MsSince(start);
        const OpOutcome outcome = perfbench::ClassifyHttp(response);
        log.tally.Record(outcome);
        if (outcome != OpOutcome::kOk) {
          if (!response.ok()) return;  // the connection is gone
          continue;
        }
        log.latencies_ms.push_back(elapsed);
        if (keep.count({c, index}) > 0) {
          log.kept.push_back({std::move(op), std::move(response->body)});
        }
      }
    });
  }
  ready.arrive_and_wait();
  const auto start = Clock::now();
  deadline_ns.store(perfbench::NowNanos() +
                    static_cast<int64_t>(seconds * 1e9));
  go.store(true);
  for (std::thread& thread : clients) thread.join();
  LoopResult result;
  result.window_s = MsSince(start) / 1e3;
  for (ClientLog& log : logs) {
    result.latencies_ms.insert(result.latencies_ms.end(),
                               log.latencies_ms.begin(), log.latencies_ms.end());
    result.tally.Merge(log.tally);
    for (KeptOp& kept : log.kept) result.kept.push_back(std::move(kept));
  }
  return result;
}

/// The two request kinds of the HTTP workloads, for code that handles
/// either through the same steps.
struct BatchKind {
  using Request = api::BatchRequest;
  using Report = api::BatchReport;
  static stratrec::Result<Request> DecodeRequest(const json::Value& value) {
    return wire::DecodeBatchRequest(value);
  }
  static stratrec::Result<Report> DecodeReport(const json::Value& value) {
    return wire::DecodeBatchReport(value);
  }
  template <typename Backend>
  static stratrec::Result<Report> Solve(const Backend& backend,
                                        const Request& request) {
    return backend.SubmitBatch(request);
  }
  static const std::vector<core::DeploymentRequest>& Requests(
      const Request& request) {
    return request.requests;
  }
};

struct SweepKind {
  using Request = api::SweepRequest;
  using Report = api::SweepReport;
  static stratrec::Result<Request> DecodeRequest(const json::Value& value) {
    return wire::DecodeSweepRequest(value);
  }
  static stratrec::Result<Report> DecodeReport(const json::Value& value) {
    return wire::DecodeSweepReport(value);
  }
  template <typename Backend>
  static stratrec::Result<Report> Solve(const Backend& backend,
                                        const Request& request) {
    return backend.RunSweep(request);
  }
  static const std::vector<core::DeploymentRequest>& Requests(
      const Request& request) {
    return request.targets;
  }
};

/// Decodes a request body, solves it on `backend` (a Service or a
/// ShardRouter) and returns the encoded report.
template <typename Kind, typename Backend>
stratrec::Result<std::string> SolveEncodedAs(const Backend& backend,
                                             const std::string& body) {
  auto parsed = json::Parse(body);
  if (!parsed.ok()) return parsed.status();
  auto request = Kind::DecodeRequest(*parsed);
  if (!request.ok()) return request.status();
  auto report = Kind::Solve(backend, *request);
  if (!report.ok()) return report.status();
  return json::Dump(wire::Encode(*report));
}

template <typename Backend>
stratrec::Result<std::string> SolveEncoded(const Backend& backend,
                                           const HttpOp& op) {
  return op.sweep ? SolveEncodedAs<SweepKind>(backend, op.body)
                  : SolveEncodedAs<BatchKind>(backend, op.body);
}

/// The router identity check through the real transport: every kept
/// response must be byte-identical to an unsharded Service's encoding of
/// the same request. Returns how many were checked.
size_t CheckKeptOps(const core::Catalog& catalog,
                    const api::ServiceConfig& config,
                    const std::vector<KeptOp>& kept, OpTally* tally) {
  auto reference = Expect(api::Service::Create(catalog, config),
                          "unsharded reference setup");
  for (const KeptOp& op : kept) {
    auto expected = SolveEncoded(reference, op.op);
    if (!expected.ok() || *expected != op.response) {
      std::fprintf(stderr, "check: %s response diverged from the unsharded "
                   "Service\n", op.op.target.c_str());
      tally->MarkCheckFailed();
    }
  }
  return kept.size();
}

/// Seeded (client, index) picks among each client's first ops.
std::set<std::pair<size_t, size_t>> PickKeptOps(const HttpShape& shape,
                                                uint64_t seed) {
  stratrec::Rng rng(Mix(seed, 0x300));
  std::set<std::pair<size_t, size_t>> keep;
  while (keep.size() < shape.check_samples) {
    keep.emplace(
        static_cast<size_t>(rng.UniformInt(0, static_cast<int64_t>(shape.clients) - 1)),
        static_cast<size_t>(rng.UniformInt(0, 23)));
  }
  return keep;
}

int RunHttp(const HttpShape& shape, uint64_t seed, double seconds) {
  RunResult result;
  result.stamp = BaseStamp(shape.name, seed, seconds, false);
  const core::Catalog catalog = MakeCatalog(shape.strategies, seed);
  const stratrec::RouterConfig config = MakeRouterConfig(shape);

  Tier tier;
  const double setup_s =
      MedianSetupSeconds(shape.setup_repeats, [&] {
        tier.Stop();
        return StartTier(catalog, config, &tier);
      });

  // Untimed warm-up: one op per client, so lazy first-use state (the
  // shared snapshot of a fixed-W workload) is built before the window.
  {
    LoopResult warm = RunHttpLoop(shape, Mix(seed, 0x400),
                                  tier.server->port(), 0.0, 1, {});
    result.tally.Merge(warm.tally);
  }
  LoopResult loop = RunHttpLoop(shape, seed, tier.server->port(), seconds, 0,
                                PickKeptOps(shape, seed));
  const double peak_rss_mb = PeakRssMb();
  tier.Stop();

  result.tally.Merge(loop.tally);
  const size_t checked =
      CheckKeptOps(catalog, config.service, loop.kept, &result.tally);
  if (checked == 0) {
    std::fprintf(stderr, "check: no sampled op completed\n");
    result.correct = false;
  }

  const size_t ok_ops = loop.latencies_ms.size();
  result.Add("p50_ms", RequirePercentile(loop.latencies_ms, 0.50, "p50_ms"),
             "ms");
  result.Add("p95_ms", RequirePercentile(loop.latencies_ms, 0.95, "p95_ms"),
             "ms");
  result.Add("ops_per_s", static_cast<double>(ok_ops) / loop.window_s, "1/s");
  result.Add("ok_frac", 1.0 - result.tally.failed_frac(), "fraction");
  result.Add("setup_s", setup_s, "s");
  result.Add("peak_rss_mb", peak_rss_mb, "MiB");
  result.stamp.Add("latency_samples", ok_ops);
  result.stamp.Add("p50_samples", ok_ops);
  result.stamp.Add("p95_samples", ok_ops);
  result.stamp.Add("checked_ops", checked);
  result.stamp.Add("failed_frac", result.tally.failed_frac());
  result.stamp.Add("setup_repeats", shape.setup_repeats);
  return Emit(std::move(result));
}

void AddZeroStreamMetrics(RunResult* result) {
  for (const char* name : {"stream.arrival_ms", "stream.release_ms",
                           "stream.window_ms"}) {
    result->Add(name, 0.0, "ms");
  }
  result->Add("stream.rebuild_ratio", 0.0, "ratio");
  result->Add("stream.alternative_ratio", 0.0, "ratio");
}

/// Everything a traced replay calls into.
struct Replay {
  Trace* trace;
  net::HttpClient* client;
  const stratrec::ShardRouter* router;  ///< cold twin of the served router
  const api::Service* unsharded;
  const core::CatalogIndex* index;
};

struct ReplaySamples {
  std::vector<double> rtt_ms, decode_ms, solve_ms, encode_ms;
  std::vector<double> report_decode_ms, service_ms, transport_ms, report_kb;
  CoreSamples core;
};

/// Replays one op serially: the round trip; then the server's three stages
/// (request decode, router solve, report encode), each timed on its own
/// through the same public calls the serving handler makes; the requester's
/// report decode; the unsharded solve; and the core probe. The served bytes
/// must equal the in-process encoding and the unsharded report must equal
/// the router's. Returns false when the op failed either way.
template <typename Kind>
bool ReplayOp(const Replay& replay, const HttpOp& op, uint64_t op_id,
              ReplaySamples* out, OpTally* tally) {
  Trace* trace = replay.trace;
  ScopedSpan root(trace, "op", op_id);
  const int parent = root.index();
  stratrec::Result<net::HttpResponse> response =
      stratrec::Status::Internal("not sent");
  const double rtt = Timed(trace, "net.round_trip", op_id, parent, [&] {
    response = replay.client->PostJson(op.target, op.body);
  });
  const OpOutcome outcome = perfbench::ClassifyHttp(response);
  tally->Record(outcome);
  if (outcome != OpOutcome::kOk) return false;

  std::optional<typename Kind::Request> request;
  const double decode =
      Timed(trace, "codec.request_decode", op_id, parent, [&] {
        auto parsed = json::Parse(op.body);
        if (!parsed.ok()) return;
        auto decoded = Kind::DecodeRequest(*parsed);
        if (decoded.ok()) request = std::move(*decoded);
      });
  std::optional<typename Kind::Report> report;
  const double solve = Timed(trace, "router.solve", op_id, parent, [&] {
    if (!request) return;
    auto solved = Kind::Solve(*replay.router, *request);
    if (solved.ok()) report = std::move(*solved);
  });
  std::string encoded;
  const double encode = Timed(trace, "codec.report_encode", op_id, parent, [&] {
    if (report) encoded = json::Dump(wire::Encode(*report));
  });
  bool report_decoded = false;
  const double report_decode =
      Timed(trace, "codec.report_decode", op_id, parent, [&] {
        auto tree = json::Parse(response->body);
        report_decoded = tree.ok() && Kind::DecodeReport(*tree).ok();
      });
  bool same_report = false;
  const double service = Timed(trace, "service.solve", op_id, parent, [&] {
    if (!request) return;
    auto solved = Kind::Solve(*replay.unsharded, *request);
    same_report = solved.ok() && report && *solved == *report;
  });
  if (!report || !report_decoded || !same_report ||
      encoded != response->body) {
    tally->MarkCheckFailed();
    return false;
  }

  out->rtt_ms.push_back(rtt);
  out->decode_ms.push_back(decode);
  out->solve_ms.push_back(solve);
  out->encode_ms.push_back(encode);
  out->report_decode_ms.push_back(report_decode);
  out->service_ms.push_back(service);
  out->transport_ms.push_back(rtt - decode - solve - encode);
  out->report_kb.push_back(static_cast<double>(response->body.size()) / 1024.0);
  ScopedSpan core_span(trace, "core", op_id, parent);
  ProbeCore(*replay.index, report->availability, Kind::Requests(*request),
            trace, op_id, core_span.index(), &out->core);
  return true;
}

int TraceHttp(const HttpShape& shape, uint64_t seed, double seconds,
              Trace* trace) {
  RunResult result;
  result.stamp = BaseStamp(shape.name, seed, seconds, true);
  const core::Catalog catalog = MakeCatalog(shape.strategies, seed);
  const stratrec::RouterConfig config = MakeRouterConfig(shape);

  Tier tier;
  {
    ScopedSpan span(trace, "setup", 0);
    StartTier(catalog, config, &tier);
  }
  // The in-process replay runs on a second, identical router, so an op's
  // first sight of its W is cold on both sides (the served request and its
  // replay), exactly as in the untimed workload.
  auto replay_router =
      Expect(stratrec::ShardRouter::Create(catalog, config), "replay router");
  auto unsharded =
      Expect(api::Service::Create(catalog, config.service), "unsharded setup");
  const core::CatalogIndex index = core::CatalogIndex::Build(catalog.profiles);
  auto client =
      Expect(net::HttpClient::Connect("127.0.0.1", tier.server->port()),
             "connect");

  // The seeded sample: trace_ops of client 0's first 4 * trace_ops ops,
  // after one untraced warm-up op on every backend.
  HttpOpSource source(shape, seed, 0);
  std::vector<HttpOp> ops;
  for (size_t i = 0; i < 4 * shape.trace_ops; ++i) ops.push_back(source.Next());
  {
    HttpOpSource warm_source(shape, Mix(seed, 0x400), 0);
    const HttpOp warm = warm_source.Next();
    result.tally.Record(
        perfbench::ClassifyHttp(client.PostJson(warm.target, warm.body)));
    (void)SolveEncoded(replay_router, warm);
    (void)SolveEncoded(unsharded, warm);
  }
  stratrec::Rng pick(Mix(seed, 0x500));
  pick.Shuffle(&ops);
  ops.resize(shape.trace_ops);

  ReplaySamples samples;
  const Replay replay{trace, &client, &replay_router, &unsharded, &index};
  for (size_t i = 0; i < ops.size(); ++i) {
    const bool ok = ops[i].sweep
                        ? ReplayOp<SweepKind>(replay, ops[i], i + 1, &samples,
                                              &result.tally)
                        : ReplayOp<BatchKind>(replay, ops[i], i + 1, &samples,
                                              &result.tally);
    if (!ok) std::fprintf(stderr, "check: traced op %zu failed\n", i);
  }

  // One loaded pass: contention and the service gauges.
  const api::ServiceStats before = tier.router->stats();
  LoopResult loaded;
  double queue_depth_mean = 0.0;
  {
    const stratrec::ShardRouter router = *tier.router;
    GaugeSampler sampler([router] {
      return static_cast<double>(router.stats().queue_depth);
    });
    loaded = RunHttpLoop(shape, seed, tier.server->port(), seconds, 0, {});
    queue_depth_mean = sampler.Stop();
  }
  const StatsDelta delta = Delta(before, tier.router->stats());
  const double index_build_ms =
      static_cast<double>(tier.router->stats().index_build_nanos) / 1e6;
  tier.Stop();
  result.tally.Merge(loaded.tally);

  const double rtt = Median(samples.rtt_ms);
  const double decode = Median(samples.decode_ms);
  const double router_solve = Median(samples.solve_ms);
  const double encode = Median(samples.encode_ms);
  const double service_solve = Median(samples.service_ms);
  const double transport = Median(samples.transport_ms);
  const bool within_tolerance = transport >= -kTransportTolerance * rtt;
  if (!within_tolerance) {
    std::fprintf(stderr,
                 "timing check: decode %.3f + solve %.3f + encode %.3f ms "
                 "exceed the %.3f ms round trip beyond the %.0f%% tolerance\n",
                 decode, router_solve, encode, rtt,
                 kTransportTolerance * 100.0);
  }

  result.Add("net.rtt_serial_ms", rtt, "ms");
  result.Add("net.transport_ms", transport, "ms");
  result.Add("net.contention_ms", Median(loaded.latencies_ms) - rtt, "ms");
  result.Add("codec.request_decode_ms", decode, "ms");
  result.Add("codec.report_encode_ms", encode, "ms");
  result.Add("codec.report_kb", Median(samples.report_kb), "KiB");
  result.Add("codec.report_decode_ms", Median(samples.report_decode_ms), "ms");
  result.Add("router.solve_ms", router_solve, "ms");
  result.Add("router.speedup",
             router_solve > 0.0 ? service_solve / router_solve : 0.0, "x");
  result.Add("service.solve_ms", service_solve, "ms");
  result.Add("service.cache_hit_ratio", delta.cache_hit_ratio, "ratio");
  result.Add("service.steal_ratio", delta.steal_ratio, "ratio");
  result.Add("service.queue_depth_mean", queue_depth_mean, "tasks");
  AddCoreMetrics(samples.core, index_build_ms, &result);
  AddZeroStreamMetrics(&result);
  result.Add("failed_frac", result.tally.failed_frac(), "fraction");

  result.stamp.Add("traced_ops", ops.size());
  result.stamp.Add("loaded_ops", loaded.latencies_ms.size());
  result.stamp.Add("transport_tolerance", kTransportTolerance);
  result.stamp.Add("transport_within_tolerance", within_tolerance);
  result.stamp.Add("core_checksum", samples.core.checksum);
  return Emit(std::move(result));
}

// ---------------------------------------------------------------------------
// Stream workload
// ---------------------------------------------------------------------------

struct StreamShape {
  const char* name;
  size_t strategies;
  size_t sessions;
  double quantum;
  size_t setup_repeats;
  size_t trace_core_ops;  ///< core probes in the traced run
};

constexpr StreamShape kStreamShape = {"stream-drift-100k", 100'000, 4, 0.05, 15,
                                      4};

api::ServiceConfig MakeStreamConfig(const StreamShape& shape) {
  api::ServiceConfig config;
  config.cache.availability_quantum = shape.quantum;
  return config;
}

api::StreamOptions SessionOptions(size_t session) {
  api::StreamOptions options;
  options.availability = api::AvailabilitySpec::Fixed(0.5);
  options.recommend_alternatives = true;
  options.session_id = "bench-stream-" + std::to_string(session);
  return options;
}

/// A seeded event mix that reacts to the session's answers: about 55%
/// arrivals, 30% releases, 15% window changes of up to +-0.04. It only
/// completes ids the session admitted and only revokes ids it admitted or
/// queued, so every event is valid and failures are real errors. Arrivals
/// use the serviceable ranges of bench/stream_load.cc; see README.md for why
/// ineligible arrivals are left out.
class ReactiveSchedule {
 public:
  ReactiveSchedule(uint64_t seed, size_t session)
      : prefix_("s" + std::to_string(session) + "-"),
        generator_({}, Mix(seed, 0x600 + session)),
        rng_(Mix(seed, 0x700 + session)) {}

  api::StreamEvent Next() {
    const double u = rng_.Uniform();
    if (u < 0.15) {
      w_ = std::clamp(w_ + rng_.Uniform(-0.04, 0.04), 0.25, 0.85);
      return api::StreamEvent::AvailabilityChange(
          api::AvailabilitySpec::Fixed(w_));
    }
    if (u < 0.45 && !(admitted_.empty() && queued_.empty())) {
      const bool from_admitted =
          !admitted_.empty() && (queued_.empty() || rng_.Bernoulli(0.75));
      if (from_admitted) {
        std::string id = Take(&admitted_);
        return rng_.Bernoulli(0.2) ? api::StreamEvent::Revocation(std::move(id))
                                   : api::StreamEvent::Completion(std::move(id));
      }
      return api::StreamEvent::Revocation(Take(&queued_));
    }
    core::DeploymentRequest request =
        generator_.RequestsWithRanges(1, 10, {0.50, 0.75}, {0.70, 1.0},
                                      {0.70, 1.0})
            .front();
    request.id = prefix_ + std::to_string(arrivals_++);
    return api::StreamEvent::Arrival(std::move(request));
  }

  void Observe(const api::StreamEvent& event, const api::StreamUpdate& update) {
    if (event.kind != api::StreamEvent::Kind::kArrival) return;
    if (update.decision.kind == core::AdmissionDecision::Kind::kAdmitted) {
      admitted_.push_back(update.request_id);
    } else if (update.decision.kind == core::AdmissionDecision::Kind::kQueued) {
      queued_.push_back(update.request_id);
    }
  }

 private:
  std::string Take(std::vector<std::string>* ids) {
    const size_t i = static_cast<size_t>(
        rng_.UniformInt(0, static_cast<int64_t>(ids->size()) - 1));
    std::string id = std::move((*ids)[i]);
    (*ids)[i] = std::move(ids->back());
    ids->pop_back();
    return id;
  }

  std::string prefix_;
  workload::Generator generator_;
  stratrec::Rng rng_;
  double w_ = 0.5;
  size_t arrivals_ = 0;
  std::vector<std::string> admitted_;
  std::vector<std::string> queued_;
};

const char* StreamSpanName(api::StreamEvent::Kind kind) {
  switch (kind) {
    case api::StreamEvent::Kind::kArrival:
      return "stream.arrival";
    case api::StreamEvent::Kind::kRevocation:
    case api::StreamEvent::Kind::kCompletion:
      return "stream.release";
    case api::StreamEvent::Kind::kAvailabilityChange:
      return "stream.window";
  }
  return "stream.unknown";
}

struct SessionLog {
  std::vector<double> latencies_ms;
  OpTally tally;
  std::vector<api::StreamEvent> events;
  std::vector<api::StreamUpdate> updates;
};

struct StreamLoop {
  std::vector<SessionLog> sessions;
  double window_s = 0.0;
};

/// Drives every session on its own thread for `seconds`. With a trace,
/// each Submit gets a span named after its event kind.
StreamLoop RunStreamLoop(const StreamShape& shape, uint64_t seed,
                         std::vector<api::StreamSession>* sessions,
                         double seconds, Trace* trace) {
  StreamLoop loop;
  loop.sessions.resize(shape.sessions);
  std::latch ready(static_cast<std::ptrdiff_t>(shape.sessions) + 1);
  std::atomic<int64_t> deadline_ns{0};
  std::atomic<bool> go{false};
  std::vector<std::thread> threads;
  for (size_t s = 0; s < shape.sessions; ++s) {
    threads.emplace_back([&, s] {
      SessionLog& log = loop.sessions[s];
      api::StreamSession& session = (*sessions)[s];
      ReactiveSchedule schedule(seed, s);
      ready.count_down();
      while (!go.load()) std::this_thread::yield();
      const int64_t deadline = deadline_ns.load();
      for (uint64_t seq = 0; perfbench::NowNanos() < deadline; ++seq) {
        api::StreamEvent event = schedule.Next();
        std::optional<ScopedSpan> span;
        if (trace != nullptr) {
          span.emplace(trace, StreamSpanName(event.kind), (s << 32) | seq);
        }
        const auto start = Clock::now();
        auto update = session.Submit(event);
        const double elapsed = MsSince(start);
        span.reset();
        if (!update.ok()) {
          log.tally.Record(OpOutcome::kErrorStatus);
          std::fprintf(stderr, "session %zu event %llu failed: %s\n", s,
                       static_cast<unsigned long long>(seq),
                       update.status().ToString().c_str());
          continue;
        }
        log.tally.Record(OpOutcome::kOk);
        log.latencies_ms.push_back(elapsed);
        schedule.Observe(event, *update);
        log.events.push_back(std::move(event));
        // A copy, not a move: the returned update's vectors can carry
        // catalog-sized capacity, which a whole run's log would pile up.
        log.updates.push_back(*update);
      }
    });
  }
  ready.arrive_and_wait();
  const auto start = Clock::now();
  deadline_ns.store(perfbench::NowNanos() +
                    static_cast<int64_t>(seconds * 1e9));
  go.store(true);
  for (std::thread& thread : threads) thread.join();
  loop.window_s = MsSince(start) / 1e3;
  return loop;
}

/// Service::Create + one OpenStream per session; returns the seconds taken.
double StartStreams(const core::Catalog& catalog,
                    const api::ServiceConfig& config, size_t sessions,
                    std::optional<api::Service>* service,
                    std::vector<api::StreamSession>* opened) {
  opened->clear();
  service->reset();
  core::Catalog copy = catalog;
  const auto start = Clock::now();
  service->emplace(
      Expect(api::Service::Create(std::move(copy), config), "service setup"));
  for (size_t s = 0; s < sessions; ++s) {
    opened->push_back(Expect((*service)->OpenStream(SessionOptions(s)),
                             "open stream"));
  }
  return MsSince(start) / 1e3;
}

/// Re-runs each session's recorded schedule, in order, on a fresh Service
/// (one thread per session, as in the window); each update must encode to
/// the same bytes. Mismatches fail their op. Returns the per-session digests
/// of the recorded updates.
std::vector<uint64_t> CheckStreams(const core::Catalog& catalog,
                                   const api::ServiceConfig& config,
                                   const StreamLoop& loop, OpTally* tally) {
  auto reference =
      Expect(api::Service::Create(catalog, config), "reference service");
  const size_t sessions = loop.sessions.size();
  std::vector<uint64_t> digests(sessions, 0xCBF29CE484222325ull);
  std::vector<size_t> mismatches(sessions, 0);
  std::vector<std::thread> threads;
  for (size_t s = 0; s < sessions; ++s) {
    threads.emplace_back([&, s] {
      const SessionLog& log = loop.sessions[s];
      auto session = reference.OpenStream(SessionOptions(s));
      for (size_t i = 0; i < log.events.size(); ++i) {
        const std::string recorded = json::Dump(wire::Encode(log.updates[i]));
        digests[s] = Fnv1a(recorded, digests[s]);
        auto rerun = session.ok() ? session->Submit(log.events[i])
                                  : stratrec::Result<api::StreamUpdate>(
                                        session.status());
        if (!rerun.ok() || json::Dump(wire::Encode(*rerun)) != recorded) {
          ++mismatches[s];
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  for (size_t s = 0; s < sessions; ++s) {
    if (mismatches[s] == 0) continue;
    std::fprintf(stderr, "check: session %zu: %zu of %zu updates diverged "
                 "from the re-run\n", s, mismatches[s],
                 loop.sessions[s].events.size());
    for (size_t i = 0; i < mismatches[s]; ++i) tally->MarkCheckFailed();
  }
  return digests;
}

int RunStream(const StreamShape& shape, uint64_t seed, double seconds) {
  RunResult result;
  result.stamp = BaseStamp(shape.name, seed, seconds, false);
  const core::Catalog catalog = MakeCatalog(shape.strategies, seed);
  const api::ServiceConfig config = MakeStreamConfig(shape);

  std::optional<api::Service> service;
  std::vector<api::StreamSession> sessions;
  const double setup_s = MedianSetupSeconds(shape.setup_repeats, [&] {
    return StartStreams(catalog, config, shape.sessions, &service, &sessions);
  });

  StreamLoop loop = RunStreamLoop(shape, seed, &sessions, seconds, nullptr);
  const double peak_rss_mb = PeakRssMb();
  sessions.clear();
  service.reset();

  std::vector<double> latencies;
  for (const SessionLog& log : loop.sessions) {
    latencies.insert(latencies.end(), log.latencies_ms.begin(),
                     log.latencies_ms.end());
    result.tally.Merge(log.tally);
  }
  const std::vector<uint64_t> digests =
      CheckStreams(catalog, config, loop, &result.tally);

  result.Add("p50_ms", RequirePercentile(latencies, 0.50, "p50_ms"), "ms");
  result.Add("p95_ms", RequirePercentile(latencies, 0.95, "p95_ms"), "ms");
  result.Add("ops_per_s", static_cast<double>(latencies.size()) / loop.window_s,
             "1/s");
  result.Add("ok_frac", 1.0 - result.tally.failed_frac(), "fraction");
  result.Add("setup_s", setup_s, "s");
  result.Add("peak_rss_mb", peak_rss_mb, "MiB");
  result.stamp.Add("p50_samples", latencies.size());
  result.stamp.Add("p95_samples", latencies.size());
  result.stamp.Add("failed_frac", result.tally.failed_frac());
  result.stamp.Add("setup_repeats", shape.setup_repeats);
  json::Value digest_list = json::Value::Array();
  for (uint64_t digest : digests) {
    char hex[17];
    std::snprintf(hex, sizeof(hex), "%016llx",
                  static_cast<unsigned long long>(digest));
    digest_list.Append(std::string(hex));
  }
  result.stamp.Add("session_digests", std::move(digest_list));
  return Emit(std::move(result));
}

void AddZeroServingMetrics(RunResult* result) {
  for (const char* name :
       {"net.rtt_serial_ms", "net.transport_ms", "net.contention_ms",
        "codec.request_decode_ms", "codec.report_encode_ms"}) {
    result->Add(name, 0.0, "ms");
  }
  result->Add("codec.report_kb", 0.0, "KiB");
  result->Add("codec.report_decode_ms", 0.0, "ms");
  result->Add("router.solve_ms", 0.0, "ms");
  result->Add("router.speedup", 0.0, "x");
  result->Add("service.solve_ms", 0.0, "ms");
}

int TraceStream(const StreamShape& shape, uint64_t seed, double seconds,
                Trace* trace) {
  RunResult result;
  result.stamp = BaseStamp(shape.name, seed, seconds, true);
  const core::Catalog catalog = MakeCatalog(shape.strategies, seed);
  const api::ServiceConfig config = MakeStreamConfig(shape);

  std::optional<api::Service> service;
  std::vector<api::StreamSession> sessions;
  {
    ScopedSpan span(trace, "setup", 0);
    StartStreams(catalog, config, shape.sessions, &service, &sessions);
  }
  const api::ServiceStats before = service->stats();
  StreamLoop loop;
  double queue_depth_mean = 0.0;
  {
    const api::Service probe = *service;
    GaugeSampler sampler(
        [probe] { return static_cast<double>(probe.stats().queue_depth); });
    loop = RunStreamLoop(shape, seed, &sessions, seconds, trace);
    queue_depth_mean = sampler.Stop();
  }
  const api::ServiceStats after = service->stats();
  const StatsDelta delta = Delta(before, after);
  sessions.clear();
  service.reset();

  // Ineligible = rejected while the pending queue had room (a feasible
  // request that does not fit waits in the queue instead).
  const size_t max_pending = config.stream.max_pending;
  size_t ineligible = 0;
  size_t alternatives = 0;
  std::vector<std::pair<double, core::DeploymentRequest>> arrivals;
  for (SessionLog& log : loop.sessions) {
    result.tally.Merge(log.tally);
    for (size_t i = 0; i < log.events.size(); ++i) {
      const api::StreamUpdate& update = log.updates[i];
      if (log.events[i].kind != api::StreamEvent::Kind::kArrival) continue;
      arrivals.emplace_back(update.availability, log.events[i].request);
      if (update.decision.kind == core::AdmissionDecision::Kind::kRejected &&
          update.pending < max_pending) {
        ++ineligible;
        if (update.has_alternative) ++alternatives;
      }
    }
  }

  // Core probes: seeded groups of 8 recorded arrivals, each at the W the
  // session stood at when the first of them arrived.
  const core::CatalogIndex index = core::CatalogIndex::Build(catalog.profiles);
  CoreSamples core_samples;
  stratrec::Rng pick(Mix(seed, 0x800));
  for (size_t probe = 0; probe < shape.trace_core_ops && arrivals.size() >= 8;
       ++probe) {
    const size_t first = static_cast<size_t>(
        pick.UniformInt(0, static_cast<int64_t>(arrivals.size()) - 8));
    std::vector<core::DeploymentRequest> group;
    for (size_t i = first; i < first + 8; ++i) {
      group.push_back(arrivals[i].second);
    }
    const uint64_t op_id = (uint64_t{1} << 63) | probe;
    ScopedSpan span(trace, "core", op_id);
    ProbeCore(index, arrivals[first].first, group, trace, op_id, span.index(),
              &core_samples);
  }

  AddZeroServingMetrics(&result);
  result.Add("service.cache_hit_ratio", delta.cache_hit_ratio, "ratio");
  result.Add("service.steal_ratio", delta.steal_ratio, "ratio");
  result.Add("service.queue_depth_mean", queue_depth_mean, "tasks");
  AddCoreMetrics(core_samples,
                 static_cast<double>(after.index_build_nanos) / 1e6, &result);
  result.Add("stream.arrival_ms", Median(trace->DurationsMs("stream.arrival")),
             "ms");
  result.Add("stream.release_ms", Median(trace->DurationsMs("stream.release")),
             "ms");
  result.Add("stream.window_ms", Median(trace->DurationsMs("stream.window")),
             "ms");
  result.Add("stream.rebuild_ratio", delta.rebuild_ratio, "ratio");
  result.Add("stream.alternative_ratio",
             ineligible > 0 ? static_cast<double>(alternatives) /
                                  static_cast<double>(ineligible)
                            : 0.0,
             "ratio");
  result.Add("failed_frac", result.tally.failed_frac(), "fraction");
  result.stamp.Add("ineligible_arrivals", ineligible);
  result.stamp.Add("alternatives", alternatives);
  result.stamp.Add("core_checksum", core_samples.checksum);
  return Emit(std::move(result));
}

// ---------------------------------------------------------------------------
// main
// ---------------------------------------------------------------------------

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_out;
};

Args ParseArgs(int argc, char** argv) {
  Args args;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value, nullptr);
    } else if (flag == "--trace") {
      args.trace = std::strcmp(value, "0") != 0;
    } else if (flag == "--trace-out") {
      args.trace_out = value;
    } else {
      Die("unknown flag " + flag);
    }
  }
  if (args.seconds <= 0.0) Die("--seconds must be positive");
  return args;
}

void WriteTrace(const Trace& trace, const Args& args) {
  if (args.trace_out.empty()) return;
  std::ofstream out(args.trace_out);
  out << json::Dump(trace.ToJson()) << "\n";
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = ParseArgs(argc, argv);
  Trace trace;
  int code = -1;
  for (const HttpShape& shape : kHttpShapes) {
    if (args.workload != shape.name) continue;
    code = args.trace ? TraceHttp(shape, args.seed, args.seconds, &trace)
                      : RunHttp(shape, args.seed, args.seconds);
  }
  if (args.workload == kStreamShape.name) {
    code = args.trace ? TraceStream(kStreamShape, args.seed, args.seconds,
                                    &trace)
                      : RunStream(kStreamShape, args.seed, args.seconds);
  }
  if (code < 0) Die("unknown workload '" + args.workload + "'");
  if (args.trace) WriteTrace(trace, args);
  return code;
}
