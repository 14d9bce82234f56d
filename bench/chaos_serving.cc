// Chaos bench for the fault-tolerant serving tier: a deterministic fault
// schedule (src/common/fault.h) is installed over the HTTP server and the
// shard router, and a closed-loop retrying client drives batches and sweeps
// through the full stack while the bench sweeps fault shape x replica
// count. The gates — any breach exits non-zero, which is what lets CI run
// this as the chaos smoke leg:
//
//   * zero non-injected 5xx: every 500 the client sees must carry the
//     "[injected]" tag of a scheduled fault; a real failure fails the run,
//   * byte-identity under faults: every 200 body must equal the unsharded
//     in-process Service's encoding of the same request — retries, replica
//     failover, and hedging may not perturb a single byte,
//   * deadline compliance: zero 504s, and with replicas >= 2 under the
//     single-dead-replica fault the p99 of admitted requests stays within
//     the request deadline,
//   * with replicas >= 2 a dead replica is fully absorbed by failover — no
//     5xx at all, injected or otherwise.
//
// The per-cell fault schedule digest (FaultPlan::ScheduleDigest) is stamped
// into the workload block of chaos_serving.json: same seed, same schedule,
// same digest — rerun the bench and the stamps must agree.
//
// Usage: bench_chaos_serving [--quick] [strategies] [requests_per_cell]
// (--quick runs the baseline, failover and hedging cells only.)
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "src/api/catalog.h"
#include "src/api/codec.h"
#include "src/api/service.h"
#include "src/common/ascii_table.h"
#include "src/common/fault.h"
#include "src/common/json.h"
#include "src/core/kernels/kernels.h"
#include "src/net/http_client.h"
#include "src/net/serving.h"
#include "src/workload/generators.h"

namespace {

namespace api = stratrec::api;
namespace core = stratrec::core;
namespace fault = stratrec::fault;
namespace net = stratrec::net;
namespace wire = stratrec::wire;
namespace workload = stratrec::workload;

// Generous relative budget: queueing under faults stays far inside it, so
// any 504 means deadline propagation itself broke.
constexpr double kDeadlineMs = 2000.0;

/// One sweep cell: a fault shape against a replica count.
struct Cell {
  const char* name;
  size_t replicas = 1;
  double drop_rate = 0.0;          // http.server.drop
  double replica_fail_rate = 0.0;  // router.replica (generic)
  bool dead_replica = false;       // router.shard.0.replica.0 at rate 1.0
  double hedge_after_ms = 0.0;
};

struct CellResult {
  size_t ok_200 = 0;
  size_t injected_5xx = 0;
  size_t non_injected_5xx = 0;
  size_t deadline_504 = 0;
  size_t other_status = 0;
  size_t identity_mismatches = 0;
  size_t transport_failures = 0;
  uint64_t retries = 0;
  uint64_t failovers = 0;
  uint64_t hedges_won = 0;
  uint64_t schedule_digest = 0;
  double p99_ms = 0.0;
};

api::BatchRequest MakeBatch(workload::Generator* generator, size_t sequence) {
  api::BatchRequest batch;
  batch.requests = generator->RequestsWithRanges(6, 5, {0.50, 0.80},
                                                 {0.60, 1.0}, {0.60, 1.0});
  batch.availability = api::AvailabilitySpec::Fixed(0.5);
  batch.aggregation = core::AggregationMode::kMax;
  batch.deadline_ms = kDeadlineMs;
  batch.request_id = "chaos-batch-" + std::to_string(sequence);
  return batch;
}

api::SweepRequest MakeSweep(workload::Generator* generator, size_t sequence) {
  api::SweepRequest sweep;
  sweep.targets = generator->RequestsWithRanges(3, 3, {0.60, 0.95},
                                                {0.40, 0.9}, {0.40, 0.9});
  sweep.availability = api::AvailabilitySpec::Fixed(0.5);
  sweep.deadline_ms = kDeadlineMs;
  sweep.request_id = "chaos-sweep-" + std::to_string(sequence);
  return sweep;
}

double Percentile(std::vector<double> sorted, double p) {
  if (sorted.empty()) return 0.0;
  const size_t index = std::min(
      sorted.size() - 1,
      static_cast<size_t>(p * static_cast<double>(sorted.size() - 1)));
  return sorted[index];
}

fault::FaultConfig PlanFor(const Cell& cell, uint64_t seed) {
  fault::FaultConfig config;
  config.seed = seed;
  if (cell.drop_rate > 0.0) {
    config.sites.emplace_back(std::string(fault::kSiteHttpDrop),
                              fault::SiteSpec{cell.drop_rate, 0.0});
  }
  if (cell.replica_fail_rate > 0.0) {
    config.sites.emplace_back(std::string(fault::kSiteRouterReplica),
                              fault::SiteSpec{cell.replica_fail_rate, 0.0});
  }
  if (cell.dead_replica) {
    config.sites.emplace_back(fault::ReplicaSiteName(0, 0),
                              fault::SiteSpec{1.0, 0.0});
  }
  return config;
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  int arg = 1;
  if (arg < argc && std::strcmp(argv[arg], "--quick") == 0) {
    quick = true;
    ++arg;
  }
  const size_t num_strategies =
      arg < argc ? std::strtoull(argv[arg++], nullptr, 10) : 6'000;
  const size_t requests_per_cell =
      arg < argc ? std::strtoull(argv[arg++], nullptr, 10)
                 : (quick ? 12 : 32);

  const std::vector<Cell> all_cells = {
      {"baseline", 1},
      {"drops", 1, /*drop_rate=*/0.05},
      {"injected-500s", 1, 0.0, /*replica_fail_rate=*/0.15},
      {"failover", 2, 0.0, 0.0, /*dead_replica=*/true},
      {"combined", 3, 0.03, 0.2, false},
      {"hedging", 2, 0.0, 0.1, false, /*hedge_after_ms=*/0.05},
  };
  std::vector<Cell> cells;
  for (const Cell& cell : all_cells) {
    if (quick && std::strcmp(cell.name, "baseline") != 0 &&
        std::strcmp(cell.name, "failover") != 0 &&
        std::strcmp(cell.name, "hedging") != 0) {
      continue;
    }
    cells.push_back(cell);
  }

  std::printf(
      "Chaos serving: %zu cells x %zu requests over %zu strategies%s\n\n",
      cells.size(), requests_per_cell, num_strategies,
      quick ? " (quick)" : "");

  workload::Generator generator({}, 0x5E41'0AD5ull);
  const auto profiles = generator.Profiles(static_cast<int>(num_strategies));
  const core::Catalog catalog = api::CatalogFromProfiles(profiles);

  // The fault-free reference: an unsharded in-process Service. Every 200
  // body in every cell must match these bytes exactly.
  std::vector<std::string> bodies;
  std::vector<std::string> targets;
  std::vector<std::string> expected;
  {
    auto unsharded = api::Service::Create(catalog, {});
    if (!unsharded.ok()) {
      std::fprintf(stderr, "unsharded setup failed: %s\n",
                   unsharded.status().ToString().c_str());
      return 1;
    }
    workload::Generator request_gen({}, 0xC4A0'51D3ull);
    for (size_t r = 0; r < requests_per_cell; ++r) {
      if (r % 4 == 3) {
        const api::SweepRequest sweep = MakeSweep(&request_gen, r);
        auto report = unsharded->RunSweep(sweep);
        if (!report.ok()) {
          std::fprintf(stderr, "baseline sweep failed: %s\n",
                       report.status().ToString().c_str());
          return 1;
        }
        targets.push_back("/v1/sweep");
        bodies.push_back(stratrec::json::Dump(wire::Encode(sweep)));
        expected.push_back(stratrec::json::Dump(wire::Encode(*report)));
      } else {
        const api::BatchRequest batch = MakeBatch(&request_gen, r);
        auto report = unsharded->SubmitBatch(batch);
        if (!report.ok()) {
          std::fprintf(stderr, "baseline batch failed: %s\n",
                       report.status().ToString().c_str());
          return 1;
        }
        targets.push_back("/v1/batch");
        bodies.push_back(stratrec::json::Dump(wire::Encode(batch)));
        expected.push_back(stratrec::json::Dump(wire::Encode(*report)));
      }
    }
  }

  std::vector<CellResult> results(cells.size());
  bool gates_hold = true;
  for (size_t c = 0; c < cells.size(); ++c) {
    const Cell& cell = cells[c];
    CellResult& result = results[c];

    stratrec::RouterConfig router_config;
    router_config.shards = 2;
    router_config.replicas = cell.replicas;
    router_config.replica_seed = 0x51EC'0000ull + c;
    router_config.hedge_after_ms = cell.hedge_after_ms;
    auto router = stratrec::ShardRouter::Create(catalog, router_config);
    if (!router.ok()) {
      std::fprintf(stderr, "%s: router setup failed: %s\n", cell.name,
                   router.status().ToString().c_str());
      return 1;
    }
    auto server = net::StartServing(*router);
    if (!server.ok()) {
      std::fprintf(stderr, "%s: server setup failed: %s\n", cell.name,
                   server.status().ToString().c_str());
      return 1;
    }

    const fault::FaultConfig plan_config = PlanFor(cell, 0xC4A0'0000ull + c);
    std::shared_ptr<fault::FaultPlan> plan;
    if (!plan_config.sites.empty()) {
      plan = fault::InstallGlobalFaultPlan(plan_config);
    } else {
      fault::ClearGlobalFaultPlan();
    }

    net::RetryPolicy policy;
    policy.max_attempts = 5;
    policy.base_backoff_ms = 5.0;
    policy.max_backoff_ms = 50.0;
    policy.seed = 0xB0FF'0000ull + c;
    net::RetryingHttpClient client("127.0.0.1", server->port(), policy);

    std::vector<double> latencies;
    latencies.reserve(requests_per_cell);
    for (size_t r = 0; r < requests_per_cell; ++r) {
      const auto start = std::chrono::steady_clock::now();
      auto response = client.PostJson(targets[r], bodies[r]);
      const std::chrono::duration<double, std::milli> elapsed =
          std::chrono::steady_clock::now() - start;
      if (!response.ok()) {
        ++result.transport_failures;
        continue;
      }
      latencies.push_back(elapsed.count());
      if (response->status_code == 200) {
        ++result.ok_200;
        if (response->body != expected[r]) ++result.identity_mismatches;
      } else if (response->status_code == 504) {
        ++result.deadline_504;
      } else if (response->status_code >= 500) {
        if (response->body.find("[injected]") != std::string::npos) {
          ++result.injected_5xx;
        } else {
          ++result.non_injected_5xx;
        }
      } else {
        ++result.other_status;
      }
    }

    fault::ClearGlobalFaultPlan();
    server->Stop();

    const api::ServiceStats stats = router->stats();
    result.retries = client.retries();
    result.failovers = stats.failovers;
    result.hedges_won = stats.hedges_won;
    result.schedule_digest = plan ? plan->ScheduleDigest() : 0;
    std::sort(latencies.begin(), latencies.end());
    result.p99_ms = Percentile(latencies, 0.99);

    // The gates.
    bool cell_ok = result.non_injected_5xx == 0 &&
                   result.identity_mismatches == 0 &&
                   result.deadline_504 == 0 &&
                   result.transport_failures == 0 &&
                   result.other_status == 0;
    if (cell.replicas >= 2 && cell.dead_replica) {
      // Failover must fully absorb a dead replica: no 5xx surfaces at all,
      // and admitted-request p99 stays inside the deadline.
      cell_ok = cell_ok && result.injected_5xx == 0 &&
                result.p99_ms <= kDeadlineMs && result.failovers > 0;
    }
    if (!cell_ok) {
      std::fprintf(stderr,
                   "%s: GATE BREACH (non_injected_5xx=%zu identity=%zu "
                   "deadline_504=%zu transport=%zu other=%zu injected=%zu "
                   "failovers=%llu p99=%.2fms)\n",
                   cell.name, result.non_injected_5xx,
                   result.identity_mismatches, result.deadline_504,
                   result.transport_failures, result.other_status,
                   result.injected_5xx,
                   static_cast<unsigned long long>(result.failovers),
                   result.p99_ms);
      gates_hold = false;
    }
  }

  stratrec::AsciiTable table({"cell", "replicas", "200", "injected 5xx",
                              "retries", "failovers", "hedges", "p99 ms",
                              "digest"});
  for (size_t c = 0; c < cells.size(); ++c) {
    char digest[32];
    std::snprintf(digest, sizeof(digest), "%016llx",
                  static_cast<unsigned long long>(results[c].schedule_digest));
    table.AddRow({cells[c].name, std::to_string(cells[c].replicas),
                  std::to_string(results[c].ok_200),
                  std::to_string(results[c].injected_5xx),
                  std::to_string(results[c].retries),
                  std::to_string(results[c].failovers),
                  std::to_string(results[c].hedges_won),
                  stratrec::FormatDouble(results[c].p99_ms, 2), digest});
  }
  table.Print();

  std::string json =
      "{\n  \"workload\": {\"strategies\": " + std::to_string(num_strategies) +
      ", \"shards\": 2, \"requests_per_cell\": " +
      std::to_string(requests_per_cell) +
      ", \"deadline_ms\": " + stratrec::FormatDouble(kDeadlineMs, 1) +
      ", \"quick\": " + (quick ? std::string("true") : std::string("false")) +
      ", \"kernel_dispatch\": \"" +
      stratrec::core::kernels::DispatchLevelName(
          stratrec::core::kernels::ActiveDispatchLevel()) +
      "\"},\n  \"cells\": [";
  for (size_t c = 0; c < cells.size(); ++c) {
    char digest[32];
    std::snprintf(digest, sizeof(digest), "%016llx",
                  static_cast<unsigned long long>(results[c].schedule_digest));
    json += std::string(c == 0 ? "\n" : ",\n") + "    {\"cell\": \"" +
            cells[c].name +
            "\", \"replicas\": " + std::to_string(cells[c].replicas) +
            ", \"ok_200\": " + std::to_string(results[c].ok_200) +
            ", \"injected_5xx\": " + std::to_string(results[c].injected_5xx) +
            ", \"non_injected_5xx\": " +
            std::to_string(results[c].non_injected_5xx) +
            ", \"deadline_504\": " + std::to_string(results[c].deadline_504) +
            ", \"identity_mismatches\": " +
            std::to_string(results[c].identity_mismatches) +
            ", \"retries\": " + std::to_string(results[c].retries) +
            ", \"failovers\": " + std::to_string(results[c].failovers) +
            ", \"hedges_won\": " + std::to_string(results[c].hedges_won) +
            ", \"p99_ms\": " + stratrec::FormatDouble(results[c].p99_ms, 3) +
            ", \"schedule_digest\": \"" + digest + "\"}";
  }
  json += "\n  ],\n  \"gates\": \"" +
          std::string(gates_hold ? "ok" : "breached") + "\"\n}\n";
  std::printf("\n%s", json.c_str());

  if (FILE* out = std::fopen("chaos_serving.json", "w")) {
    std::fputs(json.c_str(), out);
    std::fclose(out);
    std::printf("(written to chaos_serving.json)\n");
  }

  if (!gates_hold) {
    std::fprintf(stderr, "chaos gates breached\n");
    return 1;
  }
  return 0;
}
