#include "src/common/fault.h"

#include <mutex>

#include "src/common/rng.h"

namespace stratrec::fault {
namespace {

// Same derivation idiom as sim::RngStreams: FNV-1a over the site name,
// SplitMix64 to whiten. The site hash starts from 1469598103934665603, not
// the FNV offset basis (14695981039346656037, one digit longer); the
// schedule goldens in tests/fault_test.cc pin that start.
constexpr uint64_t kSiteHashStart = 1469598103934665603ull;

// The decision hash for (seed, site, visit). Also the digest contribution
// when the visit injects, so the digest is a pure function of the schedule.
uint64_t VisitHash(uint64_t seed, uint64_t name_hash, uint64_t visit) {
  return SplitMix64(seed ^ SplitMix64(name_hash + visit));
}

std::mutex g_plan_mutex;
std::shared_ptr<FaultPlan> g_plan;  // guarded by g_plan_mutex

}  // namespace

FaultPlan::FaultPlan(FaultConfig config) : config_(std::move(config)) {
  sites_.reserve(config_.sites.size());
  for (const auto& [name, spec] : config_.sites) {
    auto site = std::make_unique<Site>();
    site->name = name;
    site->spec = spec;
    site->name_hash = Fnv1a(name, kSiteHashStart);
    sites_.push_back(std::move(site));
  }
}

const FaultPlan::Site* FaultPlan::Find(std::string_view site) const {
  for (const auto& s : sites_) {
    if (s->name == site) return s.get();
  }
  return nullptr;
}

FaultPlan::Site* FaultPlan::Find(std::string_view site) {
  return const_cast<Site*>(std::as_const(*this).Find(site));
}

FaultDecision FaultPlan::Visit(std::string_view site) {
  Site* s = Find(site);
  if (s == nullptr) return {};
  FaultDecision decision;
  decision.visit = s->visits.fetch_add(1, std::memory_order_relaxed);
  const uint64_t h = VisitHash(config_.seed, s->name_hash, decision.visit);
  if (UnitFromBits(h) < s->spec.rate) {
    decision.inject = true;
    decision.delay_ms = s->spec.delay_ms;
    s->injected.fetch_add(1, std::memory_order_relaxed);
    s->digest.fetch_xor(h, std::memory_order_relaxed);
  }
  return decision;
}

bool FaultPlan::HasSite(std::string_view site) const {
  return Find(site) != nullptr;
}

uint64_t FaultPlan::Visits(std::string_view site) const {
  const Site* s = Find(site);
  return s == nullptr ? 0 : s->visits.load(std::memory_order_relaxed);
}

uint64_t FaultPlan::Injected(std::string_view site) const {
  const Site* s = Find(site);
  return s == nullptr ? 0 : s->injected.load(std::memory_order_relaxed);
}

uint64_t FaultPlan::TotalInjected() const {
  uint64_t total = 0;
  for (const auto& s : sites_) {
    total += s->injected.load(std::memory_order_relaxed);
  }
  return total;
}

uint64_t FaultPlan::ScheduleDigest() const {
  // XOR across sites of each site's XOR-of-injected-visit-hashes, salted
  // with the site name so identical schedules at different sites differ.
  uint64_t digest = 0;
  for (const auto& s : sites_) {
    const uint64_t d = s->digest.load(std::memory_order_relaxed);
    if (d != 0) digest ^= SplitMix64(d ^ s->name_hash);
  }
  return digest;
}

std::shared_ptr<FaultPlan> InstallGlobalFaultPlan(FaultConfig config) {
  auto plan = std::make_shared<FaultPlan>(std::move(config));
  std::lock_guard<std::mutex> lock(g_plan_mutex);
  g_plan = plan;
  return plan;
}

void ClearGlobalFaultPlan() {
  std::lock_guard<std::mutex> lock(g_plan_mutex);
  g_plan.reset();
}

std::shared_ptr<FaultPlan> GlobalFaultPlan() {
  std::lock_guard<std::mutex> lock(g_plan_mutex);
  return g_plan;
}

std::string ReplicaSiteName(size_t shard, size_t replica) {
  return "router.shard." + std::to_string(shard) + ".replica." +
         std::to_string(replica);
}

}  // namespace stratrec::fault
