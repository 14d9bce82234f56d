// The discrete-event substrate of the platform simulator: a virtual clock
// with an ordered event heap, per-actor deterministic PRNG streams, and a
// running digest of the schedule a run produced.
//
// Everything here is single-threaded by design — the simulator owns one
// event loop and fires events strictly in (time, schedule order), so a run
// is a pure function of its scenario and seed. Concurrency lives below, in
// the stratrec::Service the events drive; determinism of *that* layer is
// the record/replay property the repo already pins (bit-identical reports
// at any pool size), which is exactly what lets a simulated run double as
// a schedule-space robustness check: replay the journal any cell recorded
// and the bytes must come back, whatever the pool did.
#ifndef STRATREC_SIM_ENGINE_H_
#define STRATREC_SIM_ENGINE_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <queue>
#include <string>
#include <string_view>
#include <vector>

#include "src/common/rng.h"

namespace stratrec::sim {

/// FNV-1a accumulator over the decisions a simulated run made. Two runs of
/// the same (scenario, seed) must produce equal digests at any worker-pool
/// size — the sim-side half of the determinism contract (the journal
/// fingerprint is the service-side half). Only *inputs* are mixed in
/// (what was submitted, dropped, cancelled, revoked, and when), never
/// service outcomes, so the digest stays pool-size-invariant even for
/// scenarios that race tickets on purpose.
class ScheduleDigest {
 public:
  void Mix(uint64_t value);
  void Mix(double value);  ///< mixes the exact bit pattern
  void Mix(std::string_view text);

  uint64_t value() const { return hash_; }

  /// 16-hex-digit rendering for reports and JSON.
  static std::string Hex(uint64_t digest);

 private:
  uint64_t hash_ = kFnv1aOffsetBasis;
};

/// Derives a child seed from (root, name) — the same mixing RngStreams
/// uses, exposed for components that own their generator (e.g. the
/// simulator's per-tenant workload::Generator instances).
uint64_t DeriveSeed(uint64_t root, std::string_view name);

/// Named deterministic PRNG streams derived from one root seed. Each actor
/// ("arrivals", "drift", "tenant-2", ...) owns an independent xoshiro
/// stream seeded from splitmix64(root ^ FNV(name)), so
///   * the same (root, name) always yields the same stream,
///   * adding a new actor never perturbs the draws of existing ones, and
///   * the order streams are first requested in does not matter.
class RngStreams {
 public:
  explicit RngStreams(uint64_t root_seed) : root_(root_seed) {}

  /// The stream for `actor`, created on first use.
  Rng& For(std::string_view actor);

 private:
  uint64_t root_;
  std::map<std::string, Rng, std::less<>> streams_;
};

/// Min-heap event queue over a virtual clock. Events scheduled for equal
/// times fire in the order they were scheduled (a monotonic sequence number
/// breaks ties), so the loop is fully deterministic.
class EventQueue {
 public:
  using Fn = std::function<void()>;

  /// Schedules `fn` at absolute virtual time `time` (clamped up to now()):
  /// the past cannot be scheduled into.
  void Schedule(double time, Fn fn);

  /// Schedules `fn` at now() + delay (delay clamped up to 0).
  void ScheduleAfter(double delay, Fn fn);

  /// Fires the earliest event, advancing the clock to its time. Returns
  /// false on an empty heap.
  bool RunNext();

  /// Fires every event with time <= horizon (events may schedule further
  /// events; those fire too if they fall inside), then advances the clock
  /// to `horizon`. Returns the number of events fired.
  size_t RunUntil(double horizon);

  double now() const { return now_; }
  size_t fired() const { return fired_; }
  size_t pending() const { return heap_.size(); }

 private:
  struct Event {
    double time = 0.0;
    uint64_t seq = 0;
    Fn fn;
  };
  struct Later {
    bool operator()(const Event& a, const Event& b) const {
      if (a.time != b.time) return a.time > b.time;
      return a.seq > b.seq;
    }
  };

  std::priority_queue<Event, std::vector<Event>, Later> heap_;
  double now_ = 0.0;
  uint64_t seq_ = 0;
  size_t fired_ = 0;
};

}  // namespace stratrec::sim

#endif  // STRATREC_SIM_ENGINE_H_
