// stratrec::Executor — the fixed worker pool behind the asynchronous
// Service API and the parallel batch pipeline.
//
// One executor owns `threads()` worker threads scheduled by work stealing:
//
//   * every worker owns a deque it pushes and pops locally (LIFO, so the
//     task it just spawned — hot in cache — runs first),
//   * a worker whose deque is empty steals from a victim's deque (FIFO, so
//     it takes the oldest — and therefore largest-remaining — task),
//   * external submissions land in a separate injection queue (FIFO), which
//     workers drain only when neither their own deque nor any victim has
//     work.
//
// The split matters under load: ParallelFor fan-out tasks ride the worker
// deques, so sub-work of an in-flight job never serializes behind the
// unrelated tickets waiting in the injection queue — the starvation the old
// single FIFO+mutex design had. Submissions made *from* a pool worker (a
// task spawning follow-up work) also go to that worker's own deque.
//
// Two entry points:
//
//   Submit()       enqueue one fire-and-forget task (the async Service
//                  tickets ride on this),
//   ParallelFor()  partition [0, n) into grain-sized chunks and run them on
//                  the pool *and* the calling thread.
//
// ParallelFor's caller always participates in chunk execution: chunks are
// claimed from one shared cursor, so the caller drains work exactly like a
// thief and a task that is itself running on a pool worker can fan out
// sub-work without risking deadlock — even on a single-threaded pool the
// caller runs every chunk itself. This is what lets core::PriceRows (the
// batch pricing and every shard scan) and RunSweep partition across the
// same pool that runs their enclosing ticket.
//
// Observability: QueueDepth() reports injection + per-worker deque totals
// (one consistent number, the same the Service journals in ServiceStats);
// ActiveWorkers() counts workers inside a task; StealCount() /
// LocalHitCount() are lifetime counters of how tasks reached their thread —
// a high steal share means the pool is rebalancing, a high local share
// means fan-out is staying cache-local.
//
// Destruction drains: the destructor stops accepting new work, runs every
// task still queued, and joins the workers — so a pending Ticket is always
// completed, never silently dropped. Submit() after shutdown has begun runs
// the task inline on the calling thread for the same reason. An executor
// must not be destroyed from one of its own workers (a task must not drop
// the last reference to the object owning the pool).
#ifndef STRATREC_COMMON_EXECUTOR_H_
#define STRATREC_COMMON_EXECUTOR_H_

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace stratrec {

class Executor {
 public:
  /// Spawns `threads` workers; 0 means std::thread::hardware_concurrency()
  /// (itself clamped to at least 1).
  explicit Executor(size_t threads = 0);

  /// Drains every queue (running every still-pending task) and joins.
  ~Executor();

  Executor(const Executor&) = delete;
  Executor& operator=(const Executor&) = delete;

  /// Enqueues one task; never blocks. From an external thread the task
  /// joins the FIFO injection queue; from a pool worker of this executor it
  /// is pushed onto that worker's own deque (LIFO), where idle workers can
  /// steal it. `task` must be non-null.
  void Submit(std::function<void()> task);

  /// Runs body(begin, end) over chunked sub-ranges of [0, n), each at most
  /// `grain` wide (grain 0 is treated as 1). Blocks until every chunk has
  /// finished. The calling thread executes chunks too, so this is safe to
  /// call from inside a pool task. Helper tasks ride the worker deques —
  /// never the injection queue — so fan-out latency is bounded by the
  /// in-flight work, not by how many unrelated tickets are pending. `body`
  /// must tolerate concurrent invocation on disjoint ranges.
  void ParallelFor(size_t n, size_t grain,
                   const std::function<void(size_t, size_t)>& body);

  size_t threads() const { return workers_.size(); }

  /// Tasks waiting right now (excludes running ones): the injection queue
  /// plus every per-worker deque, summed in one pass so the number the
  /// Service journals is consistent with what the pool will actually run.
  size_t queued() const;

  /// Observability gauges and counters (instantaneous / monotonic, racy by
  /// nature — fine for monitoring, not for synchronization). QueueDepth is
  /// `queued()` under its service-facing name; ActiveWorkers counts pool
  /// workers currently inside a task (helpers running ParallelFor chunks
  /// count, the participating caller thread does not). StealCount is the
  /// lifetime number of tasks a worker took from another worker's deque;
  /// LocalHitCount the lifetime number popped from the owner's own deque.
  /// Together they say whether the pool is saturated and how work is
  /// reaching the threads.
  size_t QueueDepth() const { return queued(); }
  size_t ActiveWorkers() const {
    return active_workers_.load(std::memory_order_relaxed);
  }
  uint64_t StealCount() const;
  uint64_t LocalHitCount() const;

 private:
  /// One worker's slice of the scheduler, cache-line separated so a
  /// worker's local pushes/pops never bounce another worker's line.
  struct alignas(64) WorkerSlot {
    mutable std::mutex mutex;  ///< guards `deque`
    std::deque<std::function<void()>> deque;
    std::atomic<uint64_t> steals{0};      ///< tasks this worker stole
    std::atomic<uint64_t> local_hits{0};  ///< tasks popped from own deque
  };

  void WorkerLoop(size_t index);
  /// local pop (LIFO) → steal (FIFO, scanning victims from index+1) →
  /// injection (FIFO). Empty function when nothing is runnable.
  std::function<void()> TryAcquire(size_t index);
  /// Pushes onto slot `index`'s deque and wakes a sleeper if any.
  void PushToSlot(size_t index, std::function<void()> task);
  void NotifySleepers();

  std::vector<std::unique_ptr<WorkerSlot>> slots_;

  mutable std::mutex injection_mutex_;  ///< guards `injection_`, `shutdown_`
  std::deque<std::function<void()>> injection_;
  bool shutdown_ = false;

  /// Sleep/wake protocol: `pending_` counts tasks in any queue, `idle_`
  /// advertises sleepers. A pusher bumps pending_ then — only if a sleeper
  /// is advertised — taps sleep_mutex_ and notifies; a would-be sleeper
  /// advertises itself, re-checks pending_, and only then waits. Both sides
  /// use seq_cst, so one of them always sees the other (no lost wakeup)
  /// while the uncontended fast path never touches the global mutex.
  std::mutex sleep_mutex_;
  std::condition_variable wake_;
  std::atomic<size_t> pending_{0};
  std::atomic<size_t> idle_{0};
  std::atomic<bool> stopping_{false};

  std::atomic<size_t> active_workers_{0};
  std::atomic<size_t> external_slot_hint_{0};  ///< round-robin helper target
  std::vector<std::thread> workers_;
};

}  // namespace stratrec

#endif  // STRATREC_COMMON_EXECUTOR_H_
