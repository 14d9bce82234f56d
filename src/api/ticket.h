// Ticket<Report> — the future-like handle of the asynchronous Service API.
//
// SubmitBatchAsync / RunSweepAsync enqueue work on the service executor and
// immediately return a ticket whose id() equals the request_id the finished
// report will carry. A ticket supports:
//
//   Wait()        block until the job finishes and retrieve the outcome,
//   TryGet()      non-blocking probe (nullopt while queued or running),
//   Cancel()      withdraw a job that has not started yet,
//   OnComplete()  a completion callback, invoked exactly once.
//
// Retrieval is single-consumer (std::future::get semantics): the first
// Wait()/TryGet() that observes the outcome moves it out; later retrievals
// fail with kFailedPrecondition. Cancel() on a queued job completes the
// ticket with kCancelled and returns true; once the job has started (or
// finished) it returns false and the job runs to completion. The callback
// fires exactly once, from the thread that completes the job (or inline
// from OnComplete() when the outcome already landed), and always *before*
// the outcome becomes retrievable — so a callback never races a concurrent
// Wait() on another thread. Callbacks run on a pool worker: keep them short
// and never block one on another ticket (on a small pool that can deadlock
// the queue behind it).
//
// Tickets are value-semantic handles over shared state; copies address the
// same job. Dropping every ticket does not cancel the job, and tickets stay
// valid after the Service handle is gone (the service destructor drains its
// queue before returning). One hard rule: a callback must never release the
// last Service handle — the pool cannot tear itself down from one of its
// own workers (the executor aborts with a diagnostic if this happens).
// Waiting for the callback-carrying ticket before dropping the final handle
// is always sufficient.
#ifndef STRATREC_API_TICKET_H_
#define STRATREC_API_TICKET_H_

#include <chrono>
#include <condition_variable>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <utility>

#include "src/common/status.h"

namespace stratrec::api {

template <typename T>
class Ticket;

namespace internal {

template <typename T>
struct TicketShared;

/// Constructs a Ticket over existing shared state. The ticket constructor
/// is private to keep arbitrary callers from minting handles; every ticket
/// (the runtime's envelope jobs and the router's shard scans) is built
/// through this factory.
template <typename T>
Ticket<T> MakeTicket(std::shared_ptr<TicketShared<T>> shared);

/// Shared state of one asynchronous job. The executor task and every ticket
/// copy point at one of these; `phase` gates the cancel/run race.
///
/// Completion protocol (Finish and the cancel path alike): move to
/// kCompleting and take the callback under the lock, fire the callback on a
/// value not yet published, then publish the outcome and kDone. Consumers
/// only touch `outcome` at kDone, so callback and consumption never alias.
template <typename T>
struct TicketShared {
  enum class Phase {
    kQueued,      ///< submitted, not yet claimed by a worker
    kRunning,     ///< a worker claimed it; Cancel() can no longer win
    kCompleting,  ///< outcome computed, callback firing, not yet retrievable
    kDone,        ///< outcome published (result, error, or kCancelled)
  };

  explicit TicketShared(std::string id_in) : id(std::move(id_in)) {}

  const std::string id;

  std::mutex mutex;
  std::condition_variable done;
  Phase phase = Phase::kQueued;
  std::optional<Result<T>> outcome;  ///< set exactly once, published at kDone
  bool consumed = false;
  bool callback_registered = false;
  std::function<void(const Result<T>&)> callback;

  /// Worker-side: kQueued -> kRunning. False when Cancel() won the race.
  bool BeginRun() {
    std::lock_guard<std::mutex> lock(mutex);
    if (phase != Phase::kQueued) return false;
    phase = Phase::kRunning;
    return true;
  }

  /// Worker-side completion; also the tail of a successful Cancel().
  void Finish(Result<T> result) {
    std::function<void(const Result<T>&)> fire;
    {
      std::lock_guard<std::mutex> lock(mutex);
      phase = Phase::kCompleting;
      fire = std::move(callback);
      callback = nullptr;
    }
    if (fire) fire(result);  // `result` is still thread-local here
    {
      std::lock_guard<std::mutex> lock(mutex);
      outcome.emplace(std::move(result));
      phase = Phase::kDone;
    }
    done.notify_all();
  }

  /// Caller-side: kQueued -> cancelled outcome. False once running/done.
  bool Cancel() {
    return CancelWith(
        Status::Cancelled("ticket " + id + " cancelled before execution"));
  }

  /// Like Cancel() but with an explicit error outcome — the deadline path
  /// completes expired queued work with kDeadlineExceeded through the same
  /// claim-then-Finish protocol, so callbacks and consumers see no new
  /// states.
  bool CancelWith(Status status) {
    {
      std::lock_guard<std::mutex> lock(mutex);
      if (phase != Phase::kQueued) return false;
      phase = Phase::kRunning;  // claim it exactly like a worker would
    }
    Finish(std::move(status));
    return true;
  }
};

}  // namespace internal

template <typename T>
class Ticket {
 public:
  /// The service-assigned request id ("batch-000007"); the finished
  /// report's request_id matches it.
  const std::string& id() const { return shared_->id; }

  /// Blocks until the outcome lands, then moves it out (single-consumer).
  /// A second retrieval fails with kFailedPrecondition.
  Result<T> Wait() {
    std::unique_lock<std::mutex> lock(shared_->mutex);
    shared_->done.wait(lock, [this]() {
      return shared_->phase == Shared::Phase::kDone;
    });
    return ConsumeWhileLocked();
  }

  /// Bounded Wait: blocks up to `timeout`, then either moves the outcome out
  /// (single-consumer, like Wait) or returns nullopt with the job untouched —
  /// a timed-out WaitFor consumes nothing, so the caller can retry, hedge,
  /// or fall back to Wait(). The failover/hedging paths in ShardRouter are
  /// built on this.
  template <typename Rep, typename Period>
  std::optional<Result<T>> WaitFor(
      std::chrono::duration<Rep, Period> timeout) {
    std::unique_lock<std::mutex> lock(shared_->mutex);
    if (!shared_->done.wait_for(lock, timeout, [this]() {
          return shared_->phase == Shared::Phase::kDone;
        })) {
      return std::nullopt;
    }
    return ConsumeWhileLocked();
  }

  /// Non-blocking probe: nullopt while the job is queued, running, or still
  /// firing its callback; otherwise the moved-out outcome (single-consumer,
  /// like Wait).
  std::optional<Result<T>> TryGet() {
    std::lock_guard<std::mutex> lock(shared_->mutex);
    if (shared_->phase != Shared::Phase::kDone) return std::nullopt;
    return ConsumeWhileLocked();
  }

  /// Withdraws a job that has not started. True when the cancel won; the
  /// outcome is then Status kCancelled (and the callback, if any, fires with
  /// it). False once the job is running or done — the result still arrives
  /// normally.
  bool Cancel() { return shared_->Cancel(); }

  /// Cancel with an explicit error outcome (e.g. kDeadlineExceeded). Same
  /// queued-only semantics as Cancel().
  bool CancelWith(Status status) {
    return shared_->CancelWith(std::move(status));
  }

  /// Registers the completion callback (at most one per ticket). Fires
  /// exactly once with the outcome by const reference: from the completing
  /// thread, or from this call when the outcome already landed (then with a
  /// private copy, so it cannot race a concurrent consumer). Fails with
  /// kFailedPrecondition on a second registration or when the outcome was
  /// already consumed, and kInvalidArgument on a null callback.
  Status OnComplete(std::function<void(const Result<T>&)> callback) {
    if (!callback) {
      return Status::InvalidArgument("completion callback is null");
    }
    std::optional<Result<T>> landed;
    {
      std::unique_lock<std::mutex> lock(shared_->mutex);
      if (shared_->callback_registered) {
        return Status::FailedPrecondition(
            "ticket " + shared_->id + " already has a completion callback");
      }
      shared_->callback_registered = true;
      if (shared_->phase == Shared::Phase::kQueued ||
          shared_->phase == Shared::Phase::kRunning) {
        shared_->callback = std::move(callback);
        return Status::OK();
      }
      // kCompleting: the completer already collected (no) callback; wait out
      // the short publication window and fire ourselves.
      shared_->done.wait(lock, [this]() {
        return shared_->phase == Shared::Phase::kDone;
      });
      if (shared_->consumed) {
        return Status::FailedPrecondition(
            "ticket " + shared_->id + " outcome was already consumed");
      }
      landed = *shared_->outcome;  // copy under the lock
    }
    callback(*landed);
    return Status::OK();
  }

  /// True once the outcome is retrievable (even if already consumed).
  bool done() const {
    std::lock_guard<std::mutex> lock(shared_->mutex);
    return shared_->phase == Shared::Phase::kDone;
  }

 private:
  using Shared = internal::TicketShared<T>;
  template <typename U>
  friend Ticket<U> internal::MakeTicket(
      std::shared_ptr<internal::TicketShared<U>> shared);
  explicit Ticket(std::shared_ptr<Shared> shared)
      : shared_(std::move(shared)) {}

  Result<T> ConsumeWhileLocked() {
    if (shared_->consumed) {
      return Status::FailedPrecondition("ticket " + shared_->id +
                                        " was already consumed");
    }
    shared_->consumed = true;
    return std::move(*shared_->outcome);
  }

  std::shared_ptr<Shared> shared_;
};

namespace internal {

template <typename T>
Ticket<T> MakeTicket(std::shared_ptr<TicketShared<T>> shared) {
  return Ticket<T>(std::move(shared));
}

}  // namespace internal

}  // namespace stratrec::api

#endif  // STRATREC_API_TICKET_H_
