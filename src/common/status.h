// Lightweight Status / Result error handling, in the spirit of the RocksDB /
// Arrow idiom: fallible public APIs return Status or Result<T> rather than
// throwing exceptions.
#ifndef STRATREC_COMMON_STATUS_H_
#define STRATREC_COMMON_STATUS_H_

#include <cassert>
#include <optional>
#include <string>
#include <utility>

#include "src/common/enum_names.h"

namespace stratrec {

/// Machine-readable category of a failure.
enum class StatusCode {
  kOk = 0,
  kInvalidArgument,
  kNotFound,
  kOutOfRange,
  kFailedPrecondition,
  kInfeasible,
  kCancelled,
  kInternal,
  kDeadlineExceeded,
};

/// Every code with its stable name. StatusCodeName reads it, and the wire
/// codec parses status codes with it.
inline constexpr EnumName<StatusCode> kStatusCodeNames[] = {
    {StatusCode::kOk, "OK"},
    {StatusCode::kInvalidArgument, "InvalidArgument"},
    {StatusCode::kNotFound, "NotFound"},
    {StatusCode::kOutOfRange, "OutOfRange"},
    {StatusCode::kFailedPrecondition, "FailedPrecondition"},
    {StatusCode::kInfeasible, "Infeasible"},
    {StatusCode::kCancelled, "Cancelled"},
    {StatusCode::kInternal, "Internal"},
    {StatusCode::kDeadlineExceeded, "DeadlineExceeded"},
};

/// Returns a stable human-readable name ("InvalidArgument", ...) for `code`.
const char* StatusCodeName(StatusCode code);

/// Outcome of a fallible operation: a code plus an optional message.
///
/// `Status::OK()` is cheap (no allocation). Error statuses carry a message
/// describing the failure. Statuses are value types and freely copyable.
class Status {
 public:
  /// Constructs an OK status.
  Status() : code_(StatusCode::kOk) {}

  /// Constructs a status with an explicit code and message.
  Status(StatusCode code, std::string message)
      : code_(code), message_(std::move(message)) {}

  /// The canonical OK singleton-by-value.
  static Status OK() { return Status(); }
  static Status InvalidArgument(std::string msg) {
    return Status(StatusCode::kInvalidArgument, std::move(msg));
  }
  static Status NotFound(std::string msg) {
    return Status(StatusCode::kNotFound, std::move(msg));
  }
  static Status OutOfRange(std::string msg) {
    return Status(StatusCode::kOutOfRange, std::move(msg));
  }
  static Status FailedPrecondition(std::string msg) {
    return Status(StatusCode::kFailedPrecondition, std::move(msg));
  }
  /// A well-formed problem instance that provably has no solution
  /// (e.g. k > |S| in ADPaR).
  static Status Infeasible(std::string msg) {
    return Status(StatusCode::kInfeasible, std::move(msg));
  }
  /// Work withdrawn before it ran (e.g. Ticket::Cancel on a queued job).
  static Status Cancelled(std::string msg) {
    return Status(StatusCode::kCancelled, std::move(msg));
  }
  static Status Internal(std::string msg) {
    return Status(StatusCode::kInternal, std::move(msg));
  }
  /// Work abandoned because its caller-supplied deadline expired before it
  /// could finish (maps to HTTP 504 in the serving tier).
  static Status DeadlineExceeded(std::string msg) {
    return Status(StatusCode::kDeadlineExceeded, std::move(msg));
  }

  bool ok() const { return code_ == StatusCode::kOk; }
  StatusCode code() const { return code_; }
  const std::string& message() const { return message_; }

  /// "OK" or "<CodeName>: <message>".
  std::string ToString() const;

  /// Statuses compare by code and message (the wire codec round-trips both,
  /// so a decoded journal outcome equals the recorded one).
  bool operator==(const Status& other) const {
    return code_ == other.code_ && message_ == other.message_;
  }

 private:
  StatusCode code_;
  std::string message_;
};

/// Either a value of type T or an error Status. Analogous to
/// absl::StatusOr<T> / arrow::Result<T>.
template <typename T>
class Result {
 public:
  /// Implicit construction from a value (success).
  Result(T value) : value_(std::move(value)) {}  // NOLINT(runtime/explicit)
  /// Implicit construction from an error status. `status.ok()` is forbidden.
  Result(Status status) : status_(std::move(status)) {  // NOLINT
    assert(!status_.ok() && "Result constructed from OK status without value");
  }

  bool ok() const { return value_.has_value(); }
  const Status& status() const { return status_; }

  /// Access the contained value; must only be called when ok().
  const T& value() const& {
    assert(ok());
    return *value_;
  }
  T& value() & {
    assert(ok());
    return *value_;
  }
  T&& value() && {
    assert(ok());
    return std::move(*value_);
  }

  /// Returns the value or `fallback` when this holds an error.
  T value_or(T fallback) const {
    return ok() ? *value_ : std::move(fallback);
  }

  const T& operator*() const& { return value(); }
  T& operator*() & { return value(); }
  const T* operator->() const { return &value(); }
  T* operator->() { return &value(); }

 private:
  std::optional<T> value_;
  Status status_{Status::OK()};
};

/// Propagates an error Status from an expression, RocksDB-style.
#define STRATREC_RETURN_NOT_OK(expr)            \
  do {                                          \
    ::stratrec::Status _st = (expr);            \
    if (!_st.ok()) return _st;                  \
  } while (false)

}  // namespace stratrec

#endif  // STRATREC_COMMON_STATUS_H_
