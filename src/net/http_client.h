// Blocking HTTP/1.1 client for the serving tier's bench and tests. One
// keep-alive connection per HttpClient; RoundTrip frames a request,
// writes it, and blocks for the in-order response — exactly the shape a
// closed-loop load driver wants. SendRaw/ReadResponse exist for the
// transport tests, which need to put deliberately malformed bytes on the
// wire.
//
// Fault tolerance (PR 10): Connect takes socket timeouts (bounded connect,
// SO_RCVTIMEO/SO_SNDTIMEO on reads/writes), and RetryingHttpClient wraps
// the per-connection client with bounded retries under deterministic
// jittered exponential backoff — reconnecting after transport failures,
// honoring Retry-After on 429, and never retrying (or masking) a real
// application error. Neither class adds locking; use one per thread.
#ifndef STRATREC_NET_HTTP_CLIENT_H_
#define STRATREC_NET_HTTP_CLIENT_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>

#include "src/common/status.h"
#include "src/net/http.h"

namespace stratrec::net {

/// Socket-level timeouts of one connection. 0 = block forever (the
/// pre-fault-tolerance behavior, still the default).
struct ClientTimeouts {
  /// Bound on ::connect (non-blocking connect + poll when > 0).
  double connect_ms = 0.0;
  /// SO_RCVTIMEO: a response read stalled past this fails with kInternal
  /// ("read timed out"), leaving the connection unusable.
  double read_ms = 0.0;
  /// SO_SNDTIMEO, same contract for writes.
  double write_ms = 0.0;
};

class HttpClient {
 public:
  static Result<HttpClient> Connect(const std::string& host, uint16_t port,
                                    ClientTimeouts timeouts = {});

  /// Serialize + write + read one response. The connection stays usable
  /// afterwards unless the server answered `Connection: close`.
  Result<HttpResponse> RoundTrip(const HttpRequest& request);

  /// Raw-bytes escape hatch for malformed-input tests.
  Status SendRaw(std::string_view bytes);
  Result<HttpResponse> ReadResponse();
  /// Half-close the send side (the truncated-body signal).
  void FinishSending();

  /// Convenience builders for the /v1 endpoints.
  Result<HttpResponse> Get(const std::string& target);
  Result<HttpResponse> PostJson(const std::string& target, std::string body);

 private:
  explicit HttpClient(std::unique_ptr<HttpStream> stream)
      : stream_(std::move(stream)) {}
  std::unique_ptr<HttpStream> stream_;
};

/// Retry budget and backoff shape of one RetryingHttpClient.
struct RetryPolicy {
  /// Total tries per request, first attempt included. 1 disables retries.
  size_t max_attempts = 3;
  /// Exponential backoff: attempt n (0-based retry index) waits
  /// base_backoff_ms * 2^n, capped at max_backoff_ms, scaled by a
  /// deterministic jitter factor in [0.5, 1.0) derived from (seed, request
  /// sequence, attempt) — the same seed always produces the same wait
  /// schedule.
  double base_backoff_ms = 10.0;
  double max_backoff_ms = 250.0;
  uint64_t seed = 0;
  /// A 429 with Retry-After waits the hinted interval instead of the
  /// backoff curve, capped here (hints are whole seconds; benches cannot
  /// stall a sweep cell for the full hint).
  double retry_after_cap_ms = 1000.0;
  /// Socket timeouts applied to every (re)connect.
  ClientTimeouts timeouts{/*connect_ms=*/1000.0, /*read_ms=*/0.0,
                          /*write_ms=*/0.0};
};

/// HttpClient plus a retry loop: transport failures (connect refused, read
/// timeout, dropped connection) reconnect and retry up to
/// RetryPolicy::max_attempts; 429 responses retry after honoring
/// Retry-After. Everything else — including 5xx — returns to the caller
/// unretried, so injected-fault accounting (bench/chaos_serving.cc) never
/// has real errors masked by the client. Counters are cumulative across
/// requests; re-sends are counted only here, on the client side.
class RetryingHttpClient {
 public:
  RetryingHttpClient(std::string host, uint16_t port, RetryPolicy policy = {})
      : host_(std::move(host)), port_(port), policy_(policy) {}

  Result<HttpResponse> Get(const std::string& target);
  Result<HttpResponse> PostJson(const std::string& target, std::string body);

  /// Re-sends after a transport failure or 429 (cumulative).
  uint64_t retries() const { return retries_; }
  /// How many of those waits honored a Retry-After hint.
  uint64_t retry_after_waits() const { return retry_after_waits_; }

  /// The deterministic jittered wait before retry `attempt` (0-based) of
  /// request `sequence`. Exposed for the determinism test; Execute uses
  /// exactly this.
  static double BackoffMs(const RetryPolicy& policy, uint64_t sequence,
                          size_t attempt);

 private:
  Result<HttpResponse> Execute(const HttpRequest& request);

  std::string host_;
  uint16_t port_;
  RetryPolicy policy_;
  std::optional<HttpClient> connection_;
  uint64_t sequence_ = 0;
  uint64_t retries_ = 0;
  uint64_t retry_after_waits_ = 0;
};

}  // namespace stratrec::net

#endif  // STRATREC_NET_HTTP_CLIENT_H_
