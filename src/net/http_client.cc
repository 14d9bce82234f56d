#include "src/net/http_client.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstring>
#include <thread>
#include <utility>

#include "src/common/rng.h"

namespace stratrec::net {

namespace {

// Responses carry full reports; keep the client cap comfortably above the
// server's request cap.
constexpr size_t kMaxResponseBody = 64 * 1024 * 1024;

timeval ToTimeval(double ms) {
  timeval tv{};
  tv.tv_sec = static_cast<time_t>(ms / 1000.0);
  tv.tv_usec = static_cast<suseconds_t>(
      (ms - static_cast<double>(tv.tv_sec) * 1000.0) * 1000.0);
  if (tv.tv_sec == 0 && tv.tv_usec == 0) tv.tv_usec = 1;
  return tv;
}

/// ::connect bounded by `connect_ms`: flip the socket non-blocking, start
/// the connect, poll for writability, read SO_ERROR, flip back.
Status BoundedConnect(int fd, const sockaddr_in& address, double connect_ms) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0 || ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) < 0) {
    return Status::Internal(std::string("fcntl failed: ") +
                            std::strerror(errno));
  }
  int rc = ::connect(fd, reinterpret_cast<const sockaddr*>(&address),
                     sizeof(address));
  if (rc != 0 && errno != EINPROGRESS) {
    return Status::Internal(std::string("connect failed: ") +
                            std::strerror(errno));
  }
  if (rc != 0) {
    pollfd pfd{fd, POLLOUT, 0};
    const int timeout_ms = std::max(1, static_cast<int>(connect_ms));
    const int ready = ::poll(&pfd, 1, timeout_ms);
    if (ready == 0) {
      return Status::Internal("connect timed out after " +
                              std::to_string(timeout_ms) + "ms");
    }
    if (ready < 0) {
      return Status::Internal(std::string("poll failed: ") +
                              std::strerror(errno));
    }
    int so_error = 0;
    socklen_t len = sizeof(so_error);
    if (::getsockopt(fd, SOL_SOCKET, SO_ERROR, &so_error, &len) != 0 ||
        so_error != 0) {
      return Status::Internal(std::string("connect failed: ") +
                              std::strerror(so_error != 0 ? so_error : errno));
    }
  }
  if (::fcntl(fd, F_SETFL, flags) < 0) {
    return Status::Internal(std::string("fcntl failed: ") +
                            std::strerror(errno));
  }
  return Status::OK();
}

/// True for failures worth a reconnect: anything the transport produced
/// (send/recv/connect errors, timeouts, severed connections). Application
/// decodes never reach here — RoundTrip only fails at the socket layer.
bool Retryable(const Status& status) { return !status.ok(); }

/// Parses a whole-seconds Retry-After value; nullopt when absent or
/// malformed (HTTP-date form is not produced by this serving tier).
std::optional<double> RetryAfterMs(const HttpResponse& response) {
  const std::string* value = response.FindHeader("Retry-After");
  if (value == nullptr || value->empty() ||
      value->find_first_not_of("0123456789") != std::string::npos ||
      value->size() > 6) {
    return std::nullopt;
  }
  return std::stod(*value) * 1000.0;
}

}  // namespace

Result<HttpClient> HttpClient::Connect(const std::string& host, uint16_t port,
                                       ClientTimeouts timeouts) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    return Status::Internal(std::string("socket() failed: ") +
                            std::strerror(errno));
  }
  sockaddr_in address{};
  address.sin_family = AF_INET;
  address.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &address.sin_addr) != 1) {
    ::close(fd);
    return Status::InvalidArgument("unparseable host address: " + host);
  }
  Status connected = Status::OK();
  if (timeouts.connect_ms > 0.0) {
    connected = BoundedConnect(fd, address, timeouts.connect_ms);
  } else if (::connect(fd, reinterpret_cast<const sockaddr*>(&address),
                       sizeof(address)) != 0) {
    connected = Status::Internal(std::string("connect failed: ") +
                                 std::strerror(errno));
  }
  if (!connected.ok()) {
    ::close(fd);
    return Status::Internal("connect(" + host + ":" + std::to_string(port) +
                            ") failed: " + connected.message());
  }
  if (timeouts.read_ms > 0.0) {
    const timeval tv = ToTimeval(timeouts.read_ms);
    ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  }
  if (timeouts.write_ms > 0.0) {
    const timeval tv = ToTimeval(timeouts.write_ms);
    ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));
  }
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return HttpClient(std::make_unique<HttpStream>(fd));
}

Result<HttpResponse> HttpClient::RoundTrip(const HttpRequest& request) {
  STRATREC_RETURN_NOT_OK(stream_->Write(SerializeRequest(request)));
  return stream_->ReadResponse(kMaxResponseBody);
}

Status HttpClient::SendRaw(std::string_view bytes) {
  return stream_->Write(bytes);
}

Result<HttpResponse> HttpClient::ReadResponse() {
  return stream_->ReadResponse(kMaxResponseBody);
}

void HttpClient::FinishSending() { stream_->ShutdownSend(); }

Result<HttpResponse> HttpClient::Get(const std::string& target) {
  HttpRequest request;
  request.method = "GET";
  request.target = target;
  return RoundTrip(request);
}

Result<HttpResponse> HttpClient::PostJson(const std::string& target,
                                          std::string body) {
  HttpRequest request;
  request.method = "POST";
  request.target = target;
  request.AddHeader("Content-Type", "application/json");
  request.body = std::move(body);
  return RoundTrip(request);
}

double RetryingHttpClient::BackoffMs(const RetryPolicy& policy,
                                     uint64_t sequence, size_t attempt) {
  const double exponential =
      policy.base_backoff_ms * std::pow(2.0, static_cast<double>(attempt));
  const double capped = std::min(exponential, policy.max_backoff_ms);
  const uint64_t h = SplitMix64(policy.seed ^ SplitMix64(sequence) ^
                                SplitMix64(0xa0761d6478bd642full + attempt));
  return capped * (0.5 + 0.5 * UnitFromBits(h));
}

Result<HttpResponse> RetryingHttpClient::Execute(const HttpRequest& request) {
  const uint64_t sequence = sequence_++;
  Status last = Status::OK();
  for (size_t attempt = 0; attempt < policy_.max_attempts; ++attempt) {
    if (attempt > 0) {
      ++retries_;
      std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(
          BackoffMs(policy_, sequence, attempt - 1)));
    }
    if (!connection_.has_value()) {
      auto connected = HttpClient::Connect(host_, port_, policy_.timeouts);
      if (!connected.ok()) {
        last = connected.status();
        continue;  // next attempt reconnects after backoff
      }
      connection_.emplace(std::move(*connected));
    }
    auto response = connection_->RoundTrip(request);
    if (!response.ok()) {
      last = response.status();
      if (!Retryable(last)) return last;
      connection_.reset();  // the socket is unusable after any read failure
      continue;
    }
    if (response->status_code == 429 && attempt + 1 < policy_.max_attempts) {
      // The admission controller said "later": honor the hint (capped) in
      // place of the next backoff step, then go around again.
      if (const std::optional<double> hint = RetryAfterMs(*response)) {
        ++retry_after_waits_;
        ++retries_;
        std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(
            std::min(*hint, policy_.retry_after_cap_ms)));
        if (const std::string* connection_header =
                response->FindHeader("Connection");
            connection_header != nullptr && *connection_header == "close") {
          connection_.reset();
        }
        // Resend without charging the loop's own backoff for this turn.
        auto retried = connection_.has_value()
                           ? connection_->RoundTrip(request)
                           : Result<HttpResponse>(
                                 Status::Internal("connection closed"));
        if (!retried.ok()) {
          last = retried.status();
          connection_.reset();
          continue;
        }
        if (retried->status_code != 429) return retried;
        response = std::move(retried);
      }
      last = Status::Internal("server answered 429 Too Many Requests");
      connection_.reset();
      continue;
    }
    // Every other status — success, 4xx, 5xx — belongs to the caller.
    return response;
  }
  return Status::Internal("request failed after " +
                             std::to_string(policy_.max_attempts) +
                             " attempts: " + last.message());
}

Result<HttpResponse> RetryingHttpClient::Get(const std::string& target) {
  HttpRequest request;
  request.method = "GET";
  request.target = target;
  return Execute(request);
}

Result<HttpResponse> RetryingHttpClient::PostJson(const std::string& target,
                                                  std::string body) {
  HttpRequest request;
  request.method = "POST";
  request.target = target;
  request.AddHeader("Content-Type", "application/json");
  request.body = std::move(body);
  return Execute(request);
}

}  // namespace stratrec::net
