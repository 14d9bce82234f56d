// Measurement primitives of the StratRec benchmark: the percentile rule, op
// accounting (what counts toward failed_frac), and in-memory spans with
// self time. Header-only so perfbench_driver and perfbench_selftest share one
// definition.
#ifndef STRATREC_PERFBENCH_MEASURE_H_
#define STRATREC_PERFBENCH_MEASURE_H_

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "src/common/json.h"
#include "src/common/status.h"
#include "src/net/http.h"

namespace perfbench {

// ---------------------------------------------------------------------------
// Percentiles
// ---------------------------------------------------------------------------

/// A tail percentile must rest on at least this many worse samples.
inline constexpr size_t kMinSamplesBeyond = 10;

/// Nearest-rank percentile (rank ceil(p * n), 1-based) of `samples`.
/// Refuses (nullopt) when fewer than kMinSamplesBeyond samples lie above the
/// chosen rank, so a p95 needs at least 200 samples and a p50 at least 20.
inline std::optional<double> Percentile(std::vector<double> samples,
                                        double p) {
  const size_t n = samples.size();
  if (n == 0 || p <= 0.0 || p > 1.0) return std::nullopt;
  const double rank = std::ceil(p * static_cast<double>(n));
  const size_t index =
      std::min(n - 1, static_cast<size_t>(std::max(rank, 1.0)) - 1);
  if (n - 1 - index < kMinSamplesBeyond) return std::nullopt;
  std::nth_element(samples.begin(),
                   samples.begin() + static_cast<std::ptrdiff_t>(index),
                   samples.end());
  return samples[index];
}

/// Plain median (mean of the middle pair for even sizes); 0 when empty. For
/// per-layer figures taken over a handful of serial replays.
inline double Median(std::vector<double> samples) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const size_t mid = samples.size() / 2;
  return samples.size() % 2 == 1 ? samples[mid]
                                 : 0.5 * (samples[mid - 1] + samples[mid]);
}

// ---------------------------------------------------------------------------
// Op accounting
// ---------------------------------------------------------------------------

/// How one op ended. Everything but kOk counts toward failed_frac.
enum class OpOutcome {
  kOk = 0,
  kTransportError,  ///< the HTTP round trip itself failed
  kBadStatus,       ///< HTTP status other than 200
  kErrorStatus,     ///< an in-process call returned an error Status
  kCheckFailed,     ///< completed, but its output check failed afterwards
};
inline constexpr size_t kOutcomeKinds = 5;

/// Classifies one HTTP round trip.
inline OpOutcome ClassifyHttp(const stratrec::Result<stratrec::net::HttpResponse>&
                                  response) {
  if (!response.ok()) return OpOutcome::kTransportError;
  return response->status_code == 200 ? OpOutcome::kOk : OpOutcome::kBadStatus;
}

/// Attempted / failed counts of one run.
class OpTally {
 public:
  void Record(OpOutcome outcome) { ++counts_[static_cast<size_t>(outcome)]; }
  /// An op already counted kOk failed its output check: move it over.
  void MarkCheckFailed() {
    if (counts_[0] == 0) return;
    --counts_[0];
    ++counts_[static_cast<size_t>(OpOutcome::kCheckFailed)];
  }
  void Merge(const OpTally& other) {
    for (size_t i = 0; i < kOutcomeKinds; ++i) counts_[i] += other.counts_[i];
  }

  size_t count(OpOutcome outcome) const {
    return counts_[static_cast<size_t>(outcome)];
  }
  size_t attempted() const {
    size_t total = 0;
    for (size_t c : counts_) total += c;
    return total;
  }
  size_t succeeded() const { return counts_[0]; }
  size_t failed() const { return attempted() - succeeded(); }
  double failed_frac() const {
    return attempted() == 0 ? 0.0
                            : static_cast<double>(failed()) /
                                  static_cast<double>(attempted());
  }

 private:
  std::array<size_t, kOutcomeKinds> counts_{};
};

// ---------------------------------------------------------------------------
// Spans
// ---------------------------------------------------------------------------

inline int64_t NowNanos() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// One timed interval at a layer boundary.
struct Span {
  std::string name;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int parent = -1;  ///< index into the trace, -1 for a root
  uint64_t op = 0;  ///< spans of one op share this id

  double duration_ms() const {
    return static_cast<double>(end_ns - start_ns) / 1e6;
  }
};

/// In-memory span store; thread-safe, written out once the run ends.
class Trace {
 public:
  int Begin(std::string name, uint64_t op, int parent = -1) {
    const int64_t now = NowNanos();
    std::lock_guard<std::mutex> lock(mutex_);
    spans_.push_back(Span{std::move(name), now, now, parent, op});
    return static_cast<int>(spans_.size() - 1);
  }
  /// Closes `span` and returns its duration in ms.
  double End(int span) {
    const int64_t now = NowNanos();
    std::lock_guard<std::mutex> lock(mutex_);
    Span& closed = spans_[static_cast<size_t>(span)];
    closed.end_ns = now;
    return closed.duration_ms();
  }
  /// Appends a finished span (tests, or intervals timed elsewhere).
  int Add(Span span) {
    std::lock_guard<std::mutex> lock(mutex_);
    spans_.push_back(std::move(span));
    return static_cast<int>(spans_.size() - 1);
  }

  /// Call only once every writer has finished.
  const std::vector<Span>& spans() const { return spans_; }

  /// Durations in ms of every span called `name`, in record order.
  std::vector<double> DurationsMs(const std::string& name) const {
    std::vector<double> out;
    for (const Span& span : spans_) {
      if (span.name == name) out.push_back(span.duration_ms());
    }
    return out;
  }

  /// Self time of every span in ms: its duration minus the part of its
  /// interval that its children cover (overlapping children count once).
  std::vector<double> SelfMs() const {
    std::vector<std::vector<std::pair<int64_t, int64_t>>> children(
        spans_.size());
    for (const Span& span : spans_) {
      if (span.parent >= 0) {
        children[static_cast<size_t>(span.parent)].emplace_back(span.start_ns,
                                                                span.end_ns);
      }
    }
    std::vector<double> self(spans_.size(), 0.0);
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& span = spans_[i];
      auto& kids = children[i];
      std::sort(kids.begin(), kids.end());
      int64_t covered = 0;
      int64_t cursor = span.start_ns;
      for (auto [start, end] : kids) {
        start = std::max(start, cursor);
        end = std::min(end, span.end_ns);
        if (end > start) {
          covered += end - start;
          cursor = end;
        }
      }
      self[i] = static_cast<double>(span.end_ns - span.start_ns - covered) /
                1e6;
    }
    return self;
  }

  /// {"spans": [{name, op, parent, start_ns, end_ns, self_ms}, ...]}.
  stratrec::json::Value ToJson() const {
    const std::vector<double> self = SelfMs();
    stratrec::json::Value list = stratrec::json::Value::Array();
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& span = spans_[i];
      stratrec::json::Value item = stratrec::json::Value::Object();
      item.Add("name", span.name);
      item.Add("op", static_cast<double>(span.op));
      item.Add("parent", static_cast<double>(span.parent));
      item.Add("start_ns", static_cast<double>(span.start_ns));
      item.Add("end_ns", static_cast<double>(span.end_ns));
      item.Add("self_ms", self[i]);
      list.Append(std::move(item));
    }
    stratrec::json::Value root = stratrec::json::Value::Object();
    root.Add("spans", std::move(list));
    return root;
  }

 private:
  std::mutex mutex_;
  std::vector<Span> spans_;
};

/// Runs `fn` inside a span and returns the span's duration in ms.
template <typename Fn>
double Timed(Trace* trace, std::string name, uint64_t op, int parent, Fn&& fn) {
  const int span = trace->Begin(std::move(name), op, parent);
  fn();
  return trace->End(span);
}

/// RAII span: Begin on construction, End on destruction.
class ScopedSpan {
 public:
  ScopedSpan(Trace* trace, std::string name, uint64_t op, int parent = -1)
      : trace_(trace), index_(trace->Begin(std::move(name), op, parent)) {}
  ~ScopedSpan() { trace_->End(index_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  int index() const { return index_; }

 private:
  Trace* trace_;
  int index_;
};

}  // namespace perfbench

#endif  // STRATREC_PERFBENCH_MEASURE_H_
