// Self-test of the benchmark's own measurement rules (perfbench/measure.h):
// the tail-percentile refusal, self time from nested spans, and which op
// outcomes count toward failed_frac. Exits non-zero on the first failure.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "perfbench/measure.h"
#include "src/common/status.h"
#include "src/net/http.h"

namespace {

int failures = 0;

void Check(bool condition, const char* what) {
  if (!condition) {
    std::fprintf(stderr, "FAIL: %s\n", what);
    ++failures;
  }
}

bool Near(double a, double b) { return std::fabs(a - b) < 1e-9; }

std::vector<double> Ramp(size_t n) {
  std::vector<double> values;
  for (size_t i = n; i >= 1; --i) values.push_back(static_cast<double>(i));
  return values;  // n, n-1, ..., 1: unsorted on purpose
}

void TestPercentileRule() {
  // 200 samples: rank ceil(0.95 * 200) = 190 leaves exactly 10 beyond it.
  auto p95 = perfbench::Percentile(Ramp(200), 0.95);
  Check(p95.has_value() && Near(*p95, 190.0), "p95 of 200 samples is 190");
  // 199 samples: rank 190 leaves 9 beyond it -> refused.
  Check(!perfbench::Percentile(Ramp(199), 0.95).has_value(),
        "p95 of 199 samples is refused");
  Check(!perfbench::Percentile({}, 0.5).has_value(), "empty input is refused");
  auto p50 = perfbench::Percentile(Ramp(21), 0.50);
  Check(p50.has_value() && Near(*p50, 11.0), "p50 of 1..21 is 11");
  Check(perfbench::Percentile(Ramp(20), 0.50).has_value(),
        "p50 of 20 samples leaves 10 beyond it");
  Check(!perfbench::Percentile(Ramp(19), 0.50).has_value(),
        "p50 of 19 samples is refused");
  Check(Near(perfbench::Median({3.0, 1.0, 2.0, 4.0}), 2.5), "even median");
  Check(Near(perfbench::Median({}), 0.0), "empty median is 0");
}

void TestSelfTime() {
  perfbench::Trace trace;
  // root [0, 100] with children [10, 40] and [30, 60] (overlapping: cover
  // [10, 60] = 50) and [90, 120] (clipped to [90, 100] = 10); a grandchild
  // [15, 20] belongs to the first child only.
  const int ms = 1'000'000;
  const int root = trace.Add({"op", 0, 100LL * ms, -1, 7});
  const int a = trace.Add({"a", 10LL * ms, 40LL * ms, root, 7});
  trace.Add({"b", 30LL * ms, 60LL * ms, root, 7});
  trace.Add({"c", 90LL * ms, 120LL * ms, root, 7});
  trace.Add({"a.child", 15LL * ms, 20LL * ms, a, 7});
  const std::vector<double> self = trace.SelfMs();
  Check(Near(self[0], 40.0), "root self time excludes covered children");
  Check(Near(self[1], 25.0), "child self time excludes the grandchild");
  Check(Near(self[2], 30.0), "leaf self time is its duration");
  Check(Near(self[4], 5.0), "grandchild self time");
  Check(trace.DurationsMs("a").size() == 1 && Near(trace.DurationsMs("a")[0], 30.0),
        "durations by name");
}

void TestFailedFrac() {
  namespace net = stratrec::net;
  perfbench::OpTally tally;
  net::HttpResponse ok_response;
  ok_response.status_code = 200;
  net::HttpResponse not_found;
  not_found.status_code = 404;
  net::HttpResponse server_error;
  server_error.status_code = 500;
  const stratrec::Result<net::HttpResponse> transport_error =
      stratrec::Status::Internal("connection reset");

  for (int i = 0; i < 6; ++i) {
    tally.Record(perfbench::ClassifyHttp(
        stratrec::Result<net::HttpResponse>(ok_response)));
  }
  tally.Record(perfbench::ClassifyHttp(
      stratrec::Result<net::HttpResponse>(not_found)));
  tally.Record(perfbench::ClassifyHttp(
      stratrec::Result<net::HttpResponse>(server_error)));
  tally.Record(perfbench::ClassifyHttp(transport_error));
  tally.Record(perfbench::OpOutcome::kErrorStatus);
  Check(tally.attempted() == 10, "ten ops attempted");
  Check(tally.failed() == 4, "non-200, transport and error status fail");
  Check(tally.count(perfbench::OpOutcome::kBadStatus) == 2, "two non-200");
  Check(tally.count(perfbench::OpOutcome::kTransportError) == 1,
        "one transport error");
  // A completed op that fails its output check moves from ok to failed.
  tally.MarkCheckFailed();
  Check(tally.succeeded() == 5 && tally.failed() == 5,
        "a check failure moves an ok op to failed");
  Check(Near(tally.failed_frac(), 0.5), "failed_frac = failed / attempted");
  perfbench::OpTally empty;
  empty.MarkCheckFailed();
  Check(empty.attempted() == 0 && Near(empty.failed_frac(), 0.0),
        "no ops, no failures");
}

}  // namespace

int main() {
  TestPercentileRule();
  TestSelfTime();
  TestFailedFrac();
  if (failures > 0) {
    std::fprintf(stderr, "%d self-test failure(s)\n", failures);
    return 1;
  }
  std::printf("perfbench self-test passed\n");
  return 0;
}
