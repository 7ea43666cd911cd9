#pragma once
// Response-time accounting. The paper's response time is the duration from
// a message's arrival at a dispatcher to its return to interested
// subscribers; the tracker ingests one sample per matched message and keeps
// whole-run mean/variance, a resettable window for per-interval figures,
// and a log-bucketed histogram for percentiles (merged into cluster
// snapshots as sink.response_seconds).

#include <cstdint>

#include "common/stats.h"
#include "obs/metrics.h"

namespace bluedove {

class ResponseTracker {
 public:
  /// Records one completed message's response time `rt` (seconds).
  void add(double rt);

  std::uint64_t count() const { return overall_.count(); }
  const OnlineStats& overall() const { return overall_; }
  /// q in [0, 1], within the histogram's ~3% bucket resolution.
  double quantile(double q) const { return hist_.snapshot().quantile(q); }
  const obs::LatencyHistogram& histogram() const { return hist_; }

  /// Statistics accumulated since the previous window() call (for ladder
  /// probes that inspect each rate step separately).
  OnlineStats window();

 private:
  OnlineStats overall_;
  OnlineStats window_;
  obs::LatencyHistogram hist_;
};

}  // namespace bluedove
