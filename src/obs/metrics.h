#pragma once
// Observability primitives: named counters, gauges and log-bucketed latency
// histograms collected in a per-node MetricsRegistry.
//
// Hot-path updates are single relaxed atomic operations, so nodes can stamp
// every message without locks; registration (name lookup) takes a mutex and
// is meant to happen once, at node construction, with the returned pointer
// cached. Snapshots read the atomics without stopping writers and can be
// merged across nodes — counters and histogram buckets add, gauges add too
// (a cluster-wide queue depth is the sum of the per-node depths). Under the
// sim clock every recorded value derives from virtual time, so snapshots
// are bit-deterministic run-to-run.

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include "common/thread_safety.h"
#include <string>
#include <vector>

namespace bluedove::obs {

/// Monotonic event count.
class Counter {
 public:
  void inc(std::uint64_t n = 1) { v_.fetch_add(n, std::memory_order_relaxed); }
  std::uint64_t value() const { return v_.load(std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> v_{0};
};

/// Last-written level (queue depth, segment width, rate estimate...).
class Gauge {
 public:
  void set(double v) { v_.store(v, std::memory_order_relaxed); }
  void add(double d) {
    double cur = v_.load(std::memory_order_relaxed);
    while (!v_.compare_exchange_weak(cur, cur + d, std::memory_order_relaxed)) {
    }
  }
  /// Raises the gauge to `v` if it is below it (high-water marks).
  void record_max(double v) {
    double cur = v_.load(std::memory_order_relaxed);
    while (cur < v &&
           !v_.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
    }
  }
  double value() const { return v_.load(std::memory_order_relaxed); }

 private:
  std::atomic<double> v_{0.0};
};

/// Point-in-time copy of one histogram; plain data, mergeable, and the unit
/// the exporters serialize.
struct HistogramSnapshot {
  std::vector<std::uint64_t> counts;  ///< dense bucket counts, trailing zeros trimmed
  std::uint64_t count = 0;            ///< total recorded values
  std::uint64_t sum_units = 0;        ///< sum of recorded values, in units
  double unit = 1e-9;                 ///< seconds per unit (default: nanoseconds)

  /// q in [0,1]; log-linear interpolation inside the hit bucket. 0 if empty.
  double quantile(double q) const;
  double mean() const {
    return count ? unit * static_cast<double>(sum_units) /
                       static_cast<double>(count)
                 : 0.0;
  }
  void merge(const HistogramSnapshot& other);

  friend bool operator==(const HistogramSnapshot& a,
                         const HistogramSnapshot& b) {
    return a.counts == b.counts && a.count == b.count &&
           a.sum_units == b.sum_units && a.unit == b.unit;
  }
};

/// Log-bucketed (HDR-style) latency histogram. Values are mapped to integer
/// nanoseconds and bucketed by a power-of-two exponent with kSubBits linear
/// sub-buckets per octave, giving a fixed ~3% relative error across nine
/// decades for ~15 KB of atomics. record() is one index computation plus
/// three relaxed increments — safe from any thread.
class LatencyHistogram {
 public:
  static constexpr int kSubBits = 5;  ///< 32 sub-buckets per power of two
  static constexpr std::size_t kBuckets =
      (64 - kSubBits + 1) << kSubBits;  ///< covers the full u64 range of units

  /// Records `seconds` `n` times over with one update of each counter, so
  /// a batch that shares one wait costs what a single value does.
  void record(double seconds, std::uint64_t n = 1);
  /// Records a pre-scaled integer value (already in units).
  void record_units(std::uint64_t units, std::uint64_t n = 1);

  std::uint64_t count() const { return count_.load(std::memory_order_relaxed); }
  HistogramSnapshot snapshot() const;

  static std::size_t bucket_index(std::uint64_t units);
  /// Midpoint value (in units) of the bucket at `index`.
  static double bucket_mid(std::size_t index);
  static double bucket_lo(std::size_t index);
  static double bucket_hi(std::size_t index);

 private:
  std::array<std::atomic<std::uint64_t>, kBuckets> counts_{};
  std::atomic<std::uint64_t> count_{0};
  std::atomic<std::uint64_t> sum_units_{0};
};

/// Point-in-time copy of a whole registry. Ordered maps keep exports and
/// comparisons deterministic.
struct MetricsSnapshot {
  std::map<std::string, std::uint64_t> counters;
  std::map<std::string, double> gauges;
  std::map<std::string, HistogramSnapshot> histograms;

  /// Element-wise accumulate: counters/histograms/gauges all add.
  void merge(const MetricsSnapshot& other);

  /// Copy of this snapshot with `prefix` prepended to every metric name.
  /// Substrates use it to fold per-node registries (a node's exec.* pool
  /// instruments) into one cluster snapshot without name collisions.
  MetricsSnapshot prefixed(const std::string& prefix) const;

  friend bool operator==(const MetricsSnapshot& a, const MetricsSnapshot& b) {
    return a.counters == b.counters && a.gauges == b.gauges &&
           a.histograms == b.histograms;
  }
};

/// Named metric directory. Instruments are created on first lookup and live
/// as long as the registry, so cached pointers stay valid.
class MetricsRegistry {
 public:
  Counter& counter(const std::string& name) BD_EXCLUDES(mu_);
  Gauge& gauge(const std::string& name) BD_EXCLUDES(mu_);
  LatencyHistogram& histogram(const std::string& name) BD_EXCLUDES(mu_);

  MetricsSnapshot snapshot() const BD_EXCLUDES(mu_);

 private:
  mutable bd::Mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>> counters_ BD_GUARDED_BY(mu_);
  std::map<std::string, std::unique_ptr<Gauge>> gauges_ BD_GUARDED_BY(mu_);
  std::map<std::string, std::unique_ptr<LatencyHistogram>> histograms_
      BD_GUARDED_BY(mu_);
};

}  // namespace bluedove::obs
