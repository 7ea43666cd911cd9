#include "obs/metrics.h"

#include <algorithm>
#include <bit>
#include <cmath>

namespace bluedove::obs {

// ---------------------------------------------------------------------------
// LatencyHistogram
// ---------------------------------------------------------------------------

std::size_t LatencyHistogram::bucket_index(std::uint64_t units) {
  if (units < (1ULL << kSubBits)) return static_cast<std::size_t>(units);
  const int msb = 63 - std::countl_zero(units);
  const int shift = msb - kSubBits;
  // (units >> shift) lands in [2^kSubBits, 2^(kSubBits+1)): the sub-bucket
  // is its low kSubBits bits, the octave is `shift + 1`.
  const auto sub = static_cast<std::size_t>((units >> shift) & ((1ULL << kSubBits) - 1));
  return (static_cast<std::size_t>(shift + 1) << kSubBits) + sub;
}

double LatencyHistogram::bucket_lo(std::size_t index) {
  const std::size_t octave = index >> kSubBits;
  const std::size_t sub = index & ((1ULL << kSubBits) - 1);
  if (octave == 0) return static_cast<double>(sub);
  const int shift = static_cast<int>(octave) - 1;
  return std::ldexp(static_cast<double>((1ULL << kSubBits) + sub), shift);
}

double LatencyHistogram::bucket_hi(std::size_t index) {
  const std::size_t octave = index >> kSubBits;
  if (octave == 0) return bucket_lo(index) + 1.0;
  return bucket_lo(index) + std::ldexp(1.0, static_cast<int>(octave) - 1);
}

double LatencyHistogram::bucket_mid(std::size_t index) {
  return 0.5 * (bucket_lo(index) + bucket_hi(index));
}

void LatencyHistogram::record(double seconds, std::uint64_t n) {
  const double ns = seconds * 1e9;
  std::uint64_t units = 0;
  if (ns >= 1.0) {
    units = ns >= 1.8e19 ? ~0ULL : static_cast<std::uint64_t>(std::llround(ns));
  }
  record_units(units, n);
}

void LatencyHistogram::record_units(std::uint64_t units, std::uint64_t n) {
  if (n == 0) return;
  counts_[bucket_index(units)].fetch_add(n, std::memory_order_relaxed);
  count_.fetch_add(n, std::memory_order_relaxed);
  sum_units_.fetch_add(units * n, std::memory_order_relaxed);
}

HistogramSnapshot LatencyHistogram::snapshot() const {
  HistogramSnapshot snap;
  snap.count = count_.load(std::memory_order_relaxed);
  snap.sum_units = sum_units_.load(std::memory_order_relaxed);
  std::size_t last = 0;
  snap.counts.resize(kBuckets, 0);
  for (std::size_t i = 0; i < kBuckets; ++i) {
    const std::uint64_t c = counts_[i].load(std::memory_order_relaxed);
    snap.counts[i] = c;
    if (c != 0) last = i + 1;
  }
  snap.counts.resize(last);
  return snap;
}

double HistogramSnapshot::quantile(double q) const {
  if (count == 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  // Rank of the q-th value among `count` recorded values (1-based).
  const auto rank = static_cast<std::uint64_t>(
      std::ceil(q * static_cast<double>(count)));
  const std::uint64_t target = std::max<std::uint64_t>(rank, 1);
  std::uint64_t seen = 0;
  for (std::size_t i = 0; i < counts.size(); ++i) {
    const std::uint64_t c = counts[i];
    if (c == 0) continue;
    if (seen + c >= target) {
      // Interpolate linearly inside the bucket by the rank's position in it.
      const double frac =
          static_cast<double>(target - seen) / static_cast<double>(c);
      const double lo = LatencyHistogram::bucket_lo(i);
      const double hi = LatencyHistogram::bucket_hi(i);
      return unit * (lo + frac * (hi - lo));
    }
    seen += c;
  }
  return unit * LatencyHistogram::bucket_hi(counts.empty() ? 0
                                                           : counts.size() - 1);
}

void HistogramSnapshot::merge(const HistogramSnapshot& other) {
  if (other.counts.size() > counts.size()) counts.resize(other.counts.size(), 0);
  for (std::size_t i = 0; i < other.counts.size(); ++i) {
    counts[i] += other.counts[i];
  }
  count += other.count;
  sum_units += other.sum_units;
}

// ---------------------------------------------------------------------------
// MetricsRegistry
// ---------------------------------------------------------------------------

Counter& MetricsRegistry::counter(const std::string& name) {
  bd::LockGuard lock(mu_);
  auto& slot = counters_[name];
  if (slot == nullptr) slot = std::make_unique<Counter>();
  return *slot;
}

Gauge& MetricsRegistry::gauge(const std::string& name) {
  bd::LockGuard lock(mu_);
  auto& slot = gauges_[name];
  if (slot == nullptr) slot = std::make_unique<Gauge>();
  return *slot;
}

LatencyHistogram& MetricsRegistry::histogram(const std::string& name) {
  bd::LockGuard lock(mu_);
  auto& slot = histograms_[name];
  if (slot == nullptr) slot = std::make_unique<LatencyHistogram>();
  return *slot;
}

MetricsSnapshot MetricsRegistry::snapshot() const {
  MetricsSnapshot snap;
  bd::LockGuard lock(mu_);
  for (const auto& [name, c] : counters_) snap.counters[name] = c->value();
  for (const auto& [name, g] : gauges_) snap.gauges[name] = g->value();
  for (const auto& [name, h] : histograms_) snap.histograms[name] = h->snapshot();
  return snap;
}

void MetricsSnapshot::merge(const MetricsSnapshot& other) {
  for (const auto& [name, v] : other.counters) counters[name] += v;
  for (const auto& [name, v] : other.gauges) gauges[name] += v;
  for (const auto& [name, h] : other.histograms) histograms[name].merge(h);
}

MetricsSnapshot MetricsSnapshot::prefixed(const std::string& prefix) const {
  MetricsSnapshot out;
  for (const auto& [name, v] : counters) out.counters[prefix + name] = v;
  for (const auto& [name, v] : gauges) out.gauges[prefix + name] = v;
  for (const auto& [name, h] : histograms) out.histograms[prefix + name] = h;
  return out;
}

}  // namespace bluedove::obs
