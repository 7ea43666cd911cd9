#include "common/stats.h"

#include <algorithm>
#include <cmath>

namespace bluedove {

void OnlineStats::add(double x) {
  if (n_ == 0) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++n_;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(n_);
  m2_ += delta * (x - mean_);
}

void OnlineStats::merge(const OnlineStats& other) {
  if (other.n_ == 0) return;
  if (n_ == 0) {
    *this = other;
    return;
  }
  const double na = static_cast<double>(n_);
  const double nb = static_cast<double>(other.n_);
  const double delta = other.mean_ - mean_;
  const double total = na + nb;
  mean_ += delta * nb / total;
  m2_ += other.m2_ + delta * delta * na * nb / total;
  n_ += other.n_;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
}

void OnlineStats::reset() { *this = OnlineStats{}; }

double OnlineStats::variance() const {
  return n_ ? m2_ / static_cast<double>(n_) : 0.0;
}

double OnlineStats::stdev() const { return std::sqrt(variance()); }

double OnlineStats::normalized_stdev() const {
  return mean() != 0.0 ? stdev() / mean() : 0.0;
}

}  // namespace bluedove
