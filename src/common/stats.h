#pragma once
// Streaming mean/variance used by the metrics subsystem and benches.

#include <cstddef>

namespace bluedove {

/// Welford online mean/variance accumulator.
class OnlineStats {
 public:
  void add(double x);
  void merge(const OnlineStats& other);
  void reset();

  std::size_t count() const { return n_; }
  double mean() const { return n_ ? mean_ : 0.0; }
  double variance() const;  ///< population variance
  double stdev() const;
  double min() const { return n_ ? min_ : 0.0; }
  double max() const { return n_ ? max_ : 0.0; }
  double sum() const { return n_ ? mean_ * static_cast<double>(n_) : 0.0; }
  /// Coefficient of variation (stdev / mean), the "normalized standard
  /// deviation" the paper reports for Fig 8. Zero when the mean is zero.
  double normalized_stdev() const;

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

}  // namespace bluedove
