#pragma once
// The micro benches' rounds runner (Rounds), with one steady clock
// (now_sec) and one host-steal reader. Standard library only, so a bench
// or test that needs nothing else links nothing for it.

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <numeric>
#include <string>
#include <vector>

namespace bluedove::benchutil {

/// Steady-clock seconds; benches time a span as the difference of two reads.
inline double now_sec() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// CPU seconds a hypervisor has run other guests on this host's virtual
/// cores since boot (the steal column of /proc/stat, read only); 0 where it
/// cannot be read.
inline double steal_seconds() {
  std::FILE* f = std::fopen("/proc/stat", "r");
  if (f == nullptr) return 0.0;
  unsigned long long v[8] = {};
  const int n = std::fscanf(f, "cpu %llu %llu %llu %llu %llu %llu %llu %llu",
                            &v[0], &v[1], &v[2], &v[3], &v[4], &v[5], &v[6],
                            &v[7]);
  std::fclose(f);
  return n == 8 ? static_cast<double>(v[7]) /
                      static_cast<double>(sysconf(_SC_CLK_TCK))
                : 0.0;
}

/// Value at quantile `q` in [0, 1] of a non-empty sample, interpolating
/// linearly between ranks.
inline double quantile(std::vector<double> v, double q) {
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

/// Median and quartiles of a sample.
struct Quartiles {
  double median = 0.0, q1 = 0.0, q3 = 0.0;
};

inline Quartiles quartiles(const std::vector<double>& v) {
  return {quantile(v, 0.5), quantile(v, 0.25), quantile(v, 0.75)};
}

/// Rounds every micro bench runs its cells for: one run of a cell swings
/// wider than the changes the benches are read for.
inline constexpr int kRounds = 10;

/// One named measurement: each call runs it once and returns a rate
/// (higher is better), so ratios and wins read alike in every bench.
struct Cell {
  std::string name;
  std::function<double()> run;
};

/// The samples of kRounds rounds of a set of cells. Round r runs every
/// cell once, starting at cell r mod n and wrapping, so no cell always runs
/// first or after the same neighbour. A cell is read against the base
/// cell's sample from the same round, which cancels whatever slowed that
/// whole round. Each round's host steal is recorded; no round is dropped.
class Rounds {
 public:
  Rounds(std::vector<Cell> cells, const std::string& base)
      : cells_(std::move(cells)), samples_(cells_.size()) {
    base_ = index(base);
    const std::size_t n = cells_.size();
    for (int r = 0; r < kRounds; ++r) {
      const double steal0 = steal_seconds();
      for (std::size_t i = 0; i < n; ++i) {
        const std::size_t c = (static_cast<std::size_t>(r) + i) % n;
        samples_[c].push_back(cells_[c].run());
      }
      steal_.push_back(steal_seconds() - steal0);
    }
  }

  /// Samples of cell `name`, by round.
  const std::vector<double>& samples(const std::string& name) const {
    return samples_[index(name)];
  }
  Quartiles cell(const std::string& name) const {
    return quartiles(samples(name));
  }
  /// Quartiles of the per-round ratios of cell `name` to the base cell.
  Quartiles ratio(const std::string& name) const {
    return quartiles(ratios(name));
  }
  /// Rounds in which cell `name` beat the base cell.
  int wins(const std::string& name) const {
    const std::vector<double> r = ratios(name);
    return static_cast<int>(
        std::count_if(r.begin(), r.end(), [](double x) { return x > 1.0; }));
  }
  double steal_total() const {
    return std::accumulate(steal_.begin(), steal_.end(), 0.0);
  }

  /// Prints one row per cell (median, quartiles and, except for the base
  /// itself, median ratio to the base and rounds won) and the rounds' host
  /// steal.
  void print(const char* unit) const {
    std::printf("%-16s %14s %14s %14s %9s %6s\n", "cell",
                (std::string("median ") + unit).c_str(), "q1", "q3",
                "vs base", "wins");
    for (const Cell& c : cells_) {
      const Quartiles q = cell(c.name);
      std::printf("%-16s %14.0f %14.0f %14.0f", c.name.c_str(), q.median,
                  q.q1, q.q3);
      if (&c != &cells_[base_]) {
        std::printf(" %8.3fx %3d/%-2d", ratio(c.name).median, wins(c.name),
                    kRounds);
      }
      std::printf("\n");
    }
    std::printf("host steal over %d rounds: %.2f s (worst round %.2f s)\n",
                kRounds, steal_total(),
                *std::max_element(steal_.begin(), steal_.end()));
  }

 private:
  std::size_t index(const std::string& name) const {
    for (std::size_t i = 0; i < cells_.size(); ++i) {
      if (cells_[i].name == name) return i;
    }
    std::fprintf(stderr, "benchutil::Rounds: no cell %s\n", name.c_str());
    std::abort();
  }
  std::vector<double> ratios(const std::string& name) const {
    const std::vector<double>& s = samples(name);
    std::vector<double> r(s.size());
    for (std::size_t i = 0; i < s.size(); ++i) {
      const double b = samples_[base_][i];
      r[i] = b > 0.0 ? s[i] / b : 0.0;
    }
    return r;
  }

  std::vector<Cell> cells_;
  std::vector<std::vector<double>> samples_;  ///< [cell][round]
  std::size_t base_ = 0;
  std::vector<double> steal_;  ///< [round]
};

}  // namespace bluedove::benchutil
