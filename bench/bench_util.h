#pragma once
// Shared helpers for the benches. Each figure-reproduction binary
// regenerates one figure (or the in-text overhead table) of the paper's
// evaluation section and prints the series as aligned text tables; the
// micro benches time their cells through the rounds runner in rounds.h.
//
// Scaling note: the paper's testbed is 22 four-core VMs with 40,000
// subscriptions and rates above 100k msgs/sec; the benches default to 8,000
// subscriptions so each binary finishes in minutes on one host. Absolute
// rates therefore differ from the paper; the comparisons (who wins, how
// ratios move with cluster size and skew) are the reproduced result.

#include <cstdio>
#include <string>

#include "harness/experiment.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "rounds.h"

namespace bluedove::benchutil {

/// Baseline experiment configuration shared by the figure benches.
inline ExperimentConfig default_config() {
  ExperimentConfig cfg;
  cfg.dims = 4;
  cfg.domain_length = 1000.0;
  cfg.subscriptions = 8000;
  cfg.predicate_width = 250.0;
  cfg.sub_sigma = 250.0;
  cfg.matchers = 20;
  cfg.dispatchers = 2;
  cfg.cores = 4;
  cfg.seed = 2011;  // IPDPS 2011
  return cfg;
}

/// Probe options tuned for bench runtime (short warmup/measure windows).
inline Deployment::ProbeOptions default_probe() {
  Deployment::ProbeOptions probe;
  probe.start_rate = 2000.0;
  probe.growth = 1.7;
  probe.warmup = 2.0;
  probe.measure = 6.0;
  probe.refine_steps = 3;
  return probe;
}

/// Builds a deployment, loads subscriptions and returns its saturation rate.
inline double saturation_rate(ExperimentConfig cfg,
                              Deployment::ProbeOptions probe) {
  Deployment dep(std::move(cfg));
  dep.start();
  return dep.find_saturation_rate(probe);
}

inline void header(const char* fig, const char* title) {
  std::printf("=============================================================\n");
  std::printf("%s: %s\n", fig, title);
  std::printf("=============================================================\n");
}

inline void note(const std::string& text) {
  std::printf("note: %s\n", text.c_str());
}

/// Writes `q` as gauges `key`, `key_q1` and `key_q3`.
inline void put(obs::MetricsSnapshot& snap, const std::string& key,
                const Quartiles& q) {
  snap.gauges[key] = q.median;
  snap.gauges[key + "_q1"] = q.q1;
  snap.gauges[key + "_q3"] = q.q3;
}

/// Writes `snap` to BENCH_<name>.json in the working directory (the obs
/// JSON schema, so downstream tooling parses bench output and live-cluster
/// scrapes the same way). The snapshot typically carries the bench's
/// headline numbers as gauges plus any latency histograms.
inline void write_bench_json(const std::string& name,
                             const obs::MetricsSnapshot& snap) {
  const std::string path = "BENCH_" + name + ".json";
  if (obs::write_json_file(path, snap)) {
    std::printf("bench metrics written to %s\n", path.c_str());
  } else {
    std::fprintf(stderr, "failed to write %s\n", path.c_str());
  }
}

}  // namespace bluedove::benchutil
