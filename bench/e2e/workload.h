#pragma once
// Workload definitions and seeded inputs for the end-to-end benchmark.
//
// A workload fixes the subscription population, the message pool, the
// traced run's offered rate and the churn; only the seed varies between
// runs. Every expected delivery
// set is computed here, before any timing, by the in-tree LinearScanIndex
// oracle, so the verifier compares what clients received against an
// engine that shares no code with the matchers' FlatBucketIndex.

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "attr/subscription.h"

namespace bluedove::e2e {

inline constexpr std::size_t kDims = 4;
inline constexpr double kDomain = 1000.0;
/// Edge sessions the load generator drives; subscription i lives on session
/// i % kSessions.
inline constexpr std::size_t kSessions = 3;

struct WorkloadSpec {
  std::string name;
  std::size_t subs = 0;          ///< verified subscriptions
  double width = 250.0;          ///< predicate width on every dimension
  double sigma = 250.0;          ///< cropped-normal sigma of predicate centres
  double duplicate_skew = 0.0;   ///< template reuse (covering workloads)
  std::size_t templates = 1024;
  double jitter = 0.0;
  std::size_t payload = 128;     ///< bytes per published payload
  std::uint32_t max_fanout = 256;  ///< pool messages match 1..this many
  double rate = 0.0;             ///< traced run's open-loop rate, msgs/s
  std::size_t churn_every = 0;   ///< one replacement per this many messages
  std::size_t side_pool = 0;     ///< churned subscriptions (not verified)
};

/// The four benchmark workloads, in a fixed order.
const std::vector<WorkloadSpec>& workloads();
const WorkloadSpec* find_workload(const std::string& name);

/// Shrinks a workload for the smoke test: fewer subscriptions, half rate.
WorkloadSpec smoke_scale(WorkloadSpec spec);

/// Seeded inputs for one run.
struct Inputs {
  WorkloadSpec spec;
  std::vector<Subscription> subs;  ///< id = index + 1
  std::vector<Subscription> side;  ///< churn pool, same distribution

  /// Message pool: values of message p are values[p*kDims .. +kDims).
  /// Matching verified subscriptions (indices into subs) are
  /// expected[offsets[p] .. offsets[p+1]); never empty.
  std::vector<double> values;
  std::vector<std::uint32_t> offsets;
  std::vector<std::uint32_t> expected;
  std::vector<std::uint64_t> expected_hash;  ///< sum of delivery_hash()

  std::size_t pool_size() const { return offsets.size() - 1; }
  std::uint32_t expected_count(std::size_t p) const {
    return offsets[p + 1] - offsets[p];
  }
  double mean_expected() const {
    return static_cast<double>(expected.size()) /
           static_cast<double>(pool_size());
  }
};

/// Order-independent fingerprint term of one delivery to verified
/// subscription `sub` (an index into Inputs::subs). A message's delivered
/// set is correct when the count and the sum of these terms both match.
std::uint64_t delivery_hash(std::uint32_t sub);

/// Generates subscriptions and a message pool of `pool` messages, each with
/// 1..spec.max_fanout expected deliveries.
Inputs make_inputs(const WorkloadSpec& spec, std::uint64_t seed,
                   std::size_t pool);

}  // namespace bluedove::e2e
