#pragma once
// Invariant auditor: runtime-checkable structural invariants with violation
// counters, fail-fast mode, and the determinism digest.
//
// The auditor is always compiled; what BLUEDOVE_AUDIT (the CMake option /
// compile definition) changes is the *default* of the process-wide enable
// switch, so a release tree pays one relaxed atomic load per check site
// while the audit build (and any test that flips the switch at runtime)
// gets full enforcement. A violation increments the per-invariant counter
// and logs; fail-fast mode aborts instead — that is what the audit CI job
// runs with, so an invariant break fails the pipeline rather than
// scrolling by.
//
// Invariant catalogue (see DESIGN.md §11):
//   kSegment        segment tables partition each dimension's attribute
//                   space: sorted, non-overlapping, gap-free, covering the
//                   domain (checked locally at split/merge, globally at
//                   harness quiesce points)
//   kGossipVersion  a gossip endpoint's (generation, version) never moves
//                   backwards in a local table
//   kQueueAccounting  bounded-queue stats close: enqueued - dequeued ==
//                   depth, 0 <= depth <= high_water
//   kSimdKernel     a vectorized match probe agrees with the scalar
//                   reference kernel (sampled differential cross-check in
//                   FlatBucketIndex::probe whenever a wide kernel is
//                   active)
//   kCover          a covered match (compressed representative probe +
//                   delivery-time expansion) agrees with a brute-force
//                   replay against the raw uncovered subscription set
//                   (sampled differential in MatcherNode::complete_batch
//                   when covering is enabled)
//
// The determinism digest is the complementary whole-run check: the
// simulator hashes its delivered event stream (time, endpoints, payload
// kind, wire size) into one 64-bit value, so two same-seed runs can be
// compared byte-for-byte by tools/determinism_check.sh.

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "attr/value.h"
#include "common/types.h"

namespace bluedove::obs {

/// The values are fixed (violation counters are indexed by them), so a
/// removed kind leaves a gap.
enum class AuditKind : int {
  kSegment = 0,
  kGossipVersion = 1,
  kQueueAccounting = 3,
  kSimdKernel = 4,
  kCover = 5,
  kCount = 6,
};

const char* to_string(AuditKind kind);

class Audit {
 public:
  /// Checks fire only while enabled. Defaults to true when the tree was
  /// compiled with -DBLUEDOVE_AUDIT, false otherwise.
  static bool enabled();
  static void set_enabled(bool on);

  /// Abort the process on any violation (after logging it).
  static bool fail_fast();
  static void set_fail_fast(bool on);

  static std::uint64_t violations(AuditKind kind);
  static std::uint64_t total_violations();
  static void reset();

  /// Records one violation: counts it, logs `detail`, aborts in fail-fast
  /// mode. Call sites normally go through BD_AUDIT instead.
  static void report(AuditKind kind, const std::string& detail);
};

/// Audits `cond`; on failure reports one `kind` violation with `detail`
/// (any expression convertible to std::string). Evaluates neither `cond`
/// nor `detail` while the auditor is disabled.
#define BD_AUDIT(kind, cond, detail)                        \
  do {                                                      \
    if (::bluedove::obs::Audit::enabled() && !(cond)) {     \
      ::bluedove::obs::Audit::report((kind), (detail));     \
    }                                                       \
  } while (0)

// --- invariant check functions ---------------------------------------------

/// Checks that `segments` (one per live owner of a dimension) partition
/// `domain`: after sorting by lower bound they must be non-empty,
/// non-overlapping, gap-free and cover [domain.lo, domain.hi). Returns one
/// human-readable string per violation (empty == invariant holds). Pure —
/// reporting is the caller's choice.
std::vector<std::string> segment_partition_violations(
    const Range& domain, std::vector<Range> segments);

/// Runs segment_partition_violations and reports each violation under
/// kSegment, prefixed with `where`. Returns the violation count.
std::size_t audit_segment_partition(const char* where, const Range& domain,
                                    std::vector<Range> segments);

/// Split-local invariant: `lower` and `upper` are non-empty halves that
/// exactly re-assemble `whole`. Reports under kSegment; returns true when
/// the invariant holds (or the auditor is disabled).
bool audit_split(const char* where, const Range& whole, const Range& lower,
                 const Range& upper);

/// Merge-local invariant: `merged` extends `mine` on exactly one side by
/// the departing neighbour's non-empty `theirs` share. Reports under
/// kSegment; returns true when the invariant holds (or auditing is off).
bool audit_merge(const char* where, const Range& mine, const Range& merged);

/// Queue accounting closure over a stats block snapshot. Reports under
/// kQueueAccounting with `name`; returns the violation count.
std::size_t audit_queue_accounting(const char* name, std::int64_t depth,
                                   std::int64_t high_water,
                                   std::uint64_t enqueued,
                                   std::uint64_t dequeued);

// --- determinism digest ------------------------------------------------------

/// Order-sensitive FNV-1a accumulator over a run's event stream. Two
/// simulations that executed the same events in the same order at the same
/// virtual times produce the same value; any divergence — one message, one
/// reordering, one timestamp — changes it.
class DeterminismDigest {
 public:
  void mix(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      hash_ ^= (v >> (i * 8)) & 0xff;
      hash_ *= kPrime;
    }
  }
  void mix_double(double d) {
    std::uint64_t bits;
    static_assert(sizeof bits == sizeof d);
    __builtin_memcpy(&bits, &d, sizeof bits);
    mix(bits);
  }

  std::uint64_t value() const { return hash_; }
  void reset() { hash_ = kOffset; }

 private:
  static constexpr std::uint64_t kOffset = 0xcbf29ce484222325ull;
  static constexpr std::uint64_t kPrime = 0x100000001b3ull;
  std::uint64_t hash_ = kOffset;
};

}  // namespace bluedove::obs
