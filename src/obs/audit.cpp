#include "obs/audit.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdlib>
#include <sstream>

#include "common/logging.h"
#include "obs/trace_export.h"

namespace bluedove::obs {

namespace {

#ifdef BLUEDOVE_AUDIT
constexpr bool kDefaultEnabled = true;
#else
constexpr bool kDefaultEnabled = false;
#endif

std::atomic<bool> g_enabled{kDefaultEnabled};
std::atomic<bool> g_fail_fast{false};
std::array<std::atomic<std::uint64_t>, static_cast<int>(AuditKind::kCount)>
    g_violations{};

/// Segment boundaries produced by repeated midpoint/median splits drift by
/// floating-point rounding; two segments abut when their facing bounds are
/// within this tolerance (matches the kEps the merge path already uses).
constexpr double kEps = 1e-9;

bool close(double a, double b) { return std::fabs(a - b) < kEps; }

std::string fmt_range(const Range& r) {
  std::ostringstream os;
  os << r;
  return os.str();
}

}  // namespace

const char* to_string(AuditKind kind) {
  switch (kind) {
    case AuditKind::kSegment:
      return "segment";
    case AuditKind::kGossipVersion:
      return "gossip-version";
    case AuditKind::kQueueAccounting:
      return "queue-accounting";
    case AuditKind::kSimdKernel:
      return "simd-kernel";
    case AuditKind::kCover:
      return "cover";
    default:
      return "unknown";
  }
}

bool Audit::enabled() { return g_enabled.load(std::memory_order_relaxed); }
void Audit::set_enabled(bool on) {
  g_enabled.store(on, std::memory_order_relaxed);
}

bool Audit::fail_fast() {
  return g_fail_fast.load(std::memory_order_relaxed);
}
void Audit::set_fail_fast(bool on) {
  g_fail_fast.store(on, std::memory_order_relaxed);
}

std::uint64_t Audit::violations(AuditKind kind) {
  return g_violations[static_cast<int>(kind)].load(std::memory_order_relaxed);
}

std::uint64_t Audit::total_violations() {
  std::uint64_t total = 0;
  for (const auto& v : g_violations) {
    total += v.load(std::memory_order_relaxed);
  }
  return total;
}

void Audit::reset() {
  for (auto& v : g_violations) v.store(0, std::memory_order_relaxed);
}

void Audit::report(AuditKind kind, const std::string& detail) {
  g_violations[static_cast<int>(kind)].fetch_add(1, std::memory_order_relaxed);
  BD_ERROR("audit violation [", to_string(kind), "] ", detail);
  if (g_fail_fast.load(std::memory_order_relaxed)) {
    // Last act before dying: dump the flight recorder so the window of
    // activity leading up to the violation survives the abort
    // (DESIGN.md §13). BLUEDOVE_TRACE_PATH overrides the destination.
    const char* path = std::getenv("BLUEDOVE_TRACE_PATH");
    if (write_perfetto_file(path != nullptr ? path
                                            : "bluedove_audit_trace.json")) {
      BD_ERROR("audit fail-fast: flight-recorder trace written to ",
               path != nullptr ? path : "bluedove_audit_trace.json");
    }
    std::abort();
  }
}

// ---------------------------------------------------------------------------
// Segment-table invariants
// ---------------------------------------------------------------------------

std::vector<std::string> segment_partition_violations(
    const Range& domain, std::vector<Range> segments) {
  std::vector<std::string> out;
  if (segments.empty()) {
    out.push_back("no segments cover domain " + fmt_range(domain));
    return out;
  }
  std::sort(segments.begin(), segments.end(),
            [](const Range& a, const Range& b) { return a.lo < b.lo; });
  for (const Range& s : segments) {
    if (s.empty()) out.push_back("empty segment " + fmt_range(s));
  }
  if (!close(segments.front().lo, domain.lo)) {
    out.push_back("lower edge uncovered: first segment " +
                  fmt_range(segments.front()) + " vs domain " +
                  fmt_range(domain));
  }
  for (std::size_t i = 1; i < segments.size(); ++i) {
    const Range& prev = segments[i - 1];
    const Range& cur = segments[i];
    if (close(prev.hi, cur.lo)) continue;
    if (prev.hi < cur.lo) {
      out.push_back("gap between " + fmt_range(prev) + " and " +
                    fmt_range(cur));
    } else {
      out.push_back("overlap between " + fmt_range(prev) + " and " +
                    fmt_range(cur));
    }
  }
  if (!close(segments.back().hi, domain.hi)) {
    out.push_back("upper edge uncovered: last segment " +
                  fmt_range(segments.back()) + " vs domain " +
                  fmt_range(domain));
  }
  return out;
}

std::size_t audit_segment_partition(const char* where, const Range& domain,
                                    std::vector<Range> segments) {
  if (!Audit::enabled()) return 0;
  const std::vector<std::string> violations =
      segment_partition_violations(domain, std::move(segments));
  for (const std::string& v : violations) {
    Audit::report(AuditKind::kSegment, std::string(where) + ": " + v);
  }
  return violations.size();
}

bool audit_split(const char* where, const Range& whole, const Range& lower,
                 const Range& upper) {
  if (!Audit::enabled()) return true;
  const bool ok = !lower.empty() && !upper.empty() &&
                  close(lower.lo, whole.lo) && close(lower.hi, upper.lo) &&
                  close(upper.hi, whole.hi);
  if (!ok) {
    Audit::report(AuditKind::kSegment,
                  std::string(where) + ": split of " + fmt_range(whole) +
                      " into " + fmt_range(lower) + " + " + fmt_range(upper) +
                      " does not partition it");
  }
  return ok;
}

bool audit_merge(const char* where, const Range& mine, const Range& merged) {
  if (!Audit::enabled()) return true;
  // The merged segment must contain my old segment, grow it on exactly one
  // side, and stay non-empty (the neighbour handed over a real share).
  const bool contains = merged.lo <= mine.lo + kEps && mine.hi <= merged.hi + kEps;
  const bool grew_lo = !close(merged.lo, mine.lo);
  const bool grew_hi = !close(merged.hi, mine.hi);
  const bool ok =
      !merged.empty() && contains && (grew_lo != grew_hi);
  if (!ok) {
    Audit::report(AuditKind::kSegment,
                  std::string(where) + ": merge of " + fmt_range(mine) +
                      " into " + fmt_range(merged) +
                      " is not a one-sided extension");
  }
  return ok;
}

// ---------------------------------------------------------------------------
// Queue accounting
// ---------------------------------------------------------------------------

std::size_t audit_queue_accounting(const char* name, std::int64_t depth,
                                   std::int64_t high_water,
                                   std::uint64_t enqueued,
                                   std::uint64_t dequeued) {
  if (!Audit::enabled()) return 0;
  std::size_t violations = 0;
  const auto flow = static_cast<std::int64_t>(enqueued) -
                    static_cast<std::int64_t>(dequeued);
  if (flow != depth) {
    ++violations;
    Audit::report(AuditKind::kQueueAccounting,
                  std::string(name) + ": enqueued " + std::to_string(enqueued) +
                      " - dequeued " + std::to_string(dequeued) +
                      " != depth " + std::to_string(depth));
  }
  if (depth < 0 || high_water < depth) {
    ++violations;
    Audit::report(AuditKind::kQueueAccounting,
                  std::string(name) + ": depth " + std::to_string(depth) +
                      " outside [0, high_water " +
                      std::to_string(high_water) + "]");
  }
  return violations;
}

}  // namespace bluedove::obs
