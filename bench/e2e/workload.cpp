#include "workload.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <memory>
#include <stdexcept>

#include "attr/schema.h"
#include "index/linear_scan_index.h"
#include "workload/generators.h"

namespace bluedove::e2e {

namespace {

/// The oracle is a grid of LinearScanIndexes with kGrid cells along every
/// dimension: each cell holds the subscriptions whose predicates overlap
/// it, so a probe scans the one cell holding the message instead of the
/// whole population.
constexpr std::size_t kGrid = 8;
constexpr double kCell = kDomain / static_cast<double>(kGrid);

std::size_t clamp_cell(double c) {
  return static_cast<std::size_t>(
      std::clamp(c, 0.0, static_cast<double>(kGrid - 1)));
}

std::size_t cell_of(double v) { return clamp_cell(std::floor(v / kCell)); }

/// Cells [first, last] the half-open range [lo, hi) overlaps.
std::pair<std::size_t, std::size_t> cells(const Range& r) {
  return {cell_of(r.lo), clamp_cell(std::ceil(r.hi / kCell) - 1)};
}

std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

// Why each workload exists is in README.md; in short:
// paper    the paper's traffic; edge egress and fan-out dominate.
WorkloadSpec paper() {
  WorkloadSpec w;
  w.name = "paper";
  w.subs = 8000;
  w.width = 250.0;
  w.payload = 128;
  w.rate = 2900.0;
  return w;
}

// probe    narrow subscriptions, few deliveries; the probe and the offload
//          hand-off dominate.
WorkloadSpec probe() {
  WorkloadSpec w;
  w.name = "probe";
  w.subs = 100000;
  w.width = 60.0;
  w.payload = 64;
  w.max_fanout = 64;
  w.rate = 10000.0;
  return w;
}

// covered  probe's shape with duplicates: covering compresses; in probe it
//          passes everything through.
WorkloadSpec covered() {
  WorkloadSpec w = probe();
  w.name = "covered";
  w.duplicate_skew = 0.95;
  w.templates = 4096;
  w.jitter = 2.0;
  return w;
}

// churn    paper with subscription replacements; writes beside reads.
WorkloadSpec churn() {
  WorkloadSpec w = paper();
  w.name = "churn";
  w.churn_every = 5;
  w.side_pool = 2000;
  w.rate = 1400.0;
  return w;
}

}  // namespace

const std::vector<WorkloadSpec>& workloads() {
  static const std::vector<WorkloadSpec> all{paper(), probe(), covered(),
                                             churn()};
  return all;
}

const WorkloadSpec* find_workload(const std::string& name) {
  for (const WorkloadSpec& w : workloads()) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

WorkloadSpec smoke_scale(WorkloadSpec spec) {
  spec.subs = std::max<std::size_t>(spec.subs / 10, 600);
  spec.side_pool /= 10;
  spec.rate *= 0.5;
  return spec;
}

std::uint64_t delivery_hash(std::uint32_t sub) { return mix64(sub + 1ULL); }

Inputs make_inputs(const WorkloadSpec& spec, std::uint64_t seed,
                   std::size_t pool) {
  Inputs in;
  in.spec = spec;
  const AttributeSchema schema = AttributeSchema::uniform(kDims, kDomain);

  SubscriptionWorkload sw;
  sw.schema = schema;
  sw.predicate_width = spec.width;
  sw.sigma = spec.sigma;
  sw.duplicate_skew = spec.duplicate_skew;
  sw.duplicate_templates = spec.templates;
  sw.duplicate_jitter = spec.jitter;
  SubscriptionGenerator subs(sw, seed);
  in.subs = subs.batch(spec.subs);
  in.side = subs.batch(spec.side_pool);

  std::size_t grid_cells = 1;
  for (std::size_t d = 0; d < kDims; ++d) grid_cells *= kGrid;
  std::vector<LinearScanIndex> grid(grid_cells, LinearScanIndex(DimId{0}));
  for (const Subscription& sub : in.subs) {
    auto shared = std::make_shared<const Subscription>(sub);
    std::array<std::pair<std::size_t, std::size_t>, kDims> span;
    std::array<std::size_t, kDims> at;
    for (std::size_t d = 0; d < kDims; ++d) {
      span[d] = cells(sub.range(d));
      at[d] = span[d].first;
    }
    // Every cell of the box span[0] x ... x span[kDims-1], odometer order.
    for (std::size_t d = 0; d < kDims;) {
      std::size_t cell = 0;
      for (const std::size_t a : at) cell = cell * kGrid + a;
      grid[cell].insert(shared);
      for (d = 0; d < kDims; ++d) {
        if (++at[d] <= span[d].second) break;
        at[d] = span[d].first;
      }
    }
  }

  MessageWorkload mw;
  mw.schema = schema;
  MessageGenerator msgs(mw, seed ^ 0x6d65737361676573ULL);
  in.offsets.push_back(0);
  std::vector<SubPtr> hits;
  WorkCounter wc;
  const std::size_t max_draws = pool * 64;
  for (std::size_t draws = 0; in.pool_size() < pool; ++draws) {
    if (draws == max_draws) {
      throw std::runtime_error("workload " + spec.name +
                               ": too few messages with a match");
    }
    const Message m = msgs.next();
    hits.clear();
    std::size_t cell = 0;
    for (std::size_t d = 0; d < kDims; ++d) {
      cell = cell * kGrid + cell_of(m.values[d]);
    }
    grid[cell].match(m, hits, wc);
    if (hits.empty() || hits.size() > spec.max_fanout) continue;
    std::uint64_t hash = 0;
    for (const SubPtr& h : hits) {
      const auto idx = static_cast<std::uint32_t>(h->id - 1);
      in.expected.push_back(idx);
      hash += delivery_hash(idx);
    }
    in.values.insert(in.values.end(), m.values.begin(), m.values.end());
    in.offsets.push_back(static_cast<std::uint32_t>(in.expected.size()));
    in.expected_hash.push_back(hash);
  }
  return in;
}

}  // namespace bluedove::e2e
