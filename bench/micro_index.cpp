// Microbenchmarks for the subscription matching engines (real wall-clock
// performance, unlike the figure benches which run on simulated time).
// Also serves as the ablation for the DESIGN.md index-engine choice.
//
// A full run prints the memory table, runs both SIMD sweeps and the rows,
// and rewrites BENCH_index.json and BENCH_micro_index.json in the current
// directory. A run given --benchmark_filter runs only the rows it selects
// and writes no file; --memory-only prints only the memory table.

#include <benchmark/benchmark.h>
#include <malloc.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <string>
#include <thread>

#include "attr/schema.h"
#include "cover/cover_table.h"
#include "index/flat_bucket_index.h"
#include "index/subscription_index.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "rounds.h"
#include "simd/range_kernel.h"
#include "workload/generators.h"

using namespace bluedove;

namespace {

/// Benchmark arg -> engine: the IndexKind value (0 linear-scan, 3
/// flat-bucket), so row names stay comparable with earlier snapshots.
IndexKind kind_of(std::int64_t arg) { return static_cast<IndexKind>(arg); }

std::unique_ptr<SubscriptionIndex> build_index(IndexKind kind,
                                               std::size_t subs) {
  const AttributeSchema schema = AttributeSchema::uniform(4);
  SubscriptionWorkload wl;
  wl.schema = schema;
  SubscriptionGenerator gen(wl, 99);
  auto index = make_index(kind, 0, schema.domain(0));
  for (std::size_t i = 0; i < subs; ++i) index->insert(gen.next());
  return index;
}

// ---------------------------------------------------------------------------
// --simd sweep: scalar vs vector kernels on the flat-bucket engine, written
// to BENCH_index.json (separate from the gbench snapshot below) so the perf
// trajectory has index-level numbers per kernel. Runs before the
// google-benchmark suite; restrict it with --simd=scalar / --simd=avx2.
// ---------------------------------------------------------------------------

using benchutil::now_sec;

/// ns/event of match_batch over `msgs` in chunks of `batch`, after one
/// warmup pass, until ~`target_events` events have been probed.
double time_match_ns(SubscriptionIndex& index, const std::vector<Message>& msgs,
                     std::size_t batch, std::size_t target_events) {
  std::vector<MatchHit> hits;
  std::vector<std::uint32_t> offsets;
  WorkCounter wc;
  MatchScratch scratch;
  auto run = [&](std::size_t events) {
    std::size_t done = 0;
    std::size_t cursor = 0;
    while (done < events) {
      const std::size_t nb = std::min(batch, msgs.size() - cursor);
      hits.clear();
      offsets.clear();
      index.match_batch({msgs.data() + cursor, nb}, hits, offsets, wc, scratch);
      benchmark::DoNotOptimize(hits.data());
      done += nb;
      cursor += nb;
      if (cursor >= msgs.size()) cursor = 0;
    }
    return done;
  };
  run(target_events / 10 + 1);  // warmup
  const double t0 = now_sec();
  const std::size_t events = run(target_events);
  return (now_sec() - t0) * 1e9 / static_cast<double>(events);
}

void sweep_match(obs::MetricsSnapshot& snap,
                 const std::vector<const simd::RangeKernel*>& kernels) {
  const AttributeSchema schema = AttributeSchema::uniform(4);
  MessageWorkload mwl;
  mwl.schema = schema;
  MessageGenerator mgen(mwl, 7);
  std::vector<Message> msgs;
  for (int i = 0; i < 4096; ++i) msgs.push_back(mgen.next());
  for (const std::size_t subs : {std::size_t{100000}, std::size_t{1000000}}) {
    auto index = build_index(IndexKind::kFlatBucket, subs);
    const std::size_t target = subs >= 1000000 ? 2000 : 20000;
    for (const simd::RangeKernel* k : kernels) {
      simd::set_kernel(k->name);
      for (const std::size_t batch : {std::size_t{1}, std::size_t{32}}) {
        const double ns = time_match_ns(*index, msgs, batch, target);
        char name[96];
        std::snprintf(name, sizeof name,
                      "index.simd.%s.subs%zu.batch%zu.ns_per_event", k->name,
                      subs, batch);
        snap.gauges[name] = ns;
        std::printf("%-48s %12.1f ns/event\n", name, ns);
      }
    }
  }
}

/// The dim-0 column scan at 1M subscriptions, in two shapes.
///
/// "full" is the headline kernel number: one contiguous 1M-row lo/hi
/// column pair — the entire subscription set, as LinearScanIndex or a
/// single FlatBucketIndex bucket holds it — probed at the workload's
/// ~25% pivot selectivity (EXPERIMENTS.md). The acceptance bar for the
/// vectorized probe is vector >= 2x scalar here.
///
/// "bucketed" is the same 1M ranges grouped by FlatBucketIndex's 64 pivot
/// buckets: each probe scans the rows whose bucket span contains its
/// value's bucket, the candidate set the engine scans (as one run per
/// bucket it looks back at; one contiguous column here). Because every
/// scanned range overlaps the bucket, ~94% of the probed rows match, the
/// selection write traffic approaches one entry per row, and the scan
/// saturates cache bandwidth — the vector win is structurally smaller.
/// Recorded next to the headline number so the engine-shaped cost is
/// never hidden behind the kernel-friendly one.
void sweep_dim0_scan(obs::MetricsSnapshot& snap,
                     const std::vector<const simd::RangeKernel*>& kernels) {
  constexpr std::size_t kSubs = 1000000;
  constexpr std::size_t kBuckets = 64;  // FlatBucketIndex default
  const AttributeSchema schema = AttributeSchema::uniform(4);
  const Range domain = schema.domain(0);
  const double width = (domain.hi - domain.lo) / kBuckets;
  SubscriptionWorkload wl;
  wl.schema = schema;
  SubscriptionGenerator gen(wl, 99);
  struct Columns {
    std::vector<double> lo, hi;
  };
  Columns full;
  std::vector<Columns> buckets(kBuckets);
  const auto bucket_of = [&](double v) {
    const auto b = static_cast<std::size_t>((v - domain.lo) / width);
    return b >= kBuckets ? kBuckets - 1 : b;
  };
  for (std::size_t i = 0; i < kSubs; ++i) {
    const Subscription s = gen.next();
    const Range r = s.ranges[0];
    full.lo.push_back(r.lo);
    full.hi.push_back(r.hi);
    for (std::size_t b = bucket_of(r.lo); b <= bucket_of(r.hi); ++b) {
      buckets[b].lo.push_back(r.lo);
      buckets[b].hi.push_back(r.hi);
      if (b + 1 == kBuckets) break;
    }
  }
  std::size_t max_rows = full.lo.size();
  for (const Columns& b : buckets) max_rows = std::max(max_rows, b.lo.size());
  MessageWorkload mwl;
  mwl.schema = schema;
  MessageGenerator mgen(mwl, 7);
  std::vector<double> points;
  for (int i = 0; i < 64; ++i) points.push_back(mgen.next().values[0]);
  std::vector<std::uint32_t> sel(max_rows);

  // Per point: warm the column pair into cache, then keep the fastest of
  // kReps back-to-back scans. Warm + min-of-reps measures the kernel in
  // the steady state a loaded matcher runs it (hot columns, re-probed
  // continuously) and rejects scheduling noise from the shared vCPU;
  // probe-outer ordering would stream every column through the cache
  // between visits and time DRAM instead of the kernel.
  const auto measure = [&](const simd::RangeKernel& k, auto&& columns_of) {
    constexpr int kReps = 8;
    double total_ns = 0.0;
    std::size_t rows = 0;
    for (const double v : points) {
      const Columns& b = columns_of(v);
      for (int r = 0; r < 2; ++r) {
        benchmark::DoNotOptimize(
            k.scan(b.lo.data(), b.hi.data(), b.lo.size(), v, sel.data()));
      }
      double best = 0.0;
      for (int r = 0; r < kReps; ++r) {
        const double t0 = now_sec();
        benchmark::DoNotOptimize(
            k.scan(b.lo.data(), b.hi.data(), b.lo.size(), v, sel.data()));
        const double dt = (now_sec() - t0) * 1e9;
        if (best == 0.0 || dt < best) best = dt;
      }
      total_ns += best;
      rows += b.lo.size();
    }
    return total_ns / static_cast<double>(rows);
  };

  struct Shape {
    const char* tag;    // "" for the headline full scan
    const char* label;  // printable name
  };
  const auto run_shape = [&](const char* tag, auto&& columns_of) {
    double scalar_ns = 0.0;
    double best_vector_ns = 0.0;
    for (const simd::RangeKernel* k : kernels) {
      const double ns_per_row = measure(*k, columns_of);
      char name[96];
      std::snprintf(name, sizeof name,
                    "index.dim0_scan.%s%s.subs%zu.ns_per_row", tag, k->name,
                    kSubs);
      snap.gauges[name] = ns_per_row;
      std::printf("%-52s %8.3f ns/row\n", name, ns_per_row);
      if (k->kind == simd::KernelKind::kScalar) {
        scalar_ns = ns_per_row;
      } else if (best_vector_ns == 0.0 || ns_per_row < best_vector_ns) {
        best_vector_ns = ns_per_row;
      }
    }
    if (scalar_ns > 0.0 && best_vector_ns > 0.0) {
      const double speedup = scalar_ns / best_vector_ns;
      char name[96];
      std::snprintf(name, sizeof name, "index.dim0_scan.%sspeedup_vs_scalar",
                    tag);
      snap.gauges[name] = speedup;
      std::printf("%-52s %8.2fx\n", name, speedup);
    }
  };
  run_shape("", [&](double) -> const Columns& { return full; });
  run_shape("bucketed.", [&](double v) -> const Columns& {
    return buckets[bucket_of(v)];
  });
}

// ---------------------------------------------------------------------------
// Memory attribution: heap bytes per stored subscription copy for each
// structure a matcher keeps for one dimension set, measured as mallinfo2
// deltas around building that structure alone from the same inputs. The
// index's id map is what its build adds beyond its columns.
// Gauges go to BENCH_index.json; `--memory-only` runs just this section,
// and `--memory-scale=F` scales both shapes' populations.
// ---------------------------------------------------------------------------

std::size_t heap_in_use() {
  const struct mallinfo2 mi = mallinfo2();
  return mi.uordblks + mi.hblkhd;  // small-chunk + mmapped allocations
}

/// Cover-table bytes per copy a `probe`-shape table may hold. The flat
/// layout reads ~190 B at full scale and ~250 B at a tenth (its arenas'
/// capacity slack is largest just past a doubling); the vector-per-group
/// layout it replaced read 404 and 498 B.
constexpr double kCoverBudgetBytesPerCopy = 300.0;

/// Returns false when a FlatBucketIndex holds more column entries than
/// subscriptions (each copy must be filed exactly once), or when the
/// `probe`-shape cover table exceeds kCoverBudgetBytesPerCopy.
bool memory_attribution(obs::MetricsSnapshot& snap, double scale) {
  struct Shape {
    const char* name;
    std::size_t subs;
    double width;
  };
  // The e2e `probe` and `paper` subscription shapes on 4 dimensions.
  const Shape shapes[] = {{"probe", 100000, 60.0}, {"paper", 8000, 250.0}};
  const AttributeSchema schema = AttributeSchema::uniform(4);
  std::vector<Range> domains;
  for (DimId d = 0; d < schema.dimensions(); ++d) {
    domains.push_back(schema.domain(d));
  }
  bool ok = true;
  std::printf("memory per subscription copy (bytes)\n");
  std::printf("%-6s %8s %9s %9s %9s %9s %8s\n", "shape", "copies",
              "columns", "id_map", "cover", "total", "entries");
  for (const Shape& shape : shapes) {
    const auto subs = std::max<std::size_t>(
        1, static_cast<std::size_t>(static_cast<double>(shape.subs) * scale));
    SubscriptionWorkload wl;
    wl.schema = schema;
    wl.predicate_width = shape.width;
    SubscriptionGenerator gen(wl, 2011);
    const std::vector<Subscription> input = gen.batch(subs);

    std::size_t index_bytes = 0;
    std::size_t column_bytes = 0;
    std::size_t entries = 0;
    {
      const std::size_t before = heap_in_use();
      FlatBucketIndex index(0, schema.domain(0));
      for (const Subscription& sub : input) index.insert(sub);
      index_bytes = heap_in_use() - before;
      column_bytes = index.column_capacity_bytes();
      entries = index.column_entries();
    }
    std::size_t cover_bytes = 0;
    {
      CoverConfig cfg;
      cfg.enabled = true;
      const std::size_t before = heap_in_use();
      CoverTable cover(cfg, domains);
      for (const Subscription& sub : input) cover.add(sub);
      cover_bytes = heap_in_use() - before;
    }

    const double n = static_cast<double>(subs);
    const double id_map_bytes = static_cast<double>(index_bytes) -
                                static_cast<double>(column_bytes);
    const double per[] = {static_cast<double>(column_bytes) / n,
                          id_map_bytes / n,
                          static_cast<double>(cover_bytes) / n};
    const char* names[] = {"columns", "id_map", "cover"};
    double total = 0.0;
    for (std::size_t c = 0; c < 3; ++c) {
      total += per[c];
      snap.gauges[std::string("index.memory.") + shape.name + "." + names[c] +
                  ".bytes_per_copy"] = per[c];
    }
    snap.gauges[std::string("index.memory.") + shape.name +
                ".total.bytes_per_copy"] = total;
    snap.gauges[std::string("index.memory.") + shape.name +
                ".column_entries_per_copy"] = static_cast<double>(entries) / n;
    std::printf("%-6s %8zu %9.1f %9.1f %9.1f %9.1f %8.3f\n", shape.name,
                subs, per[0], per[1], per[2], total,
                static_cast<double>(entries) / n);
    if (entries > subs) {
      std::fprintf(stderr,
                   "%s: FlatBucketIndex holds %zu column entries for %zu "
                   "subscriptions\n",
                   shape.name, entries, subs);
      ok = false;
    }
    if (std::string(shape.name) == "probe" &&
        per[2] > kCoverBudgetBytesPerCopy) {
      std::fprintf(stderr,
                   "%s: cover table holds %.1f B per copy, over the %.0f B "
                   "budget\n",
                   shape.name, per[2], kCoverBudgetBytesPerCopy);
      ok = false;
    }
  }
  return ok;
}

void BM_IndexMatch(benchmark::State& state) {
  const IndexKind kind = kind_of(state.range(0));
  const auto subs = static_cast<std::size_t>(state.range(1));
  auto index = build_index(kind, subs);

  const AttributeSchema schema = AttributeSchema::uniform(4);
  MessageWorkload mwl;
  mwl.schema = schema;
  MessageGenerator mgen(mwl, 7);
  std::vector<MatchHit> out;
  std::vector<std::uint32_t> offsets;
  WorkCounter wc;
  MatchScratch scratch;
  for (auto _ : state) {
    out.clear();
    offsets.clear();
    Message msg = mgen.next();
    index->match_batch({&msg, 1}, out, offsets, wc, scratch);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetLabel(to_string(kind));
  state.counters["work/probe"] =
      benchmark::Counter(wc.total() / static_cast<double>(state.iterations()));
}
BENCHMARK(BM_IndexMatch)
    ->ArgsProduct({{0, 3}, {1000, 10000, 40000}})
    ->Unit(benchmark::kMicrosecond);

// Flat-bucket at 100k-1M subscriptions on the paper's 4-dim uniform
// workload. Linear scan is omitted above 40k; it is not competitive.
BENCHMARK(BM_IndexMatch)
    ->ArgsProduct({{3}, {100000, 1000000}})
    ->Unit(benchmark::kMicrosecond);

void BM_IndexMatchBatch(benchmark::State& state) {
  const IndexKind kind = kind_of(state.range(0));
  const auto subs = static_cast<std::size_t>(state.range(1));
  const auto batch = static_cast<std::size_t>(state.range(2));
  auto index = build_index(kind, subs);

  const AttributeSchema schema = AttributeSchema::uniform(4);
  MessageWorkload mwl;
  mwl.schema = schema;
  MessageGenerator mgen(mwl, 7);
  std::vector<Message> msgs;
  for (std::size_t i = 0; i < batch; ++i) msgs.push_back(mgen.next());
  std::vector<MatchHit> hits;
  std::vector<std::uint32_t> offsets;
  WorkCounter wc;
  MatchScratch scratch;
  for (auto _ : state) {
    hits.clear();
    offsets.clear();
    index->match_batch(msgs, hits, offsets, wc, scratch);
    benchmark::DoNotOptimize(hits.data());
  }
  state.SetLabel(to_string(kind));
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(batch));
}
BENCHMARK(BM_IndexMatchBatch)
    ->ArgsProduct({{3}, {100000}, {1, 16, 64}})
    ->Unit(benchmark::kMicrosecond);

void BM_IndexInsert(benchmark::State& state) {
  const IndexKind kind = kind_of(state.range(0));
  const AttributeSchema schema = AttributeSchema::uniform(4);
  SubscriptionWorkload wl;
  wl.schema = schema;
  SubscriptionGenerator gen(wl, 99);
  auto index = make_index(kind, 0, schema.domain(0));
  for (auto _ : state) {
    index->insert(gen.next());
    if (index->size() >= 100000) {
      state.PauseTiming();
      index->clear();
      state.ResumeTiming();
    }
  }
  state.SetLabel(to_string(kind));
}
BENCHMARK(BM_IndexInsert)->Arg(0)->Arg(3);

// Erases ids 1..20000 in order, rebuilding the index untimed once it is
// empty, so every timed call removes a present subscription.
void BM_IndexErase(benchmark::State& state) {
  const IndexKind kind = kind_of(state.range(0));
  constexpr std::size_t kSubs = 20000;
  auto index = build_index(kind, kSubs);
  SubscriptionId next = 1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(index->erase(next));
    if (++next > kSubs) {
      state.PauseTiming();
      index = build_index(kind, kSubs);
      next = 1;
      state.ResumeTiming();
    }
  }
  state.SetLabel(to_string(kind));
}
BENCHMARK(BM_IndexErase)->Arg(0)->Arg(3);

void BM_FullMatchPredicate(benchmark::State& state) {
  const AttributeSchema schema = AttributeSchema::uniform(4);
  SubscriptionWorkload wl;
  wl.schema = schema;
  SubscriptionGenerator gen(wl, 3);
  const Subscription sub = gen.next();
  MessageWorkload mwl;
  mwl.schema = schema;
  MessageGenerator mgen(mwl, 4);
  Message msg = mgen.next();
  for (auto _ : state) {
    benchmark::DoNotOptimize(sub.matches(msg));
  }
}
BENCHMARK(BM_FullMatchPredicate);

// Console output as usual, plus every run's per-iteration time collected
// into a metrics snapshot so the bench emits BENCH_micro_index.json in the
// same schema as live-cluster scrapes.
class JsonSnapshotReporter : public benchmark::ConsoleReporter {
 public:
  void ReportRuns(const std::vector<Run>& runs) override {
    for (const Run& run : runs) {
      if (run.iterations == 0) continue;
      const double ns_per_iter =
          run.real_accumulated_time / static_cast<double>(run.iterations) *
          1e9;
      snap_.gauges["micro_index." + run.benchmark_name() + ".ns_per_iter"] =
          ns_per_iter;
      snap_.counters["micro_index." + run.benchmark_name() + ".iterations"] =
          static_cast<std::uint64_t>(run.iterations);
    }
    ConsoleReporter::ReportRuns(runs);
  }

  const obs::MetricsSnapshot& snapshot() const { return snap_; }

 private:
  obs::MetricsSnapshot snap_;
};

}  // namespace

int main(int argc, char** argv) {
  // Consume --simd=... before benchmark::Initialize (gbench rejects flags
  // it does not know). auto sweeps every kernel the CPU can run; a kernel
  // name restricts the sweep and pins the gbench section to that kernel.
  std::string simd_mode = "auto";
  bool memory_only = false;
  double memory_scale = 1.0;
  bool filtered = false;
  int kept = 1;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    // Left for gbench to read; a filtered run is a drill-down into the
    // rows it selects, not a refresh of the committed files.
    filtered = filtered || arg.rfind("--benchmark_filter", 0) == 0;
    if (arg.rfind("--simd=", 0) == 0) {
      simd_mode = arg.substr(7);
    } else if (arg == "--memory-only") {
      memory_only = true;
    } else if (arg.rfind("--memory-scale=", 0) == 0) {
      memory_scale = std::stod(arg.substr(15));
    } else {
      argv[kept++] = argv[i];
    }
  }
  argc = kept;
  if (!simd::set_kernel(simd_mode)) {
    std::fprintf(stderr, "unknown or unavailable --simd mode '%s'\n",
                 simd_mode.c_str());
    return 2;
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  if (filtered && !memory_only) {
    // Only the selected rows: no memory table, no SIMD sweeps, no JSON.
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    return 0;
  }

  std::vector<const simd::RangeKernel*> kernels;
  for (const simd::RangeKernel* k : simd::compiled_kernels()) {
    const bool scalar = k->kind == simd::KernelKind::kScalar;
    if (!simd::runnable(*k)) continue;
    if (simd_mode == "auto" || simd_mode == k->name ||
        (simd_mode == "off" && scalar)) {
      kernels.push_back(k);
    }
  }
  obs::MetricsSnapshot sweep_snap;
  sweep_snap.gauges["index.hardware_concurrency"] =
      static_cast<double>(std::thread::hardware_concurrency());
  const bool memory_ok = memory_attribution(sweep_snap, memory_scale);
  if (memory_only) return memory_ok ? 0 : 1;
  std::printf("simd sweep (kernels:");
  for (const simd::RangeKernel* k : kernels) std::printf(" %s", k->name);
  std::printf(")\n");
  sweep_dim0_scan(sweep_snap, kernels);
  sweep_match(sweep_snap, kernels);
  simd::set_kernel(simd_mode);  // sweep left the last kernel active
  const char* sweep_path = "BENCH_index.json";
  if (obs::write_json_file(sweep_path, sweep_snap)) {
    std::printf("simd sweep metrics written to %s\n", sweep_path);
  } else {
    std::fprintf(stderr, "failed to write %s\n", sweep_path);
  }

  JsonSnapshotReporter reporter;
  benchmark::RunSpecifiedBenchmarks(&reporter);
  benchmark::Shutdown();
  const char* path = "BENCH_micro_index.json";
  if (obs::write_json_file(path, reporter.snapshot())) {
    std::printf("bench metrics written to %s\n", path);
  } else {
    std::fprintf(stderr, "failed to write %s\n", path);
  }
  return memory_ok ? 0 : 1;
}
