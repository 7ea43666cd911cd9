// Subscription-covering microbenchmark (real wall-clock time): sweeps
// duplicate/containment skew x subscription count and compares the
// covered pipeline (CoverTable + compressed FlatBucketIndex + delivery-time
// expansion with residual filters) against the uncovered baseline index.
// Each cell times the pair with benchutil::Rounds: benchutil::kRounds
// rounds of one uncovered and one covered probe pass, in an order rotated
// per round, and the covered pass is read against the same round's
// uncovered pass.
//
// Reported per cell (cover.subs<N>.skew<P>.*):
//   compression_ratio        raw subscriptions / indexed entries
//   ns_uncovered/ns_covered  ns per probed event at the median rate, end
//                            to end (covered includes expansion + residual
//                            filtering)
//   tput_ratio (+_q1/_q3)    per-round covered rate / uncovered rate (>1 ==
//                            covering wins)
//   overhead (+_q1/_q3)      per-round covered time / uncovered time
//   steal_s                  host steal seconds over the cell's rounds
//   work_saved_ratio         probe work-units saved vs the baseline
//   residual_checks_per_event, residual_reject_rate
//   identical                1 iff delivered (id, subscriber) sets are
//                            byte-identical to the baseline on every message
// plus cover.hardware_concurrency, the host's core count. Exits 1 when a
// cell is not identical (tools/check_all.sh and CI run a small-scale smoke).
//
// The skew=0 cells double as the no-regression guard: covering with no
// duplicates must stay within a few percent of the raw index.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "attr/schema.h"
#include "bench_util.h"
#include "cover/cover_table.h"
#include "index/subscription_index.h"
#include "obs/audit.h"
#include "obs/metrics.h"
#include "workload/generators.h"

using namespace bluedove;

namespace {

using benchutil::now_sec;

// Keeps the optimizer from deleting the probe loops.
volatile std::uint64_t g_sink = 0;

/// An index and the cover table behind it; the uncovered baseline has none.
struct CoveredSet {
  std::unique_ptr<SubscriptionIndex> index;
  std::unique_ptr<CoverTable> cover;
};

std::vector<Subscription> make_subs(std::size_t n, double skew,
                                    const AttributeSchema& schema) {
  SubscriptionWorkload wl;
  wl.schema = schema;
  wl.duplicate_skew = skew;
  wl.duplicate_templates = 4096;
  wl.duplicate_jitter = 2.0;
  SubscriptionGenerator gen(wl, 99);
  return gen.batch(n);
}

CoveredSet build_covered(const std::vector<Subscription>& subs,
                         const AttributeSchema& schema, double budget) {
  CoveredSet out;
  out.index = make_index(IndexKind::kFlatBucket, 0, schema.domain(0));
  CoverConfig cfg;
  cfg.enabled = true;
  cfg.fp_volume_budget = budget;
  std::vector<Range> domains;
  for (std::size_t d = 0; d < schema.dimensions(); ++d) {
    domains.push_back(schema.domain(static_cast<DimId>(d)));
  }
  out.cover = std::make_unique<CoverTable>(cfg, domains);
  for (const Subscription& s : subs) {
    CoverTable::AddResult ops = out.cover->add(s);
    if (ops.erase) out.index->erase(ops.erase_id);
    if (ops.insert) out.index->insert(ops.insert_sub);
  }
  return out;
}

struct ProbeStats {
  double work_units = 0.0;  ///< per event, residual checks included
  double checks_per_event = 0.0;
  double reject_rate = 0.0;
};

/// Events/sec of chunked match_batch over `set.index`. With a cover table,
/// each message's representative hits expand into their members through
/// the residual filters: the honest end-to-end cost of covering.
double probe_rate(const CoveredSet& set, const std::vector<Message>& msgs,
                  std::size_t batch, std::size_t target_events,
                  ProbeStats* stats) {
  std::vector<MatchHit> hits, expanded;
  std::vector<std::uint32_t> offsets;
  MatchScratch scratch;
  std::uint64_t checks = 0, rejects = 0;
  auto run = [&](std::size_t events, WorkCounter& w) {
    std::size_t done = 0, cursor = 0;
    while (done < events) {
      const std::size_t nb = std::min(batch, msgs.size() - cursor);
      hits.clear();
      offsets.clear();
      set.index->match_batch({msgs.data() + cursor, nb}, hits, offsets, w,
                             scratch);
      if (set.cover == nullptr) g_sink = g_sink + hits.size();
      for (std::size_t i = 0; set.cover != nullptr && i < nb; ++i) {
        expanded.clear();
        CoverTable::ExpandStats es;
        for (std::uint32_t h = offsets[i]; h < offsets[i + 1]; ++h) {
          if (CoverTable::is_rep(hits[h].id)) {
            set.cover->expand(hits[h].id, msgs[cursor + i].values, expanded,
                              &es);
          } else {
            expanded.push_back(hits[h]);
          }
        }
        g_sink = g_sink + expanded.size();
        checks += es.checks;
        rejects += es.rejects;
      }
      done += nb;
      cursor = cursor + nb >= msgs.size() ? 0 : cursor + nb;
    }
    return done;
  };
  WorkCounter warm;
  run(target_events / 10 + 1, warm);
  checks = rejects = 0;
  WorkCounter wc;
  const double t0 = now_sec();
  const auto events = static_cast<double>(run(target_events, wc));
  const double elapsed = now_sec() - t0;
  // Residual comparisons are real per-event work; charge them like the
  // matcher does (1 work unit per member check).
  stats->work_units = (wc.total() + static_cast<double>(checks)) / events;
  stats->checks_per_event = static_cast<double>(checks) / events;
  stats->reject_rate = checks > 0 ? static_cast<double>(rejects) /
                                        static_cast<double>(checks)
                                  : 0.0;
  return events / elapsed;
}

/// Compares delivered (id, subscriber) sets message by message and folds
/// both sides into order-sensitive digests (sorted per message, so any
/// probe-order difference inside one message is immaterial — exactly the
/// guarantee the matcher makes).
bool verify_identical(SubscriptionIndex& raw, CoveredSet& covered,
                      const std::vector<Message>& msgs,
                      std::uint64_t* digest_raw,
                      std::uint64_t* digest_covered) {
  obs::DeterminismDigest dr, dc;
  std::vector<MatchHit> a, b, reps;
  std::vector<std::uint32_t> offsets;
  WorkCounter wc;
  MatchScratch scratch;
  bool identical = true;
  auto by_id = [](const MatchHit& x, const MatchHit& y) {
    return x.id != y.id ? x.id < y.id : x.subscriber < y.subscriber;
  };
  for (const Message& msg : msgs) {
    a.clear();
    b.clear();
    reps.clear();
    const std::span<const Message> one(&msg, 1);
    offsets.clear();
    raw.match_batch(one, a, offsets, wc, scratch);
    offsets.clear();
    covered.index->match_batch(one, reps, offsets, wc, scratch);
    for (const MatchHit& hit : reps) {
      if (CoverTable::is_rep(hit.id)) {
        covered.cover->expand(hit.id, msg.values, b);
      } else {
        b.push_back(hit);
      }
    }
    std::sort(a.begin(), a.end(), by_id);
    std::sort(b.begin(), b.end(), by_id);
    identical = identical && a == b;
    for (const MatchHit& h : a) {
      dr.mix(h.id);
      dr.mix(h.subscriber);
    }
    for (const MatchHit& h : b) {
      dc.mix(h.id);
      dc.mix(h.subscriber);
    }
  }
  *digest_raw = dr.value();
  *digest_covered = dc.value();
  return identical && dr.value() == dc.value();
}

void run_cell(obs::MetricsSnapshot& snap, std::size_t subs, double skew,
              double budget, const std::vector<Message>& msgs,
              std::size_t target_events) {
  const AttributeSchema schema = AttributeSchema::uniform(4);
  const std::vector<Subscription> population = make_subs(subs, skew, schema);
  CoveredSet raw;
  raw.index = make_index(IndexKind::kFlatBucket, 0, schema.domain(0));
  for (const Subscription& s : population) raw.index->insert(s);
  CoveredSet covered = build_covered(population, schema, budget);

  const double compression =
      static_cast<double>(subs) /
      static_cast<double>(std::max<std::size_t>(covered.index->size(), 1));

  std::uint64_t digest_raw = 0, digest_covered = 0;
  const bool identical =
      verify_identical(*raw.index, covered, msgs, &digest_raw,
                       &digest_covered);

  // Work units and residual counts are the same every round (same
  // messages, same index); only the timing varies.
  ProbeStats st_raw, st_cov;
  const benchutil::Rounds rounds(
      {{"uncovered",
        [&] { return probe_rate(raw, msgs, 32, target_events, &st_raw); }},
       {"covered",
        [&] { return probe_rate(covered, msgs, 32, target_events, &st_cov); }}},
      "uncovered");
  const double work_raw = st_raw.work_units, work_cov = st_cov.work_units;
  const double ns_raw = 1e9 / rounds.cell("uncovered").median;
  const double ns_cov = 1e9 / rounds.cell("covered").median;
  const benchutil::Quartiles tput_ratio = rounds.ratio("covered");
  std::vector<double> overhead;
  for (int r = 0; r < benchutil::kRounds; ++r) {
    overhead.push_back(rounds.samples("uncovered")[r] /
                       rounds.samples("covered")[r]);
  }

  char prefix[64];
  std::snprintf(prefix, sizeof prefix, "cover.subs%zu.skew%02d", subs,
                static_cast<int>(skew * 100.0 + 0.5));
  const std::string p(prefix);
  snap.gauges[p + ".compression_ratio"] = compression;
  snap.gauges[p + ".ns_uncovered"] = ns_raw;
  snap.gauges[p + ".ns_covered"] = ns_cov;
  benchutil::put(snap, p + ".tput_ratio", tput_ratio);
  benchutil::put(snap, p + ".overhead", benchutil::quartiles(overhead));
  snap.gauges[p + ".steal_s"] = rounds.steal_total();
  snap.gauges[p + ".work_uncovered"] = work_raw;
  snap.gauges[p + ".work_covered"] = work_cov;
  snap.gauges[p + ".work_saved_ratio"] =
      work_cov > 0.0 ? work_raw / work_cov : 0.0;
  snap.gauges[p + ".residual_checks_per_event"] = st_cov.checks_per_event;
  snap.gauges[p + ".residual_reject_rate"] = st_cov.reject_rate;
  snap.gauges[p + ".identical"] = identical ? 1.0 : 0.0;

  std::printf(
      "%-24s compression %7.2fx  tput %6.2fx [%.2f, %.2f]  work %6.2fx  "
      "resid/evt %8.1f  identical %s\n",
      prefix, compression, tput_ratio.median, tput_ratio.q1, tput_ratio.q3,
      work_cov > 0.0 ? work_raw / work_cov : 0.0, st_cov.checks_per_event,
      identical ? "yes" : "NO");
  rounds.print("evt/s");
  if (!identical) {
    std::fprintf(stderr,
                 "micro_cover: delivered sets diverged at subs=%zu skew=%g "
                 "(digest %016llx vs %016llx)\n",
                 subs, skew, (unsigned long long)digest_raw,
                 (unsigned long long)digest_covered);
  }
}

}  // namespace

int main(int argc, char** argv) {
  std::size_t subs = 100000;
  std::size_t n_msgs = 2048;
  double budget = 0.05;
  bool large = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--subs") == 0 && i + 1 < argc) {
      subs = std::strtoull(argv[++i], nullptr, 10);
    } else if (std::strcmp(argv[i], "--msgs") == 0 && i + 1 < argc) {
      n_msgs = std::strtoull(argv[++i], nullptr, 10);
    } else if (std::strcmp(argv[i], "--budget") == 0 && i + 1 < argc) {
      budget = std::strtod(argv[++i], nullptr);
    } else if (std::strcmp(argv[i], "--large") == 0) {
      large = true;
    }
  }

  benchutil::header("cover",
                    "subscription covering: compressed probe + delivery-time "
                    "expansion vs the uncovered baseline");
  benchutil::note("fp_volume_budget=" + std::to_string(budget) +
                  ", duplicate templates=4096, jitter=2.0");

  const AttributeSchema schema = AttributeSchema::uniform(4);
  MessageWorkload mwl;
  mwl.schema = schema;
  MessageGenerator mgen(mwl, 7);
  std::vector<Message> msgs;
  msgs.reserve(n_msgs);
  for (std::size_t i = 0; i < n_msgs; ++i) msgs.push_back(mgen.next());

  obs::MetricsSnapshot snap;
  snap.gauges["cover.fp_volume_budget"] = budget;
  snap.gauges["cover.hardware_concurrency"] =
      static_cast<double>(std::thread::hardware_concurrency());

  std::vector<std::size_t> sizes{subs};
  if (large) sizes.push_back(1000000);
  for (const std::size_t n : sizes) {
    const std::size_t target = n >= 1000000 ? 2000 : 20000;
    for (const double skew : {0.0, 0.5, 0.95}) {
      run_cell(snap, n, skew, budget, msgs, target);
    }
  }

  // Headline guards, mirroring the acceptance criteria: the largest
  // population's high-skew cell and the skew-0 overhead.
  const std::size_t big = sizes.back();
  const std::string hi =
      "cover.subs" + std::to_string(big) + ".skew95";
  snap.gauges["cover.headline_compression"] =
      snap.gauges[hi + ".compression_ratio"];
  const std::string zero = "cover.subs" + std::to_string(big) + ".skew00";
  for (const std::string q : {"", "_q1", "_q3"}) {
    snap.gauges["cover.headline_tput_ratio" + q] =
        snap.gauges[hi + ".tput_ratio" + q];
    snap.gauges["cover.skew0_overhead" + q] =
        snap.gauges[zero + ".overhead" + q];
  }
  const double overhead = snap.gauges["cover.skew0_overhead"];
  std::printf("headline: compression %.2fx, tput %.2fx, skew0 overhead %.3f\n",
              snap.gauges["cover.headline_compression"],
              snap.gauges["cover.headline_tput_ratio"], overhead);

  benchutil::write_bench_json("cover", snap);

  // CI gate: a covered cell whose delivered multiset (or digest) diverged
  // from the uncovered baseline is a correctness bug, not a perf result.
  for (const auto& [key, value] : snap.gauges) {
    const std::string suffix = ".identical";
    if (key.size() > suffix.size() &&
        key.compare(key.size() - suffix.size(), suffix.size(), suffix) == 0 &&
        value != 1.0) {
      std::fprintf(stderr, "FAIL %s: covered deliveries diverged\n",
                   key.c_str());
      return 1;
    }
  }
  return 0;
}
