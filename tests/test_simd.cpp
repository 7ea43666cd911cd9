// Tests for the SIMD range-compare kernel family (src/simd/).
//
// Every wide variant compiled into this binary that the running CPU can
// execute is pinned against the scalar reference kernel: exhaustive
// boundary values (lo == v, v == hi, NaN, +/-inf, denormals), every tail
// length n mod lane-width, and randomized columns. The selection output
// must be byte-identical to scalar — same indices, same order — because
// the FlatBucketIndex audit oracle and the determinism digests both rely
// on that. A final differential drives a whole FlatBucketIndex under each
// kernel and diffs the match results.

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <vector>

#include "attr/schema.h"
#include "common/rng.h"
#include "index/flat_bucket_index.h"
#include "index/subscription_index.h"
#include "index_probe.h"
#include "simd/range_kernel.h"
#include "workload/generators.h"

namespace bluedove {
namespace {

using simd::KernelKind;
using simd::RangeKernel;
using testing_probe::probe_one;

/// Restores the active kernel to auto-dispatch when a test exits, so test
/// order never leaks a forced kernel into unrelated suites.
struct KernelGuard {
  ~KernelGuard() { simd::set_kernel("auto"); }
};

std::vector<const RangeKernel*> runnable_kernels() {
  std::vector<const RangeKernel*> out;
  for (const RangeKernel* k : simd::compiled_kernels()) {
    if (simd::runnable(*k)) out.push_back(k);
  }
  return out;
}

/// Runs both entry points of `k` and the scalar oracle over the same
/// columns and requires identical selection vectors.
void expect_matches_scalar(const RangeKernel& k, const std::vector<double>& lo,
                           const std::vector<double>& hi, double v,
                           const char* what) {
  ASSERT_EQ(lo.size(), hi.size());
  const std::size_t n = lo.size();
  const RangeKernel& ref = simd::scalar_kernel();

  std::vector<std::uint32_t> want(n), got(n);
  const std::size_t want_n = ref.scan(lo.data(), hi.data(), n, v, want.data());
  const std::size_t got_n = k.scan(lo.data(), hi.data(), n, v, got.data());
  ASSERT_EQ(got_n, want_n) << k.name << " scan count, " << what << " v=" << v;
  for (std::size_t i = 0; i < want_n; ++i) {
    ASSERT_EQ(got[i], want[i]) << k.name << " scan sel[" << i << "], " << what
                               << " v=" << v;
  }

  // Compact: start from the all-indices selection and filter it in place.
  std::vector<std::uint32_t> wantc(n), gotc(n);
  for (std::size_t i = 0; i < n; ++i) wantc[i] = gotc[i] = (std::uint32_t)i;
  const std::size_t wc = ref.compact(lo.data(), hi.data(), v, wantc.data(), n);
  const std::size_t gc = k.compact(lo.data(), hi.data(), v, gotc.data(), n);
  ASSERT_EQ(gc, wc) << k.name << " compact count, " << what << " v=" << v;
  for (std::size_t i = 0; i < wc; ++i) {
    ASSERT_EQ(gotc[i], wantc[i])
        << k.name << " compact sel[" << i << "], " << what << " v=" << v;
  }
}

TEST(SimdKernels, ScalarKernelSemantics) {
  // Pin the reference semantics directly: half-open, NaN deselects.
  const RangeKernel& ref = simd::scalar_kernel();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const std::vector<double> lo = {0.0, 5.0, nan, 0.0, 10.0};
  const std::vector<double> hi = {10.0, 5.0, 10.0, nan, 20.0};
  std::vector<std::uint32_t> sel(lo.size());
  // v=5: [0,10) contains, [5,5) empty, NaN rows deselect, [10,20) excludes.
  std::size_t n = ref.scan(lo.data(), hi.data(), lo.size(), 5.0, sel.data());
  ASSERT_EQ(n, 1u);
  EXPECT_EQ(sel[0], 0u);
  // v=10: hi-exclusive on row 0, lo-inclusive on row 4.
  n = ref.scan(lo.data(), hi.data(), lo.size(), 10.0, sel.data());
  ASSERT_EQ(n, 1u);
  EXPECT_EQ(sel[0], 4u);
  // NaN message value matches nothing.
  n = ref.scan(lo.data(), hi.data(), lo.size(), nan, sel.data());
  EXPECT_EQ(n, 0u);
}

TEST(SimdKernels, BoundaryValuesMatchScalarOnAllVariants) {
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double den = std::numeric_limits<double>::denorm_min();
  const double eps = std::numeric_limits<double>::epsilon();

  // Rows exercising every comparison edge; probed at values that sit
  // exactly on the edges.
  const std::vector<double> lo = {0.0,  5.0, 5.0,  -inf, 5.0, nan,
                                  5.0,  0.0, -den, den,  0.0, -0.0,
                                  -1.0, 1.0, 5.0,  5.0 - eps};
  const std::vector<double> hi = {10.0, 5.0, 6.0,  5.0, inf,  10.0,
                                  nan,  nan, den,  1.0, -0.0, 0.0,
                                  nan,  inf, 5.0 + eps, 5.0};
  const std::vector<double> probes = {5.0,  0.0, -0.0, den, -den, 10.0,
                                      -inf, inf, nan,  5.0 - eps, 5.0 + eps};

  for (const RangeKernel* k : runnable_kernels()) {
    for (double v : probes) {
      expect_matches_scalar(*k, lo, hi, v, "boundary rows");
    }
  }
}

TEST(SimdKernels, EveryTailLengthMatchesScalar) {
  // n mod lane-width coverage: every column length 0..4*width+3 so partial
  // final vectors, empty input, and sub-width inputs all hit the tail path.
  Rng rng(31337);
  for (const RangeKernel* k : runnable_kernels()) {
    const std::size_t width = k->lanes;
    const std::size_t max_n = 4 * width + 3;
    for (std::size_t n = 0; n <= max_n; ++n) {
      std::vector<double> lo(n), hi(n);
      for (std::size_t i = 0; i < n; ++i) {
        lo[i] = rng.uniform(0, 100);
        hi[i] = lo[i] + rng.uniform(0, 50);
      }
      for (double v : {0.0, 25.0, 50.0, 99.0, 150.0}) {
        expect_matches_scalar(*k, lo, hi, v, "tail sweep");
      }
    }
  }
}

TEST(SimdKernels, RandomizedColumnsMatchScalar) {
  Rng rng(2024);
  for (const RangeKernel* k : runnable_kernels()) {
    for (int rep = 0; rep < 40; ++rep) {
      const std::size_t n = 1 + rng.next_below(257);
      std::vector<double> lo(n), hi(n);
      for (std::size_t i = 0; i < n; ++i) {
        lo[i] = rng.uniform(-1000, 1000);
        // Mix empty, tiny and wide ranges, plus occasional NaN poison.
        const double w = rng.uniform(-10, 200);
        hi[i] = lo[i] + w;
        if (rng.next_below(29) == 0) lo[i] = std::nan("");
        if (rng.next_below(31) == 0) hi[i] = std::nan("");
      }
      const double v = rng.uniform(-1100, 1100);
      expect_matches_scalar(*k, lo, hi, v, "randomized");
    }
  }
}

TEST(SimdDispatch, ScalarAlwaysCompiledAndRunnable) {
  const auto& all = simd::compiled_kernels();
  ASSERT_FALSE(all.empty());
  bool have_scalar = false;
  for (const RangeKernel* k : all) {
    EXPECT_NE(k->scan, nullptr) << k->name;
    EXPECT_NE(k->compact, nullptr) << k->name;
    if (k->kind == KernelKind::kScalar) have_scalar = true;
  }
  EXPECT_TRUE(have_scalar);
  EXPECT_TRUE(simd::runnable(simd::scalar_kernel()));
  EXPECT_EQ(simd::kernel_by_name("scalar"), &simd::scalar_kernel());
  EXPECT_EQ(simd::kernel_by_name("no-such-kernel"), nullptr);
}

TEST(SimdDispatch, SetKernelForcesAndRestores) {
  KernelGuard guard;
  ASSERT_TRUE(simd::set_kernel("scalar"));
  EXPECT_EQ(simd::active_kernel().kind, KernelKind::kScalar);
  ASSERT_TRUE(simd::set_kernel("off"));  // alias for scalar
  EXPECT_EQ(simd::active_kernel().kind, KernelKind::kScalar);
  EXPECT_FALSE(simd::set_kernel("bogus-isa"));
  EXPECT_EQ(simd::active_kernel().kind, KernelKind::kScalar) << "unchanged";
  ASSERT_TRUE(simd::set_kernel("auto"));
  // Auto picks the widest runnable variant; whatever it is must be runnable.
  EXPECT_TRUE(simd::runnable(simd::active_kernel()));
  // Forcing each runnable wide variant by name must succeed.
  for (const RangeKernel* k : runnable_kernels()) {
    EXPECT_TRUE(simd::set_kernel(k->name)) << k->name;
    EXPECT_EQ(simd::active_kernel().kind, k->kind) << k->name;
  }
}

TEST(SimdDifferential, FlatBucketIndexIdenticalUnderEveryKernel) {
  // The whole-engine differential: one subscription population, one message
  // stream, probed once per runnable kernel. Hits must be byte-identical
  // (ids AND order) across kernels — the probe contract is "same selection
  // vector as scalar", not merely "same set".
  KernelGuard guard;
  const Range domain{0, 1000};
  FlatBucketIndex index(0, domain);

  const AttributeSchema schema = AttributeSchema::uniform(4, 1000.0);
  SubscriptionWorkload wl;
  wl.schema = schema;
  wl.predicate_width = 130.0;
  SubscriptionGenerator gen(wl, 909);
  for (int i = 0; i < 1500; ++i) {
    index.insert(gen.next());
  }

  MessageWorkload mwl;
  mwl.schema = schema;
  MessageGenerator mgen(mwl, 808);
  std::vector<Message> msgs;
  for (int i = 0; i < 300; ++i) msgs.push_back(mgen.next());

  // Reference pass under the scalar kernel (single + batched paths).
  ASSERT_TRUE(simd::set_kernel("scalar"));
  std::vector<std::vector<SubscriptionId>> ref_single(msgs.size());
  for (std::size_t i = 0; i < msgs.size(); ++i) {
    WorkCounter wc;
    for (const auto& h : probe_one(index, msgs[i], wc)) {
      ref_single[i].push_back(h.id);
    }
  }
  std::vector<MatchHit> ref_batch_hits;
  std::vector<std::uint32_t> ref_offsets;
  std::vector<double> ref_work;
  {
    WorkCounter wc;
    MatchScratch scratch;
    index.match_batch(msgs, ref_batch_hits, ref_offsets, wc, scratch,
                      &ref_work);
  }

  for (const RangeKernel* k : runnable_kernels()) {
    ASSERT_TRUE(simd::set_kernel(k->name));
    for (std::size_t i = 0; i < msgs.size(); ++i) {
      WorkCounter wc;
      const std::vector<MatchHit> hits = probe_one(index, msgs[i], wc);
      ASSERT_EQ(hits.size(), ref_single[i].size())
          << k->name << " msg " << i;
      for (std::size_t j = 0; j < hits.size(); ++j) {
        ASSERT_EQ(hits[j].id, ref_single[i][j])
            << k->name << " msg " << i << " hit " << j;
      }
    }
    std::vector<MatchHit> bh;
    std::vector<std::uint32_t> bo;
    std::vector<double> bw;
    WorkCounter wc;
    MatchScratch scratch;
    index.match_batch(msgs, bh, bo, wc, scratch, &bw);
    ASSERT_EQ(bh.size(), ref_batch_hits.size()) << k->name;
    for (std::size_t j = 0; j < bh.size(); ++j) {
      ASSERT_EQ(bh[j].id, ref_batch_hits[j].id) << k->name << " hit " << j;
    }
    ASSERT_EQ(bo, ref_offsets) << k->name;
    ASSERT_EQ(bw, ref_work) << k->name;
  }
}

}  // namespace
}  // namespace bluedove
