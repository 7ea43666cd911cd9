// Correctness-tooling suite (ctest label: audit).
//
// Proves two things about the invariant auditor and affinity checker:
//   1. every checker TRIPS when its invariant is broken (no always-green
//      checkers — each invariant class gets a deliberate injection), and
//   2. a healthy deployment runs CLEAN with every checker enabled.
// Plus the determinism digest: same-seed runs agree, different seeds don't.

#include <gtest/gtest.h>

#include "common/affinity.h"
#include "gossip/gossiper.h"
#include "harness/experiment.h"
#include "obs/audit.h"

namespace bluedove {
namespace {

using obs::Audit;
using obs::AuditKind;

/// Enables the auditor + affinity checker for the test body and restores
/// the build's defaults afterwards, so suites sharing the process binary
/// are unaffected by ordering.
class AuditTest : public ::testing::Test {
 protected:
  void SetUp() override {
    prev_audit_ = Audit::enabled();
    prev_affinity_ = affinity::enabled();
    Audit::set_enabled(true);
    Audit::set_fail_fast(false);
    Audit::reset();
    affinity::set_enabled(true);
    affinity::set_fail_fast(false);
    affinity::reset_violations();
  }

  void TearDown() override {
    Audit::set_enabled(prev_audit_);
    Audit::set_fail_fast(false);
    Audit::reset();
    affinity::set_enabled(prev_affinity_);
    affinity::set_fail_fast(false);
    affinity::reset_violations();
  }

 private:
  bool prev_audit_ = false;
  bool prev_affinity_ = false;
};

// ---------------------------------------------------------------------------
// Segment-table partition invariant
// ---------------------------------------------------------------------------

TEST_F(AuditTest, SegmentPartitionAcceptsExactCover) {
  const Range domain{0.0, 1000.0};
  EXPECT_EQ(obs::audit_segment_partition(
                "test", domain,
                {{500.0, 750.0}, {0.0, 500.0}, {750.0, 1000.0}}),
            0u);
  EXPECT_EQ(Audit::violations(AuditKind::kSegment), 0u);
}

TEST_F(AuditTest, SegmentPartitionTripsOnGap) {
  const Range domain{0.0, 1000.0};
  const auto v = obs::segment_partition_violations(
      domain, {{0.0, 400.0}, {500.0, 1000.0}});  // hole at [400, 500)
  ASSERT_EQ(v.size(), 1u);
  EXPECT_NE(v[0].find("gap"), std::string::npos);
  EXPECT_EQ(obs::audit_segment_partition("test", domain,
                                         {{0.0, 400.0}, {500.0, 1000.0}}),
            1u);
  EXPECT_EQ(Audit::violations(AuditKind::kSegment), 1u);
}

TEST_F(AuditTest, SegmentPartitionTripsOnOverlapAndUncoveredEdges) {
  const Range domain{0.0, 1000.0};
  const auto overlap = obs::segment_partition_violations(
      domain, {{0.0, 600.0}, {400.0, 1000.0}});
  ASSERT_EQ(overlap.size(), 1u);
  EXPECT_NE(overlap[0].find("overlap"), std::string::npos);

  const auto edges = obs::segment_partition_violations(
      domain, {{100.0, 900.0}});  // both domain edges bare
  EXPECT_EQ(edges.size(), 2u);

  EXPECT_FALSE(
      obs::segment_partition_violations(domain, {}).empty());
}

TEST_F(AuditTest, SplitAuditAcceptsExactHalvesAndTripsOnSkew) {
  const Range whole{0.0, 100.0};
  EXPECT_TRUE(obs::audit_split("test", whole, {0.0, 50.0}, {50.0, 100.0}));
  EXPECT_EQ(Audit::violations(AuditKind::kSegment), 0u);

  // Halves that leave [50, 60) uncovered.
  EXPECT_FALSE(obs::audit_split("test", whole, {0.0, 50.0}, {60.0, 100.0}));
  // An empty upper half.
  EXPECT_FALSE(obs::audit_split("test", whole, {0.0, 100.0}, {100.0, 100.0}));
  EXPECT_EQ(Audit::violations(AuditKind::kSegment), 2u);
}

TEST_F(AuditTest, MergeAuditAcceptsOneSidedExtensionOnly) {
  const Range mine{200.0, 400.0};
  EXPECT_TRUE(obs::audit_merge("test", mine, {200.0, 600.0}));  // grew hi
  EXPECT_TRUE(obs::audit_merge("test", mine, {0.0, 400.0}));    // grew lo
  EXPECT_EQ(Audit::violations(AuditKind::kSegment), 0u);

  EXPECT_FALSE(obs::audit_merge("test", mine, {0.0, 600.0}));  // both sides
  EXPECT_FALSE(obs::audit_merge("test", mine, mine));          // no growth
  EXPECT_FALSE(obs::audit_merge("test", mine, {250.0, 600.0}));  // shrank lo
  EXPECT_EQ(Audit::violations(AuditKind::kSegment), 3u);
}

// ---------------------------------------------------------------------------
// Gossip version monotonicity
// ---------------------------------------------------------------------------

MatcherState peer_state(NodeId id, std::uint64_t generation,
                        Version version) {
  MatcherState s;
  s.id = id;
  s.generation = generation;
  s.version = version;
  s.status = NodeStatus::kAlive;
  return s;
}

TEST_F(AuditTest, GossipVersionRegressionTrips) {
  Gossiper gossiper(/*self=*/1);
  gossiper.table().merge(peer_state(7, 1, 5));
  gossiper.table().merge(peer_state(8, 2, 3));
  EXPECT_EQ(gossiper.audit_versions(), 0u);  // records the high-water marks
  EXPECT_EQ(gossiper.audit_versions(), 0u);  // steady state stays clean

  // Inject a stale-version regression behind the merge protocol's back (a
  // real merge would refuse it — that is exactly the invariant).
  gossiper.table().find_mutable(7)->version = 2;
  EXPECT_EQ(gossiper.audit_versions(), 1u);
  EXPECT_EQ(Audit::violations(AuditKind::kGossipVersion), 1u);
  // The sweep keeps reporting until the entry is repaired.
  gossiper.table().find_mutable(7)->version = 5;
  EXPECT_EQ(gossiper.audit_versions(), 0u);

  // A generation rollback (node "un-restarting") is also a regression.
  gossiper.table().find_mutable(8)->generation = 1;
  EXPECT_EQ(gossiper.audit_versions(), 1u);
  EXPECT_EQ(Audit::violations(AuditKind::kGossipVersion), 2u);
}

TEST_F(AuditTest, GossipVersionAdvanceStaysClean) {
  Gossiper gossiper(/*self=*/1);
  gossiper.table().merge(peer_state(7, 1, 5));
  EXPECT_EQ(gossiper.audit_versions(), 0u);
  gossiper.table().find_mutable(7)->version = 9;
  EXPECT_EQ(gossiper.audit_versions(), 0u);
  gossiper.table().find_mutable(7)->generation = 2;  // restart: gen up...
  gossiper.table().find_mutable(7)->version = 1;     // ...version restarts
  EXPECT_EQ(gossiper.audit_versions(), 0u);
  EXPECT_EQ(Audit::violations(AuditKind::kGossipVersion), 0u);
}

// ---------------------------------------------------------------------------
// Queue accounting
// ---------------------------------------------------------------------------

TEST_F(AuditTest, QueueAccountingClosesAndTripsOnSkew) {
  EXPECT_EQ(obs::audit_queue_accounting("q", /*depth=*/4, /*high_water=*/10,
                                        /*enqueued=*/100, /*dequeued=*/96),
            0u);
  // A lost dequeue: flow says 5 in flight, the gauge says 4.
  EXPECT_EQ(obs::audit_queue_accounting("q", 4, 10, 100, 95), 1u);
  // A depth above its own high-water mark is self-contradictory.
  EXPECT_EQ(obs::audit_queue_accounting("q", 12, 10, 112, 100), 1u);
  EXPECT_EQ(Audit::violations(AuditKind::kQueueAccounting), 2u);
}

// ---------------------------------------------------------------------------
// Fail-fast
// ---------------------------------------------------------------------------

TEST_F(AuditTest, FailFastAborts) {
  EXPECT_DEATH(
      {
        Audit::set_enabled(true);
        Audit::set_fail_fast(true);
        Audit::report(AuditKind::kSegment, "injected for the death test");
      },
      "");
}

TEST_F(AuditTest, AffinityFailFastAborts) {
  EXPECT_DEATH(
      {
        affinity::set_enabled(true);
        affinity::set_fail_fast(true);
        const int dummy = 0;
        affinity::assert_node_thread(&dummy, "death-test");
      },
      "");
}

// ---------------------------------------------------------------------------
// Thread-affinity checker
// ---------------------------------------------------------------------------

TEST_F(AuditTest, AffinityChecksBindingAndContextIdentity) {
  const int ctx_a = 0;
  const int ctx_b = 0;

  // Unbound thread entering node code: violation.
  affinity::assert_node_thread(&ctx_a, "test-entry");
  EXPECT_EQ(affinity::violations(), 1u);

  {
    affinity::ScopedNodeBind bind(&ctx_a);
    EXPECT_EQ(affinity::current_role(), affinity::Role::kNode);
    affinity::assert_node_thread(&ctx_a, "test-entry");  // right node: clean
    EXPECT_EQ(affinity::violations(), 1u);
    affinity::assert_node_thread(&ctx_b, "test-entry");  // wrong node: trips
    EXPECT_EQ(affinity::violations(), 2u);
    affinity::assert_worker_thread("test-entry");  // node != worker: trips
    EXPECT_EQ(affinity::violations(), 3u);

    {  // Nested rebind (simulator delivering to another node) and restore.
      affinity::ScopedNodeBind nested(&ctx_b);
      affinity::assert_node_thread(&ctx_b, "test-entry");
      EXPECT_EQ(affinity::violations(), 3u);
    }
    affinity::assert_node_thread(&ctx_a, "test-entry");
    EXPECT_EQ(affinity::violations(), 3u);
  }
  EXPECT_EQ(affinity::current_role(), affinity::Role::kUnbound);

  {
    affinity::ScopedWorkerBind bind;
    affinity::assert_worker_thread("test-entry");  // clean
    EXPECT_EQ(affinity::violations(), 3u);
  }

  // Disabled checker never counts.
  affinity::set_enabled(false);
  affinity::assert_node_thread(&ctx_a, "test-entry");
  EXPECT_EQ(affinity::violations(), 3u);
}

// ---------------------------------------------------------------------------
// Whole-deployment clean run + determinism digest
// ---------------------------------------------------------------------------

ExperimentConfig small_config(std::uint64_t seed, bool digest) {
  ExperimentConfig cfg;
  cfg.matchers = 4;
  cfg.dispatchers = 1;
  cfg.subscriptions = 300;
  cfg.dims = 2;
  cfg.seed = seed;
  cfg.sim.digest = digest;
  return cfg;
}

TEST_F(AuditTest, HealthyDeploymentRunsCleanUnderFullAuditing) {
  Deployment dep(small_config(/*seed=*/11, /*digest=*/false));
  dep.start();
  dep.set_rate(400.0);
  dep.run_for(6.0);

  // Elasticity exercises the split path (audit_split fires inside
  // handle_split) and a graceful leave exercises audit_merge.
  const NodeId joiner = dep.add_matcher();
  dep.run_for(8.0);
  dep.leave_matcher(joiner);
  dep.run_for(8.0);
  dep.set_rate(0.0);
  dep.run_for(3.0);

  EXPECT_EQ(dep.audit_invariants(), 0u);
  EXPECT_EQ(Audit::total_violations(), 0u);
  EXPECT_EQ(affinity::violations(), 0u);
}

TEST_F(AuditTest, DeploymentAuditSweepTripsOnInjectedSegmentGap) {
  Deployment dep(small_config(/*seed=*/12, /*digest=*/false));
  dep.start();
  dep.run_for(2.0);
  EXPECT_EQ(dep.audit_invariants(), 0u);

  // Shrink one matcher's dim-0 segment behind the protocol's back: the
  // global sweep must see the hole.
  MatcherNode* m = dep.matcher(dep.matcher_ids().front());
  ASSERT_NE(m, nullptr);
  const Range seg = m->segment(0);
  ASSERT_GT(seg.width(), 2.0);
  const_cast<Gossiper&>(m->gossiper())
      .table()
      .find_mutable(m->id())
      ->segments[0] = Range{seg.lo, seg.hi - 1.0};
  EXPECT_GE(dep.audit_invariants(), 1u);
  EXPECT_GE(Audit::violations(AuditKind::kSegment), 1u);
}

TEST_F(AuditTest, DeterminismDigestSameSeedAgreesDifferentSeedDiffers) {
  auto run = [](std::uint64_t seed) {
    Deployment dep(small_config(seed, /*digest=*/true));
    dep.start();
    dep.set_rate(400.0);
    dep.run_for(5.0);
    return dep.digest();
  };
  const std::uint64_t a1 = run(21);
  const std::uint64_t a2 = run(21);
  const std::uint64_t b = run(22);
  EXPECT_NE(a1, 0u);
  EXPECT_EQ(a1, a2) << "same-seed runs must replay identically";
  EXPECT_NE(a1, b) << "different seeds should diverge (sanity check that "
                      "the digest actually covers the event stream)";
}

TEST_F(AuditTest, DigestOffByDefaultAndCostsNothing) {
  Deployment dep(small_config(/*seed=*/31, /*digest=*/false));
  dep.start();
  dep.set_rate(200.0);
  dep.run_for(2.0);
  EXPECT_EQ(dep.digest(), 0u);
}

}  // namespace
}  // namespace bluedove
