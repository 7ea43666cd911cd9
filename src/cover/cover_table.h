#pragma once
// Subscription covering (ROADMAP item 4): aggregate near-duplicate
// hyper-cuboids into a compressed set of covering representatives so the
// per-dimension indexes scale with the number of *distinct* predicate
// shapes instead of raw subscriptions ("Towards Scalable Subscription
// Aggregation...", PAPERS.md).
//
// The table sits between subscription registration and the index engines.
// Arriving cuboids are clustered by a quantized geometry key (centre cell
// per dimension); within a cluster a cuboid is admitted when
//
//   (a) it is contained in the group's bounding box (exact cover — free), or
//   (b) widening the box to include it keeps the box's false-positive
//       volume upper bound within `fp_volume_budget`:
//         vol(bbox') - covered_lb' <= budget * vol(bbox')
//       where covered_lb is a conservative lower bound on the volume the
//       members truly cover (budget 0 therefore admits only duplicates and
//       containment).
//
// Only the group representative (the bounding box) is inserted into the
// dimension index (the FlatBucketIndex hot path); the table's
// representative -> members expansion is consulted at delivery time to
// produce concrete subscriber lists. Because a widened box can admit
// points no member wants, every expansion re-checks the exact per-member
// residual predicate unless the group is `uniform` (all members
// byte-equal to the box), so delivered results stay byte-identical to the
// uncovered system.
//
// Layout: flat arenas with no heap allocation per group or member. A group
// is a 40-byte record; its box is row `slot` of g_lo_/g_hi_ (k values
// each). Its members (id, subscriber, range row) sit contiguously in one
// block of the member arena, in admission order, and a removal moves the
// last member into the leaver's place; blocks are powers of two, grow by
// moving to the next size class and are recycled per class. Member range
// rows (m_lo_/m_hi_, one free-listed row per member) exist only for
// members of non-uniform groups: a uniform member's ranges are its
// group's box, so rows are created when a group first stops being
// uniform and dropped when removals make it uniform again. A quantized
// cell's groups form an intrusive newest-first chain through the group
// records; one FlatIdMap maps each cell to its newest group, another each
// member id to its member entry.
//
// Concurrency: the table is owned by the matcher's node thread; every
// mutation and every expansion happens there, so the arenas need no
// internal locking. What offloaded probes read are the representatives'
// entries in the dimension index, filed there like raw subscriptions; the
// matcher holds back writes while a probe is in flight whenever the
// substrate granted offload (a worker pool, or at cores = 1 the node
// thread, whose completion is still a later loop task), so there the
// table a completion expands against is the one that was probed. On the
// simulator, which grants no offload, a write can still land between
// probe and completion (the probe's time is charged first). Representative ids therefore carry a per-slot
// generation (bit 63 flags a representative, then 28 generation bits over
// 28 slot bits), so a hit from an overtaken probe can never alias a
// recycled group: expand() drops ids whose generation no longer matches.
// Each dimension set has its own table and its own index, so ids minted by
// two tables never meet.
//
// Singleton pass-through: a group with one member indexes the raw
// subscription itself (raw id, raw box). With duplicate_skew=0 workloads the
// index contents are therefore byte-identical to the uncovered system and
// the only per-hit overhead on the delivery path is one bit test.
//
// Arity: every subscription added and every point expanded must have one
// value per domain; the matcher rejects other arities before they reach
// the table.

#include <cstdint>
#include <functional>
#include <vector>

#include "attr/subscription.h"
#include "attr/value.h"
#include "common/affinity.h"
#include "common/flat_id_map.h"
#include "common/types.h"
#include "index/subscription_index.h"

namespace bluedove {

struct CoverConfig {
  bool enabled = false;

  /// Maximum fraction of a representative's volume that may be
  /// (upper-bound) false positive. 0 admits only exact duplicates and
  /// containment; the default trades a sliver of residual-filter work for
  /// much deeper merging of jittered near-duplicates.
  double fp_volume_budget = 0.05;
};

/// One covering table per dimension set. Not thread-safe: node thread only
/// (see file comment for why that is the whole concurrency story).
class CoverTable {
 public:
  /// Bit 63 of a SubscriptionId flags a representative. Raw subscription
  /// ids must stay below 2^63 for covering; ids that violate this are
  /// force-grouped (never passed through) so delivery still resolves them.
  static constexpr SubscriptionId kRepBit = 1ull << 63;
  static bool is_rep(SubscriptionId id) { return (id & kRepBit) != 0; }

  /// Index mutation the caller must apply to the dimension index to keep it
  /// in sync (at most one erase plus one insert per table mutation).
  struct IndexOp {
    bool erase = false;
    SubscriptionId erase_id = 0;
    bool insert = false;
    Subscription insert_sub;
  };

  enum class AddKind {
    kNoop,      ///< duplicate id — nothing changed
    kNewGroup,  ///< started a new group (insert: raw pass-through or rep)
    kAbsorbed,  ///< contained in an existing box (no widening)
    kWidened,   ///< merged by widening an existing box within budget
  };

  struct AddResult : IndexOp {
    AddKind kind = AddKind::kNoop;
  };

  struct RemoveResult : IndexOp {
    bool found = false;
  };

  struct ExpandStats {
    std::uint32_t emitted = 0;
    std::uint32_t checks = 0;  ///< residual member predicates evaluated
    std::uint32_t rejects = 0;
  };

  CoverTable(CoverConfig config, std::vector<Range> domains);

  /// Registers a raw subscription. The returned ops keep the caller's index
  /// holding exactly one entry per group.
  BD_NODE_THREAD AddResult add(const Subscription& raw);

  /// Unregisters a raw subscription. A group whose last member leaves has
  /// its representative erased and its slot recycled (generation bumped).
  /// Boxes never shrink on member removal; the residual filters keep
  /// correctness and the admission bound is re-tightened conservatively.
  BD_NODE_THREAD RemoveResult remove(SubscriptionId id);

  bool contains(SubscriptionId id) const { return member_of_.contains(id); }

  /// Delivery-time expansion: appends one MatchHit per member of `rep_id`
  /// whose exact predicate accepts `values` (all members for uniform
  /// groups). Returns false for stale ids (dead or recycled group), which
  /// callers treat as an empty expansion.
  BD_NODE_THREAD bool expand(SubscriptionId rep_id,
                             const std::vector<Value>& values,
                             std::vector<MatchHit>& out,
                             ExpandStats* stats = nullptr);

  /// Brute-force oracle over every raw member: the differential reference
  /// the kCover audit and tests compare expanded results against.
  void collect_matches(const std::vector<Value>& values,
                       std::vector<MatchHit>& out) const;

  /// Visits every raw member (reconstructed from the arenas), in
  /// deterministic slot order. Segment split/merge hands over raw
  /// subscriptions so cover sets re-partition cleanly on the receiving
  /// matcher.
  void for_each_member(
      const std::function<void(const Subscription&)>& fn) const;

  // --- introspection --------------------------------------------------------
  std::size_t raw_count() const { return member_of_.size(); }
  std::size_t group_count() const { return live_groups_; }
  /// Entries the caller's index holds on our behalf: one per group.
  std::size_t indexed_count() const { return live_groups_; }
  /// Monotonic mutation stamp: bumps on every add/remove, so callers can
  /// tell whether the table changed between a probe and its completion
  /// (gates the differential audit).
  std::uint64_t mutations() const { return mutations_; }

  const CoverConfig& config() const { return config_; }

 private:
  static constexpr std::uint32_t kNil = FlatIdMap::kNone;

  /// A group's fixed-size record; its box is row `slot` of g_lo_/g_hi_.
  struct Group {
    std::uint64_t key = 0;  ///< quantized geometry cell
    /// Conservative lower bound on the volume the members truly cover.
    double covered_lb = 0.0;
    std::uint32_t members = 0;   ///< member block offset in members_
    std::uint32_t newer = kNil;  ///< neighbours in the cell's chain
    std::uint32_t older = kNil;
    std::uint32_t count : 27 = 0;  ///< members; 0 while the slot is free
    std::uint32_t block_class : 5 = 0;  ///< the block holds 1 << block_class
    /// Bumped when the slot is freed; rep ids carry it (28 bits).
    std::uint32_t generation : 28 = 1;
    std::uint32_t uniform : 1 = 1;  ///< all members equal the box: no residuals
    /// Singleton pass-through: the index holds the sole member's raw
    /// subscription instead of a representative.
    std::uint32_t indexed_raw : 1 = 0;
  };
  static_assert(sizeof(Group) == 40);

  struct Member {
    SubscriptionId id = 0;
    SubscriberId subscriber = 0;
    std::uint32_t group = 0;
    std::uint32_t row = kNil;  ///< m_lo_/m_hi_ row; kNil in uniform groups
  };

  /// Blocks of 1 << c entries carved from one growing arena. Freed blocks
  /// are recycled per size class c; a request with none of its class free
  /// splits a larger free block before the arena grows.
  struct BlockPool {
    std::uint32_t end = 0;  ///< arena entries handed out so far
    std::vector<std::vector<std::uint32_t>> free;  ///< offsets, per class

    std::uint32_t alloc(unsigned c);
    void release(std::uint32_t offset, unsigned c) {
      free[c].push_back(offset);
    }
  };

  SubscriptionId rep_id_of(std::uint32_t slot) const {
    return kRepBit |
           (static_cast<SubscriptionId>(groups_[slot].generation)
            << kSlotBits) |
           static_cast<SubscriptionId>(slot);
  }
  Subscription rep_subscription(std::uint32_t slot) const;

  std::uint64_t key_of(const std::vector<Range>& ranges) const;
  double volume(const std::vector<Range>& ranges) const;
  bool box_covers(std::uint32_t slot, const std::vector<Range>& ranges) const;
  bool box_equals(std::uint32_t slot, const std::vector<Range>& ranges) const;
  /// Exact predicate of member entry `at`: its own row, or its group's box
  /// while the group is uniform.
  const Value* member_lo(std::uint32_t at) const;
  const Value* member_hi(std::uint32_t at) const;

  std::uint32_t alloc_group();
  void free_group(std::uint32_t slot);
  /// Appends `raw` to group `slot`, moving the members to a block of the
  /// next size class when theirs is full.
  void append_member(std::uint32_t slot, const Subscription& raw);
  /// Gives member entry `at` a range row; returns its offset in m_lo_/m_hi_
  /// for the caller to fill.
  std::size_t alloc_row(std::uint32_t at);
  void free_row(std::uint32_t at);
  /// Recomputes covered_lb (max single-member volume — a valid lower bound)
  /// and the uniform flag after a member left; drops the rows of a group
  /// that became uniform.
  void retighten(std::uint32_t slot);

  // Rep id layout: [63] rep flag | [28..55] generation | [0..27] slot.
  static constexpr int kSlotBits = 28;
  static constexpr SubscriptionId kSlotMask = (1ull << kSlotBits) - 1;

  CoverConfig config_;
  std::vector<Range> domains_;
  std::size_t k_ = 0;

  std::vector<Group> groups_;
  std::vector<Value> g_lo_;  ///< group slot g owns [g*k, g*k + k)
  std::vector<Value> g_hi_;
  std::vector<std::uint32_t> free_groups_;
  std::size_t live_groups_ = 0;

  std::vector<Member> members_;  ///< a group's members are one block
  BlockPool member_blocks_;
  /// Member range rows, k values each; only members of non-uniform groups
  /// hold one.
  std::vector<Value> m_lo_;
  std::vector<Value> m_hi_;
  std::vector<std::uint32_t> free_rows_;

  /// Quantized geometry key → the cell's newest group; admission walks
  /// Group::older from there, at most 8 groups (kMaxChain).
  FlatIdMap chains_;
  FlatIdMap member_of_;  ///< raw id → its entry in members_

  std::uint64_t mutations_ = 0;
};

}  // namespace bluedove
