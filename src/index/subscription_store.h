#pragma once
// SubscriptionStore: a per-matcher arena holding each subscription exactly
// once, addressed by a dense 32-bit slot id.
//
// The store decouples subscription *storage* from subscription *indexing*:
// engines register slot ids in their probe structures instead of copying
// `shared_ptr<const Subscription>` per bucket, so the hot probe path moves
// 4-byte slots rather than 16-byte refcounted pointers, and the k range
// predicates of a subscription live in one contiguous allocation that every
// dimension index shares. Slots are reference counted because a matcher may
// register the same subscription in several dimension sets (handover copies
// after a split land this way); the slot is recycled once the last index
// releases it.
//
// Concurrent readers. Slots live in geometrically-growing chunks (chunk k
// holds 64<<k entries), so at(slot) is address-stable: growth allocates a
// new chunk and never moves existing entries, making concurrent at() calls
// on *published* slots safe while the owning (node) thread keeps acquiring.
// Removal needs no reader protocol of its own: the matcher releases a slot
// only through a write, and it applies writes only while no offloaded
// probe is in flight, so no probe ever reads a recycled slot. A freed slot
// is cleared and recycled at once, in LIFO order.

#include <array>
#include <bit>
#include <cstdint>
#include <memory>
#include <vector>

#include "attr/subscription.h"
#include "common/flat_id_map.h"
#include "common/types.h"

namespace bluedove {

class SubscriptionStore {
 public:
  using Slot = std::uint32_t;
  static constexpr Slot kNoSlot = FlatIdMap::kNone;

  /// Interns `sub`: returns the existing slot (refcount bumped) when a
  /// subscription with the same id is already stored, else copies it into a
  /// fresh or recycled slot.
  Slot acquire(const Subscription& sub);

  /// Drops one reference to the subscription with this id; frees the slot
  /// for reuse when it was the last one. Returns false when the id is not
  /// stored.
  bool release(SubscriptionId id);

  /// Slot of a stored subscription id, or kNoSlot.
  Slot slot_of(SubscriptionId id) const { return by_id_.find(id); }

  /// The subscription in a slot. Address-stable: safe to call from offload
  /// workers for any slot the index they probe references, while the node
  /// thread keeps acquiring and releasing other slots.
  const Subscription& at(Slot slot) const { return slot_ref(slot); }

  std::size_t live() const { return by_id_.size(); }
  std::size_t capacity() const { return next_; }

  /// Slot-accounting invariant (obs/audit.h, kStoreAccounting): every slot
  /// ever allocated is exactly one of live or free. O(1).
  bool accounting_balanced() const {
    return by_id_.size() + free_.size() == next_;
  }

  /// TEST ONLY: allocates a slot that is tracked by neither live nor free,
  /// unbalancing the accounting so tests can prove the auditor trips. The
  /// leaked slot is never handed out (refcount stays 0 and it is not on the
  /// free list), so normal operation continues safely around the hole.
  void leak_slot_for_audit_test();

  void clear();

 private:
  /// First chunk holds 64 slots; chunk k holds 64<<k, so 27 chunks cover
  /// the full 32-bit slot space with at most 27 allocations.
  static constexpr std::uint32_t kChunkBase = 64;
  static constexpr std::size_t kMaxChunks = 27;

  Subscription& slot_ref(Slot slot) const {
    const std::uint32_t adj = slot / kChunkBase + 1;
    const int k = std::bit_width(adj) - 1;
    const Slot base = (kChunkBase << k) - kChunkBase;
    return chunks_[static_cast<std::size_t>(k)][slot - base];
  }

  mutable std::array<std::unique_ptr<Subscription[]>, kMaxChunks> chunks_;
  Slot next_ = 0;  ///< allocation high-water mark
  std::vector<std::uint32_t> refs_;  ///< indexed by slot; 0 = free
  std::vector<Slot> free_;
  FlatIdMap by_id_;
};

}  // namespace bluedove
