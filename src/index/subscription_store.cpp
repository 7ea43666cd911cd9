#include "index/subscription_store.h"

#include "obs/audit.h"

namespace bluedove {

SubscriptionStore::Slot SubscriptionStore::acquire(const Subscription& sub) {
  if (const Slot found = by_id_.find(sub.id); found != kNoSlot) {
    ++refs_[found];
    return found;
  }
  Slot slot;
  if (!free_.empty()) {
    slot = free_.back();
    free_.pop_back();
  } else {
    slot = next_++;
    const std::uint32_t adj = slot / kChunkBase + 1;
    const auto k = static_cast<std::size_t>(std::bit_width(adj) - 1);
    if (chunks_[k] == nullptr) {
      chunks_[k] = std::make_unique<Subscription[]>(
          static_cast<std::size_t>(kChunkBase) << k);
    }
    refs_.push_back(0);
  }
  slot_ref(slot) = sub;
  refs_[slot] = 1;
  by_id_.set(sub.id, slot);
  BD_AUDIT(obs::AuditKind::kStoreAccounting, accounting_balanced(),
           "store: live+free != allocated after acquire");
  return slot;
}

bool SubscriptionStore::release(SubscriptionId id) {
  const Slot slot = by_id_.find(id);
  if (slot == kNoSlot) return false;
  if (--refs_[slot] == 0) {
    by_id_.erase(id);
    // No index references the slot any more, so no probe can be reading
    // it: recycle at once, LIFO (the simulator's determinism depends on
    // this order). Clearing the entry drops its ranges allocation now.
    slot_ref(slot) = Subscription{};
    free_.push_back(slot);
  }
  BD_AUDIT(obs::AuditKind::kStoreAccounting, accounting_balanced(),
           "store: live+free != allocated after release");
  return true;
}

void SubscriptionStore::leak_slot_for_audit_test() {
  const Slot slot = next_++;
  const std::uint32_t adj = slot / kChunkBase + 1;
  const auto k = static_cast<std::size_t>(std::bit_width(adj) - 1);
  if (chunks_[k] == nullptr) {
    chunks_[k] = std::make_unique<Subscription[]>(
        static_cast<std::size_t>(kChunkBase) << k);
  }
  refs_.push_back(0);  // allocated, yet on no list: the accounting now leaks
}

void SubscriptionStore::clear() {
  for (auto& chunk : chunks_) chunk.reset();
  next_ = 0;
  refs_.clear();
  free_.clear();
  by_id_.clear();
}

}  // namespace bluedove
