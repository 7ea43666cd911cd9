#pragma once
// FlatIdMap: an open-addressing map from a 64-bit key (a subscription id,
// or a geometry hash) to a 32-bit value (an entry index or offset).
//
// Keys and values live in two parallel power-of-two arrays, 12 bytes per
// bucket and no per-entry allocation, where a node-based
// std::unordered_map pays a heap node per entry plus its bucket array.
// Lookup is linear probing from a mixed hash; the load stays at or below
// 7/8, and erase shifts later entries of the probe run back instead of
// leaving tombstones, so churn never degrades lookups.
//
// An empty bucket is marked by its value (kNone), not by a reserved key:
// representative ids use bit 63 and geometry hashes take any pattern, so
// every 64-bit key is storable, and kNone is the one value that is not.
//
// Iteration order is bucket order, which depends on the keys and the
// capacity history; callers that need a stable order must not rely on it.

#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

namespace bluedove {

class FlatIdMap {
 public:
  using Key = std::uint64_t;
  using Value = std::uint32_t;
  static constexpr Value kNone = std::numeric_limits<Value>::max();

  std::size_t size() const { return size_; }

  /// The value stored under `key`, or kNone.
  Value find(Key key) const {
    if (size_ == 0) return kNone;
    for (std::size_t i = home(key);; i = (i + 1) & mask_) {
      if (vals_[i] == kNone) return kNone;
      if (keys_[i] == key) return vals_[i];
    }
  }
  bool contains(Key key) const { return find(key) != kNone; }

  /// Stores `value` (never kNone) under `key`, replacing any previous value.
  void set(Key key, Value value) {
    if ((size_ + 1) * 8 > vals_.size() * 7) grow();
    std::size_t i = home(key);
    for (; vals_[i] != kNone; i = (i + 1) & mask_) {
      if (keys_[i] == key) {
        vals_[i] = value;
        return;
      }
    }
    keys_[i] = key;
    vals_[i] = value;
    ++size_;
  }

  /// Removes `key`; returns false when it was absent.
  bool erase(Key key) {
    if (size_ == 0) return false;
    std::size_t i = home(key);
    for (; keys_[i] != key; i = (i + 1) & mask_) {
      if (vals_[i] == kNone) return false;
    }
    if (vals_[i] == kNone) return false;
    // Backward shift: pull each later entry of the run into the hole unless
    // its home lies cyclically after the hole (moving it would strand it).
    for (std::size_t j = i;;) {
      j = (j + 1) & mask_;
      if (vals_[j] == kNone) break;
      if (((j - home(keys_[j])) & mask_) >= ((j - i) & mask_)) {
        keys_[i] = keys_[j];
        vals_[i] = vals_[j];
        i = j;
      }
    }
    vals_[i] = kNone;
    --size_;
    return true;
  }

  /// Drops every entry; keeps the bucket arrays for a rebuild.
  void clear() {
    vals_.assign(vals_.size(), kNone);
    size_ = 0;
  }

  /// Calls fn(key, value) for every entry, in bucket order.
  template <typename Fn>
  void for_each(Fn&& fn) const {
    for (std::size_t i = 0; i < vals_.size(); ++i) {
      if (vals_[i] != kNone) fn(keys_[i], vals_[i]);
    }
  }

 private:
  std::size_t home(Key key) const {
    // 64-bit finalizer (MurmurHash3 fmix64): sequential ids and FNV
    // hashes alike spread over the low bits the mask keeps.
    key ^= key >> 33;
    key *= 0xff51afd7ed558ccdull;
    key ^= key >> 33;
    key *= 0xc4ceb9fe1a85ec53ull;
    key ^= key >> 33;
    return static_cast<std::size_t>(key) & mask_;
  }

  void grow() {
    std::vector<Key> old_keys = std::move(keys_);
    std::vector<Value> old_vals = std::move(vals_);
    const std::size_t cap = old_vals.empty() ? 16 : old_vals.size() * 2;
    keys_.assign(cap, 0);
    vals_.assign(cap, kNone);
    mask_ = cap - 1;
    size_ = 0;
    for (std::size_t i = 0; i < old_vals.size(); ++i) {
      if (old_vals[i] != kNone) set(old_keys[i], old_vals[i]);
    }
  }

  std::vector<Key> keys_;
  std::vector<Value> vals_;  ///< kNone marks an empty bucket
  std::size_t mask_ = 0;
  std::size_t size_ = 0;
};

}  // namespace bluedove
