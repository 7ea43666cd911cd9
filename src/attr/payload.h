#pragma once
// Zero-copy message payload and values: (refcounted owner, pointer, length)
// views.
//
// A payload's bytes live in exactly one heap block — the producer's string
// or, on the receive path, the TCP frame buffer the bytes arrived in — and
// every Message / Delivery that carries the payload shares that block by
// refcount. A fan-out to N subscribers is N refcount bumps; serialization
// memcpy()s the bytes straight from the shared block into the outgoing
// frame. The only copy a payload ever makes is read_payload_ref() falling
// back when its Reader has no owner (cold paths: request_reply, tests);
// the Reader counts those and the transport exports the totals as
// wire.payload_copies / wire.payload_bytes_copied.
//
// Wire encoding (write_payload_ref/read_payload_ref): varint length + raw
// bytes — byte-identical to serde str(), so frames are unchanged from the
// std::string days and the determinism digests are unaffected.
//
// ValuesRef is the same idea for a Delivery's attribute coordinates: one
// immutable block of little-endian f64s per matched message, shared by
// every Delivery of it. Its wire encoding (write_values_ref/
// read_values_ref) is varint count + the f64s, byte-identical to the
// std::vector<Value> it replaced.

#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <initializer_list>
#include <memory>
#include <ostream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "attr/value.h"
#include "common/serde.h"

namespace bluedove {

class PayloadRef {
 public:
  PayloadRef() = default;

  /// Producer path: takes ownership of the string's bytes (one move into a
  /// shared block; the fan-out then shares it).
  PayloadRef(std::string s) {  // NOLINT(google-explicit-constructor)
    if (s.empty()) return;
    auto owned = std::make_shared<const std::string>(std::move(s));
    data_ = owned->data();
    size_ = owned->size();
    owner_ = std::move(owned);
  }
  PayloadRef(const char* s)  // NOLINT(google-explicit-constructor)
      : PayloadRef(std::string(s)) {}
  PayloadRef(std::shared_ptr<const std::string> s) {
    if (s == nullptr || s->empty()) return;
    data_ = s->data();
    size_ = s->size();
    owner_ = std::move(s);
  }

  /// Zero-copy view: `data[0..n)` must stay valid for as long as `owner`
  /// keeps its referent alive (the receive path passes the frame buffer).
  PayloadRef(std::shared_ptr<const void> owner, const char* data,
             std::size_t n)
      : owner_(std::move(owner)), data_(n != 0 ? data : nullptr), size_(n) {}

  const char* data() const { return data_; }
  std::size_t size() const { return size_; }
  /// What keeps the bytes alive (a received frame's buffer for a view).
  const std::shared_ptr<const void>& owner() const { return owner_; }
  bool empty() const { return size_ == 0; }
  std::string_view view() const {
    return {data_ != nullptr ? data_ : "", size_};
  }
  std::string to_string() const { return std::string(view()); }

  friend bool operator==(const PayloadRef& a, const PayloadRef& b) {
    return a.view() == b.view();
  }
  friend std::ostream& operator<<(std::ostream& os, const PayloadRef& p) {
    return os << p.view();
  }

 private:
  std::shared_ptr<const void> owner_;
  const char* data_ = nullptr;
  std::size_t size_ = 0;
};

inline void write_payload_ref(serde::Writer& w, const PayloadRef& p) {
  w.blob(p.data(), p.size());
}

/// Zero-copy when the Reader carries an owner (the payload stays a view
/// into the frame, sharing its refcount); otherwise copies into a private
/// block and notes the copy on the Reader.
inline PayloadRef read_payload_ref(serde::Reader& r) {
  const std::uint64_t n = r.varint();
  if (n == 0) return {};
  const std::uint8_t* p = r.view(static_cast<std::size_t>(n));
  if (p == nullptr) return {};  // underrun; Reader already marked bad
  const auto* chars = reinterpret_cast<const char*>(p);
  if (r.owner() != nullptr) {
    return {r.owner(), chars, static_cast<std::size_t>(n)};
  }
  r.note_copy(static_cast<std::size_t>(n));
  return {std::string(chars, static_cast<std::size_t>(n))};
}

/// An immutable run of Values: a refcounted view whose bytes are
/// little-endian f64s, either a producer's vector or a slice of the frame
/// buffer they arrived in. Copying one is a refcount bump; the bytes are
/// never written after construction.
class ValuesRef {
 public:
  static_assert(std::endian::native == std::endian::little &&
                sizeof(Value) == 8);

  ValuesRef() = default;

  /// Producer path: takes ownership of the vector (one move into a shared
  /// block; every copy of the ref then shares it).
  ValuesRef(std::vector<Value> v) {  // NOLINT(google-explicit-constructor)
    if (v.empty()) return;
    auto owned = std::make_shared<const std::vector<Value>>(std::move(v));
    count_ = owned->size();
    const void* bytes = owned->data();
    block_ = std::shared_ptr<const void>(std::move(owned), bytes);
  }
  ValuesRef(std::initializer_list<Value> v)  // NOLINT
      : ValuesRef(std::vector<Value>(v)) {}

  /// Zero-copy view: `count` f64s at `bytes`, kept alive by `owner` (the
  /// receive path passes the frame buffer). `bytes` need not be aligned.
  ValuesRef(const std::shared_ptr<const void>& owner,
            const std::uint8_t* bytes, std::size_t count)
      : block_(count != 0 ? std::shared_ptr<const void>(owner, bytes)
                          : nullptr),
        count_(count) {}

  std::size_t size() const { return count_; }
  /// The first value's bytes (nullptr when empty).
  const std::uint8_t* bytes() const {
    return static_cast<const std::uint8_t*>(block_.get());
  }
  /// Shares ownership with whatever keeps the bytes alive (the producer's
  /// vector or a received frame's buffer); use_count() counts its holders.
  const std::shared_ptr<const void>& owner() const { return block_; }

  Value operator[](std::size_t i) const {
    Value v;
    std::memcpy(&v, bytes() + i * sizeof(Value), sizeof v);
    return v;
  }

  friend bool operator==(const ValuesRef& a, const ValuesRef& b) {
    return a.count_ == b.count_ &&
           (a.count_ == 0 ||
            std::memcmp(a.bytes(), b.bytes(), a.count_ * sizeof(Value)) == 0);
  }
  friend std::ostream& operator<<(std::ostream& os, const ValuesRef& v) {
    os << '{';
    for (std::size_t i = 0; i < v.size(); ++i) os << (i ? ", " : "") << v[i];
    return os << '}';
  }

 private:
  std::shared_ptr<const void> block_;  ///< aliases the first value's bytes
  std::size_t count_ = 0;
};

inline void write_values_ref(serde::Writer& w, const ValuesRef& v) {
  w.varint(v.size());
  w.bytes(v.bytes(), v.size() * sizeof(Value));
}

/// Zero-copy when the Reader carries an owner, like read_payload_ref;
/// otherwise copies into a private block and notes the copy on the Reader.
/// The count is checked against the bytes left before it is multiplied, so
/// a hostile count fails the read instead of wrapping or allocating.
inline ValuesRef read_values_ref(serde::Reader& r) {
  const std::uint64_t n = r.varint();
  if (n == 0) return {};
  if (n > r.remaining() / sizeof(Value)) {
    r.fail();
    return {};
  }
  const auto count = static_cast<std::size_t>(n);
  const std::uint8_t* p = r.view(count * sizeof(Value));
  if (p == nullptr) return {};  // underrun; Reader already marked bad
  if (r.owner() != nullptr) return ValuesRef(r.owner(), p, count);
  r.note_copy(count * sizeof(Value));
  std::vector<Value> copy(count);
  std::memcpy(copy.data(), p, count * sizeof(Value));
  return ValuesRef(std::move(copy));
}

}  // namespace bluedove
