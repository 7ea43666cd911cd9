#pragma once
// Zero-copy message payload: a (refcounted owner, pointer, length) view.
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

#include <cstddef>
#include <cstdint>
#include <memory>
#include <ostream>
#include <string>
#include <string_view>
#include <utility>

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

}  // namespace bluedove
