#include "net/wire.h"

#include <sys/socket.h>

#include <cerrno>
#include <cstring>

namespace bluedove::net::wire {

void build_frame(serde::Writer& w, NodeId sender, const Envelope& env) {
  w.clear();
  const std::size_t len_at = w.reserve(4);
  w.u32(sender);
  write_envelope(w, env);
  w.patch_u32(len_at, static_cast<std::uint32_t>(w.size() - 4));
}

void fill_header(std::uint8_t out[8], std::uint32_t body_bytes,
                 NodeId sender) {
  const std::uint32_t len = body_bytes + static_cast<std::uint32_t>(kFrameOverhead);
  std::memcpy(out, &len, 4);
  std::memcpy(out + 4, &sender, 4);
}

std::uint32_t read_frame_len(const std::uint8_t bytes[4]) {
  return static_cast<std::uint32_t>(bytes[0]) |
         (static_cast<std::uint32_t>(bytes[1]) << 8) |
         (static_cast<std::uint32_t>(bytes[2]) << 16) |
         (static_cast<std::uint32_t>(bytes[3]) << 24);
}

ParsedFrame parse_frame(const std::uint8_t* body, std::size_t len,
                        std::shared_ptr<const void> owner) {
  ParsedFrame out;
  parse_frame(body, len, std::move(owner), out);
  return out;
}

void parse_frame(const std::uint8_t* body, std::size_t len,
                 std::shared_ptr<const void> owner, ParsedFrame& out) {
  out.envelopes.clear();
  serde::Reader r(body, len);
  if (owner != nullptr) r.set_owner(std::move(owner));
  out.from = r.u32();
  while (r.ok() && !r.at_end()) {
    if (body[len - r.remaining()] != kContinuationTag) {
      out.envelopes.push_back(read_envelope(r));
      continue;
    }
    // A continuation record continues the Delivery just before it, and
    // nothing else.
    const Delivery* prev = out.envelopes.empty()
                               ? nullptr
                               : std::get_if<Delivery>(
                                     &out.envelopes.back().payload);
    if (prev == nullptr) {
      r.fail();
      break;
    }
    r.u8();
    Delivery d = parse_continuation(r, *prev);
    out.envelopes.push_back(Envelope::of(std::move(d)));
  }
  out.ok = r.ok() && !out.envelopes.empty();
  out.payload_copies = r.copies();
  out.payload_bytes_copied = r.copy_bytes();
}

bool write_all(int fd, const void* data, std::size_t len) {
  const auto* p = static_cast<const std::uint8_t*>(data);
  while (len > 0) {
    const ssize_t n = ::send(fd, p, len, MSG_NOSIGNAL);
    if (n <= 0) return false;
    p += n;
    len -= static_cast<std::size_t>(n);
  }
  return true;
}

bool read_all(int fd, void* data, std::size_t len) {
  auto* p = static_cast<std::uint8_t*>(data);
  while (len > 0) {
    const ssize_t n = ::recv(fd, p, len, 0);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    p += n;
    len -= static_cast<std::size_t>(n);
  }
  return true;
}

bool send_frame(int fd, NodeId from, const Envelope& env) {
  thread_local serde::Writer w;  // reused frame buffer, no steady-state alloc
  build_frame(w, from, env);
  return write_all(fd, w.data(), w.size());
}

}  // namespace bluedove::net::wire
