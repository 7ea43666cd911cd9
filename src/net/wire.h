#pragma once
// Wire framing for the TCP transport.
//
// Every TCP frame is:
//   u32  frame length (bytes that follow, little-endian)
//   u32  sender node id
//   ...  one or more serialized Envelopes, back to back
//
// A frame carrying several envelopes is an "EnvelopeBatch" frame: the
// receiver parses envelopes until the frame is exhausted. A single-envelope
// frame is byte-identical to the historical one-message-per-frame format,
// so batching peers interoperate with non-batching peers in both
// directions. Inside a frame, a Delivery with the body of the Delivery
// before it may be a continuation record (net/protocol.h): one body per
// matched message, plus a few bytes per hit. Hosts that predate the
// record reject such frames.
//
// These helpers serialize each envelope exactly once, directly into the
// caller's (reusable) Writer buffer — the 4-byte length prefix is reserved
// up front and patched in place, so there is no second full-frame copy.

#include <cstdint>
#include <memory>
#include <vector>

#include "common/serde.h"
#include "net/protocol.h"

namespace bluedove::net::wire {

/// Frames larger than this are treated as malformed by the reader.
inline constexpr std::uint32_t kMaxFrame = 64u * 1024u * 1024u;

/// Bytes of the per-frame header that precede the envelope bytes (the
/// sender id; the length prefix itself is not part of the framed length).
inline constexpr std::size_t kFrameOverhead = 4;

/// Serializes one complete single-envelope frame (length prefix + sender +
/// envelope) into `w`, which is cleared first. After the call `w.data()` /
/// `w.size()` are ready for one write syscall.
void build_frame(serde::Writer& w, NodeId sender, const Envelope& env);

/// Fills an 8-byte frame header for a frame whose body (everything after
/// the length prefix, excluding the 4 sender bytes) is `body_bytes` long.
void fill_header(std::uint8_t out[8], std::uint32_t body_bytes,
                 NodeId sender);

/// Decodes the little-endian length prefix.
std::uint32_t read_frame_len(const std::uint8_t bytes[4]);

/// Parses a frame body (everything after the length prefix): the sender id
/// followed by one or more envelopes. A continuation record becomes a
/// Delivery that shares the blocks of the Delivery before it; anywhere
/// else it fails the frame.
///
/// When `owner` is supplied (the transport passes the refcounted frame
/// buffer `body` points into), payload fields parse as zero-copy views
/// that share the owner — the frame stays alive as long as any payload
/// does, however wide the fan-out. Without an owner every payload is
/// copied out (self-contained envelopes; the copies are counted below).
struct ParsedFrame {
  NodeId from = kInvalidNode;
  std::vector<Envelope> envelopes;
  bool ok = false;
  /// Payload copies this parse had to make (0 when an owner was supplied).
  std::uint64_t payload_copies = 0;
  std::uint64_t payload_bytes_copied = 0;
};
ParsedFrame parse_frame(const std::uint8_t* body, std::size_t len,
                        std::shared_ptr<const void> owner = nullptr);
/// The same parse into `out`, whose envelope vector is cleared but keeps
/// its capacity: a reader that parses every frame into one ParsedFrame
/// allocates (and moves each envelope) only while its frames still grow.
void parse_frame(const std::uint8_t* body, std::size_t len,
                 std::shared_ptr<const void> owner, ParsedFrame& out);

/// Loops ::send with MSG_NOSIGNAL until all `len` bytes are written.
bool write_all(int fd, const void* data, std::size_t len);

/// Loops ::recv (retrying EINTR) until `len` bytes have been read.
bool read_all(int fd, void* data, std::size_t len);

/// One-shot convenience: serialize `env` (reusing a thread-local buffer)
/// and write the frame to `fd`. No alloc on the steady-state path.
bool send_frame(int fd, NodeId from, const Envelope& env);

}  // namespace bluedove::net::wire
