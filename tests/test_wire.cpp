// Tests for the batched wire path: EnvelopeBatch framing (byte-exact
// round-trips against the legacy format), the bulk FrameReader and the
// exact-length one-shot read_frame, the host's outbound path
// (fan-out, bounded per-peer queues, backpressure drops, stale-connection
// retry, a peer that never reads, one frame per pass under the default
// WireConfig and the 64 KiB cut), the one-thread-per-host structure, and a
// full dispatcher->matcher pipeline whose requests share frames.

#include <gtest/gtest.h>

#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <filesystem>
#include <future>
#include <set>
#include <thread>

#include "common/thread_safety.h"
#include "index/linear_scan_index.h"
#include "index_probe.h"
#include "net/reactor.h"
#include "net/tcp_transport.h"
#include "net/wire.h"
#include "node/dispatcher_node.h"
#include "node/matcher_node.h"
#include "node_owners.h"
#include "obs/recorder.h"

namespace bluedove {
namespace {

using net::TcpEndpoint;
using net::TcpHost;
using net::WireConfig;

bool eventually(const std::function<bool()>& pred, double seconds = 10.0) {
  const auto deadline =
      std::chrono::steady_clock::now() +
      std::chrono::duration_cast<std::chrono::steady_clock::duration>(
          std::chrono::duration<double>(seconds));
  while (std::chrono::steady_clock::now() < deadline) {
    if (pred()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  return pred();
}

class CountingNode final : public Node {
 public:
  void start(NodeContext& ctx) override { ctx_.store(&ctx); }
  NodeContext* ctx() const { return ctx_.load(); }
  void on_receive(NodeId from, Envelope env) override {
    last_from.store(from);
    if (std::holds_alternative<ClientPublish>(env.payload)) {
      publishes.fetch_add(1);
    }
    total.fetch_add(1);
  }
  std::atomic<NodeContext*> ctx_{nullptr};
  std::atomic<NodeId> last_from{kInvalidNode};
  std::atomic<int> publishes{0};
  std::atomic<int> total{0};
};

NodeContext* wait_ctx(CountingNode* node) {
  eventually([&] { return node->ctx() != nullptr; });
  return node->ctx();
}

Envelope sample_publish(MessageId id) {
  Message msg;
  msg.id = id;
  msg.values = {1.5, 2.5, 3.5};
  msg.payload = "payload-" + std::to_string(id);
  return Envelope::of(ClientPublish{std::move(msg)});
}

Envelope traced_match_request(MessageId id) {
  MatchRequest req;
  req.msg = std::get<ClientPublish>(sample_publish(id).payload).msg;
  req.dim = 2;
  req.dispatched_at = 12.25;
  req.trace_id = 0xabcdef;
  req.parent_span = 0x123456;
  return Envelope::of(std::move(req));
}

std::vector<std::uint8_t> serialize(const Envelope& env) {
  serde::Writer w;
  write_envelope(w, env);
  return w.take();
}

// ---------------------------------------------------------------------------
// Framing
// ---------------------------------------------------------------------------

TEST(WireFraming, SingleEnvelopeFrameMatchesLegacyBytesExactly) {
  const Envelope env = traced_match_request(42);
  // The legacy (pre-batching) frame: serialize the body, then prepend
  // length and sender in a second buffer.
  serde::Writer body;
  body.u32(7);  // sender
  write_envelope(body, env);
  serde::Writer legacy;
  legacy.u32(static_cast<std::uint32_t>(body.size()));
  for (const std::uint8_t b : body.bytes()) legacy.u8(b);

  serde::Writer framed;
  net::wire::build_frame(framed, 7, env);
  ASSERT_EQ(framed.size(), legacy.size());
  EXPECT_EQ(0, std::memcmp(framed.data(), legacy.data(), legacy.size()));
}

TEST(WireFraming, MultiEnvelopeFrameRoundTripsByteExactly) {
  // Assemble a 3-envelope frame the way the writer pool does: header +
  // bodies, then parse it back and compare each envelope's serialization
  // byte for byte (the traced request carries a trace block, which must
  // survive).
  const std::vector<Envelope> envs = {sample_publish(1),
                                      traced_match_request(2),
                                      sample_publish(3)};
  std::vector<std::uint8_t> frame(8);
  std::uint32_t body_bytes = 0;
  for (const Envelope& e : envs) {
    const auto bytes = serialize(e);
    body_bytes += static_cast<std::uint32_t>(bytes.size());
    frame.insert(frame.end(), bytes.begin(), bytes.end());
  }
  net::wire::fill_header(frame.data(), body_bytes, 9);

  const std::uint32_t len = net::wire::read_frame_len(frame.data());
  ASSERT_EQ(len, body_bytes + net::wire::kFrameOverhead);
  const net::wire::ParsedFrame parsed =
      net::wire::parse_frame(frame.data() + 4, len);
  ASSERT_TRUE(parsed.ok);
  EXPECT_EQ(parsed.from, 9u);
  ASSERT_EQ(parsed.envelopes.size(), envs.size());
  for (std::size_t i = 0; i < envs.size(); ++i) {
    EXPECT_EQ(serialize(parsed.envelopes[i]), serialize(envs[i]))
        << "envelope " << i;
  }
  const auto& req = std::get<MatchRequest>(parsed.envelopes[1].payload);
  EXPECT_EQ(req.trace_id, 0xabcdefu);
  EXPECT_EQ(req.parent_span, 0x123456u);
}

TEST(WireFraming, ParseRejectsTruncatedAndEmptyFrames) {
  const auto bytes = serialize(sample_publish(5));
  std::vector<std::uint8_t> frame(8 + bytes.size());
  std::copy(bytes.begin(), bytes.end(), frame.begin() + 8);
  net::wire::fill_header(frame.data(), static_cast<std::uint32_t>(bytes.size()),
                         3);
  // Truncated mid-envelope: not ok.
  EXPECT_FALSE(net::wire::parse_frame(frame.data() + 4, frame.size() - 4 - 3)
                   .ok);
  // Sender only, zero envelopes: not ok.
  EXPECT_FALSE(net::wire::parse_frame(frame.data() + 4, 4).ok);
}

// ---------------------------------------------------------------------------
// Zero-copy payload receive path
// ---------------------------------------------------------------------------

std::vector<std::uint8_t> framed_publish(MessageId id, NodeId from) {
  const auto bytes = serialize(sample_publish(id));
  std::vector<std::uint8_t> frame(8 + bytes.size());
  std::copy(bytes.begin(), bytes.end(), frame.begin() + 8);
  net::wire::fill_header(frame.data(),
                         static_cast<std::uint32_t>(bytes.size()), from);
  return frame;
}

TEST(WireZeroCopy, OwnedFrameParsesPayloadsAsViewsIntoTheBuffer) {
  // Parse with a refcounted owner, the way TcpHost's reader loop does: the
  // payload must come back as a view into the frame buffer itself — no
  // copies counted, data pointer inside the buffer.
  const auto frame = framed_publish(11, 3);
  auto buf = std::make_shared<std::vector<std::uint8_t>>(frame.begin() + 4,
                                                         frame.end());
  const net::wire::ParsedFrame parsed =
      net::wire::parse_frame(buf->data(), buf->size(), buf);
  ASSERT_TRUE(parsed.ok);
  EXPECT_EQ(parsed.payload_copies, 0u);
  EXPECT_EQ(parsed.payload_bytes_copied, 0u);
  ASSERT_EQ(parsed.envelopes.size(), 1u);
  const auto& msg = std::get<ClientPublish>(parsed.envelopes[0].payload).msg;
  EXPECT_EQ(msg.payload.view(), "payload-11");
  const char* lo = reinterpret_cast<const char*>(buf->data());
  EXPECT_GE(msg.payload.data(), lo);
  EXPECT_LT(msg.payload.data(), lo + buf->size());
}

TEST(WireZeroCopy, NoOwnerFallsBackToCountedCopies) {
  // Without an owner a view would dangle, so the parser copies and counts.
  const auto frame = framed_publish(12, 3);
  const net::wire::ParsedFrame parsed = net::wire::parse_frame(
      frame.data() + 4, frame.size() - 4);
  ASSERT_TRUE(parsed.ok);
  EXPECT_EQ(parsed.payload_copies, 1u);
  EXPECT_EQ(parsed.payload_bytes_copied, std::string("payload-12").size());
  const auto& msg = std::get<ClientPublish>(parsed.envelopes[0].payload).msg;
  EXPECT_EQ(msg.payload.view(), "payload-12");
  const char* lo = reinterpret_cast<const char*>(frame.data());
  const bool inside = msg.payload.data() >= lo &&
                      msg.payload.data() < lo + frame.size();
  EXPECT_FALSE(inside) << "copy must not alias the frame buffer";
}

TEST(WireZeroCopy, PayloadViewKeepsFrameBufferAlive) {
  // The parsed message is the last reference to the frame buffer: dropping
  // the local shared_ptr must not invalidate the payload view.
  Message msg;
  {
    const auto frame = framed_publish(13, 3);
    auto buf = std::make_shared<std::vector<std::uint8_t>>(frame.begin() + 4,
                                                           frame.end());
    net::wire::ParsedFrame parsed =
        net::wire::parse_frame(buf->data(), buf->size(), buf);
    ASSERT_TRUE(parsed.ok);
    msg = std::get<ClientPublish>(parsed.envelopes[0].payload).msg;
    EXPECT_GT(buf.use_count(), 1) << "payload should hold a reference";
  }  // frame + buf gone; msg.payload's owner keeps the bytes alive
  EXPECT_EQ(msg.payload.view(), "payload-13");
}

TEST(WireZeroCopy, TcpReceivePathCountsZeroPayloadCopies) {
  // End to end over a real socket: every publish received through the
  // reader loop must keep its payload as a view into the per-frame buffer,
  // so the receiver's wire.payload_copies counter stays 0.
  constexpr int kMsgs = 400;
  auto recv_node = std::make_unique<CountingNode>();
  CountingNode* rn = recv_node.get();
  TcpHost receiver(2, 0, std::move(recv_node));
  receiver.start();

  WireConfig wire;
  wire.batch = 16;
  auto send_node = std::make_unique<CountingNode>();
  CountingNode* sn = send_node.get();
  TcpHost sender(1, 0, std::move(send_node), 42, wire);
  sender.add_peer(2, {"127.0.0.1", receiver.port()});
  sender.start();
  NodeContext* ctx = wait_ctx(sn);

  for (int m = 0; m < kMsgs; ++m) {
    ctx->send(2, sample_publish(static_cast<MessageId>(m)));
  }
  EXPECT_TRUE(eventually([&] { return rn->publishes.load() == kMsgs; }))
      << "got " << rn->publishes.load();
  const auto snap = receiver.wire_metrics().snapshot();
  EXPECT_EQ(snap.counters.at("wire.payload_copies"), 0u);
  EXPECT_EQ(snap.counters.at("wire.payload_bytes_copied"), 0u);
  sender.stop();
  receiver.stop();
}

// ---------------------------------------------------------------------------
// FrameReader: one recv() per wake, one buffer per frame
// ---------------------------------------------------------------------------

/// A connected AF_UNIX stream pair: `tx` blocking, `rx` non-blocking.
struct SocketPair {
  SocketPair() {
    int fds[2];
    EXPECT_EQ(::socketpair(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0, fds), 0);
    tx = fds[0];
    rx = fds[1];
    ::fcntl(rx, F_SETFL, ::fcntl(rx, F_GETFL) | O_NONBLOCK);
  }
  ~SocketPair() {
    ::close(tx);
    ::close(rx);
  }
  SocketPair(const SocketPair&) = delete;
  SocketPair& operator=(const SocketPair&) = delete;
  int tx = -1;
  int rx = -1;
};

std::vector<std::uint8_t> frame_of(const Envelope& env, NodeId from = 5) {
  serde::Writer w;
  net::wire::build_frame(w, from, env);
  return {w.data(), w.data() + w.size()};
}

/// `n` publish frames (ids first_id..) back to back, as one byte stream.
std::vector<std::uint8_t> publish_stream(int n, MessageId first_id = 1) {
  std::vector<std::uint8_t> out;
  for (int i = 0; i < n; ++i) {
    const auto f = framed_publish(first_id + static_cast<MessageId>(i), 5);
    out.insert(out.end(), f.begin(), f.end());
  }
  return out;
}

MessageId publish_id(const net::wire::ParsedFrame& frame) {
  return std::get<ClientPublish>(frame.envelopes.at(0).payload).msg.id;
}

/// Reads until the reader stops handing out frames; returns that status.
net::FrameReader::Status drain(net::FrameReader& reader, int fd,
                               std::vector<std::uint8_t>& scratch,
                               std::vector<net::wire::ParsedFrame>* out) {
  for (;;) {
    net::wire::ParsedFrame frame;
    const auto st = reader.read(fd, scratch, &frame);
    if (st != net::FrameReader::Status::kFrame) return st;
    out->push_back(std::move(frame));
  }
}

TEST(FrameReader, ManyFramesInOneSegmentComeOutInOrder) {
  SocketPair sp;
  const auto bytes = publish_stream(200);
  ASSERT_TRUE(net::wire::write_all(sp.tx, bytes.data(), bytes.size()));
  std::vector<std::uint8_t> scratch(net::kRecvBufferBytes);
  net::FrameReader reader;
  std::vector<net::wire::ParsedFrame> frames;
  EXPECT_EQ(drain(reader, sp.rx, scratch, &frames),
            net::FrameReader::Status::kBlocked);
  ASSERT_EQ(frames.size(), 200u);
  for (std::size_t i = 0; i < frames.size(); ++i) {
    ASSERT_TRUE(frames[i].ok);
    EXPECT_EQ(frames[i].from, 5u);
    EXPECT_EQ(frames[i].payload_copies, 0u);
    EXPECT_EQ(publish_id(frames[i]), i + 1);
  }
  EXPECT_EQ(reader.frame_bytes(), framed_publish(200, 5).size() - 4);
}

TEST(FrameReader, SixtyFourSmallFramesInOneSendCostOneRecv) {
  // The recv that gets all 64 frames comes up short of the buffer, so the
  // wake ends without a second recv that would only return EAGAIN.
  SocketPair sp;
  const auto bytes = publish_stream(64);
  ASSERT_EQ(::send(sp.tx, bytes.data(), bytes.size(), 0),
            static_cast<::ssize_t>(bytes.size()));
  std::vector<std::uint8_t> scratch(net::kRecvBufferBytes);
  net::FrameReader reader;
  std::vector<net::wire::ParsedFrame> frames;
  EXPECT_EQ(drain(reader, sp.rx, scratch, &frames),
            net::FrameReader::Status::kBlocked);
  EXPECT_EQ(frames.size(), 64u);
  EXPECT_EQ(reader.recv_calls(), 1u);
}

TEST(FrameReader, SameStreamSplitAtEveryOffset) {
  // Three frames of different sizes; the stream arrives in two segments
  // cut at every possible offset, length prefixes included.
  std::vector<std::uint8_t> bytes;
  for (const Envelope& env :
       {sample_publish(1), traced_match_request(2), sample_publish(3)}) {
    const auto f = frame_of(env);
    bytes.insert(bytes.end(), f.begin(), f.end());
  }
  std::vector<std::uint8_t> scratch(net::kRecvBufferBytes);
  for (std::size_t cut = 1; cut < bytes.size(); ++cut) {
    SocketPair sp;
    net::FrameReader reader;
    std::vector<net::wire::ParsedFrame> frames;
    ASSERT_TRUE(net::wire::write_all(sp.tx, bytes.data(), cut));
    ASSERT_EQ(drain(reader, sp.rx, scratch, &frames),
              net::FrameReader::Status::kBlocked);
    ASSERT_TRUE(net::wire::write_all(sp.tx, bytes.data() + cut,
                                     bytes.size() - cut));
    ASSERT_EQ(drain(reader, sp.rx, scratch, &frames),
              net::FrameReader::Status::kBlocked);
    ASSERT_EQ(frames.size(), 3u) << "cut at " << cut;
    EXPECT_EQ(publish_id(frames[0]), 1u);
    EXPECT_EQ(std::get<MatchRequest>(frames[1].envelopes.at(0).payload)
                  .trace_id,
              0xabcdefu);
    EXPECT_EQ(publish_id(frames[2]), 3u);
  }
}

TEST(FrameReader, FrameLargerThanTheReceiveBuffer) {
  // A small frame, one of ~3 receive buffers, and another small one: the
  // big body spans several recvs and is carved into its buffer piecewise.
  Message big;
  big.id = 7;
  big.values = {1.0};
  big.payload = std::string(3 * net::kRecvBufferBytes + 123, 'x');
  std::vector<std::uint8_t> bytes = publish_stream(1, 1);
  const auto f = frame_of(Envelope::of(ClientPublish{big}));
  bytes.insert(bytes.end(), f.begin(), f.end());
  const auto tail = publish_stream(1, 9);
  bytes.insert(bytes.end(), tail.begin(), tail.end());

  SocketPair sp;
  std::thread writer([&] {
    EXPECT_TRUE(net::wire::write_all(sp.tx, bytes.data(), bytes.size()));
  });
  std::vector<std::uint8_t> scratch(net::kRecvBufferBytes);
  net::FrameReader reader;
  std::vector<net::wire::ParsedFrame> frames;
  while (frames.size() < 3) {
    const auto st = drain(reader, sp.rx, scratch, &frames);
    ASSERT_EQ(st, net::FrameReader::Status::kBlocked);
    ::pollfd pfd{sp.rx, POLLIN, 0};
    if (frames.size() < 3) ::poll(&pfd, 1, 1000);
  }
  writer.join();
  ASSERT_EQ(frames.size(), 3u);
  EXPECT_EQ(publish_id(frames[0]), 1u);
  const Message& got =
      std::get<ClientPublish>(frames[1].envelopes[0].payload).msg;
  EXPECT_EQ(got.id, 7u);
  EXPECT_EQ(got.payload.view(), big.payload.view());
  EXPECT_EQ(frames[1].payload_copies, 0u);
  EXPECT_EQ(publish_id(frames[2]), 9u);
}

TEST(FrameReader, BadLengthPrefixAfterValidFramesComesOutLast) {
  SocketPair sp;
  auto bytes = publish_stream(3);
  const std::uint8_t bad[4] = {0xff, 0xff, 0xff, 0xff};  // > kMaxFrame
  bytes.insert(bytes.end(), bad, bad + 4);
  const auto more = publish_stream(2, 10);  // unframeable past the bad one
  bytes.insert(bytes.end(), more.begin(), more.end());
  ASSERT_TRUE(net::wire::write_all(sp.tx, bytes.data(), bytes.size()));
  std::vector<std::uint8_t> scratch(net::kRecvBufferBytes);
  net::FrameReader reader;
  std::vector<net::wire::ParsedFrame> frames;
  EXPECT_EQ(drain(reader, sp.rx, scratch, &frames),
            net::FrameReader::Status::kMalformed);
  ASSERT_EQ(frames.size(), 3u);
  for (std::size_t i = 0; i < 3; ++i) EXPECT_EQ(publish_id(frames[i]), i + 1);
}

TEST(FrameReader, RetiredAndUnknownTagsAreMalformed) {
  // Tag 22 is retired and 200 was never assigned: either one fails its
  // frame, after every valid frame before it.
  for (const std::uint8_t tag : {std::uint8_t{22}, std::uint8_t{200}}) {
    SocketPair sp;
    auto bytes = publish_stream(2);
    const std::uint8_t body[] = {tag, 0, 9, 9};
    std::vector<std::uint8_t> frame(8 + sizeof body);
    std::copy(body, body + sizeof body, frame.begin() + 8);
    net::wire::fill_header(frame.data(), sizeof body, 5);
    bytes.insert(bytes.end(), frame.begin(), frame.end());
    ASSERT_TRUE(net::wire::write_all(sp.tx, bytes.data(), bytes.size()));
    std::vector<std::uint8_t> scratch(net::kRecvBufferBytes);
    net::FrameReader reader;
    std::vector<net::wire::ParsedFrame> frames;
    EXPECT_EQ(drain(reader, sp.rx, scratch, &frames),
              net::FrameReader::Status::kMalformed)
        << "tag " << int{tag};
    EXPECT_EQ(frames.size(), 2u) << "tag " << int{tag};
  }
}

TEST(FrameReader, EofMidFrameIsClosed) {
  SocketPair sp;
  const auto bytes = publish_stream(2);
  const std::size_t part = bytes.size() - 5;  // the second frame, cut short
  ASSERT_TRUE(net::wire::write_all(sp.tx, bytes.data(), part));
  ::shutdown(sp.tx, SHUT_WR);
  std::vector<std::uint8_t> scratch(net::kRecvBufferBytes);
  net::FrameReader reader;
  std::vector<net::wire::ParsedFrame> frames;
  net::FrameReader::Status st = net::FrameReader::Status::kBlocked;
  for (int i = 0; i < 4 && st == net::FrameReader::Status::kBlocked; ++i) {
    st = drain(reader, sp.rx, scratch, &frames);
  }
  EXPECT_EQ(st, net::FrameReader::Status::kClosed);
  ASSERT_EQ(frames.size(), 1u);
  EXPECT_EQ(publish_id(frames[0]), 1u);
}

TEST(FrameReader, EachPayloadPinsOnlyItsOwnFrame) {
  // Frames read in one recv() still get one buffer each: a payload kept
  // past the read pins its own frame's bytes, not its neighbours' or the
  // receive buffer, and the reader keeps no reference of its own.
  SocketPair sp;
  const auto bytes = publish_stream(4);
  ASSERT_TRUE(net::wire::write_all(sp.tx, bytes.data(), bytes.size()));
  std::vector<std::uint8_t> scratch(net::kRecvBufferBytes);
  net::FrameReader reader;
  std::vector<Message> kept;
  std::vector<std::uint32_t> lens;
  for (;;) {
    net::wire::ParsedFrame frame;
    if (reader.read(sp.rx, scratch, &frame) !=
        net::FrameReader::Status::kFrame) {
      break;
    }
    kept.push_back(std::get<ClientPublish>(frame.envelopes[0].payload).msg);
    lens.push_back(reader.frame_bytes());
  }
  ASSERT_EQ(kept.size(), 4u);
  const auto* lo_scratch = reinterpret_cast<const char*>(scratch.data());
  for (std::size_t i = 0; i < kept.size(); ++i) {
    const PayloadRef& p = kept[i].payload;
    ASSERT_NE(p.owner(), nullptr);
    EXPECT_EQ(p.owner().use_count(), 1) << "frame " << i;
    const auto* lo = static_cast<const char*>(p.owner().get());
    EXPECT_GE(p.data(), lo);
    EXPECT_LE(p.data() + p.size(), lo + lens[i]);
    EXPECT_FALSE(p.data() >= lo_scratch &&
                 p.data() < lo_scratch + scratch.size());
    for (std::size_t j = 0; j < i; ++j) {
      EXPECT_NE(p.owner(), kept[j].payload.owner());
    }
  }
}

TEST(FrameReader, PayloadOfACoalescedFramePinsExactlyThatFrame) {
  // Two frames of three envelopes each, built the way a host builds them.
  // Every payload parsed from a frame views that frame's one buffer: the
  // three share it, the other frame's three share another, and nothing
  // but the kept payloads holds either.
  SocketPair sp;
  net::FrameWriter writer(5);
  for (MessageId id = 1; id <= 6; ++id) {
    writer.append(sample_publish(id), 64);
    if (id % 3 == 0) writer.close_frame();
  }
  net::FrameWriter::Sent sent;
  ASSERT_EQ(writer.flush(sp.tx, &sent), net::FrameWriter::Flush::kDone);
  ASSERT_EQ(sent.frames, 2u);

  std::vector<std::uint8_t> scratch(net::kRecvBufferBytes);
  net::FrameReader reader;
  std::vector<Message> kept;
  std::vector<std::uint32_t> lens;
  for (;;) {
    net::wire::ParsedFrame frame;
    if (reader.read(sp.rx, scratch, &frame) !=
        net::FrameReader::Status::kFrame) {
      break;
    }
    ASSERT_EQ(frame.envelopes.size(), 3u);
    for (const Envelope& env : frame.envelopes) {
      kept.push_back(std::get<ClientPublish>(env.payload).msg);
    }
    lens.push_back(reader.frame_bytes());
  }
  ASSERT_EQ(kept.size(), 6u);
  ASSERT_EQ(lens.size(), 2u);
  for (std::size_t i = 0; i < kept.size(); ++i) {
    const PayloadRef& p = kept[i].payload;
    const PayloadRef& first = kept[i / 3 * 3].payload;
    EXPECT_EQ(kept[i].id, i + 1);
    EXPECT_EQ(p.view(), "payload-" + std::to_string(i + 1));
    ASSERT_NE(p.owner(), nullptr);
    EXPECT_EQ(p.owner(), first.owner()) << "envelope " << i;
    EXPECT_EQ(p.owner().use_count(), 3) << "envelope " << i;
    const auto* lo = static_cast<const char*>(p.owner().get());
    EXPECT_GE(p.data(), lo);
    EXPECT_LE(p.data() + p.size(), lo + lens[i / 3]);
  }
  EXPECT_NE(kept[0].payload.owner(), kept[3].payload.owner());
  // The last payload of a frame alone keeps it alive.
  kept.erase(kept.begin(), kept.begin() + 2);
  EXPECT_EQ(kept[0].payload.owner().use_count(), 1);
  EXPECT_EQ(kept[0].payload.view(), "payload-3");
}

TEST(ReadFrame, OneShotReadsLeaveTheNextFrameInTheSocket) {
  // Two frames in one send() on a blocking socket: each one-shot read takes
  // exactly its own frame, so the second call still finds the second.
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0, fds), 0);
  const auto bytes = publish_stream(2, 21);
  ASSERT_EQ(::send(fds[0], bytes.data(), bytes.size(), 0),
            static_cast<::ssize_t>(bytes.size()));
  const net::wire::ParsedFrame first = net::read_frame(fds[1]);
  const net::wire::ParsedFrame second = net::read_frame(fds[1]);
  ASSERT_TRUE(first.ok);
  ASSERT_TRUE(second.ok);
  EXPECT_EQ(publish_id(first), 21u);
  EXPECT_EQ(publish_id(second), 22u);
  EXPECT_EQ(first.payload_copies + second.payload_copies, 0u);
  ::close(fds[0]);
  ::close(fds[1]);
}

// ---------------------------------------------------------------------------
// Run encoding: a matched message's Deliveries are one body plus per-hit
// continuation records
// ---------------------------------------------------------------------------

constexpr std::size_t kHitRecordBytes = 3;  ///< tag + two 1-byte varints

/// `n` Deliveries of message `id` as the matcher fans them out: one values
/// block and one payload shared by every hit; hit i is (sub i + 1,
/// subscriber 10 + i).
std::vector<Delivery> deliveries_of(MessageId id, int n) {
  Delivery body;
  body.msg_id = id;
  body.dispatched_at = 3.25;
  body.values = ValuesRef({1.5, 2.5, static_cast<Value>(id)});
  body.payload = std::string(128, static_cast<char>('a' + id % 26));
  std::vector<Delivery> out;
  for (int i = 0; i < n; ++i) {
    Delivery d = body;
    d.sub_id = static_cast<SubscriptionId>(i + 1);
    d.subscriber = static_cast<SubscriberId>(10 + i);
    out.push_back(d);
  }
  return out;
}

std::vector<Envelope> envelopes_of(const std::vector<Delivery>& ds) {
  std::vector<Envelope> out;
  for (const Delivery& d : ds) out.push_back(Envelope::of(d));
  return out;
}

/// Appends `envs` to a FrameWriter at `batch`, closes the open frame, and
/// returns each frame's body (the bytes after its length prefix).
std::vector<std::vector<std::uint8_t>> written_frames(
    const std::vector<Envelope>& envs, int batch) {
  net::FrameWriter writer(5);
  for (const Envelope& env : envs) writer.append(env, batch);
  writer.close_frame();
  SocketPair sp;
  net::FrameWriter::Sent sent;
  EXPECT_EQ(writer.flush(sp.tx, &sent), net::FrameWriter::Flush::kDone);
  EXPECT_EQ(sent.envelopes, envs.size());
  std::vector<std::uint8_t> stream(sent.bytes);
  EXPECT_TRUE(net::wire::read_all(sp.rx, stream.data(), stream.size()));
  std::vector<std::vector<std::uint8_t>> frames;
  for (std::size_t at = 0; at + 4 <= stream.size();) {
    const std::uint32_t len = net::wire::read_frame_len(stream.data() + at);
    frames.emplace_back(stream.begin() + static_cast<std::ptrdiff_t>(at + 4),
                        stream.begin() +
                            static_cast<std::ptrdiff_t>(at + 4 + len));
    at += 4 + len;
  }
  return frames;
}

/// The tag byte of each record in a frame body, in order. Walks the bytes
/// itself, so it does not lean on parse_frame's run handling.
std::vector<std::uint8_t> record_tags(const std::vector<std::uint8_t>& body) {
  serde::Reader r(body);
  r.u32();  // sender
  std::vector<std::uint8_t> tags;
  while (r.ok() && !r.at_end()) {
    const std::uint8_t tag = body[body.size() - r.remaining()];
    tags.push_back(tag);
    if (tag == kContinuationTag) {
      r.u8();
      r.varint();
      r.varint();
    } else {
      (void)read_envelope(r);
    }
  }
  EXPECT_TRUE(r.ok());
  return tags;
}

TEST(WireRuns, FortyDeliveriesOfOneMessageAreOneBodyAndThirtyNineHits) {
  const std::vector<Envelope> envs = envelopes_of(deliveries_of(7, 40));
  const auto frames = written_frames(envs, 64);
  ASSERT_EQ(frames.size(), 1u);
  const std::vector<std::uint8_t> tags = record_tags(frames[0]);
  ASSERT_EQ(tags.size(), 40u);
  EXPECT_EQ(tags[0], wire_tag(envs[0]));
  EXPECT_EQ(std::count(tags.begin() + 1, tags.end(), kContinuationTag), 39);
  EXPECT_EQ(frames[0].size(), net::wire::kFrameOverhead + wire_size(envs[0]) +
                                  39 * kHitRecordBytes);

  // Parsed the way TcpHost parses, with the frame buffer as owner: 40
  // Deliveries equal to the originals, all viewing the frame's one body.
  auto buf = std::make_shared<std::vector<std::uint8_t>>(frames[0]);
  net::wire::ParsedFrame parsed =
      net::wire::parse_frame(buf->data(), buf->size(), buf);
  ASSERT_TRUE(parsed.ok);
  EXPECT_EQ(parsed.from, 5u);
  EXPECT_EQ(parsed.payload_copies, 0u);
  ASSERT_EQ(parsed.envelopes.size(), 40u);
  const auto& first = std::get<Delivery>(parsed.envelopes[0].payload);
  for (std::size_t i = 0; i < envs.size(); ++i) {
    EXPECT_EQ(serialize(parsed.envelopes[i]), serialize(envs[i]))
        << "delivery " << i;
    const auto& d = std::get<Delivery>(parsed.envelopes[i].payload);
    EXPECT_EQ(d.values.bytes(), first.values.bytes()) << "delivery " << i;
    EXPECT_EQ(d.payload.data(), first.payload.data()) << "delivery " << i;
  }
  EXPECT_GE(first.values.bytes(), buf->data());
  EXPECT_LT(first.values.bytes(), buf->data() + buf->size());
  EXPECT_EQ(buf.use_count(), 1 + 2 * 40);  // a values and a payload view each
}

TEST(WireRuns, RunParsedWithoutOwnerCopiesItsBodyOnce) {
  const std::vector<Envelope> envs = envelopes_of(deliveries_of(8, 40));
  const auto frames = written_frames(envs, 64);
  ASSERT_EQ(frames.size(), 1u);
  const net::wire::ParsedFrame parsed =
      net::wire::parse_frame(frames[0].data(), frames[0].size());
  ASSERT_TRUE(parsed.ok);
  ASSERT_EQ(parsed.envelopes.size(), 40u);
  // One values copy and one payload copy, both counted; every hit shares
  // them.
  EXPECT_EQ(parsed.payload_copies, 2u);
  EXPECT_EQ(parsed.payload_bytes_copied, 3 * sizeof(Value) + 128);
  const auto& first = std::get<Delivery>(parsed.envelopes[0].payload);
  EXPECT_EQ(first.values.owner().use_count(), 40);
  EXPECT_EQ(first.payload.owner().use_count(), 40);
  const bool inside = first.values.bytes() >= frames[0].data() &&
                      first.values.bytes() < frames[0].data() + frames[0].size();
  EXPECT_FALSE(inside) << "copy must not alias the frame buffer";
  for (std::size_t i = 0; i < envs.size(); ++i) {
    EXPECT_EQ(serialize(parsed.envelopes[i]), serialize(envs[i]))
        << "delivery " << i;
  }
}

TEST(WireRuns, RunBreaksAtEveryBodyChangeAndFrameCut) {
  const std::vector<Delivery> a = deliveries_of(1, 6);
  const std::vector<Delivery> b = deliveries_of(2, 2);
  // Message 1 again, with its payload but a values block of its own.
  Delivery a_own_values = a[4];
  a_own_values.values = ValuesRef({1.5, 2.5, 1.0});
  MatchCompleted done;
  done.msg_id = 1;
  const std::vector<Envelope> envs = {
      Envelope::of(a[0]), Envelope::of(a[1]),          // a run
      Envelope::of(b[0]), Envelope::of(b[1]),          // another message
      Envelope::of(a[2]), Envelope::of(done),          // interleaved
      Envelope::of(a[3]), Envelope::of(a_own_values),  // another block
      Envelope::of(a[5])};
  const auto frames = written_frames(envs, 64);
  ASSERT_EQ(frames.size(), 1u);
  constexpr std::uint8_t kFull = 6;
  constexpr std::uint8_t kDone = 7;
  EXPECT_EQ(record_tags(frames[0]),
            (std::vector<std::uint8_t>{kFull, kContinuationTag, kFull,
                                       kContinuationTag, kFull, kDone, kFull,
                                       kFull, kFull}));
  const net::wire::ParsedFrame parsed =
      net::wire::parse_frame(frames[0].data(), frames[0].size());
  ASSERT_TRUE(parsed.ok);
  ASSERT_EQ(parsed.envelopes.size(), envs.size());
  for (std::size_t i = 0; i < envs.size(); ++i) {
    EXPECT_EQ(serialize(parsed.envelopes[i]), serialize(envs[i]))
        << "envelope " << i;
  }

  // A frame closed at `batch` ends the run; the next frame opens in full.
  const auto cut = written_frames(envelopes_of(a), 4);
  ASSERT_EQ(cut.size(), 2u);
  EXPECT_EQ(record_tags(cut[0]),
            (std::vector<std::uint8_t>{kFull, kContinuationTag,
                                       kContinuationTag, kContinuationTag}));
  EXPECT_EQ(record_tags(cut[1]),
            (std::vector<std::uint8_t>{kFull, kContinuationTag}));
}

TEST(WireRuns, ContinuationOutOfPlaceIsMalformed) {
  const std::vector<std::uint8_t> hit = {kContinuationTag, 1, 2};
  {
    serde::Reader r(hit);
    EXPECT_NO_THROW((void)read_envelope(r));
    EXPECT_FALSE(r.ok()) << "standalone read_envelope";
  }
  MatchCompleted done;
  done.msg_id = 3;
  EdgeEvent ev;  // carries a Delivery, but is not one
  ev.delivery = deliveries_of(3, 1)[0];
  const std::vector<std::vector<Envelope>> before = {
      {}, {Envelope::of(done)}, {Envelope::of(ev)}};
  for (const std::vector<Envelope>& lead : before) {
    serde::Writer w;
    w.u32(5);
    for (const Envelope& env : lead) write_envelope(w, env);
    for (const std::uint8_t byte : hit) w.u8(byte);
    net::wire::ParsedFrame frame;
    EXPECT_NO_THROW(frame = net::wire::parse_frame(w.data(), w.size()));
    EXPECT_FALSE(frame.ok) << lead.size() << " envelope(s) before it";

    // Through a FrameReader, after a valid frame: that one comes out, then
    // kMalformed.
    SocketPair sp;
    auto bytes = publish_stream(1);
    std::vector<std::uint8_t> bad(8);
    bad.insert(bad.end(), w.data() + 4, w.data() + w.size());
    net::wire::fill_header(bad.data(), static_cast<std::uint32_t>(w.size() - 4),
                           5);
    bytes.insert(bytes.end(), bad.begin(), bad.end());
    ASSERT_TRUE(net::wire::write_all(sp.tx, bytes.data(), bytes.size()));
    std::vector<std::uint8_t> scratch(net::kRecvBufferBytes);
    net::FrameReader reader;
    std::vector<net::wire::ParsedFrame> frames;
    EXPECT_EQ(drain(reader, sp.rx, scratch, &frames),
              net::FrameReader::Status::kMalformed);
    EXPECT_EQ(frames.size(), 1u);
  }
}

// ---------------------------------------------------------------------------
// Async wire path over loopback
// ---------------------------------------------------------------------------

TEST(WireAsync, BatchedSendsAllDeliveredToManyPeers) {
  constexpr int kPeers = 5;
  constexpr int kPerPeer = 500;
  std::vector<std::unique_ptr<TcpHost>> receivers;
  std::vector<CountingNode*> nodes;
  for (int i = 0; i < kPeers; ++i) {
    auto node = std::make_unique<CountingNode>();
    nodes.push_back(node.get());
    receivers.push_back(std::make_unique<TcpHost>(
        static_cast<NodeId>(100 + i), 0, std::move(node)));
    receivers.back()->start();
  }

  WireConfig wire;
  wire.batch = 16;
  wire.queue_capacity = 8192;
  auto sender_node = std::make_unique<CountingNode>();
  CountingNode* sn = sender_node.get();
  TcpHost sender(1, 0, std::move(sender_node), 42, wire);
  for (int i = 0; i < kPeers; ++i) {
    sender.add_peer(static_cast<NodeId>(100 + i),
                    {"127.0.0.1", receivers[static_cast<std::size_t>(i)]
                                      ->port()});
  }
  sender.start();
  NodeContext* ctx = wait_ctx(sn);

  for (int m = 0; m < kPerPeer; ++m) {
    for (int i = 0; i < kPeers; ++i) {
      ctx->send(static_cast<NodeId>(100 + i),
                sample_publish(static_cast<MessageId>(m)));
    }
  }
  for (int i = 0; i < kPeers; ++i) {
    EXPECT_TRUE(eventually([&] {
      return nodes[static_cast<std::size_t>(i)]->publishes.load() == kPerPeer;
    })) << "peer " << i << " got "
        << nodes[static_cast<std::size_t>(i)]->publishes.load();
    // The wire path carries the sender id on every frame.
    EXPECT_EQ(nodes[static_cast<std::size_t>(i)]->last_from.load(), 1u);
  }
  EXPECT_EQ(sender.dropped_sends(), 0u);
  const auto snap = sender.wire_metrics().snapshot();
  EXPECT_EQ(snap.counters.at("wire.envelopes_sent"),
            static_cast<std::uint64_t>(kPeers * kPerPeer));
  // Coalescing must actually happen: far fewer frames than envelopes.
  EXPECT_LT(snap.counters.at("wire.frames_sent"),
            snap.counters.at("wire.envelopes_sent"));
  for (std::unique_ptr<TcpHost>& r : receivers) r->stop();
  sender.stop();
}

TEST(WireAsync, SlowReaderBackpressureDropsAreBoundedAndCounted) {
  // A raw listener that accepts connections but never reads: the kernel
  // socket buffers fill, the writer blocks, and the bounded per-peer queue
  // must start dropping (counted in dropped_sends) instead of growing or
  // blocking the caller.
  const int listen_fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(listen_fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = 0;
  ASSERT_EQ(::bind(listen_fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr),
            0);
  socklen_t len = sizeof addr;
  ::getsockname(listen_fd, reinterpret_cast<sockaddr*>(&addr), &len);
  ::listen(listen_fd, 8);
  std::atomic<bool> accepting{true};
  std::thread acceptor([&] {
    std::vector<int> fds;
    while (accepting.load()) {
      const int fd = ::accept(listen_fd, nullptr, nullptr);
      if (fd < 0) break;
      fds.push_back(fd);  // accepted, never read
    }
    for (int fd : fds) ::close(fd);
  });

  WireConfig wire;
  wire.batch = 8;
  wire.queue_capacity = 64;  // small bound so backpressure bites fast
  auto node = std::make_unique<CountingNode>();
  CountingNode* cn = node.get();
  TcpHost sender(1, 0, std::move(node), 42, wire);
  sender.add_peer(2, {"127.0.0.1", ntohs(addr.sin_port)});
  sender.start();
  NodeContext* ctx = wait_ctx(cn);

  // Large payloads fill the socket buffer quickly; keep sending until the
  // queue overflows.
  const std::string big(16 * 1024, 'x');
  std::uint64_t sent = 0;
  const bool dropped = eventually([&] {
    for (int i = 0; i < 64; ++i) {
      Message msg;
      msg.id = ++sent;
      msg.values = {1.0};
      msg.payload = big;
      ctx->send(2, Envelope::of(ClientPublish{std::move(msg)}));
    }
    return sender.dropped_sends() > 0;
  });
  EXPECT_TRUE(dropped);
  const auto snap = sender.wire_metrics().snapshot();
  EXPECT_GT(snap.counters.at("wire.queue_full_drops"), 0u);
  // The queue bound held: at most capacity envelopes are ever in flight
  // per peer.
  const double high_water = snap.gauges.at("wire.peer2.queue_high_water");
  EXPECT_LE(high_water, static_cast<double>(wire.queue_capacity));

  // stop() must not hang on the writer blocked against the full socket.
  sender.stop();
  accepting.store(false);
  ::shutdown(listen_fd, SHUT_RDWR);
  ::close(listen_fd);
  acceptor.join();
}

TEST(WireSync, StaleConnectionRetryAfterPeerRestart) {
  auto first_node = std::make_unique<CountingNode>();
  CountingNode* first = first_node.get();
  auto receiver = std::make_unique<TcpHost>(2, 0, std::move(first_node));
  receiver->start();
  const std::uint16_t port = receiver->port();

  auto sender_node = std::make_unique<CountingNode>();
  CountingNode* sn = sender_node.get();
  TcpHost sender(1, 0, std::move(sender_node));
  sender.add_peer(2, {"127.0.0.1", port});
  sender.start();
  NodeContext* ctx = wait_ctx(sn);

  ctx->send(2, sample_publish(1));
  ASSERT_TRUE(eventually([&] { return first->publishes.load() == 1; }));

  // Restart the peer on the same port: the sender's cached connection is
  // now stale. TCP lets the first write into a half-closed connection
  // succeed (the kernel buffers it before the RST comes back), so that
  // probe send may be silently lost; once the reset is observed, the
  // in-call retry must dial fresh and delivery must resume without the
  // sender ever being restarted or re-peered.
  receiver->stop();
  receiver.reset();
  auto second_node = std::make_unique<CountingNode>();
  CountingNode* second = second_node.get();
  TcpHost restarted(2, port, std::move(second_node));
  ASSERT_EQ(restarted.port(), port);
  restarted.start();

  std::uint64_t next_id = 2;
  EXPECT_TRUE(eventually([&] {
    ctx->send(2, sample_publish(static_cast<MessageId>(next_id++)));
    return second->publishes.load() >= 1;
  }));
  restarted.stop();
  sender.stop();
}

TEST(WireSync, AddPeerMoveSendsLaterEnvelopesToTheNewEndpoint) {
  // A send looks the peer's connection up once, in the dialed map. When
  // add_peer moves the peer mid-stream, the old connection closes and its
  // entry goes with it: every envelope sent after the move reaches the new
  // endpoint, none the old one.
  auto old_node = std::make_unique<CountingNode>();
  CountingNode* old_cn = old_node.get();
  TcpHost old_host(2, 0, std::move(old_node));
  old_host.start();
  auto new_node = std::make_unique<CountingNode>();
  CountingNode* new_cn = new_node.get();
  TcpHost new_host(3, 0, std::move(new_node));
  new_host.start();

  auto sender_node = std::make_unique<CountingNode>();
  CountingNode* sn = sender_node.get();
  TcpHost sender(1, 0, std::move(sender_node));
  sender.add_peer(2, {"127.0.0.1", old_host.port()});
  sender.start();
  NodeContext* ctx = wait_ctx(sn);

  MessageId next_id = 1;
  for (int i = 0; i < 50; ++i) ctx->send(2, sample_publish(next_id++));
  ASSERT_TRUE(eventually([&] { return old_cn->publishes.load() == 50; }));
  // Mid-stream: these may still be queued on the old connection when it
  // closes, so they either reach it or count as drops.
  for (int i = 0; i < 20; ++i) ctx->send(2, sample_publish(next_id++));
  sender.add_peer(2, {"127.0.0.1", new_host.port()});
  for (int i = 0; i < 100; ++i) ctx->send(2, sample_publish(next_id++));

  EXPECT_TRUE(eventually([&] { return new_cn->publishes.load() == 100; }));
  EXPECT_TRUE(eventually([&] {
    return old_cn->publishes.load() +
               static_cast<int>(sender.dropped_sends()) ==
           70;
  }));
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_EQ(new_cn->publishes.load(), 100);
  EXPECT_LE(old_cn->publishes.load(), 70);
  sender.stop();
  new_host.stop();
  old_host.stop();
}

/// Sends every envelope it receives straight back to its sender.
class MirrorNode final : public Node {
 public:
  void start(NodeContext& ctx) override { ctx_ = &ctx; }
  void on_receive(NodeId from, Envelope env) override {
    ctx_->send(from, std::move(env));
  }

 private:
  NodeContext* ctx_ = nullptr;
};

/// Records the ids of the publishes it receives, in arrival order.
class OrderNode final : public Node {
 public:
  void start(NodeContext& ctx) override { ctx_.store(&ctx); }
  void on_receive(NodeId, Envelope env) override {
    if (const auto* pub = std::get_if<ClientPublish>(&env.payload)) {
      bd::LockGuard lk(mu);
      ids.push_back(pub->msg.id);
    }
  }
  std::size_t size() {
    bd::LockGuard lk(mu);
    return ids.size();
  }
  std::atomic<NodeContext*> ctx_{nullptr};
  bd::Mutex mu;
  std::vector<MessageId> ids BD_GUARDED_BY(mu);
};

TEST(WireSync, RepliesSentMidFrameKeepOrderAndLoseNothing) {
  // The echo host parses each multi-envelope frame into its one reused
  // envelope vector and hands the envelopes to the node one by one; every
  // handler sends back over the same connection while the rest of the
  // frame waits. The sender must get every envelope back, in order.
  auto echo = std::make_unique<TcpHost>(2, 0, std::make_unique<MirrorNode>());
  echo->start();
  auto order_node = std::make_unique<OrderNode>();
  OrderNode* on = order_node.get();
  TcpHost sender(1, 0, std::move(order_node));
  sender.add_peer(2, {"127.0.0.1", echo->port()});
  sender.start();
  ASSERT_TRUE(eventually([&] { return on->ctx_.load() != nullptr; }));
  NodeContext* ctx = on->ctx_.load();

  constexpr MessageId kCount = 2000;
  for (MessageId id = 1; id <= kCount; ++id) ctx->send(2, sample_publish(id));
  EXPECT_TRUE(eventually([&] { return on->size() == kCount; }));
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  {
    bd::LockGuard lk(on->mu);
    ASSERT_EQ(on->ids.size(), kCount);
    for (std::size_t i = 0; i < on->ids.size(); ++i) {
      ASSERT_EQ(on->ids[i], i + 1);
    }
  }
  EXPECT_EQ(sender.dropped_sends(), 0u);
  EXPECT_EQ(echo->dropped_sends(), 0u);
  // The frames really carried several envelopes each.
  const auto snap = sender.wire_metrics().snapshot();
  EXPECT_LT(snap.counters.at("wire.frames_sent"),
            snap.counters.at("wire.envelopes_sent"));
  sender.stop();
  echo->stop();
}

/// A raw loopback listener that accepts connections and never reads them.
class DeafListener {
 public:
  DeafListener() {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    ::bind(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr);
    socklen_t len = sizeof addr;
    ::getsockname(fd_, reinterpret_cast<sockaddr*>(&addr), &len);
    port_ = ntohs(addr.sin_port);
    ::listen(fd_, 8);
    acceptor_ = std::thread([this] {
      while (true) {
        const int fd = ::accept(fd_, nullptr, nullptr);
        if (fd < 0) break;
        accepted_.push_back(fd);  // accepted, never read
      }
    });
  }
  /// Closes the listener and every accepted socket, which also unblocks a
  /// sender stuck writing to one.
  ~DeafListener() {
    ::shutdown(fd_, SHUT_RDWR);
    ::close(fd_);
    acceptor_.join();
    for (int fd : accepted_) ::close(fd);
  }
  std::uint16_t port() const { return port_; }

 private:
  int fd_ = -1;
  std::uint16_t port_ = 0;
  std::vector<int> accepted_;  ///< acceptor-thread only until the join
  std::thread acceptor_;
};

TEST(WireSync, NonReadingPeerStallsNeitherNodeNorStop) {
  // Default WireConfig (up to 64 envelopes per frame, cut at 64 KiB
  // mid-pass). 16 KiB messages flood a peer that never reads, from a
  // timer on the node thread: the socket fills, the per-peer bound is
  // reached, and from then on sends drop. Meanwhile the node thread must
  // keep serving its timers, and stop() must not wait on the peer.
  auto node = std::make_unique<CountingNode>();
  CountingNode* cn = node.get();
  auto sender = std::make_unique<TcpHost>(1, 0, std::move(node));
  auto deaf = std::make_unique<DeafListener>();
  sender->add_peer(2, {"127.0.0.1", deaf->port()});
  sender->start();
  NodeContext* ctx = wait_ctx(cn);

  std::atomic<int> ticks{0};
  std::function<void()> tick = [&] {
    ticks.fetch_add(1);
    ctx->set_timer(0.01, tick);
  };
  const std::string big(16 * 1024, 'x');
  MessageId next_id = 1;
  std::function<void()> flood = [&] {
    for (int i = 0; i < 64; ++i) {
      Message msg;
      msg.id = next_id++;
      msg.values = {1.0};
      msg.payload = big;
      ctx->send(2, Envelope::of(ClientPublish{std::move(msg)}));
    }
    ctx->set_timer(0.001, flood);
  };
  ctx->set_timer(0.0, [&] {
    tick();
    flood();
  });

  EXPECT_TRUE(eventually([&] { return sender->dropped_sends() > 0; }));
  const int before = ticks.load();
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  EXPECT_GE(ticks.load(), before + 5) << "the node thread stalled";

  const auto snap = sender->wire_metrics().snapshot();
  const std::uint64_t full = snap.counters.at("wire.queue_full_drops");
  EXPECT_GT(full, 0u);
  EXPECT_GE(sender->dropped_sends(), full);
  // No ASSERT before the stop below: the timers above must not outlive it.
  const auto high_water = snap.gauges.find("wire.peer2.queue_high_water");
  EXPECT_TRUE(high_water != snap.gauges.end() &&
              high_water->second <=
                  static_cast<double>(WireConfig{}.queue_capacity));

  // Run stop() aside, so a stop that waits on the peer fails the test
  // instead of hanging it; closing the peer afterwards releases it.
  auto stopped = std::async(std::launch::async, [&] { sender->stop(); });
  EXPECT_EQ(stopped.wait_for(std::chrono::seconds(2)),
            std::future_status::ready)
      << "stop() blocked on a peer that does not read";
  deaf.reset();
  stopped.wait();
}

/// Answers every envelope with a 16 KiB publish to node 2.
class ForwardingNode final : public Node {
 public:
  void start(NodeContext& ctx) override { ctx_ = &ctx; }
  void on_receive(NodeId, Envelope) override {
    handled.fetch_add(1);
    Message msg;
    msg.values = {1.0};
    msg.payload = std::string(16 * 1024, 'x');
    ctx_->send(2, Envelope::of(ClientPublish{std::move(msg)}));
  }
  std::atomic<int> handled{0};

 private:
  NodeContext* ctx_ = nullptr;
};

TEST(WireSync, InjectWaitsWhileAPeerIsCongested) {
  // Every injected envelope makes the node send 16 KiB to a peer that never
  // reads. Once that connection holds half its bound, injected input waits
  // in the host instead of overflowing the queue; when the connection
  // fails, the held input reaches the node.
  constexpr int kInjected = 4000;
  auto node = std::make_unique<ForwardingNode>();
  ForwardingNode* fn = node.get();
  auto sender = std::make_unique<TcpHost>(1, 0, std::move(node));
  auto deaf = std::make_unique<DeafListener>();
  sender->add_peer(2, {"127.0.0.1", deaf->port()});
  sender->start();
  for (int i = 0; i < kInjected; ++i) {
    sender->inject(kInvalidNode, sample_publish(static_cast<MessageId>(i)));
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  EXPECT_LT(fn->handled.load(), kInjected) << "nothing was held back";
  const auto snap = sender->wire_metrics().snapshot();
  EXPECT_EQ(snap.counters.at("wire.queue_full_drops"), 0u);

  deaf.reset();  // the connection fails and releases the held input
  EXPECT_TRUE(eventually([&] { return fn->handled.load() == kInjected; }))
      << "handled " << fn->handled.load();
  sender->stop();
}

TEST(WireSync, OnePassBurstBeyondQueueCapacityLosesNothing) {
  // One node-thread task sends 6000 Deliveries of one body to a peer that
  // reads: continuation records are a few bytes each, so the burst passes
  // the default 4096-envelope bound long before 64 KiB. Written mid-pass
  // at half the bound, none of it is dropped.
  constexpr int kDeliveries = 6000;
  ASSERT_GT(static_cast<std::size_t>(kDeliveries), WireConfig{}.queue_capacity);
  auto recv_node = std::make_unique<CountingNode>();
  CountingNode* rn = recv_node.get();
  TcpHost receiver(2, 0, std::move(recv_node));
  receiver.start();
  auto send_node = std::make_unique<CountingNode>();
  CountingNode* sn = send_node.get();
  TcpHost sender(1, 0, std::move(send_node));  // default WireConfig
  sender.add_peer(2, {"127.0.0.1", receiver.port()});
  sender.start();
  NodeContext* ctx = wait_ctx(sn);
  // Connect first, so the burst meets an established connection.
  ctx->send(2, sample_publish(0));
  ASSERT_TRUE(eventually([&] { return rn->total.load() == 1; }));

  const std::vector<Envelope> burst =
      envelopes_of(deliveries_of(7, kDeliveries));
  ctx->set_timer(0.0, [ctx, &burst] {
    for (const Envelope& env : burst) ctx->send(2, env);
  });
  EXPECT_TRUE(eventually([&] { return rn->total.load() == kDeliveries + 1; }))
      << "received " << rn->total.load() - 1 << "/" << kDeliveries;
  sender.stop();
  receiver.stop();
  EXPECT_EQ(sender.dropped_sends(), 0u);
  EXPECT_EQ(
      sender.wire_metrics().snapshot().counters.at("wire.queue_full_drops"),
      0u);
}

// ---------------------------------------------------------------------------
// Per-pass frames under the default WireConfig
// ---------------------------------------------------------------------------

/// A raw loopback listener that accepts one connection and reads it frame
/// by frame, recording each frame's size and its publish ids.
class FrameSink {
 public:
  struct Frame {
    std::size_t bytes = 0;  ///< length prefix included
    std::vector<MessageId> ids;
  };

  FrameSink() {
    fd_ = net::listen_tcp("127.0.0.1", 0, 8, &port_);
    reader_ = std::thread([this] {
      ::pollfd pfd{fd_, POLLIN, 0};
      if (::poll(&pfd, 1, 10000) <= 0) return;
      const int conn = ::accept(fd_, nullptr, nullptr);
      if (conn < 0) return;
      ::fcntl(conn, F_SETFL, ::fcntl(conn, F_GETFL) & ~O_NONBLOCK);
      for (;;) {
        std::uint8_t prefix[4];
        if (!net::wire::read_all(conn, prefix, sizeof prefix)) break;
        const std::uint32_t len = net::wire::read_frame_len(prefix);
        if (len < net::wire::kFrameOverhead || len > net::wire::kMaxFrame) {
          break;
        }
        std::vector<std::uint8_t> body(len);
        if (!net::wire::read_all(conn, body.data(), len)) break;
        const net::wire::ParsedFrame parsed =
            net::wire::parse_frame(body.data(), len);
        if (!parsed.ok) break;
        Frame f;
        f.bytes = sizeof prefix + len;
        for (const Envelope& env : parsed.envelopes) {
          f.ids.push_back(std::get<ClientPublish>(env.payload).msg.id);
        }
        bd::LockGuard lk(mu_);
        envelopes_ += f.ids.size();
        frames_.push_back(std::move(f));
      }
      ::close(conn);
    });
  }
  /// Call after the sender closed its connection.
  ~FrameSink() {
    reader_.join();
    ::close(fd_);
  }
  FrameSink(const FrameSink&) = delete;
  FrameSink& operator=(const FrameSink&) = delete;
  std::uint16_t port() const { return port_; }
  std::size_t envelopes() {
    bd::LockGuard lk(mu_);
    return envelopes_;
  }
  std::vector<Frame> frames() {
    bd::LockGuard lk(mu_);
    return frames_;
  }

 private:
  int fd_ = -1;
  std::uint16_t port_ = 0;
  bd::Mutex mu_;
  std::vector<Frame> frames_ BD_GUARDED_BY(mu_);
  std::size_t envelopes_ BD_GUARDED_BY(mu_) = 0;
  std::thread reader_;
};

TEST(WirePass, DefaultConfigSendsOnePassToAPeerAsOneFrame) {
  constexpr MessageId kEnvelopes = 40;
  FrameSink sink;
  auto send_node = std::make_unique<CountingNode>();
  CountingNode* sn = send_node.get();
  TcpHost sender(1, 0, std::move(send_node));  // default WireConfig
  sender.add_peer(2, {"127.0.0.1", sink.port()});
  sender.start();
  NodeContext* ctx = wait_ctx(sn);
  const auto frames_sent = [&sender] {
    return sender.wire_metrics().snapshot().counters.at("wire.frames_sent");
  };

  // Connect first, so the pass below writes to an established connection.
  ctx->send(2, sample_publish(0));
  ASSERT_TRUE(eventually([&] { return sink.envelopes() == 1; }));
  ASSERT_TRUE(eventually([&] { return frames_sent() == 1; }));

  // One node-thread task sends every envelope.
  ctx->set_timer(0.0, [ctx] {
    for (MessageId id = 1; id <= kEnvelopes; ++id) {
      ctx->send(2, sample_publish(id));
    }
  });
  ASSERT_TRUE(eventually([&] { return sink.envelopes() == kEnvelopes + 1; }));
  EXPECT_TRUE(eventually([&] { return frames_sent() == 2; }));
  sender.stop();

  const std::vector<FrameSink::Frame> frames = sink.frames();
  ASSERT_EQ(frames.size(), 2u);
  ASSERT_EQ(frames[1].ids.size(), kEnvelopes);
  for (MessageId i = 0; i < kEnvelopes; ++i) {
    EXPECT_EQ(frames[1].ids[i], i + 1);
  }
}

TEST(WirePass, PassOverSixtyFourKiBIsCutIntoBoundedFrames) {
  // ~300 KiB queued for one peer in one pass: the 64 KiB mid-pass write
  // cuts it into several frames, each at most 64 KiB plus one envelope,
  // and every envelope arrives once, in order.
  constexpr MessageId kEnvelopes = 100;
  const std::string payload(3000, 'x');
  const auto big_publish = [&payload](MessageId id) {
    Message msg;
    msg.id = id;
    msg.values = {1.0};
    msg.payload = payload;
    return Envelope::of(ClientPublish{std::move(msg)});
  };
  const std::size_t envelope_bytes = serialize(big_publish(1)).size();

  FrameSink sink;
  auto send_node = std::make_unique<CountingNode>();
  CountingNode* sn = send_node.get();
  TcpHost sender(1, 0, std::move(send_node));  // default WireConfig
  sender.add_peer(2, {"127.0.0.1", sink.port()});
  sender.start();
  NodeContext* ctx = wait_ctx(sn);
  ctx->send(2, sample_publish(0));
  ASSERT_TRUE(eventually([&] { return sink.envelopes() == 1; }));

  ctx->set_timer(0.0, [ctx, &big_publish] {
    for (MessageId id = 1; id <= kEnvelopes; ++id) {
      ctx->send(2, big_publish(id));
    }
  });
  ASSERT_TRUE(eventually([&] { return sink.envelopes() == kEnvelopes + 1; }))
      << "got " << sink.envelopes();
  sender.stop();

  // The first frame is the connecting send's; the pass made the rest.
  const std::vector<FrameSink::Frame> frames = sink.frames();
  ASSERT_GT(frames.size() - 1, 1u) << "the pass was not cut";
  MessageId next = 0;
  for (const FrameSink::Frame& f : frames) {
    EXPECT_LE(f.bytes, 64u * 1024u + envelope_bytes);
    EXPECT_LE(f.ids.size(), static_cast<std::size_t>(WireConfig{}.batch));
    for (const MessageId id : f.ids) EXPECT_EQ(id, next++);
  }
  EXPECT_EQ(next, kEnvelopes + 1);
  EXPECT_EQ(sender.dropped_sends(), 0u);
}

/// Threads of this process, as the kernel lists them.
std::size_t process_threads() {
  std::size_t n = 0;
  for ([[maybe_unused]] const auto& entry :
       std::filesystem::directory_iterator("/proc/self/task")) {
    ++n;
  }
  return n;
}

class OffloadEchoNode final : public Node {
 public:
  static constexpr int kWorkers = 2;
  void start(NodeContext& ctx) override {
    ctx.enable_offload(kWorkers, 1);
    ctx_.store(&ctx);
  }
  NodeContext* ctx() const { return ctx_.load(); }
  void on_receive(NodeId, Envelope) override { replies.fetch_add(1); }
  std::atomic<NodeContext*> ctx_{nullptr};
  std::atomic<int> replies{0};
};

class EchoNode final : public Node {
 public:
  void start(NodeContext& ctx) override { ctx_ = &ctx; }
  void on_receive(NodeId from, Envelope) override {
    ctx_->send(from, Envelope::of(JoinRequest{}));
  }
  NodeContext* ctx_ = nullptr;
};

TEST(WireThreads, HostAddsOneThreadPlusOffloadWorkers) {
  // One TcpHost talking to 4 peers, both directions: the host's outbound
  // connections to the peers and the peers' connections back (each peer
  // replies through its own dial) all live on the host's node thread.
  constexpr NodeId kHost = 1;
  std::vector<std::unique_ptr<TcpHost>> peers;
  for (NodeId id = 100; id < 104; ++id) {
    peers.push_back(std::make_unique<TcpHost>(id, 0,
                                              std::make_unique<EchoNode>()));
  }
  auto node = std::make_unique<OffloadEchoNode>();
  OffloadEchoNode* on = node.get();
  TcpHost host(kHost, 0, std::move(node));
  for (auto& p : peers) {
    p->add_peer(kHost, {"127.0.0.1", host.port()});
    host.add_peer(p->id(), {"127.0.0.1", p->port()});
    p->start();
  }
  const std::size_t before = process_threads();
  host.start();
  ASSERT_TRUE(eventually([&] { return on->ctx() != nullptr; }));
  for (auto& p : peers) on->ctx()->send(p->id(), sample_publish(1));
  ASSERT_TRUE(eventually([&] { return on->replies.load() == 4; }));
  EXPECT_EQ(process_threads() - before,
            static_cast<std::size_t>(1 + OffloadEchoNode::kWorkers));
  host.stop();
  for (auto& p : peers) p->stop();
}

/// Asks for one offload worker in start() and offloads one computation per
/// received message, recording where and when the work and its completion
/// ran.
class OneWorkerNode final : public Node {
 public:
  void start(NodeContext& ctx) override {
    node_thread_ = std::this_thread::get_id();
    granted.store(ctx.enable_offload(1, 3));
    // Publish last: the test thread polls ctx() to know start() finished.
    ctx_.store(&ctx, std::memory_order_release);
  }
  void on_receive(NodeId /*from*/, Envelope /*env*/) override {
    in_offload_ = true;
    ctx()->offload(
        2,
        [this](OffloadWorker& w) {
          work_on_node_thread.store(std::this_thread::get_id() ==
                                    node_thread_);
          worker_index.store(w.index);
          return 7.0;
        },
        [this](double units) {
          done_after_return.store(!in_offload_);
          done_on_node_thread.store(std::this_thread::get_id() ==
                                    node_thread_);
          done_units.store(units);
          completions.fetch_add(1);
        });
    in_offload_ = false;
  }
  NodeContext* ctx() const { return ctx_.load(std::memory_order_acquire); }

  std::atomic<NodeContext*> ctx_{nullptr};
  std::thread::id node_thread_;
  bool in_offload_ = false;  ///< node thread only
  std::atomic<bool> granted{false};
  std::atomic<bool> work_on_node_thread{false};
  std::atomic<int> worker_index{-2};
  std::atomic<bool> done_after_return{false};
  std::atomic<bool> done_on_node_thread{false};
  std::atomic<double> done_units{0.0};
  std::atomic<int> completions{0};
};

/// A one-worker offload is granted with no pool: the process gains only the
/// node thread, the work runs inline on it as worker -1, and the completion
/// runs on it after offload() has returned.
template <typename Owner>
void one_worker_offload_is_the_node_thread() {
  auto node = std::make_unique<OneWorkerNode>();
  OneWorkerNode* probe = node.get();
  Owner owner(std::move(node));
  // A sanitizer runtime may start a helper thread of its own at the
  // process's first thread creation; let that happen before the count.
  std::thread([] {}).join();
  const std::size_t before = process_threads();
  owner.start();
  ASSERT_TRUE(eventually([&] { return probe->ctx() != nullptr; }));
  EXPECT_TRUE(probe->granted.load());
  EXPECT_EQ(process_threads() - before, 1u);
  owner.inject(Envelope::of(JoinRequest{}));
  ASSERT_TRUE(eventually([&] { return probe->completions.load() == 1; }));
  EXPECT_TRUE(probe->work_on_node_thread.load());
  EXPECT_EQ(probe->worker_index.load(), -1);
  EXPECT_TRUE(probe->done_after_return.load());
  EXPECT_TRUE(probe->done_on_node_thread.load());
  EXPECT_EQ(probe->done_units.load(), 7.0);
  owner.stop();
  if constexpr (std::is_same_v<Owner, testing_owners::TcpOwner>) {
    // No pool registered its exec.* instruments with the host.
    const obs::MetricsSnapshot snap = owner.host().wire_metrics().snapshot();
    auto exec = [](const auto& series) {
      return std::count_if(series.begin(), series.end(), [](const auto& kv) {
        return kv.first.rfind("exec.", 0) == 0;
      });
    };
    EXPECT_EQ(exec(snap.counters), 0);
    EXPECT_EQ(exec(snap.gauges), 0);
    EXPECT_EQ(exec(snap.histograms), 0);
  }
}

TEST(WireThreads, OneOffloadWorkerIsTheNodeThreadOnThreadCluster) {
  one_worker_offload_is_the_node_thread<testing_owners::ClusterOwner>();
}

TEST(WireThreads, OneOffloadWorkerIsTheNodeThreadOnTcpHost) {
  one_worker_offload_is_the_node_thread<testing_owners::TcpOwner>();
}

// ---------------------------------------------------------------------------
// End-to-end: the dispatcher's requests share frames on the way to matchers
// ---------------------------------------------------------------------------

TEST(WireCluster, MatchRequestsShareFramesDispatcherToMatcher) {
  constexpr NodeId kSink = 2;
  constexpr NodeId kDispatcher = 10;
  const std::vector<NodeId> matcher_ids{1000, 1001};
  const std::vector<Range> domains(2, Range{0, 1000});

  std::atomic<int> completions{0};
  TcpHost sink(kSink, 0,
               std::make_unique<FunctionNode>(
                   [&](NodeId, const Envelope& env, Timestamp) {
                     if (std::holds_alternative<MatchCompleted>(env.payload)) {
                       completions.fetch_add(1);
                     }
                   }));

  DispatcherConfig dcfg;
  dcfg.domains = domains;
  dcfg.table_pull_interval = 0.5;
  TcpHost dispatcher_host(kDispatcher, 0, [&] {
    auto node = std::make_unique<DispatcherNode>(kDispatcher, dcfg);
    node->set_bootstrap(bootstrap_table(matcher_ids, domains));
    return node;
  }());

  MatcherConfig mcfg;
  mcfg.domains = domains;
  mcfg.cores = 1;
  mcfg.index_kind = IndexKind::kFlatBucket;
  mcfg.match_batch = 8;
  mcfg.load_report_interval = 0.2;
  mcfg.gossip.round_interval = 0.2;
  mcfg.dispatchers = {kDispatcher};
  mcfg.metrics_sink = kSink;
  mcfg.delivery_sink = kSink;
  std::vector<std::unique_ptr<TcpHost>> matcher_hosts;
  for (NodeId id : matcher_ids) {
    auto node = std::make_unique<MatcherNode>(id, mcfg);
    node->set_bootstrap(bootstrap_table(matcher_ids, domains));
    matcher_hosts.push_back(
        std::make_unique<TcpHost>(id, 0, std::move(node)));
  }

  std::map<NodeId, TcpEndpoint> directory;
  directory[kSink] = {"127.0.0.1", sink.port()};
  directory[kDispatcher] = {"127.0.0.1", dispatcher_host.port()};
  for (std::size_t i = 0; i < matcher_ids.size(); ++i) {
    directory[matcher_ids[i]] = {"127.0.0.1", matcher_hosts[i]->port()};
  }
  auto wire_up = [&](TcpHost& host) {
    for (const auto& [id, ep] : directory) {
      if (id != host.id()) host.add_peer(id, ep);
    }
  };
  wire_up(sink);
  wire_up(dispatcher_host);
  for (auto& h : matcher_hosts) wire_up(*h);

  sink.start();
  dispatcher_host.start();
  for (auto& h : matcher_hosts) h->start();

  // Every publication arrives in one frame, so the dispatcher forwards all
  // of them in one loop pass, and its transport packs the plain
  // MatchRequests for each matcher into shared frames.
  constexpr int kMessages = 200;
  std::vector<std::uint8_t> frame(8);
  std::uint32_t body_bytes = 0;
  for (int i = 0; i < kMessages; ++i) {
    Message msg;
    msg.id = static_cast<MessageId>(i + 1);
    msg.values = {500.0, 500.0};
    const auto bytes = serialize(Envelope::of(ClientPublish{msg}));
    body_bytes += static_cast<std::uint32_t>(bytes.size());
    frame.insert(frame.end(), bytes.begin(), bytes.end());
  }
  net::wire::fill_header(frame.data(), body_bytes, kInvalidNode);
  const int fd = net::dial(directory[kDispatcher]);
  ASSERT_GE(fd, 0);
  ASSERT_TRUE(net::wire::write_all(fd, frame.data(), frame.size()));
  EXPECT_TRUE(eventually([&] { return completions.load() == kMessages; }))
      << "completions=" << completions.load();
  ::close(fd);

  const auto dsnap = dispatcher_host.wire_metrics().snapshot();
  EXPECT_GE(dsnap.counters.at("wire.envelopes_sent"),
            static_cast<std::uint64_t>(kMessages));
  EXPECT_LT(dsnap.counters.at("wire.frames_sent"),
            static_cast<std::uint64_t>(kMessages));
  std::uint64_t requests = 0;
  for (auto& h : matcher_hosts) {
    requests += h->node_as<MatcherNode>()->metrics().snapshot().counters.at(
        "matcher.requests");
  }
  EXPECT_EQ(requests, static_cast<std::uint64_t>(kMessages));

  for (auto& h : matcher_hosts) h->stop();
  dispatcher_host.stop();
  sink.stop();
}

TEST(WireCluster, FortyHitMessageCrossesTheWireAsOneBody) {
  // One matcher whose delivery sink is a dispatcher, over loopback. One
  // request matches 40 subscriptions: the dispatcher sees 40 whole
  // Deliveries with one shared body, and the matcher sends about one
  // Delivery's bytes plus a few bytes per hit.
  constexpr NodeId kDispatcher = 10;
  constexpr NodeId kMatcher = 1000;
  constexpr int kHits = 40;
  const std::vector<Range> domains(3, Range{0, 1000});
  const std::vector<NodeId> matcher_ids{kMatcher};

  bd::Mutex mu;
  std::vector<Delivery> got;  // guarded by mu
  DispatcherConfig dcfg;
  dcfg.domains = domains;
  dcfg.table_pull_interval = 60.0;
  auto dnode = std::make_unique<DispatcherNode>(kDispatcher, dcfg);
  dnode->set_bootstrap(bootstrap_table(matcher_ids, domains));
  dnode->on_delivery = [&](const Delivery& d) {
    bd::LockGuard lk(mu);
    got.push_back(d);
  };
  TcpHost dispatcher(kDispatcher, 0, std::move(dnode));

  MatcherConfig mcfg;
  mcfg.domains = domains;
  mcfg.cores = 1;
  mcfg.index_kind = IndexKind::kFlatBucket;
  mcfg.load_report_interval = 60.0;
  mcfg.gossip.round_interval = 60.0;
  mcfg.delivery_sink = kDispatcher;
  auto mnode = std::make_unique<MatcherNode>(kMatcher, mcfg);
  mnode->set_bootstrap(bootstrap_table(matcher_ids, domains));
  TcpHost matcher(kMatcher, 0, std::move(mnode));
  matcher.add_peer(kDispatcher, {"127.0.0.1", dispatcher.port()});
  dispatcher.add_peer(kMatcher, {"127.0.0.1", matcher.port()});
  dispatcher.start();
  matcher.start();

  for (int i = 0; i < kHits; ++i) {
    Subscription sub;
    sub.id = static_cast<SubscriptionId>(i + 1);
    sub.subscriber = static_cast<SubscriberId>(100 + i);
    sub.ranges = {Range{100.0 + i, 900}, Range{0, 1000}, Range{0, 1000}};
    matcher.inject(kDispatcher, Envelope::of(StoreSubscription{sub, 0}));
  }
  const auto bytes_sent = [&matcher] {
    return matcher.wire_metrics().snapshot().counters.at("wire.bytes_sent");
  };
  const std::uint64_t before = bytes_sent();
  MatchRequest req;
  req.msg.id = 77;
  req.msg.values = {500.0, 500.0, 500.0};
  req.msg.payload = std::string(128, 'q');
  req.dim = 0;
  req.dispatched_at = 1.5;
  matcher.inject(kDispatcher, Envelope::of(std::move(req)));
  EXPECT_TRUE(eventually([&] {
    bd::LockGuard lk(mu);
    return got.size() == kHits;
  }));
  const std::uint64_t sent = bytes_sent() - before;
  matcher.stop();
  dispatcher.stop();

  bd::LockGuard lk(mu);
  ASSERT_EQ(got.size(), static_cast<std::size_t>(kHits));
  std::set<std::pair<SubscriptionId, SubscriberId>> hits;
  for (const Delivery& d : got) {
    hits.emplace(d.sub_id, d.subscriber);
    EXPECT_EQ(d.msg_id, 77u);
    EXPECT_EQ(d.dispatched_at, 1.5);
    EXPECT_EQ(d.values, ValuesRef({500.0, 500.0, 500.0}));
    EXPECT_EQ(d.payload.view(), std::string(128, 'q'));
    EXPECT_EQ(d.values.bytes(), got[0].values.bytes());
    EXPECT_EQ(d.payload.data(), got[0].payload.data());
  }
  std::set<std::pair<SubscriptionId, SubscriberId>> want;
  for (int i = 0; i < kHits; ++i) {
    want.emplace(static_cast<SubscriptionId>(i + 1),
                 static_cast<SubscriberId>(100 + i));
  }
  EXPECT_EQ(hits, want);
  const std::size_t full = wire_size(Envelope::of(got[0]));
  EXPECT_LT(sent, kHits * full / 4) << "one Delivery is " << full << " B";
}

/// The batch size of every match.probe span `node` opened at or after
/// `since_ns`, in order.
std::vector<std::uint64_t> probe_batches(NodeId node, std::uint64_t since_ns) {
  const std::uint16_t probe = obs::Recorder::intern("match.probe");
  std::vector<std::pair<std::uint64_t, std::uint64_t>> spans;
  for (const auto& t : obs::Recorder::dump().threads) {
    for (const obs::RecEvent& e : t.events) {
      if (e.name == probe && e.node == node && e.ts_ns >= since_ns &&
          e.kind == static_cast<std::uint8_t>(obs::RecKind::kSpanBegin)) {
        spans.emplace_back(e.ts_ns, e.arg);
      }
    }
  }
  std::sort(spans.begin(), spans.end());
  std::vector<std::uint64_t> batches;
  for (const auto& span : spans) batches.push_back(span.second);
  return batches;
}

/// A one-core TcpHost matcher is held while 64 MatchRequests reach it, so
/// one loop pass reads them all. The first starts a service at once; the
/// rest queue behind it and are served at the end of that pass, in
/// services of up to `match_batch`, and every delivery leaves in the
/// pass's one write to the sink.
void one_core_matcher_serves_backlog_in_one_flush(int match_batch) {
  const NodeId kMatcher = 1100 + static_cast<NodeId>(match_batch);
  constexpr NodeId kSink = 2;
  constexpr int kRequests = 64;
  const std::vector<Range> domains(2, Range{0.0, 100.0});

  auto log = std::make_shared<testing_owners::SinkState>();
  TcpHost sink(kSink, 0,
               std::make_unique<FunctionNode>(
                   [log](NodeId, const Envelope& env, Timestamp) {
                     log->record(env);
                   }));
  MatcherConfig mcfg;
  mcfg.domains = domains;
  mcfg.cores = 1;
  mcfg.index_kind = IndexKind::kFlatBucket;
  mcfg.match_batch = match_batch;
  mcfg.metrics_sink = kSink;
  mcfg.delivery_sink = kSink;
  mcfg.load_report_interval = 60.0;
  mcfg.gossip.round_interval = 60.0;
  auto matcher_node = std::make_unique<MatcherNode>(kMatcher, mcfg);
  matcher_node->set_bootstrap(bootstrap_table({kMatcher}, domains));
  auto latched =
      std::make_unique<testing_owners::LatchedNode>(std::move(matcher_node));
  testing_owners::LatchedNode* latch = latched.get();
  TcpHost matcher(kMatcher, 0, std::move(latched));
  matcher.add_peer(kSink, {"127.0.0.1", sink.port()});
  sink.start();
  matcher.start();

  Rng rng(28);
  LinearScanIndex oracle(0);
  for (SubscriptionId id = 1; id <= 200; ++id) {
    Subscription sub;
    sub.id = id;
    sub.subscriber = id;
    for (int d = 0; d < 2; ++d) {
      const double lo = rng.uniform(0.0, 80.0);
      sub.ranges.push_back(Range{lo, lo + 20.0});
    }
    oracle.insert(sub);
    matcher.inject(kSink, Envelope::of(StoreSubscription{sub, 0}));
  }
  auto request = [&rng](MessageId id) {
    MatchRequest req;
    req.msg.id = id;
    req.msg.values = {rng.uniform(0.0, 100.0), rng.uniform(0.0, 100.0)};
    req.dim = 0;
    return req;
  };
  // Warm up: the connection to the sink is open before the count.
  matcher.inject(kSink, Envelope::of(request(1000)));
  ASSERT_TRUE(eventually([&] { return log->completed() == 1; }));
  const auto flushes = [&matcher] {
    return matcher.wire_metrics().snapshot().counters.at("wire.flushes");
  };
  const std::uint64_t flushes_before = flushes();
  const std::uint64_t since_ns = obs::Recorder::now_ns();

  matcher.inject(kInvalidNode, Envelope::of(ClientPublish{}));
  ASSERT_TRUE(eventually([&] { return latch->entered.load(); }));
  std::vector<MatchRequest> reqs;
  for (MessageId id = 1; id <= kRequests; ++id) {
    reqs.push_back(request(id));
    matcher.inject(kSink, Envelope::of(reqs.back()));
  }
  latch->release.store(true);
  ASSERT_TRUE(
      eventually([&] { return log->completed() == kRequests + 1; }))
      << "completed " << log->completed() - 1 << "/" << kRequests;
  const std::uint64_t flushed = flushes() - flushes_before;
  matcher.stop();
  sink.stop();

  std::size_t hits = 0;
  for (const MatchRequest& req : reqs) {
    const std::vector<SubscriptionId> want =
        testing_probe::hit_ids(oracle, req.msg);
    hits += want.size();
    const std::set<SubscriptionId> got = log->delivered(req.msg.id);
    EXPECT_EQ(std::vector<SubscriptionId>(got.begin(), got.end()), want)
        << "message " << req.msg.id;
  }
  EXPECT_GT(hits, 0u);
  EXPECT_LE(flushed, 2u);
  if (obs::Recorder::enabled()) {
    // One service for the request that found the core idle, then the
    // other 63 in services of up to match_batch.
    std::vector<std::uint64_t> want{1};
    for (int left = kRequests - 1; left > 0; left -= match_batch) {
      want.push_back(static_cast<std::uint64_t>(std::min(left, match_batch)));
    }
    EXPECT_EQ(probe_batches(kMatcher, since_ns), want);
  }
}

TEST(WireCluster, OneCoreMatcherServesItsBacklogInOneFlush) {
  one_core_matcher_serves_backlog_in_one_flush(1);
  one_core_matcher_serves_backlog_in_one_flush(8);
}

}  // namespace
}  // namespace bluedove
