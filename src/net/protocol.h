#pragma once
// The complete BlueDove wire protocol.
//
// Every inter-node interaction in the system — client traffic, dispatch,
// matching, gossip, load reporting, elasticity handover — is one of these
// message structs carried in an Envelope. The simulator and the in-process
// thread cluster move Envelopes by value; TcpHost and the edge serialize
// them into frames (net/wire.h, net/reactor.h). wire_size() is the size of
// one envelope encoded on its own: what the simulator accounts per send,
// the way the paper accounts bytes. It is not what TcpHost sends, because
// a frame may encode a Delivery as a continuation of the one before it
// (kContinuationTag below).

#include <cstdint>
#include <memory>
#include <ostream>
#include <string>
#include <variant>
#include <vector>

#include "attr/message.h"
#include "attr/subscription.h"
#include "common/serde.h"
#include "common/types.h"
#include "net/cluster_table.h"
#include "obs/recorder.h"

namespace bluedove {

// --------------------------------------------------------------------------
// Client <-> dispatcher
// --------------------------------------------------------------------------

struct ClientSubscribe {
  Subscription sub;
};

struct ClientUnsubscribe {
  Subscription sub;  ///< full subscription so the copies can be located
};

struct ClientPublish {
  Message msg;
};

// --------------------------------------------------------------------------
// Dispatcher -> matcher
// --------------------------------------------------------------------------

/// Store one copy of a subscription, assigned along dimension `dim`
/// (mPartition sends the *whole* subscription with the dimension tag).
struct StoreSubscription {
  Subscription sub;
  DimId dim = 0;
};

struct RemoveSubscription {
  SubscriptionId id = 0;
  DimId dim = 0;
};

/// Forward a publication to the chosen candidate matcher; the dispatcher
/// marks the dimension whose subscription set should be searched.
struct MatchRequest {
  Message msg;
  DimId dim = 0;
  Timestamp dispatched_at = 0.0;  ///< when the dispatcher accepted the message
  /// When valid, the matcher acknowledges completion to this dispatcher
  /// (reliable-delivery mode, the §VI message-persistence extension).
  NodeId reply_to = kInvalidNode;
  /// Trace block {trace_id, parent_span}: trace_id is non-zero when the
  /// dispatcher sampled this message (obs/recorder.h); parent_span names the
  /// dispatcher-side span that emitted the request, so a merged cross-node
  /// trace can link dispatch -> queue -> match -> delivery. parent_span is
  /// only serialized when trace_id is non-zero, so untraced requests pay
  /// one byte for the whole block.
  obs::TraceId trace_id = 0;
  std::uint64_t parent_span = 0;
};

/// Matcher -> dispatcher: matching for `msg_id` completed (reliable mode).
struct MatchAck {
  MessageId msg_id = 0;
};

// --------------------------------------------------------------------------
// Matcher -> subscriber / metrics sink
// --------------------------------------------------------------------------

// PayloadRef (the refcounted zero-copy payload shared across a delivery
// fan-out) lives in attr/payload.h now — Message carries one too, so the
// whole pipeline from ClientPublish to Delivery shares a single block.

/// Notification of one matching subscription (full-matching mode). Every
/// field but (sub_id, subscriber) is the message's body, the same for every
/// Delivery of one matched message; values and payload are shared blocks.
struct Delivery {
  MessageId msg_id = 0;
  SubscriptionId sub_id = 0;
  SubscriberId subscriber = 0;
  Timestamp dispatched_at = 0.0;
  ValuesRef values;           ///< the message's coordinates, shared
  PayloadRef payload;         ///< shared across the fan-out, not copied
  obs::TraceId trace_id = 0;  ///< non-zero when the message was sampled
};

/// Emitted once per matched message; carries what the metrics layer needs.
struct MatchCompleted {
  MessageId msg_id = 0;
  NodeId matcher = kInvalidNode;
  DimId dim = 0;
  Timestamp dispatched_at = 0.0;
  std::uint32_t match_count = 0;
  double work_units = 0.0;
  obs::TraceId trace_id = 0;  ///< non-zero when the message was sampled
};

// --------------------------------------------------------------------------
// Matcher -> dispatcher: load feedback (paper §III-B2)
// --------------------------------------------------------------------------

/// Per-dimension load snapshot: queue length q, arrival rate lambda,
/// matching throughput mu over the last window, the measured per-message
/// service time (the capability behind the paper's "matching rate"), and
/// the set size.
struct DimLoad {
  double queue_len = 0.0;
  double arrival_rate = 0.0;   ///< lambda, msgs/sec completed arrivals
  double matching_rate = 0.0;  ///< mu, msgs/sec actually matched (throughput)
  double service_time = 0.0;   ///< EWMA seconds per message; 0 = no history
  std::uint64_t subscriptions = 0;
  /// Index work-units absorbed per second over the report window — the
  /// per-segment hotness signal (obs/segment_load.h) a forwarding or
  /// elasticity policy can weigh instead of raw message counts.
  double work_rate = 0.0;
};

struct LoadReport {
  std::vector<DimLoad> dims;
  std::uint32_t cores = 1;  ///< service parallelism of the reporting matcher
  /// Fraction of core time spent matching during the report window (0..1).
  double utilization = 0.0;
  Timestamp measured_at = 0.0;
};

// --------------------------------------------------------------------------
// Dispatcher <-> matcher: table pull
// --------------------------------------------------------------------------

struct TablePullReq {};

struct TablePullResp {
  ClusterTable table;
};

// --------------------------------------------------------------------------
// Gossip (matcher <-> matcher), Cassandra-style three-way anti-entropy
// --------------------------------------------------------------------------

struct GossipSyn {
  std::vector<StateDigest> digests;
};

struct GossipAck {
  std::vector<MatcherState> deltas;  ///< entries newer on the receiver
  std::vector<NodeId> requests;      ///< entries newer on the sender
};

struct GossipAck2 {
  std::vector<MatcherState> deltas;
};

// --------------------------------------------------------------------------
// Elasticity: join / leave (paper §III-C)
// --------------------------------------------------------------------------

/// A freshly booted matcher announces itself to a dispatcher.
struct JoinRequest {};

/// Dispatcher tells the most-loaded matcher on `dim` to split its segment
/// and hand the upper half (plus covered subscriptions) to `newcomer`.
struct SplitCommand {
  NodeId newcomer = kInvalidNode;
  DimId dim = 0;
};

/// Victim -> newcomer: the split result and the subscriptions whose range
/// on `dim` overlaps the newcomer's new segment.
struct HandoverSegment {
  DimId dim = 0;
  Range newcomer_segment;
  std::vector<Subscription> subs;
};

/// Administrative request for a matcher to leave the cluster gracefully.
struct LeaveRequest {};

/// Leaving matcher -> adjacent matcher: absorb my segment on `dim`.
struct HandoverMerge {
  DimId dim = 0;
  Range merged_segment;  ///< neighbour's new (extended) segment
  std::vector<Subscription> subs;
};

// --------------------------------------------------------------------------
// Admin: stats scrape (any node -> requester)
// --------------------------------------------------------------------------

/// Asks a node for a snapshot of its metrics registry. Sent by the
/// `bluedove_cli stats` admin path (and usable by any in-cluster scraper).
struct StatsRequest {};

/// Reply: the node's MetricsSnapshot in the obs JSON encoding (obs/export.h
/// round-trips it), so one string field carries counters, gauges and
/// histograms without widening the wire protocol per metric.
struct StatsResponse {
  std::string json;
};

/// Asks a node to dump its process-wide flight recorder (obs/recorder.h).
/// Sent by `bluedove_cli trace-dump`.
struct TraceDumpRequest {};

/// Reply: the Chrome/Perfetto trace-event JSON rendered by
/// obs/trace_export.h. Dumps from several nodes merge into one cross-node
/// trace with tools/trace_check.py --merge.
struct TraceDumpResponse {
  std::string json;
};

// --------------------------------------------------------------------------
// Client <-> edge front end (src/edge): resumable sessions
// --------------------------------------------------------------------------

/// First envelope on every edge connection. `session` 0 requests a fresh
/// session; non-zero asks to resume an existing one, with `last_seq` the
/// highest delivery sequence number the client has processed (an implicit
/// cumulative ack — replay starts just past it).
struct EdgeHello {
  std::uint64_t session = 0;
  std::uint64_t last_seq = 0;
};

/// Edge -> client reply to EdgeHello. `next_seq` is the sequence number the
/// first post-handshake delivery will carry; on resume, a client that asked
/// for `last_seq` L and is told next_seq > L + 1 knows the replay ring had
/// already dropped part of the gap (counted as edge.replay_gaps).
struct EdgeWelcome {
  std::uint64_t session = 0;
  std::uint64_t next_seq = 1;
  bool resumed = false;  ///< false: fresh session (resubscribe needed)
};

/// Client -> edge cumulative delivery ack: everything up to and including
/// `seq` may be dropped from the session's replay ring.
struct EdgeAck {
  std::uint64_t seq = 0;
};

/// Edge -> client: one matched delivery stamped with the session's
/// per-delivery sequence number. The embedded Delivery shares the matcher
/// frame's refcounted payload block (PayloadRef), so an edge fan-out to
/// every subscriber on a socket serializes from one buffer without copies.
struct EdgeEvent {
  std::uint64_t seq = 0;
  Delivery delivery;
};

// --------------------------------------------------------------------------
// Envelope
// --------------------------------------------------------------------------

using Payload =
    std::variant<ClientSubscribe, ClientUnsubscribe, ClientPublish,
                 StoreSubscription, RemoveSubscription, MatchRequest, Delivery,
                 MatchCompleted, LoadReport, TablePullReq, TablePullResp,
                 GossipSyn, GossipAck, GossipAck2, JoinRequest, SplitCommand,
                 HandoverSegment, LeaveRequest, HandoverMerge, MatchAck,
                 StatsRequest, StatsResponse, TraceDumpRequest,
                 TraceDumpResponse, EdgeHello, EdgeWelcome, EdgeAck, EdgeEvent>;

struct Envelope {
  Payload payload;

  template <typename T>
  static Envelope of(T msg) {
    return Envelope{Payload{std::move(msg)}};
  }
};

/// Serialized size in bytes of the payload (header not counted).
std::size_t wire_size(const Envelope& env);

/// The tag byte that names the envelope's payload type on the wire. Tags
/// never move when a type is added or retired, so they are not the variant
/// index: tag 22 is retired, and TraceDumpRequest..EdgeEvent are 23..28.
std::uint8_t wire_tag(const Envelope& env);

/// Serializes / parses an envelope; round-trips for every payload type. A
/// tag that names no payload type (a retired one, or the continuation tag
/// below) marks `r` bad.
void write_envelope(serde::Writer& w, const Envelope& env);
Envelope read_envelope(serde::Reader& r);

/// Run encoding inside a frame (net/wire.h). The reserved tag 29 marks a
/// continuation record: varint sub_id, varint subscriber. It stands for a
/// Delivery whose body is that of the Delivery just before it in the same
/// frame, and it parses into one that shares that Delivery's values and
/// payload blocks. A continuation anywhere else (first in a frame, after
/// any other type, or read standalone) is malformed.
inline constexpr std::uint8_t kContinuationTag = 29;

/// True when `next` has `prev`'s body: the same msg_id, dispatched_at and
/// trace_id, and the very same values and payload blocks. Block identity
/// is exact only while something holds `prev`'s refs, so a writer keeps
/// `prev` until its frame closes.
bool same_body(const Delivery& prev, const Delivery& next);

/// Appends `d` as a continuation record (tag included); valid only right
/// after a Delivery with the same body in the same frame.
void append_continuation(serde::Writer& w, const Delivery& d);
/// Parses a continuation record's fields (its tag already consumed) into a
/// Delivery with `body`'s body and blocks.
Delivery parse_continuation(serde::Reader& r, const Delivery& body);

const char* payload_name(const Envelope& env);

}  // namespace bluedove
