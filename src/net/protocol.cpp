#include "net/protocol.h"

#include <algorithm>
#include <bit>
#include <iterator>
#include <type_traits>

namespace bluedove {

namespace {

// Each payload type's wire tag and name, in Payload's variant order. This
// table is the only place that maps a type to its tag. A tag is never
// reused: 22 named an application-level batch of MatchRequests, which the
// transport's per-pass frames replaced, so a frame that carries it is
// malformed. Tag 29 is reserved for continuation records, which are not a
// payload type (kContinuationTag in the header).
struct PayloadInfo {
  std::uint8_t tag;
  const char* name;
};
constexpr PayloadInfo kPayloads[] = {
    {0, "ClientSubscribe"},    {1, "ClientUnsubscribe"},
    {2, "ClientPublish"},      {3, "StoreSubscription"},
    {4, "RemoveSubscription"}, {5, "MatchRequest"},
    {6, "Delivery"},           {7, "MatchCompleted"},
    {8, "LoadReport"},         {9, "TablePullReq"},
    {10, "TablePullResp"},     {11, "GossipSyn"},
    {12, "GossipAck"},         {13, "GossipAck2"},
    {14, "JoinRequest"},       {15, "SplitCommand"},
    {16, "HandoverSegment"},   {17, "LeaveRequest"},
    {18, "HandoverMerge"},     {19, "MatchAck"},
    {20, "StatsRequest"},      {21, "StatsResponse"},
    {23, "TraceDumpRequest"},  {24, "TraceDumpResponse"},
    {25, "EdgeHello"},         {26, "EdgeWelcome"},
    {27, "EdgeAck"},           {28, "EdgeEvent"}};
static_assert(std::size(kPayloads) == std::variant_size_v<Payload>);
static_assert(std::none_of(std::begin(kPayloads), std::end(kPayloads),
                           [](const PayloadInfo& p) {
                             return p.tag == kContinuationTag;
                           }));

template <typename T, typename... Ts>
constexpr std::size_t variant_index(std::variant<Ts...>*) {
  constexpr bool same[] = {std::is_same_v<T, Ts>...};
  std::size_t i = 0;
  while (!same[i]) ++i;
  return i;
}

/// Wire tag of payload type T (a compile-time constant for switch cases).
template <typename T>
constexpr std::uint8_t tag_of() {
  return kPayloads[variant_index<T>(static_cast<Payload*>(nullptr))].tag;
}

// Per-type encode/decode.

void write_payload(serde::Writer& w, const ClientSubscribe& m) {
  write_subscription(w, m.sub);
}
ClientSubscribe read_client_subscribe(serde::Reader& r) {
  return ClientSubscribe{read_subscription(r)};
}

void write_payload(serde::Writer& w, const ClientUnsubscribe& m) {
  write_subscription(w, m.sub);
}
ClientUnsubscribe read_client_unsubscribe(serde::Reader& r) {
  return ClientUnsubscribe{read_subscription(r)};
}

void write_payload(serde::Writer& w, const ClientPublish& m) {
  write_message(w, m.msg);
}
ClientPublish read_client_publish(serde::Reader& r) {
  return ClientPublish{read_message(r)};
}

void write_payload(serde::Writer& w, const StoreSubscription& m) {
  write_subscription(w, m.sub);
  w.u16(m.dim);
}
StoreSubscription read_store_subscription(serde::Reader& r) {
  StoreSubscription m;
  m.sub = read_subscription(r);
  m.dim = r.u16();
  return m;
}

void write_payload(serde::Writer& w, const RemoveSubscription& m) {
  w.u64(m.id);
  w.u16(m.dim);
}
RemoveSubscription read_remove_subscription(serde::Reader& r) {
  RemoveSubscription m;
  m.id = r.u64();
  m.dim = r.u16();
  return m;
}

void write_payload(serde::Writer& w, const MatchRequest& m) {
  write_message(w, m.msg);
  w.u16(m.dim);
  w.f64(m.dispatched_at);
  w.u32(m.reply_to);
  // Trace block: one varint 0 for the (default) untraced case. The causal
  // span context rides inside the block so untraced messages cost nothing.
  w.varint(m.trace_id);
  if (m.trace_id != 0) w.varint(m.parent_span);
}
MatchRequest read_match_request(serde::Reader& r) {
  MatchRequest m;
  m.msg = read_message(r);
  m.dim = r.u16();
  m.dispatched_at = r.f64();
  m.reply_to = r.u32();
  m.trace_id = r.varint();
  if (m.trace_id != 0) m.parent_span = r.varint();
  return m;
}

void write_payload(serde::Writer& w, const MatchAck& m) { w.u64(m.msg_id); }
MatchAck read_match_ack(serde::Reader& r) {
  MatchAck m;
  m.msg_id = r.u64();
  return m;
}

void write_payload(serde::Writer& w, const Delivery& m) {
  w.u64(m.msg_id);
  w.u64(m.sub_id);
  w.u64(m.subscriber);
  w.f64(m.dispatched_at);
  write_values_ref(w, m.values);
  write_payload_ref(w, m.payload);
  w.varint(m.trace_id);
}
Delivery read_delivery(serde::Reader& r) {
  Delivery m;
  m.msg_id = r.u64();
  m.sub_id = r.u64();
  m.subscriber = r.u64();
  m.dispatched_at = r.f64();
  m.values = read_values_ref(r);
  m.payload = read_payload_ref(r);
  m.trace_id = r.varint();
  return m;
}

// A continuation record's fields after its tag: the hit alone. The body
// comes from the Delivery before it (parse_continuation).
void write_continuation(serde::Writer& w, const Delivery& m) {
  w.varint(m.sub_id);
  w.varint(m.subscriber);
}
Delivery read_continuation(serde::Reader& r) {
  Delivery m;
  m.sub_id = r.varint();
  m.subscriber = r.varint();
  return m;
}

void write_payload(serde::Writer& w, const MatchCompleted& m) {
  w.u64(m.msg_id);
  w.u32(m.matcher);
  w.u16(m.dim);
  w.f64(m.dispatched_at);
  w.u32(m.match_count);
  w.f64(m.work_units);
  w.varint(m.trace_id);
}
MatchCompleted read_match_completed(serde::Reader& r) {
  MatchCompleted m;
  m.msg_id = r.u64();
  m.matcher = r.u32();
  m.dim = r.u16();
  m.dispatched_at = r.f64();
  m.match_count = r.u32();
  m.work_units = r.f64();
  m.trace_id = r.varint();
  return m;
}

void write_dim_load(serde::Writer& w, const DimLoad& d) {
  w.f64(d.queue_len);
  w.f64(d.arrival_rate);
  w.f64(d.matching_rate);
  w.f64(d.service_time);
  w.u64(d.subscriptions);
  w.f64(d.work_rate);
}
DimLoad read_dim_load(serde::Reader& r) {
  DimLoad d;
  d.queue_len = r.f64();
  d.arrival_rate = r.f64();
  d.matching_rate = r.f64();
  d.service_time = r.f64();
  d.subscriptions = r.u64();
  d.work_rate = r.f64();
  return d;
}

void write_payload(serde::Writer& w, const LoadReport& m) {
  w.varint(m.dims.size());
  for (const DimLoad& d : m.dims) write_dim_load(w, d);
  w.u32(m.cores);
  w.f64(m.utilization);
  w.f64(m.measured_at);
}
LoadReport read_load_report(serde::Reader& r) {
  LoadReport m;
  m.dims = r.seq<DimLoad>(read_dim_load);
  m.cores = r.u32();
  m.utilization = r.f64();
  m.measured_at = r.f64();
  return m;
}

void write_payload(serde::Writer&, const TablePullReq&) {}
TablePullReq read_table_pull_req(serde::Reader&) { return {}; }

void write_payload(serde::Writer& w, const TablePullResp& m) {
  write_cluster_table(w, m.table);
}
TablePullResp read_table_pull_resp(serde::Reader& r) {
  return TablePullResp{read_cluster_table(r)};
}

void write_payload(serde::Writer& w, const GossipSyn& m) {
  w.varint(m.digests.size());
  for (const StateDigest& d : m.digests) write_digest(w, d);
}
GossipSyn read_gossip_syn(serde::Reader& r) {
  GossipSyn m;
  m.digests = r.seq<StateDigest>(read_digest);
  return m;
}

void write_payload(serde::Writer& w, const GossipAck& m) {
  w.varint(m.deltas.size());
  for (const MatcherState& s : m.deltas) write_matcher_state(w, s);
  w.varint(m.requests.size());
  for (NodeId id : m.requests) w.u32(id);
}
GossipAck read_gossip_ack(serde::Reader& r) {
  GossipAck m;
  m.deltas = r.seq<MatcherState>(read_matcher_state);
  m.requests = r.seq<NodeId>([](serde::Reader& in) { return in.u32(); });
  return m;
}

void write_payload(serde::Writer& w, const GossipAck2& m) {
  w.varint(m.deltas.size());
  for (const MatcherState& s : m.deltas) write_matcher_state(w, s);
}
GossipAck2 read_gossip_ack2(serde::Reader& r) {
  GossipAck2 m;
  m.deltas = r.seq<MatcherState>(read_matcher_state);
  return m;
}

void write_payload(serde::Writer&, const JoinRequest&) {}
JoinRequest read_join_request(serde::Reader&) { return {}; }

void write_payload(serde::Writer& w, const SplitCommand& m) {
  w.u32(m.newcomer);
  w.u16(m.dim);
}
SplitCommand read_split_command(serde::Reader& r) {
  SplitCommand m;
  m.newcomer = r.u32();
  m.dim = r.u16();
  return m;
}

void write_payload(serde::Writer& w, const HandoverSegment& m) {
  w.u16(m.dim);
  write_range(w, m.newcomer_segment);
  w.varint(m.subs.size());
  for (const Subscription& s : m.subs) write_subscription(w, s);
}
HandoverSegment read_handover_segment(serde::Reader& r) {
  HandoverSegment m;
  m.dim = r.u16();
  m.newcomer_segment = read_range(r);
  m.subs = r.seq<Subscription>(read_subscription);
  return m;
}

void write_payload(serde::Writer&, const LeaveRequest&) {}
LeaveRequest read_leave_request(serde::Reader&) { return {}; }

void write_payload(serde::Writer& w, const HandoverMerge& m) {
  w.u16(m.dim);
  write_range(w, m.merged_segment);
  w.varint(m.subs.size());
  for (const Subscription& s : m.subs) write_subscription(w, s);
}
HandoverMerge read_handover_merge(serde::Reader& r) {
  HandoverMerge m;
  m.dim = r.u16();
  m.merged_segment = read_range(r);
  m.subs = r.seq<Subscription>(read_subscription);
  return m;
}

void write_payload(serde::Writer&, const StatsRequest&) {}
StatsRequest read_stats_request(serde::Reader&) { return {}; }

void write_payload(serde::Writer& w, const StatsResponse& m) {
  w.str(m.json);
}
StatsResponse read_stats_response(serde::Reader& r) {
  return StatsResponse{r.str()};
}

void write_payload(serde::Writer&, const TraceDumpRequest&) {}
TraceDumpRequest read_trace_dump_request(serde::Reader&) { return {}; }

void write_payload(serde::Writer& w, const TraceDumpResponse& m) {
  w.str(m.json);
}
TraceDumpResponse read_trace_dump_response(serde::Reader& r) {
  return TraceDumpResponse{r.str()};
}

void write_payload(serde::Writer& w, const EdgeHello& m) {
  w.varint(m.session);
  w.varint(m.last_seq);
}
EdgeHello read_edge_hello(serde::Reader& r) {
  EdgeHello m;
  m.session = r.varint();
  m.last_seq = r.varint();
  return m;
}

void write_payload(serde::Writer& w, const EdgeWelcome& m) {
  w.varint(m.session);
  w.varint(m.next_seq);
  w.u8(m.resumed ? 1 : 0);
}
EdgeWelcome read_edge_welcome(serde::Reader& r) {
  EdgeWelcome m;
  m.session = r.varint();
  m.next_seq = r.varint();
  m.resumed = r.u8() != 0;
  return m;
}

void write_payload(serde::Writer& w, const EdgeAck& m) { w.varint(m.seq); }
EdgeAck read_edge_ack(serde::Reader& r) {
  EdgeAck m;
  m.seq = r.varint();
  return m;
}

void write_payload(serde::Writer& w, const EdgeEvent& m) {
  w.varint(m.seq);
  write_payload(w, m.delivery);
}
EdgeEvent read_edge_event(serde::Reader& r) {
  EdgeEvent m;
  m.seq = r.varint();
  m.delivery = read_delivery(r);
  return m;
}

}  // namespace

std::uint8_t wire_tag(const Envelope& env) {
  return kPayloads[env.payload.index()].tag;
}

void write_envelope(serde::Writer& w, const Envelope& env) {
  w.u8(wire_tag(env));
  std::visit([&w](const auto& m) { write_payload(w, m); }, env.payload);
}

Envelope read_envelope(serde::Reader& r) {
  switch (r.u8()) {
    case tag_of<ClientSubscribe>():
      return Envelope::of(read_client_subscribe(r));
    case tag_of<ClientUnsubscribe>():
      return Envelope::of(read_client_unsubscribe(r));
    case tag_of<ClientPublish>():
      return Envelope::of(read_client_publish(r));
    case tag_of<StoreSubscription>():
      return Envelope::of(read_store_subscription(r));
    case tag_of<RemoveSubscription>():
      return Envelope::of(read_remove_subscription(r));
    case tag_of<MatchRequest>():
      return Envelope::of(read_match_request(r));
    case tag_of<Delivery>():
      return Envelope::of(read_delivery(r));
    case tag_of<MatchCompleted>():
      return Envelope::of(read_match_completed(r));
    case tag_of<LoadReport>():
      return Envelope::of(read_load_report(r));
    case tag_of<TablePullReq>():
      return Envelope::of(read_table_pull_req(r));
    case tag_of<TablePullResp>():
      return Envelope::of(read_table_pull_resp(r));
    case tag_of<GossipSyn>():
      return Envelope::of(read_gossip_syn(r));
    case tag_of<GossipAck>():
      return Envelope::of(read_gossip_ack(r));
    case tag_of<GossipAck2>():
      return Envelope::of(read_gossip_ack2(r));
    case tag_of<JoinRequest>():
      return Envelope::of(read_join_request(r));
    case tag_of<SplitCommand>():
      return Envelope::of(read_split_command(r));
    case tag_of<HandoverSegment>():
      return Envelope::of(read_handover_segment(r));
    case tag_of<LeaveRequest>():
      return Envelope::of(read_leave_request(r));
    case tag_of<HandoverMerge>():
      return Envelope::of(read_handover_merge(r));
    case tag_of<MatchAck>():
      return Envelope::of(read_match_ack(r));
    case tag_of<StatsRequest>():
      return Envelope::of(read_stats_request(r));
    case tag_of<StatsResponse>():
      return Envelope::of(read_stats_response(r));
    case tag_of<TraceDumpRequest>():
      return Envelope::of(read_trace_dump_request(r));
    case tag_of<TraceDumpResponse>():
      return Envelope::of(read_trace_dump_response(r));
    case tag_of<EdgeHello>():
      return Envelope::of(read_edge_hello(r));
    case tag_of<EdgeWelcome>():
      return Envelope::of(read_edge_welcome(r));
    case tag_of<EdgeAck>():
      return Envelope::of(read_edge_ack(r));
    case tag_of<EdgeEvent>():
      return Envelope::of(read_edge_event(r));
    default:
      r.fail();
      return {};
  }
}

bool same_body(const Delivery& prev, const Delivery& next) {
  return prev.msg_id == next.msg_id && prev.trace_id == next.trace_id &&
         std::bit_cast<std::uint64_t>(prev.dispatched_at) ==
             std::bit_cast<std::uint64_t>(next.dispatched_at) &&
         prev.values.bytes() == next.values.bytes() &&
         prev.values.size() == next.values.size() &&
         prev.payload.data() == next.payload.data() &&
         prev.payload.size() == next.payload.size();
}

void append_continuation(serde::Writer& w, const Delivery& d) {
  w.u8(kContinuationTag);
  write_continuation(w, d);
}

Delivery parse_continuation(serde::Reader& r, const Delivery& body) {
  const Delivery hit = read_continuation(r);
  Delivery d = body;  // shares the body's values and payload blocks
  d.sub_id = hit.sub_id;
  d.subscriber = hit.subscriber;
  return d;
}

std::size_t wire_size(const Envelope& env) {
  serde::Writer w;
  write_envelope(w, env);
  return w.size();
}

const char* payload_name(const Envelope& env) {
  return kPayloads[env.payload.index()].name;
}

}  // namespace bluedove
