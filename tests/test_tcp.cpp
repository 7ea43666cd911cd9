// Tests for the TCP transport: framing, host lifecycle, and a complete
// BlueDove cluster (dispatcher + matchers + sinks) running over real
// loopback sockets.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <map>
#include <string>
#include <thread>

#include "net/tcp_transport.h"
#include "node/dispatcher_node.h"
#include "node/matcher_node.h"

namespace bluedove {
namespace {

using net::TcpEndpoint;
using net::TcpHost;

/// Waits until `pred` holds or the timeout expires.
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
  // Atomic: start() runs on the host's node thread while the tests poll
  // ctx() from the main thread.
  void start(NodeContext& ctx) override { ctx_.store(&ctx); }
  NodeContext* ctx() const { return ctx_.load(); }
  void on_receive(NodeId from, Envelope env) override {
    last_from.store(from);
    if (std::holds_alternative<ClientPublish>(env.payload)) {
      publishes.fetch_add(1);
    }
    total.fetch_add(1);
    if (echo_to != kInvalidNode) {
      ctx_.load()->send(echo_to, Envelope::of(JoinRequest{}));
    }
  }
  std::atomic<NodeContext*> ctx_{nullptr};
  NodeId echo_to = kInvalidNode;
  std::atomic<NodeId> last_from{kInvalidNode};
  std::atomic<int> publishes{0};
  std::atomic<int> total{0};
};

TEST(TcpHost, BindsEphemeralPort) {
  TcpHost host(1, 0, std::make_unique<CountingNode>());
  EXPECT_GT(host.port(), 0);
}

TEST(TcpHost, SendOnceDelivers) {
  TcpHost host(1, 0, std::make_unique<CountingNode>());
  auto* node = host.node_as<CountingNode>();
  host.start();
  ASSERT_TRUE(TcpHost::send_once(TcpEndpoint{"127.0.0.1", host.port()},
                                 Envelope::of(ClientPublish{})));
  EXPECT_TRUE(eventually([&] { return node->publishes.load() == 1; }));
  EXPECT_EQ(node->last_from.load(), kInvalidNode);
  host.stop();
}

TEST(TcpHost, HostToHostCarriesSenderIdBothWays) {
  TcpHost a(1, 0, std::make_unique<CountingNode>());
  TcpHost b(2, 0, std::make_unique<CountingNode>());
  auto* na = a.node_as<CountingNode>();
  auto* nb = b.node_as<CountingNode>();
  nb->echo_to = 1;  // b answers every message with a JoinRequest to a
  a.add_peer(2, TcpEndpoint{"127.0.0.1", b.port()});
  b.add_peer(1, TcpEndpoint{"127.0.0.1", a.port()});
  a.start();
  b.start();
  ASSERT_TRUE(eventually([&] { return na->ctx() != nullptr; }));
  na->ctx()->send(2, Envelope::of(ClientPublish{}));
  EXPECT_TRUE(eventually([&] { return nb->publishes.load() == 1; }));
  EXPECT_EQ(nb->last_from.load(), 1u);
  EXPECT_TRUE(eventually([&] { return na->total.load() == 1; }));
  EXPECT_EQ(na->last_from.load(), 2u);
  a.stop();
  b.stop();
}

TEST(TcpHost, SendToUnknownPeerCountsDrop) {
  TcpHost a(1, 0, std::make_unique<CountingNode>());
  auto* na = a.node_as<CountingNode>();
  a.start();
  ASSERT_TRUE(eventually([&] { return na->ctx() != nullptr; }));
  na->ctx()->send(99, Envelope::of(JoinRequest{}));
  EXPECT_TRUE(eventually([&] { return a.dropped_sends() == 1; }));
  a.stop();
}

TEST(TcpHost, SendToDeadPeerCountsDropAndRecovers) {
  TcpHost a(1, 0, std::make_unique<CountingNode>());
  auto* na = a.node_as<CountingNode>();
  auto b = std::make_unique<TcpHost>(2, 0, std::make_unique<CountingNode>());
  const std::uint16_t b_port = b->port();
  a.add_peer(2, TcpEndpoint{"127.0.0.1", b_port});
  a.start();
  b->start();
  ASSERT_TRUE(eventually([&] { return na->ctx() != nullptr; }));
  na->ctx()->send(2, Envelope::of(ClientPublish{}));
  EXPECT_TRUE(eventually(
      [&] { return b->node_as<CountingNode>()->publishes.load() == 1; }));
  b->stop();
  b.reset();
  // Now b is gone; sends drop (possibly after one buffered success).
  EXPECT_TRUE(eventually([&] {
    na->ctx()->send(2, Envelope::of(ClientPublish{}));
    return a.dropped_sends() > 0;
  }));
  a.stop();
}

// ---------------------------------------------------------------------------
// A real BlueDove cluster over loopback TCP: 1 dispatcher, 3 matchers, a
// delivery/metrics sink — subscribe, publish, receive.
// ---------------------------------------------------------------------------

TEST(TcpCluster, EndToEndPubSub) {
  constexpr NodeId kSink = 2;
  constexpr NodeId kDispatcher = 10;
  const std::vector<NodeId> matcher_ids{1000, 1001, 1002};
  const std::vector<Range> domains(3, Range{0, 1000});

  std::atomic<int> deliveries{0};
  std::atomic<int> completions{0};

  // Sink host (delivery + metrics).
  TcpHost sink(kSink, 0,
               std::make_unique<FunctionNode>(
                   [&](NodeId, const Envelope& env, Timestamp) {
                     if (std::holds_alternative<Delivery>(env.payload)) {
                       deliveries.fetch_add(1);
                     } else if (std::holds_alternative<MatchCompleted>(
                                    env.payload)) {
                       completions.fetch_add(1);
                     }
                   }));

  // Dispatcher host.
  DispatcherConfig dcfg;
  dcfg.domains = domains;
  dcfg.table_pull_interval = 0.5;
  TcpHost dispatcher_host(
      kDispatcher, 0,
      [&] {
        auto node = std::make_unique<DispatcherNode>(kDispatcher, dcfg);
        node->set_bootstrap(bootstrap_table(matcher_ids, domains));
        return node;
      }());

  // Matcher hosts.
  MatcherConfig mcfg;
  mcfg.domains = domains;
  mcfg.cores = 1;
  mcfg.index_kind = IndexKind::kFlatBucket;
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

  // Wire the full mesh of peer addresses.
  std::map<NodeId, TcpEndpoint> directory;
  directory[kSink] = {"127.0.0.1", sink.port()};
  directory[kDispatcher] = {"127.0.0.1", dispatcher_host.port()};
  for (std::size_t i = 0; i < matcher_ids.size(); ++i) {
    directory[matcher_ids[i]] = {"127.0.0.1", matcher_hosts[i]->port()};
  }
  auto wire = [&](TcpHost& host) {
    for (const auto& [id, ep] : directory) {
      if (id != host.id()) host.add_peer(id, ep);
    }
  };
  wire(sink);
  wire(dispatcher_host);
  for (auto& host : matcher_hosts) wire(*host);

  sink.start();
  dispatcher_host.start();
  for (auto& host : matcher_hosts) host->start();

  // Subscribe via a plain TCP client, then publish.
  Subscription sub;
  sub.id = 1;
  sub.subscriber = 1;
  sub.ranges = {Range{0, 500}, Range{0, 1000}, Range{0, 1000}};
  ASSERT_TRUE(TcpHost::send_once(directory[kDispatcher],
                                 Envelope::of(ClientSubscribe{sub})));
  std::this_thread::sleep_for(std::chrono::milliseconds(300));

  Message hit;
  hit.id = 1;
  hit.values = {100, 100, 100};
  Message miss;
  miss.id = 2;
  miss.values = {900, 100, 100};
  ASSERT_TRUE(TcpHost::send_once(directory[kDispatcher],
                                 Envelope::of(ClientPublish{hit})));
  ASSERT_TRUE(TcpHost::send_once(directory[kDispatcher],
                                 Envelope::of(ClientPublish{miss})));

  EXPECT_TRUE(eventually([&] { return completions.load() == 2; }));
  EXPECT_TRUE(eventually([&] { return deliveries.load() == 1; }));
  // No more deliveries should trickle in for the miss.
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  EXPECT_EQ(deliveries.load(), 1);

  for (auto& host : matcher_hosts) host->stop();
  dispatcher_host.stop();
  sink.stop();
}

// ---------------------------------------------------------------------------
// A client host against a TCP cluster: the client IS the delivery sink.
// ---------------------------------------------------------------------------

/// Client endpoint's node: hands each delivery to `on_delivery` (set before
/// start) on the host's node thread and counts completions.
class SinkNode final : public Node {
 public:
  void start(NodeContext& /*ctx*/) override {}
  void on_receive(NodeId /*from*/, Envelope env) override {
    if (const auto* d = std::get_if<Delivery>(&env.payload)) {
      if (on_delivery) on_delivery(*d);
    } else if (std::holds_alternative<MatchCompleted>(env.payload)) {
      completions.fetch_add(1);
    }
  }
  std::function<void(const Delivery&)> on_delivery;
  std::atomic<std::uint64_t> completions{0};
};

std::uint64_t counter(const obs::MetricsRegistry& reg,
                      const std::string& name) {
  const auto snap = reg.snapshot();
  const auto it = snap.counters.find(name);
  return it == snap.counters.end() ? 0 : it->second;
}

/// A dispatcher and two flat-bucket matchers on loopback TcpHosts, plus a
/// client host that is both their metrics and their delivery sink. Direct
/// clients reach the dispatcher through TcpHost::send_once, one dial per
/// operation, as a client without a peer link would.
class ClientCluster {
 public:
  static constexpr NodeId kClient = 3;
  static constexpr NodeId kDispatcher = 10;

  ClientCluster() {
    DispatcherConfig dcfg;
    dcfg.domains = domains_;
    dcfg.table_pull_interval = 0.5;
    auto dnode = std::make_unique<DispatcherNode>(kDispatcher, dcfg);
    dnode->set_bootstrap(bootstrap_table(matcher_ids_, domains_));
    dispatcher_host_ =
        std::make_unique<TcpHost>(kDispatcher, 0, std::move(dnode));

    auto sink = std::make_unique<SinkNode>();
    sink->on_delivery = [this](const Delivery& d) {
      EXPECT_EQ(d.values.size(), 2u);
      hits.fetch_add(1);
    };
    client = sink.get();
    client_host_ = std::make_unique<TcpHost>(kClient, 0, std::move(sink));

    MatcherConfig mcfg;
    mcfg.domains = domains_;
    mcfg.cores = 1;
    mcfg.index_kind = IndexKind::kFlatBucket;
    mcfg.load_report_interval = 0.2;
    mcfg.gossip.round_interval = 0.2;
    mcfg.dispatchers = {kDispatcher};
    mcfg.metrics_sink = kClient;
    mcfg.delivery_sink = kClient;
    for (NodeId id : matcher_ids_) {
      auto node = std::make_unique<MatcherNode>(id, mcfg);
      node->set_bootstrap(bootstrap_table(matcher_ids_, domains_));
      matcher_hosts_.push_back(
          std::make_unique<TcpHost>(id, 0, std::move(node)));
    }
    std::map<NodeId, TcpEndpoint> directory;
    directory[kClient] = {"127.0.0.1", client_host_->port()};
    directory[kDispatcher] = dispatcher();
    for (std::size_t i = 0; i < matcher_ids_.size(); ++i) {
      directory[matcher_ids_[i]] = {"127.0.0.1", matcher_hosts_[i]->port()};
    }
    for (auto& host : matcher_hosts_) {
      for (const auto& [id, ep] : directory) {
        if (id != host->id()) host->add_peer(id, ep);
      }
    }
    for (const auto& [id, ep] : directory) {
      if (id != kDispatcher) dispatcher_host_->add_peer(id, ep);
    }
    client_host_->start();
    dispatcher_host_->start();
    for (auto& host : matcher_hosts_) host->start();
  }

  ~ClientCluster() {
    for (auto& host : matcher_hosts_) host->stop();
    dispatcher_host_->stop();
    client_host_->stop();
  }

  TcpEndpoint dispatcher() const {
    return {"127.0.0.1", dispatcher_host_->port()};
  }
  const DispatcherNode& dispatcher_node() {
    return *dispatcher_host_->node_as<DispatcherNode>();
  }

  bool send(Envelope env) const {
    return TcpHost::send_once(dispatcher(), env);
  }
  bool publish(MessageId id, std::vector<Value> values,
               std::string payload) const {
    Message msg;
    msg.id = id;
    msg.values = std::move(values);
    msg.payload = std::move(payload);
    return send(Envelope::of(ClientPublish{std::move(msg)}));
  }

  SinkNode* client = nullptr;
  std::atomic<int> hits{0};

 private:
  const std::vector<NodeId> matcher_ids_{1000, 1001};
  const std::vector<Range> domains_ = std::vector<Range>(2, Range{0, 1000});
  std::unique_ptr<TcpHost> dispatcher_host_;
  std::unique_ptr<TcpHost> client_host_;
  std::vector<std::unique_ptr<TcpHost>> matcher_hosts_;
};

TEST(TcpClusterClient, SubscribePublishUnsubscribe) {
  ClientCluster cluster;
  Subscription sub;
  sub.id = 1;
  sub.subscriber = 1;
  sub.ranges = {Range{0, 500}, Range{0, 1000}};
  ASSERT_TRUE(cluster.send(Envelope::of(ClientSubscribe{sub})));
  std::this_thread::sleep_for(std::chrono::milliseconds(300));

  EXPECT_TRUE(cluster.publish(1, {100, 100}, "hit"));
  EXPECT_TRUE(cluster.publish(2, {700, 100}, "miss"));
  EXPECT_TRUE(
      eventually([&] { return cluster.client->completions.load() == 2; }));
  EXPECT_TRUE(eventually([&] { return cluster.hits.load() == 1; }));

  ASSERT_TRUE(cluster.send(Envelope::of(ClientUnsubscribe{sub})));
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  EXPECT_TRUE(cluster.publish(3, {100, 100}, "after-unsub"));
  EXPECT_TRUE(
      eventually([&] { return cluster.client->completions.load() == 3; }));
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  EXPECT_EQ(cluster.hits.load(), 1);
}

// Client input of the wrong arity stops at the dispatcher: placement and
// forwarding read one range or value per schema dimension. Each one is
// dropped and counted, the cluster keeps serving, and nothing is
// delivered for it.
TEST(TcpClusterClient, WrongArityClientInputIsDroppedAndCounted) {
  ClientCluster cluster;
  Subscription short_sub;
  short_sub.id = 1;
  short_sub.subscriber = 1;
  short_sub.ranges = {Range{0, 1000}};  // one range on a 2-dim schema
  ASSERT_TRUE(cluster.send(Envelope::of(ClientSubscribe{short_sub})));
  ASSERT_TRUE(cluster.publish(1, {100}, "short"));
  ASSERT_TRUE(cluster.send(Envelope::of(ClientUnsubscribe{short_sub})));
  EXPECT_TRUE(eventually([&] {
    return counter(cluster.dispatcher_node().metrics(),
                   "dispatcher.arity_rejects") == 3;
  }));

  // A well-formed publish that the short subscription's one range would
  // cover still completes, and reaches no one.
  ASSERT_TRUE(cluster.publish(2, {100, 100}, "valid"));
  EXPECT_TRUE(
      eventually([&] { return cluster.client->completions.load() == 1; }));
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  EXPECT_EQ(cluster.client->completions.load(), 1u);
  EXPECT_EQ(cluster.hits.load(), 0);
  EXPECT_EQ(counter(cluster.dispatcher_node().metrics(),
                    "dispatcher.published"),
            1u);
}

// Peers are trusted no more than clients: a matcher refuses a store or a
// match request of the wrong arity where it arrives, before any index,
// cover table or probe reads it.
TEST(TcpMatcherHost, WrongArityStoreAndMatchRequestAreDropped) {
  constexpr NodeId kClient = 3;
  constexpr NodeId kMatcher = 1000;
  const std::vector<Range> domains(2, Range{0, 1000});

  auto sink = std::make_unique<SinkNode>();
  std::atomic<int> hits{0};
  sink->on_delivery = [&](const Delivery&) { hits.fetch_add(1); };
  SinkNode* client = sink.get();
  TcpHost client_host(kClient, 0, std::move(sink));

  MatcherConfig mcfg;
  mcfg.domains = domains;
  mcfg.cores = 1;
  mcfg.index_kind = IndexKind::kFlatBucket;
  mcfg.cover.enabled = true;
  mcfg.metrics_sink = kClient;
  mcfg.delivery_sink = kClient;
  auto node = std::make_unique<MatcherNode>(kMatcher, mcfg);
  node->set_bootstrap(bootstrap_table({kMatcher}, domains));
  TcpHost matcher_host(kMatcher, 0, std::move(node));
  matcher_host.add_peer(kClient, {"127.0.0.1", client_host.port()});
  client_host.start();
  matcher_host.start();
  const TcpEndpoint matcher{"127.0.0.1", matcher_host.port()};

  Subscription short_sub;
  short_sub.id = 1;
  short_sub.subscriber = 1;
  short_sub.ranges = {Range{0, 1000}};
  Subscription long_sub = short_sub;
  long_sub.id = 2;
  long_sub.ranges.assign(3, Range{0, 1000});
  ASSERT_TRUE(TcpHost::send_once(
      matcher, Envelope::of(StoreSubscription{short_sub, 1})));
  ASSERT_TRUE(TcpHost::send_once(
      matcher, Envelope::of(StoreSubscription{long_sub, 0})));
  const auto request = [&](MessageId id, std::vector<Value> values,
                           DimId dim) {
    MatchRequest req;
    req.msg.id = id;
    req.msg.values = std::move(values);
    req.dim = dim;
    return TcpHost::send_once(matcher, Envelope::of(std::move(req)));
  };
  ASSERT_TRUE(request(1, {100}, 1));
  ASSERT_TRUE(request(2, {100, 100, 100}, 0));
  const auto& metrics = matcher_host.node_as<MatcherNode>()->metrics();
  EXPECT_TRUE(eventually(
      [&] { return counter(metrics, "matcher.arity_rejects") == 4; }));

  // A well-formed request on either dimension still completes, matching
  // nothing: neither refused subscription was stored.
  ASSERT_TRUE(request(3, {100, 100}, 1));
  ASSERT_TRUE(request(4, {100, 100}, 0));
  EXPECT_TRUE(eventually([&] { return client->completions.load() == 2; }));
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  EXPECT_EQ(client->completions.load(), 2u);
  EXPECT_EQ(hits.load(), 0);
  EXPECT_EQ(counter(metrics, "matcher.requests"), 2u);

  matcher_host.stop();
  client_host.stop();
}

}  // namespace
}  // namespace bluedove
