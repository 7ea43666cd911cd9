// Tests for the client edge layer (src/edge/): reactor front end lifecycle,
// the EdgeHello/EdgeWelcome handshake, id rewriting into the cluster,
// sequence-numbered delivery with acks and gap-free resume (replayed
// events equal their live counterparts), the bounded replay ring, frames
// pipelined behind a cross-reactor resume, the batched delivery hand-off
// (ordering, stop), slow-client eviction,
// detached-session reaping, the SIGPIPE/peer-close-mid-send regression,
// and a full edge -> dispatcher -> matcher -> edge round trip over real
// loopback sockets with the zero-copy payload invariant checked end to end.

#include <gtest/gtest.h>

#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <map>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/thread_safety.h"
#include "edge/edge_client.h"
#include "edge/edge_dial.h"
#include "edge/edge_frontend.h"
#include "edge/edge_swarm.h"
#include "net/cluster_table.h"
#include "net/tcp_transport.h"
#include "net/wire.h"
#include "node/dispatcher_node.h"
#include "node/matcher_node.h"

namespace bluedove {
namespace {

using edge::EdgeClient;
using edge::EdgeConfig;
using edge::EdgeFrontend;
using net::TcpEndpoint;
using net::TcpHost;

bool eventually(const std::function<bool()>& pred, double seconds = 10.0) {
  const auto deadline =
      std::chrono::steady_clock::now() +
      std::chrono::duration_cast<std::chrono::steady_clock::duration>(
          std::chrono::duration<double>(seconds));
  while (std::chrono::steady_clock::now() < deadline) {
    if (pred()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  return pred();
}

std::uint64_t counter(const EdgeFrontend& fe, const std::string& name) {
  const auto snap = fe.metrics().snapshot();
  const auto it = snap.counters.find(name);
  return it == snap.counters.end() ? 0 : it->second;
}

/// Thread-safe capture of everything the edge injects into the "cluster".
struct IngressCapture {
  bd::Mutex mu;
  std::vector<Envelope> envs BD_GUARDED_BY(mu);

  EdgeFrontend::IngressFn fn() {
    return [this](Envelope&& e) {
      bd::LockGuard lk(mu);
      envs.push_back(std::move(e));
    };
  }
  template <typename T>
  std::vector<T> all() {
    bd::LockGuard lk(mu);
    std::vector<T> out;
    for (const Envelope& env : envs) {
      if (const T* m = std::get_if<T>(&env.payload)) out.push_back(*m);
    }
    return out;
  }
  template <typename T>
  std::size_t count() {
    return all<T>().size();
  }
};

Delivery make_delivery(std::uint64_t session, std::uint64_t sub_gid,
                       MessageId msg_id, std::string payload = "p") {
  Delivery d;
  d.msg_id = msg_id;
  d.sub_id = sub_gid;
  d.subscriber = session;
  d.values = {1, 2};
  d.payload = PayloadRef(std::move(payload));
  return d;
}

// ---------------------------------------------------------------------------
// Handshake and ingress rewriting
// ---------------------------------------------------------------------------

TEST(EdgeFrontendTest, HandshakeCreatesSessionAndRewritesIds) {
  IngressCapture ingress;
  EdgeConfig cfg;
  cfg.host = "127.0.0.1";
  EdgeFrontend fe(cfg, 10, ingress.fn());
  ASSERT_GT(fe.port(), 0);
  fe.start();

  EdgeClient client({"127.0.0.1", fe.port()});
  ASSERT_TRUE(client.connect());
  EXPECT_NE(client.session(), 0u);
  EXPECT_FALSE(client.welcome_resumed());
  EXPECT_TRUE(eventually([&] { return fe.sessions() == 1; }));
  EXPECT_TRUE(eventually([&] { return fe.connections() == 1; }));

  const SubscriptionId client_sub = client.subscribe({Range{0, 100}});
  ASSERT_NE(client_sub, 0u);
  ASSERT_TRUE(eventually([&] { return ingress.count<ClientSubscribe>() == 1; }));
  const ClientSubscribe sub = ingress.all<ClientSubscribe>()[0];
  // The edge rewrites the client-chosen id to an edge-global one (tagged so
  // it cannot collide with ids a direct client of the cluster picks) and
  // stamps the session id as the subscriber — that is how deliveries find
  // their way back.
  EXPECT_NE(sub.sub.id, client_sub);
  EXPECT_NE(sub.sub.id & (1ull << 62), 0u);
  EXPECT_EQ(sub.sub.subscriber, client.session());
  EXPECT_EQ(sub.sub.ranges.size(), 1u);

  EXPECT_NE(client.publish({5, 6}, "payload"), 0u);
  ASSERT_TRUE(eventually([&] { return ingress.count<ClientPublish>() == 1; }));
  const ClientPublish pub = ingress.all<ClientPublish>()[0];
  EXPECT_NE(pub.msg.id & (1ull << 62), 0u);
  EXPECT_EQ(pub.msg.payload.view(), "payload");

  // Unsubscribe maps the client id back to the same global id.
  EXPECT_TRUE(client.unsubscribe(client_sub));
  ASSERT_TRUE(
      eventually([&] { return ingress.count<ClientUnsubscribe>() == 1; }));
  EXPECT_EQ(ingress.all<ClientUnsubscribe>()[0].sub.id, sub.sub.id);

  client.disconnect();
  EXPECT_TRUE(eventually([&] { return fe.connections() == 0; }));
  fe.stop();
}

TEST(EdgeFrontendTest, TwoSessionsGetDistinctIds) {
  IngressCapture ingress;
  EdgeConfig cfg;
  cfg.host = "127.0.0.1";
  EdgeFrontend fe(cfg, 10, ingress.fn());
  fe.start();
  EdgeClient a({"127.0.0.1", fe.port()});
  EdgeClient b({"127.0.0.1", fe.port()});
  ASSERT_TRUE(a.connect());
  ASSERT_TRUE(b.connect());
  EXPECT_NE(a.session(), 0u);
  EXPECT_NE(b.session(), 0u);
  EXPECT_NE(a.session(), b.session());
  fe.stop();
}

TEST(EdgeFrontendTest, ConnectionCapRejectsExtras) {
  IngressCapture ingress;
  EdgeConfig cfg;
  cfg.host = "127.0.0.1";
  cfg.max_connections = 1;
  EdgeFrontend fe(cfg, 10, ingress.fn());
  fe.start();
  EdgeClient a({"127.0.0.1", fe.port()});
  ASSERT_TRUE(a.connect());
  ASSERT_TRUE(eventually([&] { return fe.connections() == 1; }));
  EdgeClient b({"127.0.0.1", fe.port()});
  EXPECT_FALSE(b.connect());  // accepted then immediately closed
  EXPECT_TRUE(eventually([&] { return counter(fe, "edge.accept_rejects") >= 1; }));
  fe.stop();
}

// ---------------------------------------------------------------------------
// Delivery sequencing, acks, resume
// ---------------------------------------------------------------------------

TEST(EdgeFrontendTest, DeliveriesAreSequencedAndSubIdsMappedBack) {
  IngressCapture ingress;
  EdgeConfig cfg;
  cfg.host = "127.0.0.1";
  EdgeFrontend fe(cfg, 10, ingress.fn());
  fe.start();

  bd::Mutex mu;
  std::vector<EdgeEvent> events;
  EdgeClient client({"127.0.0.1", fe.port()}, [&](const EdgeEvent& ev) {
    bd::LockGuard lk(mu);
    events.push_back(ev);
  });
  ASSERT_TRUE(client.connect());
  const SubscriptionId client_sub = client.subscribe({Range{0, 100}});
  ASSERT_TRUE(eventually([&] { return ingress.count<ClientSubscribe>() == 1; }));
  const std::uint64_t gid = ingress.all<ClientSubscribe>()[0].sub.id;

  for (MessageId m = 1; m <= 3; ++m) {
    fe.deliver(make_delivery(client.session(), gid, m, "payload" + std::to_string(m)));
  }
  ASSERT_TRUE(client.wait_deliveries(3, 10.0));
  bd::LockGuard lk(mu);
  ASSERT_EQ(events.size(), 3u);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(events[i].seq, i + 1);
    EXPECT_EQ(events[i].delivery.msg_id, i + 1);
    // Deliveries carry the client's own subscription id, not the global one.
    EXPECT_EQ(events[i].delivery.sub_id, client_sub);
    EXPECT_EQ(events[i].delivery.payload.view(),
              "payload" + std::to_string(i + 1));
  }
  fe.stop();
}

TEST(EdgeFrontendTest, ResumeReplaysDetachedDeliveriesGapFree) {
  IngressCapture ingress;
  EdgeConfig cfg;
  cfg.host = "127.0.0.1";
  EdgeFrontend fe(cfg, 10, ingress.fn());
  fe.start();

  bd::Mutex mu;
  std::vector<std::uint64_t> seqs;
  // ack_every high: nothing auto-acked, resume relies on hello.last_seq.
  EdgeClient client(
      {"127.0.0.1", fe.port()},
      [&](const EdgeEvent& ev) {
        bd::LockGuard lk(mu);
        seqs.push_back(ev.seq);
      },
      /*ack_every=*/1000000);
  ASSERT_TRUE(client.connect());
  const std::uint64_t session = client.session();
  ASSERT_TRUE(eventually([&] { return fe.sessions() == 1; }));

  for (MessageId m = 1; m <= 5; ++m) fe.deliver(make_delivery(session, 0, m));
  ASSERT_TRUE(client.wait_deliveries(5, 10.0));

  // Drop the connection, keep delivering into the detached session.
  client.disconnect();
  ASSERT_TRUE(eventually([&] { return fe.connections() == 0; }));
  for (MessageId m = 6; m <= 10; ++m) fe.deliver(make_delivery(session, 0, m));
  ASSERT_TRUE(eventually([&] { return counter(fe, "edge.deliveries") == 10; }));

  ASSERT_TRUE(client.resume());
  EXPECT_TRUE(client.welcome_resumed());
  EXPECT_EQ(client.session(), session);
  // hello.last_seq = 5, so the server replays exactly 6..10: no gap, no dup.
  EXPECT_EQ(client.welcome_next_seq(), 6u);
  ASSERT_TRUE(client.wait_deliveries(10, 10.0));
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  {
    bd::LockGuard lk(mu);
    ASSERT_EQ(seqs.size(), 10u);
    for (std::size_t i = 0; i < seqs.size(); ++i) EXPECT_EQ(seqs[i], i + 1);
  }
  EXPECT_EQ(counter(fe, "edge.sessions_resumed"), 1u);
  EXPECT_EQ(counter(fe, "edge.replay_gaps"), 0u);
  fe.stop();
}

TEST(EdgeFrontendTest, ReplayedEventsEqualTheirLiveCounterparts) {
  // Deliveries to a session with two real subscriptions, then a resume
  // from an older last_seq: each replayed event must be its live
  // counterpart field for field — the ring holds the very events that went
  // out, not emptied husks of them.
  IngressCapture ingress;
  EdgeConfig cfg;
  cfg.host = "127.0.0.1";
  EdgeFrontend fe(cfg, 10, ingress.fn());
  fe.start();

  bd::Mutex mu;
  std::vector<EdgeEvent> live;
  EdgeClient client(
      {"127.0.0.1", fe.port()},
      [&](const EdgeEvent& ev) {
        bd::LockGuard lk(mu);
        live.push_back(ev);
      },
      /*ack_every=*/1000000);
  ASSERT_TRUE(client.connect());
  const std::uint64_t session = client.session();
  const SubscriptionId client_subs[2] = {client.subscribe({Range{0, 100}}),
                                         client.subscribe({Range{50, 150}})};
  ASSERT_TRUE(eventually([&] { return ingress.count<ClientSubscribe>() == 2; }));
  const std::vector<ClientSubscribe> subs = ingress.all<ClientSubscribe>();
  const std::uint64_t gids[2] = {subs[0].sub.id, subs[1].sub.id};

  constexpr MessageId kEvents = 12;
  const auto payload_of = [](MessageId m) {
    return "payload-" + std::to_string(m) + std::string(m * 10, 'x');
  };
  const auto values_of = [](MessageId m) {
    const auto v = static_cast<double>(m);
    return std::vector<Value>{v, v * 0.5, -v};
  };
  for (MessageId m = 1; m <= kEvents; ++m) {
    Delivery d = make_delivery(session, gids[m % 2], m, payload_of(m));
    d.values = values_of(m);
    fe.deliver(d);
  }
  ASSERT_TRUE(client.wait_deliveries(kEvents, 10.0));
  client.disconnect();
  ASSERT_TRUE(eventually([&] { return fe.connections() == 0; }));

  // Resume by hand, from an older sequence than the client has seen.
  constexpr std::uint64_t kLastSeq = 4;
  const int fd = net::dial({"127.0.0.1", fe.port()});
  ASSERT_GE(fd, 0);
  timeval tv{5, 0};
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof tv);
  EdgeHello hello;
  hello.session = session;
  hello.last_seq = kLastSeq;
  ASSERT_TRUE(net::wire::send_frame(fd, kInvalidNode, Envelope::of(hello)));
  std::vector<EdgeWelcome> welcomes;
  std::vector<EdgeEvent> replayed;
  while (replayed.size() < kEvents - kLastSeq) {
    net::wire::ParsedFrame frame = net::read_frame(fd);
    if (!frame.ok) break;
    for (Envelope& env : frame.envelopes) {
      if (auto* w = std::get_if<EdgeWelcome>(&env.payload)) {
        welcomes.push_back(*w);
      } else if (auto* ev = std::get_if<EdgeEvent>(&env.payload)) {
        replayed.push_back(std::move(*ev));
      }
    }
  }
  ::close(fd);

  ASSERT_EQ(welcomes.size(), 1u);
  EXPECT_TRUE(welcomes[0].resumed);
  EXPECT_EQ(welcomes[0].next_seq, kLastSeq + 1);
  ASSERT_EQ(replayed.size(), kEvents - kLastSeq);
  bd::LockGuard lk(mu);
  ASSERT_EQ(live.size(), kEvents);
  for (std::size_t i = 0; i < live.size(); ++i) {
    const MessageId m = i + 1;
    EXPECT_EQ(live[i].seq, m);
    EXPECT_EQ(live[i].delivery.msg_id, m);
    EXPECT_EQ(live[i].delivery.sub_id, client_subs[m % 2]);
    EXPECT_EQ(live[i].delivery.values, values_of(m));
    EXPECT_EQ(live[i].delivery.payload.view(), payload_of(m));
  }
  for (std::size_t i = 0; i < replayed.size(); ++i) {
    const EdgeEvent& r = replayed[i];
    const EdgeEvent& l = live[kLastSeq + i];
    EXPECT_EQ(r.seq, l.seq) << "replay " << i;
    EXPECT_EQ(r.delivery.msg_id, l.delivery.msg_id) << "replay " << i;
    EXPECT_EQ(r.delivery.sub_id, l.delivery.sub_id) << "replay " << i;
    EXPECT_EQ(r.delivery.values, l.delivery.values) << "replay " << i;
    EXPECT_EQ(r.delivery.payload.view(), l.delivery.payload.view())
        << "replay " << i;
  }
  EXPECT_EQ(counter(fe, "edge.replay_hits"), kEvents - kLastSeq);
  fe.stop();
}

TEST(EdgeFrontendTest, AcksTrimTheReplayRing) {
  IngressCapture ingress;
  EdgeConfig cfg;
  cfg.host = "127.0.0.1";
  EdgeFrontend fe(cfg, 10, ingress.fn());
  fe.start();

  EdgeClient client({"127.0.0.1", fe.port()}, nullptr, /*ack_every=*/1);
  ASSERT_TRUE(client.connect());
  const std::uint64_t session = client.session();
  for (MessageId m = 1; m <= 5; ++m) fe.deliver(make_delivery(session, 0, m));
  ASSERT_TRUE(client.wait_deliveries(5, 10.0));
  ASSERT_TRUE(eventually([&] { return counter(fe, "edge.acks") >= 5; }));

  // Everything acked: a resume has nothing to replay.
  client.disconnect();
  ASSERT_TRUE(eventually([&] { return fe.connections() == 0; }));
  ASSERT_TRUE(client.resume());
  EXPECT_TRUE(client.welcome_resumed());
  EXPECT_EQ(client.welcome_next_seq(), 6u);
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  EXPECT_EQ(client.deliveries(), 5u);
  EXPECT_EQ(counter(fe, "edge.replay_hits"), 0u);
  fe.stop();
}

TEST(EdgeFrontendTest, RingOverflowSurfacesAsResumeGap) {
  IngressCapture ingress;
  EdgeConfig cfg;
  cfg.host = "127.0.0.1";
  cfg.replay_entries = 4;
  EdgeFrontend fe(cfg, 10, ingress.fn());
  fe.start();

  EdgeClient client({"127.0.0.1", fe.port()}, nullptr, /*ack_every=*/1000000);
  ASSERT_TRUE(client.connect());
  const std::uint64_t session = client.session();
  client.disconnect();
  ASSERT_TRUE(eventually([&] { return fe.connections() == 0; }));

  // 10 deliveries into a 4-deep ring: 1..6 fall off the end.
  for (MessageId m = 1; m <= 10; ++m) fe.deliver(make_delivery(session, 0, m));
  ASSERT_TRUE(eventually([&] { return counter(fe, "edge.replay_overflow") == 6; }));

  ASSERT_TRUE(client.resume());
  EXPECT_TRUE(client.welcome_resumed());
  // The client expected 1 next; the server can only replay from 7 — the
  // welcome reports the horizon so the client knows 6 messages are gone.
  EXPECT_EQ(client.welcome_next_seq(), 7u);
  ASSERT_TRUE(client.wait_deliveries(4, 10.0));
  EXPECT_EQ(counter(fe, "edge.replay_gaps"), 6u);
  fe.stop();
}

TEST(EdgeFrontendTest, OversizedReplayFlushesInsteadOfEvicting) {
  // Regression: the slow-client bound used to be applied before any flush
  // attempt, so a replay (or one delivery batch) larger than
  // write_queue_bytes evicted even a fast client before a single byte was
  // sent — and every resume replayed the same ring and evicted again, so
  // the session livelocked. The bound now applies to post-flush residue.
  IngressCapture ingress;
  EdgeConfig cfg;
  cfg.host = "127.0.0.1";
  cfg.write_queue_bytes = 4 * 1024;  // far below the replayed volume
  EdgeFrontend fe(cfg, 10, ingress.fn());
  fe.start();

  bd::Mutex mu;
  std::vector<std::uint64_t> seqs;
  EdgeClient client(
      {"127.0.0.1", fe.port()},
      [&](const EdgeEvent& ev) {
        bd::LockGuard lk(mu);
        seqs.push_back(ev.seq);
      },
      /*ack_every=*/1);
  ASSERT_TRUE(client.connect());
  const std::uint64_t session = client.session();
  client.disconnect();
  ASSERT_TRUE(eventually([&] { return fe.connections() == 0; }));

  // 16 x 4 KiB piles ~64 KiB into the replay ring; one resume replays all
  // of it, an order of magnitude over the write-queue bound.
  const std::string big(4 * 1024, 'z');
  for (MessageId m = 1; m <= 16; ++m) {
    fe.deliver(make_delivery(session, 0, m, big));
  }
  ASSERT_TRUE(eventually([&] { return counter(fe, "edge.deliveries") == 16; }));

  ASSERT_TRUE(client.resume());
  EXPECT_TRUE(client.welcome_resumed());
  ASSERT_TRUE(client.wait_deliveries(16, 10.0));
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  {
    bd::LockGuard lk(mu);
    ASSERT_EQ(seqs.size(), 16u);
    for (std::size_t i = 0; i < seqs.size(); ++i) EXPECT_EQ(seqs[i], i + 1);
  }
  EXPECT_EQ(counter(fe, "edge.evictions"), 0u);
  EXPECT_EQ(counter(fe, "edge.replay_gaps"), 0u);
  fe.stop();
}

TEST(EdgeFrontendTest, ReusedClientSubIdWithdrawsThePreviousSubscription) {
  // Regression: a client reusing a subscription id used to strand the old
  // global mapping — the stale cluster subscription kept matching
  // (duplicate deliveries under the same client-visible id) until session
  // drop. The edge now withdraws the old mapping before installing the new.
  IngressCapture ingress;
  EdgeConfig cfg;
  cfg.host = "127.0.0.1";
  EdgeFrontend fe(cfg, 10, ingress.fn());
  fe.start();

  const int fd = edge::dial({"127.0.0.1", fe.port()});
  ASSERT_GE(fd, 0);
  ASSERT_TRUE(net::wire::send_frame(fd, kInvalidNode,
                                    Envelope::of(EdgeHello{})));
  auto send_sub = [&](std::uint64_t id, double lo, double hi) {
    Subscription sub;
    sub.id = id;
    sub.ranges = {Range{lo, hi}};
    ASSERT_TRUE(net::wire::send_frame(
        fd, kInvalidNode, Envelope::of(ClientSubscribe{std::move(sub)})));
  };

  send_sub(7, 0, 100);
  ASSERT_TRUE(eventually([&] { return ingress.count<ClientSubscribe>() == 1; }));
  const std::uint64_t gid1 = ingress.all<ClientSubscribe>()[0].sub.id;

  send_sub(7, 200, 300);
  ASSERT_TRUE(eventually([&] { return ingress.count<ClientSubscribe>() == 2; }));
  ASSERT_TRUE(
      eventually([&] { return ingress.count<ClientUnsubscribe>() == 1; }));
  EXPECT_EQ(ingress.all<ClientUnsubscribe>()[0].sub.id, gid1);
  const std::uint64_t gid2 = ingress.all<ClientSubscribe>()[1].sub.id;
  EXPECT_NE(gid2, gid1);

  // A client unsubscribe of the reused id maps to the replacement only.
  Subscription unsub;
  unsub.id = 7;
  ASSERT_TRUE(net::wire::send_frame(
      fd, kInvalidNode, Envelope::of(ClientUnsubscribe{std::move(unsub)})));
  ASSERT_TRUE(
      eventually([&] { return ingress.count<ClientUnsubscribe>() == 2; }));
  EXPECT_EQ(ingress.all<ClientUnsubscribe>()[1].sub.id, gid2);
  ::close(fd);
  fe.stop();
}

TEST(EdgeFrontendTest, SubscriptionChurnKeepsEveryDeliveryOnItsClientId) {
  // Many subscribe / unsubscribe / resubscribe rounds on one session over
  // a few reused client ids and mixed arities, so the session's table
  // frees, reuses and repacks its slots. Every withdrawal must carry the
  // cluster id and ranges it was planted with, and every delivery to a
  // live subscription the client id that owns it.
  IngressCapture ingress;
  EdgeConfig cfg;
  cfg.host = "127.0.0.1";
  EdgeFrontend fe(cfg, 10, ingress.fn());
  fe.start();

  const int fd = edge::dial({"127.0.0.1", fe.port()});
  ASSERT_GE(fd, 0);
  timeval tv{};
  tv.tv_sec = 10;
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof tv);
  ASSERT_TRUE(net::wire::send_frame(fd, kInvalidNode,
                                    Envelope::of(EdgeHello{})));
  const net::wire::ParsedFrame welcome = net::read_frame(fd);
  ASSERT_TRUE(welcome.ok);
  const std::uint64_t session =
      std::get<EdgeWelcome>(welcome.envelopes.at(0).payload).session;

  struct Planted {
    std::uint64_t gid = 0;
    std::vector<Range> ranges;
  };
  std::map<std::uint64_t, Planted> live;  // client id -> what the edge holds
  std::size_t subs_seen = 0;
  std::size_t unsubs_seen = 0;
  MessageId next_msg = 1;
  std::uint64_t delivered = 0;
  constexpr std::uint64_t kIds = 6;
  for (int round = 0; round < 30; ++round) {
    // Each id is resubscribed (replacing a live one), unsubscribed or left
    // alone, in a pattern that shifts every round.
    std::vector<std::uint64_t> subscribed;
    std::vector<Planted> withdrawn;
    for (std::uint64_t id = 1; id <= kIds; ++id) {
      const auto op = (static_cast<std::uint64_t>(round) * 5 + id * 3) % 4;
      Envelope env;
      if (op <= 1) {
        Subscription sub;
        sub.id = id;
        const auto dims = 1 + (static_cast<std::size_t>(round) + id) % 3;
        for (std::size_t d = 0; d < dims; ++d) {
          const double lo = static_cast<double>(round * 10 + d);
          sub.ranges.push_back(Range{lo, lo + static_cast<double>(id)});
        }
        if (auto it = live.find(id); it != live.end()) {
          withdrawn.push_back(it->second);
        }
        live[id] = {0, sub.ranges};
        subscribed.push_back(id);
        env = Envelope::of(ClientSubscribe{std::move(sub)});
      } else if (op == 2) {
        Subscription sub;
        sub.id = id;
        if (auto it = live.find(id); it != live.end()) {
          withdrawn.push_back(it->second);
          live.erase(it);
        }
        env = Envelope::of(ClientUnsubscribe{std::move(sub)});
      } else {
        continue;
      }
      ASSERT_TRUE(net::wire::send_frame(fd, kInvalidNode, env));
    }
    const std::size_t want_subs = subs_seen + subscribed.size();
    const std::size_t want_unsubs = unsubs_seen + withdrawn.size();
    ASSERT_TRUE(eventually([&] {
      return ingress.count<ClientSubscribe>() == want_subs &&
             ingress.count<ClientUnsubscribe>() == want_unsubs;
    }));
    const auto subs = ingress.all<ClientSubscribe>();
    for (std::size_t i = 0; i < subscribed.size(); ++i) {
      const Subscription& planted = subs[subs_seen + i].sub;
      EXPECT_EQ(planted.subscriber, session);
      EXPECT_EQ(planted.ranges, live[subscribed[i]].ranges);
      live[subscribed[i]].gid = planted.id;
    }
    const auto unsubs = ingress.all<ClientUnsubscribe>();
    for (std::size_t i = 0; i < withdrawn.size(); ++i) {
      const Subscription& gone = unsubs[unsubs_seen + i].sub;
      EXPECT_EQ(gone.id, withdrawn[i].gid);
      EXPECT_EQ(gone.subscriber, session);
      EXPECT_EQ(gone.ranges, withdrawn[i].ranges);
    }
    subs_seen = want_subs;
    unsubs_seen = want_unsubs;

    // One delivery per live subscription; each must come back under the
    // client id that owns it, in order and with no gap.
    std::map<MessageId, std::uint64_t> expect;
    for (const auto& [id, planted] : live) {
      expect[next_msg] = id;
      fe.deliver(make_delivery(session, planted.gid, next_msg++));
    }
    std::size_t got = 0;
    while (got < expect.size()) {
      const net::wire::ParsedFrame frame = net::read_frame(fd);
      ASSERT_TRUE(frame.ok);
      for (const Envelope& env : frame.envelopes) {
        const auto& ev = std::get<EdgeEvent>(env.payload);
        EXPECT_EQ(ev.seq, ++delivered);
        EXPECT_EQ(ev.delivery.sub_id, expect.at(ev.delivery.msg_id));
        ++got;
      }
    }
  }
  EXPECT_EQ(counter(fe, "edge.deliveries"), delivered);
  EXPECT_EQ(counter(fe, "edge.deliveries_orphaned"), 0u);
  ::close(fd);
  fe.stop();
}

TEST(EdgeFrontendTest, DeliveryLatencyCountsEveryDeliveryWritten) {
  // The drain records one wait per hand-off batch, weighted by the
  // deliveries it wrote: the histogram's count still equals the
  // deliveries written, and edge.deliveries counts every delivery that
  // took a sequence number, held ones (detached session) included.
  IngressCapture ingress;
  EdgeConfig cfg;
  cfg.host = "127.0.0.1";
  EdgeFrontend fe(cfg, 10, ingress.fn());
  fe.start();
  const auto latency_count = [&] {
    const auto snap = fe.metrics().snapshot();
    return snap.histograms.at("edge.delivery_latency").count;
  };

  EdgeClient client({"127.0.0.1", fe.port()}, nullptr, /*ack_every=*/1000000);
  ASSERT_TRUE(client.connect());
  const std::uint64_t session = client.session();
  ASSERT_TRUE(eventually([&] { return fe.sessions() == 1; }));
  constexpr MessageId kWritten = 200;
  std::thread node([&] {
    for (MessageId m = 1; m <= kWritten; ++m) {
      fe.deliver(make_delivery(session, 0, m));
    }
  });
  node.join();
  ASSERT_TRUE(client.wait_deliveries(kWritten, 10.0));
  EXPECT_EQ(counter(fe, "edge.deliveries"), kWritten);
  EXPECT_EQ(latency_count(), kWritten);

  client.disconnect();
  ASSERT_TRUE(eventually([&] { return fe.connections() == 0; }));
  for (MessageId m = 1; m <= 5; ++m) fe.deliver(make_delivery(session, 0, m));
  ASSERT_TRUE(
      eventually([&] { return counter(fe, "edge.deliveries") == kWritten + 5; }));
  EXPECT_EQ(latency_count(), kWritten);
  fe.stop();
}

TEST(EdgeFrontendTest, CrossReactorResumeHandlesPipelinedFramesInOrder) {
  // A resume hello for a session owned by the other reactor, followed by
  // more frames in the same send(): the connection migrates with frames
  // already read off the socket, and the owning reactor must handle every
  // one of them, in order, after the attach.
  bd::Mutex mu;
  std::vector<std::pair<Envelope, std::thread::id>> seen;
  EdgeConfig cfg;
  cfg.host = "127.0.0.1";
  cfg.reactors = 2;
  EdgeFrontend fe(cfg, 10, [&](Envelope&& e) {
    bd::LockGuard lk(mu);
    seen.emplace_back(std::move(e), std::this_thread::get_id());
  });
  fe.start();

  // Accepted connections alternate between the reactors: the first lands
  // on reactor 0, which mints (and owns) its session; the second lands on
  // reactor 1.
  EdgeClient first({"127.0.0.1", fe.port()});
  ASSERT_TRUE(first.connect());
  const std::uint64_t session = first.session();
  ASSERT_EQ(session % 2, 0u);
  ASSERT_NE(first.subscribe({Range{0, 1}}), 0u);
  ASSERT_TRUE(eventually([&] {
    bd::LockGuard lk(mu);
    return seen.size() == 1;
  }));
  first.disconnect();
  ASSERT_TRUE(eventually([&] { return fe.connections() == 0; }));

  const int fd = edge::dial({"127.0.0.1", fe.port()});
  ASSERT_GE(fd, 0);
  std::vector<Envelope> envs;
  EdgeHello hello;
  hello.session = session;
  envs.push_back(Envelope::of(hello));
  for (std::uint64_t id = 1; id <= 3; ++id) {
    Subscription sub;
    sub.id = 100 + id;
    sub.ranges = {Range{0, static_cast<double>(id)}};
    envs.push_back(Envelope::of(ClientSubscribe{std::move(sub)}));
    Message msg;
    msg.values = {static_cast<double>(id)};
    msg.payload = "pipelined-" + std::to_string(id);
    envs.push_back(Envelope::of(ClientPublish{std::move(msg)}));
  }
  serde::Writer stream;
  for (const Envelope& env : envs) {
    serde::Writer w;
    net::wire::build_frame(w, kInvalidNode, env);
    for (const std::uint8_t b : w.bytes()) stream.u8(b);
  }
  ASSERT_EQ(::send(fd, stream.data(), stream.size(), MSG_NOSIGNAL),
            static_cast<::ssize_t>(stream.size()));
  const net::wire::ParsedFrame welcome = net::read_frame(fd);
  ASSERT_TRUE(welcome.ok);
  const auto* w = std::get_if<EdgeWelcome>(&welcome.envelopes.at(0).payload);
  ASSERT_NE(w, nullptr);
  EXPECT_TRUE(w->resumed);
  EXPECT_EQ(w->session, session);

  ASSERT_TRUE(eventually([&] {
    bd::LockGuard lk(mu);
    // The first connection's subscribe, then every frame behind the hello.
    return seen.size() == envs.size();
  }));
  {
    bd::LockGuard lk(mu);
    const std::thread::id owner = seen[0].second;  // reactor 0
    for (std::size_t i = 1; i < seen.size(); ++i) {
      EXPECT_EQ(seen[i].second, owner) << "envelope " << i;
    }
    for (std::uint64_t id = 1; id <= 3; ++id) {
      const Envelope& sub_env = seen[2 * id - 1].first;
      const Envelope& pub_env = seen[2 * id].first;
      const auto* sub = std::get_if<ClientSubscribe>(&sub_env.payload);
      const auto* pub = std::get_if<ClientPublish>(&pub_env.payload);
      ASSERT_NE(sub, nullptr) << "frame " << 2 * id - 1;
      ASSERT_NE(pub, nullptr) << "frame " << 2 * id;
      EXPECT_EQ(sub->sub.subscriber, session);
      EXPECT_EQ(sub->sub.ranges.at(0).hi, static_cast<double>(id));
      EXPECT_EQ(pub->msg.payload.view(), "pipelined-" + std::to_string(id));
    }
  }
  EXPECT_EQ(counter(fe, "edge.sessions_resumed"), 1u);
  EXPECT_EQ(counter(fe, "edge.malformed"), 0u);
  ::close(fd);
  fe.stop();
}

TEST(EdgeFrontendTest, HugeElementCountClosesOnlyThatConnection) {
  // An attached session sends a ClientPublish whose values count is 2^40,
  // with nothing behind it. The parse fails without allocating for the
  // count: that connection is closed and counted, and the other session
  // keeps publishing and receiving.
  IngressCapture ingress;
  EdgeConfig cfg;
  cfg.host = "127.0.0.1";
  EdgeFrontend fe(cfg, 10, ingress.fn());
  fe.start();
  EdgeClient good({"127.0.0.1", fe.port()});
  ASSERT_TRUE(good.connect());

  const int fd = edge::dial({"127.0.0.1", fe.port()});
  ASSERT_GE(fd, 0);
  ASSERT_TRUE(
      net::wire::send_frame(fd, kInvalidNode, Envelope::of(EdgeHello{})));
  ASSERT_TRUE(net::read_frame(fd).ok);  // the welcome
  serde::Writer body;
  body.u8(wire_tag(Envelope::of(ClientPublish{})));
  body.u64(7);
  body.varint(std::uint64_t{1} << 40);
  serde::Writer frame;
  frame.u32(static_cast<std::uint32_t>(body.size() +
                                       net::wire::kFrameOverhead));
  frame.u32(kInvalidNode);
  for (const std::uint8_t b : body.bytes()) frame.u8(b);
  ASSERT_TRUE(net::wire::write_all(fd, frame.data(), frame.size()));

  ASSERT_TRUE(eventually([&] { return counter(fe, "edge.malformed") == 1; }));
  ::pollfd pfd{fd, POLLIN, 0};
  ASSERT_EQ(::poll(&pfd, 1, 10000), 1);
  char byte = 0;
  EXPECT_EQ(::recv(fd, &byte, 1, 0), 0);  // closed by the edge
  ::close(fd);

  EXPECT_NE(good.publish({1, 2}, "still-here"), 0u);
  ASSERT_TRUE(eventually([&] { return ingress.count<ClientPublish>() == 1; }));
  fe.deliver(make_delivery(good.session(), 0, 1));
  EXPECT_TRUE(good.wait_deliveries(1, 10.0));
  EXPECT_EQ(counter(fe, "edge.malformed"), 1u);
  fe.stop();
}

TEST(EdgeFrontendTest, ForeignThreadDeliveriesStayContiguousPerSession) {
  // Deliveries from one foreign thread, interleaved across sessions on two
  // shards, reach each session in call order with contiguous sequence
  // numbers, however the shard batches them.
  constexpr int kSessions = 4;
  constexpr MessageId kPerSession = 500;
  IngressCapture ingress;
  EdgeConfig cfg;
  cfg.host = "127.0.0.1";
  cfg.reactors = 2;
  EdgeFrontend fe(cfg, 10, ingress.fn());
  fe.start();

  bd::Mutex mu;
  std::vector<std::vector<EdgeEvent>> events(kSessions);
  std::vector<std::unique_ptr<EdgeClient>> clients;
  std::set<std::uint64_t> shards;
  for (int i = 0; i < kSessions; ++i) {
    clients.push_back(std::make_unique<EdgeClient>(
        TcpEndpoint{"127.0.0.1", fe.port()}, [&, i](const EdgeEvent& ev) {
          bd::LockGuard lk(mu);
          events[static_cast<std::size_t>(i)].push_back(ev);
        }));
    ASSERT_TRUE(clients.back()->connect());
    shards.insert(clients.back()->session() % 2);
  }
  ASSERT_EQ(shards.size(), 2u);

  std::thread node([&] {
    for (MessageId m = 1; m <= kPerSession; ++m) {
      for (const auto& c : clients) {
        fe.deliver(make_delivery(c->session(), 0, m));
      }
    }
  });
  node.join();
  for (const auto& c : clients) {
    ASSERT_TRUE(c->wait_deliveries(kPerSession, 10.0));
  }
  bd::LockGuard lk(mu);
  for (const auto& evs : events) {
    ASSERT_EQ(evs.size(), kPerSession);
    for (std::size_t k = 0; k < evs.size(); ++k) {
      EXPECT_EQ(evs[k].seq, k + 1);
      EXPECT_EQ(evs[k].delivery.msg_id, k + 1);
    }
  }
  EXPECT_EQ(counter(fe, "edge.deliveries"), kSessions * kPerSession);
  fe.stop();
}

TEST(EdgeFrontendTest, StopWithDeliveriesPendingIsClean) {
  // A foreign thread keeps delivering while stop() runs and after it:
  // batches still pending at stop are dropped, later calls are no-ops.
  IngressCapture ingress;
  EdgeConfig cfg;
  cfg.host = "127.0.0.1";
  cfg.reactors = 2;
  EdgeFrontend fe(cfg, 10, ingress.fn());
  fe.start();
  EdgeClient client({"127.0.0.1", fe.port()});
  ASSERT_TRUE(client.connect());
  const std::uint64_t session = client.session();

  std::atomic<bool> stopped{false};
  std::atomic<MessageId> sent{0};
  std::thread node([&] {
    // Runs on past stop(): those calls must be dropped quietly. Every
    // other delivery goes to the other shard (an unknown session there).
    for (MessageId m = 1, after = 0; after < 1000; ++m) {
      fe.deliver(make_delivery(session + m % 2, 0, m));
      sent.store(m);
      if (stopped.load()) ++after;
    }
  });
  ASSERT_TRUE(eventually([&] { return sent.load() > 20000; }));
  fe.stop();
  stopped.store(true);
  node.join();
  EXPECT_LT(counter(fe, "edge.deliveries") +
                counter(fe, "edge.deliveries_orphaned"),
            sent.load());
}

// ---------------------------------------------------------------------------
// Backpressure / teardown
// ---------------------------------------------------------------------------

TEST(EdgeFrontendTest, SlowClientIsEvictedAndSessionSurvives) {
  IngressCapture ingress;
  EdgeConfig cfg;
  cfg.host = "127.0.0.1";
  cfg.write_queue_bytes = 16 * 1024;
  cfg.fanout_batch = 1;
  EdgeFrontend fe(cfg, 10, ingress.fn());
  fe.start();

  // Raw socket that completes the handshake and then never reads again.
  const int fd = edge::dial({"127.0.0.1", fe.port()});
  ASSERT_GE(fd, 0);
  ASSERT_TRUE(net::wire::send_frame(fd, kInvalidNode,
                                    Envelope::of(EdgeHello{})));
  std::uint8_t lenbuf[4];
  ASSERT_TRUE(net::wire::read_all(fd, lenbuf, 4));
  const std::uint32_t len = net::wire::read_frame_len(lenbuf);
  std::vector<std::uint8_t> body(len);
  ASSERT_TRUE(net::wire::read_all(fd, body.data(), len));
  net::wire::ParsedFrame frame =
      net::wire::parse_frame(body.data(), len, nullptr);
  ASSERT_TRUE(frame.ok);
  ASSERT_FALSE(frame.envelopes.empty());
  const auto* welcome = std::get_if<EdgeWelcome>(&frame.envelopes[0].payload);
  ASSERT_NE(welcome, nullptr);
  const std::uint64_t session = welcome->session;

  // Fan out large payloads the client never drains: once the kernel socket
  // buffer is full, unsent bytes pile up in the bounded write queue until
  // the eviction bound trips.
  const std::string big(32 * 1024, 'x');
  for (int m = 1; m <= 200 && counter(fe, "edge.evictions") == 0; ++m) {
    fe.deliver(make_delivery(session, 0, static_cast<MessageId>(m), big));
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_TRUE(eventually([&] { return counter(fe, "edge.evictions") >= 1; }));
  // The session is detached, not destroyed: still resumable.
  EXPECT_EQ(fe.sessions(), 1u);
  ::close(fd);
  fe.stop();
}

TEST(EdgeFrontendTest, PeerCloseMidSendDoesNotKillTheProcess) {
  // Regression for the classic SIGPIPE death: the peer hard-closes while
  // the reactor still has queued bytes for it. MSG_NOSIGNAL turns that into
  // EPIPE and a clean disconnect.
  IngressCapture ingress;
  EdgeConfig cfg;
  cfg.host = "127.0.0.1";
  cfg.fanout_batch = 1;
  EdgeFrontend fe(cfg, 10, ingress.fn());
  fe.start();

  const int fd = edge::dial({"127.0.0.1", fe.port()});
  ASSERT_GE(fd, 0);
  ASSERT_TRUE(net::wire::send_frame(fd, kInvalidNode,
                                    Envelope::of(EdgeHello{})));
  std::uint8_t lenbuf[4];
  ASSERT_TRUE(net::wire::read_all(fd, lenbuf, 4));
  const std::uint32_t len = net::wire::read_frame_len(lenbuf);
  std::vector<std::uint8_t> body(len);
  ASSERT_TRUE(net::wire::read_all(fd, body.data(), len));
  net::wire::ParsedFrame frame =
      net::wire::parse_frame(body.data(), len, nullptr);
  ASSERT_TRUE(frame.ok);
  const auto* welcome = std::get_if<EdgeWelcome>(&frame.envelopes[0].payload);
  ASSERT_NE(welcome, nullptr);
  const std::uint64_t session = welcome->session;

  // Close with a reset (non-graceful) while the server keeps writing.
  struct linger lg{1, 0};
  ::setsockopt(fd, SOL_SOCKET, SO_LINGER, &lg, sizeof lg);
  ::close(fd);
  const std::string payload(8 * 1024, 'y');
  for (int m = 1; m <= 50; ++m) {
    fe.deliver(make_delivery(session, 0, static_cast<MessageId>(m), payload));
  }
  EXPECT_TRUE(eventually([&] { return fe.connections() == 0; }));
  // Still alive and serving: a fresh client works.
  EdgeClient probe({"127.0.0.1", fe.port()});
  EXPECT_TRUE(probe.connect());
  fe.stop();
}

TEST(EdgeFrontendTest, ReapedSessionWithdrawsItsSubscriptions) {
  IngressCapture ingress;
  EdgeConfig cfg;
  cfg.host = "127.0.0.1";
  cfg.session_timeout = 0.3;
  cfg.reap_interval = 0.1;
  EdgeFrontend fe(cfg, 10, ingress.fn());
  fe.start();

  EdgeClient client({"127.0.0.1", fe.port()});
  ASSERT_TRUE(client.connect());
  const std::uint64_t session = client.session();
  ASSERT_NE(client.subscribe({Range{0, 50}}), 0u);
  ASSERT_TRUE(eventually([&] { return ingress.count<ClientSubscribe>() == 1; }));
  const std::uint64_t gid = ingress.all<ClientSubscribe>()[0].sub.id;

  client.disconnect();
  ASSERT_TRUE(eventually([&] { return fe.sessions() == 0; }, 15.0));
  EXPECT_EQ(counter(fe, "edge.sessions_reaped"), 1u);
  // The cluster got a ClientUnsubscribe for the reaped session's planting.
  ASSERT_TRUE(
      eventually([&] { return ingress.count<ClientUnsubscribe>() == 1; }));
  EXPECT_EQ(ingress.all<ClientUnsubscribe>()[0].sub.id, gid);

  // Resuming a reaped session yields a fresh one, honestly labelled.
  ASSERT_TRUE(client.resume());
  EXPECT_FALSE(client.welcome_resumed());
  EXPECT_NE(client.session(), session);
  fe.stop();
}

// ---------------------------------------------------------------------------
// Swarm harness sanity (small scale; bench/micro_edge is the big one)
// ---------------------------------------------------------------------------

TEST(EdgeSwarmTest, OpenDropResumeRoundTrip) {
  IngressCapture ingress;
  EdgeConfig cfg;
  cfg.host = "127.0.0.1";
  EdgeFrontend fe(cfg, 10, ingress.fn());
  fe.start();

  edge::SwarmConfig scfg;
  scfg.endpoint = {"127.0.0.1", fe.port()};
  scfg.drivers = 2;
  edge::Swarm swarm(scfg);
  ASSERT_EQ(swarm.open(20), 20);
  EXPECT_EQ(swarm.live(), 20u);
  EXPECT_TRUE(eventually([&] { return fe.sessions() == 20; }));

  EXPECT_EQ(swarm.drop(5), 5);
  EXPECT_EQ(swarm.live(), 15u);
  EXPECT_TRUE(eventually([&] { return fe.connections() == 15; }));
  EXPECT_EQ(fe.sessions(), 20u);  // dropped sessions stay resumable

  EXPECT_EQ(swarm.resume(5), 5);
  EXPECT_EQ(swarm.live(), 20u);
  EXPECT_EQ(swarm.sessions_lost(), 0u);
  EXPECT_EQ(swarm.gaps(), 0u);
  fe.stop();
}

// ---------------------------------------------------------------------------
// Full cluster round trip: EdgeClient -> EdgeFrontend -> DispatcherNode ->
// MatcherNode -> DispatcherNode (delivery sink) -> EdgeFrontend -> client.
// ---------------------------------------------------------------------------

/// One edge-enabled dispatcher host and two flat-bucket matcher hosts on
/// loopback; the dispatcher is the matchers' metrics and delivery sink and
/// hands deliveries to the edge front end.
class EdgeCluster {
  // Declared first, so they are initialized before the hosts below that
  // are built from them.
  const std::vector<NodeId> matcher_ids_{1000, 1001};
  const std::vector<Range> domains_ = std::vector<Range>(2, Range{0, 1000});

 public:
  static constexpr NodeId kDispatcher = 10;

  EdgeCluster()
      : dispatcher_host(kDispatcher, 0, make_dispatcher()),
        dispatcher(dispatcher_host.node_as<DispatcherNode>()),
        fe(edge_config(), kDispatcher, [this](Envelope&& env) {
          dispatcher_host.inject(kInvalidNode, std::move(env));
        }) {
    dispatcher->on_delivery = [this](const Delivery& d) { fe.deliver(d); };
    dispatcher->add_stats_registry(&fe.metrics());

    MatcherConfig mcfg;
    mcfg.domains = domains_;
    mcfg.cores = 1;
    mcfg.index_kind = IndexKind::kFlatBucket;
    mcfg.load_report_interval = 0.2;
    mcfg.gossip.round_interval = 0.2;
    mcfg.dispatchers = {kDispatcher};
    mcfg.metrics_sink = kDispatcher;
    mcfg.delivery_sink = kDispatcher;
    for (NodeId id : matcher_ids_) {
      auto node = std::make_unique<MatcherNode>(id, mcfg);
      node->set_bootstrap(bootstrap_table(matcher_ids_, domains_));
      matcher_hosts.push_back(
          std::make_unique<TcpHost>(id, 0, std::move(node)));
    }
    directory[kDispatcher] = {"127.0.0.1", dispatcher_host.port()};
    for (std::size_t i = 0; i < matcher_ids_.size(); ++i) {
      directory[matcher_ids_[i]] = {"127.0.0.1", matcher_hosts[i]->port()};
    }
    for (auto& host : matcher_hosts) {
      for (const auto& [id, ep] : directory) {
        if (id != host->id()) host->add_peer(id, ep);
      }
    }
    for (const auto& [id, ep] : directory) {
      if (id != kDispatcher) dispatcher_host.add_peer(id, ep);
    }
    dispatcher_host.start();
    for (auto& host : matcher_hosts) host->start();
    fe.start();
  }

  ~EdgeCluster() {
    fe.stop();
    for (auto& host : matcher_hosts) host->stop();
    dispatcher_host.stop();
  }

  TcpHost dispatcher_host;
  DispatcherNode* dispatcher;
  EdgeFrontend fe;
  std::vector<std::unique_ptr<TcpHost>> matcher_hosts;
  std::map<NodeId, TcpEndpoint> directory;

 private:
  std::unique_ptr<DispatcherNode> make_dispatcher() const {
    DispatcherConfig dcfg;
    dcfg.domains = domains_;
    dcfg.table_pull_interval = 0.5;
    auto dnode = std::make_unique<DispatcherNode>(kDispatcher, dcfg);
    dnode->set_bootstrap(bootstrap_table(matcher_ids_, domains_));
    return dnode;
  }
  static EdgeConfig edge_config() {
    EdgeConfig ecfg;
    ecfg.host = "127.0.0.1";
    return ecfg;
  }

};

TEST(EdgeClusterTest, EndToEndPubSubWithZeroPayloadCopies) {
  EdgeCluster cluster;
  bd::Mutex mu;
  std::vector<EdgeEvent> events;
  EdgeClient client({"127.0.0.1", cluster.fe.port()},
                    [&](const EdgeEvent& ev) {
                      bd::LockGuard lk(mu);
                      events.push_back(ev);
                    });
  ASSERT_TRUE(client.connect());
  const SubscriptionId sub = client.subscribe({Range{0, 500}, Range{0, 1000}});
  ASSERT_NE(sub, 0u);
  std::this_thread::sleep_for(std::chrono::milliseconds(300));

  ASSERT_NE(client.publish({100, 100}, "edge-payload"), 0u);
  ASSERT_NE(client.publish({700, 100}, "miss"), 0u);
  ASSERT_TRUE(client.wait_deliveries(1, 10.0));
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  {
    bd::LockGuard lk(mu);
    ASSERT_EQ(events.size(), 1u);
    EXPECT_EQ(events[0].seq, 1u);
    EXPECT_EQ(events[0].delivery.sub_id, sub);
    EXPECT_EQ(events[0].delivery.payload.view(), "edge-payload");
  }

  // Zero-copy invariant across the whole path: client frame -> dispatcher
  // (injected views) -> matcher (wire views) -> delivery fan-out -> edge
  // write queue. No host anywhere copied a payload.
  const auto dsnap = cluster.dispatcher_host.wire_metrics().snapshot();
  EXPECT_EQ(dsnap.counters.at("wire.payload_copies"), 0u);
  for (auto& host : cluster.matcher_hosts) {
    const auto msnap = host->wire_metrics().snapshot();
    EXPECT_EQ(msnap.counters.at("wire.payload_copies"), 0u);
  }

  // The edge registry rides along in the dispatcher's stats export.
  Envelope resp;
  ASSERT_TRUE(
      TcpHost::request_reply(cluster.directory[EdgeCluster::kDispatcher], 777,
                             Envelope::of(StatsRequest{}), &resp));
  const auto* stats = std::get_if<StatsResponse>(&resp.payload);
  ASSERT_NE(stats, nullptr);
  EXPECT_NE(stats->json.find("edge.accepts"), std::string::npos);
  EXPECT_NE(stats->json.find("edge.deliveries"), std::string::npos);

  client.disconnect();
}

// An edge client's input of the wrong arity passes the front end (which
// only rewrites ids) and stops at the dispatcher: the short subscription,
// its unsubscribe and the short publish are each dropped and counted, and
// nothing is delivered for them.
TEST(EdgeClusterTest, WrongArityClientInputIsDroppedAndCounted) {
  EdgeCluster cluster;
  bd::Mutex mu;
  std::vector<EdgeEvent> events;
  EdgeClient client({"127.0.0.1", cluster.fe.port()},
                    [&](const EdgeEvent& ev) {
                      bd::LockGuard lk(mu);
                      events.push_back(ev);
                    });
  ASSERT_TRUE(client.connect());
  const auto arity_rejects = [&] {
    const auto snap = cluster.dispatcher->metrics().snapshot();
    const auto it = snap.counters.find("dispatcher.arity_rejects");
    return it == snap.counters.end() ? 0 : it->second;
  };
  // One range on a 2-dim schema, covering every value it names.
  const SubscriptionId short_sub = client.subscribe({Range{0, 1000}});
  ASSERT_NE(short_sub, 0u);
  const SubscriptionId sub = client.subscribe({Range{0, 500}, Range{0, 1000}});
  ASSERT_NE(sub, 0u);
  ASSERT_NE(client.publish({100}, "short"), 0u);
  EXPECT_TRUE(eventually([&] { return arity_rejects() == 2; }));
  std::this_thread::sleep_for(std::chrono::milliseconds(300));

  ASSERT_NE(client.publish({100, 100}, "valid"), 0u);
  ASSERT_TRUE(client.wait_deliveries(1, 10.0));
  ASSERT_TRUE(client.unsubscribe(short_sub));
  EXPECT_TRUE(eventually([&] { return arity_rejects() == 3; }));
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  {
    bd::LockGuard lk(mu);
    ASSERT_EQ(events.size(), 1u);
    EXPECT_EQ(events[0].delivery.sub_id, sub);
    EXPECT_EQ(events[0].delivery.payload.view(), "valid");
  }
  client.disconnect();
}

// ---------------------------------------------------------------------------
// A direct client's publish across a server restart (satellite:
// reconnect/retry)
// ---------------------------------------------------------------------------

TEST(EdgeSatelliteTest, DirectPublishRecoversAfterServerRestart) {
  constexpr NodeId kDispatcher = 10;
  const std::vector<Range> domains(2, Range{0, 1000});
  DispatcherConfig dcfg;
  dcfg.domains = domains;

  auto make_host = [&](std::uint16_t port) {
    auto node = std::make_unique<DispatcherNode>(kDispatcher, dcfg);
    node->set_bootstrap(bootstrap_table({}, domains));
    return std::make_unique<TcpHost>(kDispatcher, port, std::move(node));
  };
  auto host = make_host(0);
  const std::uint16_t port = host->port();
  host->start();

  // A direct client publishes by dialing the dispatcher once per message.
  MessageId next_id = 1;
  const auto publish = [&](std::vector<Value> values, std::string payload) {
    Message msg;
    msg.id = next_id++;
    msg.values = std::move(values);
    msg.payload = std::move(payload);
    return TcpHost::send_once(TcpEndpoint{"127.0.0.1", port},
                              Envelope::of(ClientPublish{std::move(msg)}));
  };
  EXPECT_TRUE(publish({1, 2}, "up"));

  // Server gone: every operation fails cleanly (no crash, no hang)...
  host->stop();
  host.reset();
  EXPECT_FALSE(publish({1, 2}, "down"));

  // ...and recovers as soon as a server returns on the same port (each
  // client operation dials fresh, so no stale-connection state lingers).
  host = make_host(port);
  ASSERT_EQ(host->port(), port);
  host->start();
  EXPECT_TRUE(eventually([&] { return publish({1, 2}, "back"); }));
  host->stop();
}

TEST(EdgeSatelliteTest, RaiseFdLimitReportsEffectiveSoftLimit) {
  const std::size_t got = net::raise_fd_limit(1u << 20);
  EXPECT_GT(got, 0u);
  // Idempotent and monotone: asking again for less cannot lower it.
  EXPECT_EQ(net::raise_fd_limit(16), got);
}

}  // namespace
}  // namespace bluedove
