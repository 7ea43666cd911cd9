#include "edge/edge_client.h"

#include <sys/socket.h>
#include <unistd.h>

#include <chrono>

#include "edge/edge_dial.h"
#include "net/reactor.h"
#include "net/wire.h"

namespace bluedove::edge {

EdgeClient::EdgeClient(net::TcpEndpoint edge, EventHandler on_event,
                       int ack_every)
    : edge_(std::move(edge)),
      on_event_(std::move(on_event)),
      ack_every_(ack_every < 1 ? 1 : ack_every) {}

EdgeClient::~EdgeClient() { disconnect(); }

bool EdgeClient::connect() {
  EdgeHello hello;  // session 0: fresh
  return handshake(hello);
}

bool EdgeClient::resume() {
  if (session_ == 0) return false;
  EdgeHello hello;
  hello.session = session_;
  hello.last_seq = last_seq_.load();
  return handshake(hello);
}

bool EdgeClient::handshake(const EdgeHello& hello) {
  disconnect();
  const int fd = dial(edge_);
  if (fd < 0) return false;
  if (!net::wire::send_frame(fd, kInvalidNode, Envelope::of(hello))) {
    ::close(fd);
    return false;
  }
  // The welcome is always the first envelope the edge sends (before any
  // replay), so a synchronous read here cannot swallow deliveries meant
  // for the reader thread: parse the first frame, consume the welcome, and
  // hand everything after it to the handler like the reader would.
  net::wire::ParsedFrame frame = net::read_frame(fd);
  if (!frame.ok) {
    ::close(fd);
    return false;
  }
  const auto* welcome = std::get_if<EdgeWelcome>(&frame.envelopes[0].payload);
  if (welcome == nullptr) {
    ::close(fd);
    return false;
  }
  session_ = welcome->session;
  welcome_resumed_ = welcome->resumed;
  welcome_next_seq_ = welcome->next_seq;
  fd_.store(fd);
  // Dispatch the replayed events riding in the handshake frame before the
  // reader thread exists: otherwise the reader races frame 2+ against this
  // loop — on_event_ from two threads, out-of-order delivery, and a later
  // reader store of last_seq_ overwritten by an older handshake seq (which
  // would make the next resume() re-request already-seen data).
  for (std::size_t i = 1; i < frame.envelopes.size(); ++i) {
    if (const auto* ev = std::get_if<EdgeEvent>(&frame.envelopes[i].payload)) {
      last_seq_.store(ev->seq);
      deliveries_.fetch_add(1);
      if (on_event_) on_event_(*ev);
      if (++unacked_ >= ack_every_) {
        unacked_ = 0;
        ack(ev->seq);
      }
    }
  }
  {
    bd::LockGuard lk(wait_mu_);  // pairs with wait_deliveries
  }
  wait_cv_.notify_all();
  reader_ = std::thread([this] { reader_loop(); });
  return true;
}

void EdgeClient::disconnect() {
  const int fd = fd_.exchange(-1);
  if (fd >= 0) ::shutdown(fd, SHUT_RDWR);
  stop_reader();
  if (fd >= 0) ::close(fd);
}

void EdgeClient::stop_reader() {
  if (reader_.joinable()) reader_.join();
}

bool EdgeClient::send_env(const Envelope& env) {
  bd::LockGuard lk(send_mu_);
  const int fd = fd_.load();
  if (fd < 0) return false;
  return net::wire::send_frame(fd, kInvalidNode, env);
}

SubscriptionId EdgeClient::subscribe(std::vector<Range> ranges) {
  Subscription sub;
  sub.id = next_sub_++;
  sub.ranges = std::move(ranges);
  return send_env(Envelope::of(ClientSubscribe{std::move(sub)})) ? sub.id : 0;
}

bool EdgeClient::unsubscribe(SubscriptionId id) {
  Subscription sub;
  sub.id = id;
  return send_env(Envelope::of(ClientUnsubscribe{std::move(sub)}));
}

MessageId EdgeClient::publish(std::vector<Value> values, std::string payload) {
  Message msg;
  msg.id = next_msg_++;
  msg.values = std::move(values);
  msg.payload = PayloadRef(std::move(payload));
  return send_env(Envelope::of(ClientPublish{std::move(msg)})) ? msg.id : 0;
}

bool EdgeClient::ack(std::uint64_t seq) {
  return send_env(Envelope::of(EdgeAck{seq}));
}

bool EdgeClient::wait_deliveries(std::uint64_t n, double timeout_sec) {
  const auto deadline =
      std::chrono::steady_clock::now() +
      std::chrono::duration_cast<std::chrono::steady_clock::duration>(
          std::chrono::duration<double>(timeout_sec));
  bd::UniqueLock lk(wait_mu_);
  while (deliveries_.load() < n) {
    if (wait_cv_.wait_until(lk, deadline) == std::cv_status::timeout) {
      return deliveries_.load() >= n;
    }
  }
  return true;
}

void EdgeClient::reader_loop() {
  const int fd = fd_.load();
  if (fd < 0) return;
  for (;;) {
    const net::wire::ParsedFrame frame = net::read_frame(fd);
    if (!frame.ok) break;
    for (const Envelope& env : frame.envelopes) {
      const auto* ev = std::get_if<EdgeEvent>(&env.payload);
      if (ev == nullptr) continue;
      last_seq_.store(ev->seq);
      deliveries_.fetch_add(1);
      if (on_event_) on_event_(*ev);
      if (++unacked_ >= ack_every_) {
        unacked_ = 0;
        ack(ev->seq);
      }
    }
    {
      bd::LockGuard lk(wait_mu_);  // pairs with wait_deliveries
    }
    wait_cv_.notify_all();
  }
}

}  // namespace bluedove::edge
