#include "net/tcp_transport.h"

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>

#include "net/wire.h"
#include "obs/recorder.h"

namespace bluedove::net {

namespace {

// Flight-recorder event names (interned once per process).
namespace rec {
std::uint16_t frame_in() {
  static const std::uint16_t id = obs::Recorder::intern("wire.frame_in");
  return id;
}
std::uint16_t flush() {
  static const std::uint16_t id = obs::Recorder::intern("wire.flush");
  return id;
}
}  // namespace rec

/// Unsent bytes at which a connection is written mid-pass. Half the
/// envelope bound (WireConfig::queue_capacity) triggers the same write.
constexpr std::size_t kEagerFlushBytes = 64 * 1024;

/// accept4() failures that mean "out of fds or buffers for now": the
/// listener stays readable, so polling it again at once would spin.
bool accept_exhausted(int err) {
  return err == EMFILE || err == ENFILE || err == ENOBUFS || err == ENOMEM;
}

}  // namespace

std::size_t raise_fd_limit(std::size_t want) {
  ::rlimit rl{};
  if (::getrlimit(RLIMIT_NOFILE, &rl) != 0) return 0;
  const rlim_t target = rl.rlim_max == RLIM_INFINITY
                            ? static_cast<rlim_t>(want)
                            : std::min(static_cast<rlim_t>(want), rl.rlim_max);
  if (target > rl.rlim_cur) {
    ::rlimit raised = rl;
    raised.rlim_cur = target;
    if (::setrlimit(RLIMIT_NOFILE, &raised) == 0) rl = raised;
  }
  return static_cast<std::size_t>(rl.rlim_cur);
}

// ---------------------------------------------------------------------------
// Connections
// ---------------------------------------------------------------------------

/// One socket of the host, inbound or outbound; node-thread only.
struct TcpHost::Conn {
  Conn(int f, NodeId self, std::uint64_t s) : fd(f), serial(s), writer(self) {}
  const int fd;
  const std::uint64_t serial;    ///< tells a reused fd apart
  NodeId dialed = kInvalidNode;  ///< the peer this host dialed, if outbound
  bool connecting = false;       ///< non-blocking dial still in flight
  bool dirty = false;            ///< output queued this pass
  bool congested = false;        ///< counted in congested_
  FrameReader reader;
  FrameWriter writer;
  obs::Gauge* depth = nullptr;       ///< wire.peer<id>.queue_depth
  obs::Gauge* high_water = nullptr;  ///< wire.peer<id>.queue_high_water
};

// ---------------------------------------------------------------------------
// Lifecycle
// ---------------------------------------------------------------------------

TcpHost::TcpHost(NodeId self, std::uint16_t listen_port,
                 std::unique_ptr<Node> node, std::uint64_t seed,
                 WireConfig wire)
    : self_(self),
      wire_(wire),
      loop_(
          self, std::move(node), seed ^ self, std::chrono::steady_clock::now(),
          [this](NodeId to, Envelope&& env) { send(to, std::move(env)); },
          [this](int fd, std::uint32_t events) { on_io(fd, events); },
          /*inbox_capacity=*/0, &wire_metrics_),
      reactor_(loop_.reactor()) {
  if (wire_.batch < 1) wire_.batch = 1;
  if (wire_.queue_capacity == 0) wire_.queue_capacity = 1;
  m_envelopes_ = &wire_metrics_.counter("wire.envelopes_sent");
  m_frames_ = &wire_metrics_.counter("wire.frames_sent");
  m_bytes_ = &wire_metrics_.counter("wire.bytes_sent");
  m_flushes_ = &wire_metrics_.counter("wire.flushes");
  m_queue_drops_ = &wire_metrics_.counter("wire.queue_full_drops");
  m_send_drops_ = &wire_metrics_.counter("wire.send_error_drops");
  m_connects_ = &wire_metrics_.counter("wire.connects");
  m_payload_copies_ = &wire_metrics_.counter("wire.payload_copies");
  m_payload_copy_bytes_ =
      &wire_metrics_.counter("wire.payload_bytes_copied");
  m_frame_envs_ = &wire_metrics_.histogram("wire.frame_envelopes");
  m_frame_bytes_ = &wire_metrics_.histogram("wire.frame_bytes");
  listen_fd_ = listen_tcp("127.0.0.1", listen_port, 64, &port_);
  if (listen_fd_ >= 0) reactor_.watch(listen_fd_);
  // After the pass's completions, so their sends share the pass's frames.
  loop_.at_pass_end([this] { flush_dirty(); });
}

TcpHost::~TcpHost() { stop(); }

void TcpHost::add_peer(NodeId id, TcpEndpoint endpoint) {
  bool moved = false;
  {
    bd::LockGuard lock(mu_);
    auto [it, fresh] = endpoints_.try_emplace(id, endpoint);
    moved = !fresh && (it->second.host != endpoint.host ||
                       it->second.port != endpoint.port);
    it->second = std::move(endpoint);
  }
  if (!moved) return;
  // A connection to the old endpoint is dropped; the next send redials.
  reactor_.post([this, id] {
    auto it = dialed_.find(id);
    if (it != dialed_.end()) close_conn(*it->second);
  });
}

void TcpHost::start() {
  if (listen_fd_ >= 0) loop_.start();
}

void TcpHost::stop() {
  if (!loop_.stop()) return;
  // Output still queued is dropped, as the send contract allows.
  for (auto& [fd, conn] : conns_) ::close(fd);
  conns_.clear();
  dialed_.clear();
  learned_.clear();
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
}

void TcpHost::send(NodeId to, Envelope&& env) {
  if (reactor_.in_loop()) {
    if (!send_to(to, env)) dropped_sends_.fetch_add(1);
    return;
  }
  // Another thread (a test, a load generator): hand the envelope to the
  // node thread, which owns every socket.
  const bool posted = reactor_.post([this, to, env = std::move(env)] {
    if (!send_to(to, env)) dropped_sends_.fetch_add(1);
  });
  if (!posted) dropped_sends_.fetch_add(1);
}

void TcpHost::inject(NodeId from, Envelope&& env) {
  reactor_.post([this, from, env = std::move(env)]() mutable {
    held_.emplace_back(from, std::move(env));
    admit();
  });
}

void TcpHost::admit() {
  while (congested_ == 0 && !held_.empty()) {
    auto [from, env] = std::move(held_.front());
    held_.pop_front();
    loop_.node()->on_receive(from, std::move(env));
  }
}

// ---------------------------------------------------------------------------
// Sockets (node thread)
// ---------------------------------------------------------------------------

void TcpHost::on_io(int fd, std::uint32_t events) {
  if (fd == listen_fd_) return accept_all();
  auto it = conns_.find(fd);
  if (it == conns_.end()) return;
  Conn& c = *it->second;
  if (c.connecting) {
    if ((events & (EPOLLOUT | EPOLLERR | EPOLLHUP)) == 0) return;
    if (!finish_connect(c)) return;
    events |= EPOLLOUT;  // write what queued while the dial was in flight
  }
  if ((events & (EPOLLIN | EPOLLHUP | EPOLLERR)) != 0 && !read_frames(c)) {
    return;
  }
  if ((events & EPOLLOUT) != 0) flush(c);
}

void TcpHost::accept_all() {
  for (;;) {
    const int fd =
        ::accept4(listen_fd_, nullptr, nullptr, SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) {
      if (errno == EINTR || errno == ECONNABORTED) continue;
      if (accept_exhausted(errno)) {
        // Retry once fds may have been released instead of spinning.
        reactor_.unwatch(listen_fd_);
        reactor_.add_timer(0.01, [this] { reactor_.watch(listen_fd_); });
      }
      return;
    }
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
    adopt(fd, kInvalidNode, false);
  }
}

bool TcpHost::finish_connect(Conn& c) {
  ::pollfd pfd{c.fd, POLLOUT, 0};
  if (::poll(&pfd, 1, 0) <= 0) return false;  // still in flight
  int err = 0;
  ::socklen_t len = sizeof err;
  ::getsockopt(c.fd, SOL_SOCKET, SO_ERROR, &err, &len);
  if (err != 0) {
    close_conn(c);
    return false;
  }
  c.connecting = false;
  m_connects_->inc();
  return true;
}

TcpHost::Conn* TcpHost::adopt(int fd, NodeId dialed, bool connecting) {
  if (!reactor_.watch(fd, connecting)) {
    ::close(fd);
    return nullptr;
  }
  auto conn = std::make_unique<Conn>(fd, self_, ++next_serial_);
  conn->dialed = dialed;
  conn->connecting = connecting;
  Conn* c = conn.get();
  if (dialed != kInvalidNode) dialed_[dialed] = c;
  conns_[fd] = std::move(conn);
  return c;
}

bool TcpHost::read_frames(Conn& c) {
  const int fd = c.fd;
  const std::uint64_t serial = c.serial;
  for (;;) {
    // The refcounted frame buffer owns the parsed payloads: each is a view
    // that keeps the frame alive as long as any envelope (or any Delivery
    // fanned out from one) still references its bytes.
    // Every frame parses into frame_, whose vector keeps its capacity.
    switch (c.reader.read(c.fd, reactor_.recv_buffer(), &frame_)) {
      case FrameReader::Status::kFrame:
        break;
      case FrameReader::Status::kBlocked:
        return true;
      case FrameReader::Status::kClosed:
      case FrameReader::Status::kMalformed:
        close_conn(c);
        return false;
    }
    obs::Recorder::instant(rec::frame_in(), 0, c.reader.frame_bytes());
    if (frame_.payload_copies != 0) {
      m_payload_copies_->inc(frame_.payload_copies);
      m_payload_copy_bytes_->inc(frame_.payload_bytes_copied);
    }
    // Learn the return path so replies reach peers that have no registered
    // endpoint (admin scrapers, NAT'd clients).
    if (frame_.from != kInvalidNode) learned_[frame_.from] = c.fd;
    for (Envelope& env : frame_.envelopes) {
      loop_.node()->on_receive(frame_.from, std::move(env));
    }
    frame_.envelopes.clear();  // lets go of the frame; keeps the capacity
    // A handler's reply may have written this very connection and, on a
    // socket error, closed it (its fd possibly reused since).
    auto it = conns_.find(fd);
    if (it == conns_.end() || it->second->serial != serial) return false;
  }
}

void TcpHost::close_conn(Conn& c) {
  const int fd = c.fd;
  if (c.writer.queued() > 0) {
    dropped_sends_.fetch_add(c.writer.queued());
    m_send_drops_->inc(c.writer.queued());
  }
  if (c.depth != nullptr) c.depth->set(0.0);
  set_congested(c, false);
  reactor_.unwatch(fd);
  ::close(fd);
  auto d = dialed_.find(c.dialed);
  if (d != dialed_.end() && d->second == &c) dialed_.erase(d);
  std::erase_if(learned_, [fd](const auto& kv) { return kv.second == fd; });
  conns_.erase(fd);
}

// ---------------------------------------------------------------------------
// Outbound path (node thread)
// ---------------------------------------------------------------------------

TcpHost::Conn* TcpHost::route(NodeId peer) {
  auto d = dialed_.find(peer);
  if (d != dialed_.end()) return d->second;
  TcpEndpoint endpoint;
  bool dialable = false;
  {
    bd::LockGuard lock(mu_);
    auto it = endpoints_.find(peer);
    if (it != endpoints_.end()) {
      endpoint = it->second;
      dialable = true;
    }
  }
  if (dialable) {
    const int fd = dial(endpoint, "", /*nonblocking=*/true);
    if (fd >= 0) return adopt(fd, peer, /*connecting=*/true);
  }
  auto l = learned_.find(peer);
  return l == learned_.end() ? nullptr : conns_.at(l->second).get();
}

bool TcpHost::send_to(NodeId peer, const Envelope& env) {
  Conn* c = route(peer);
  if (c == nullptr) return false;
  if (c->writer.queued() >= wire_.queue_capacity) {
    m_queue_drops_->inc();
    return false;
  }
  if (c->depth == nullptr) {
    const std::string prefix = "wire.peer" + std::to_string(peer);
    c->depth = &wire_metrics_.gauge(prefix + ".queue_depth");
    c->high_water = &wire_metrics_.gauge(prefix + ".queue_high_water");
  }
  // Serialized once, straight into the connection's outbound buffer.
  if (const int envs = c->writer.append(env, wire_.batch); envs > 0) {
    m_frame_envs_->record(static_cast<double>(envs));
    m_frame_bytes_->record(static_cast<double>(c->writer.last_frame_bytes()));
  }
  const auto depth = static_cast<double>(c->writer.queued());
  c->depth->set(depth);
  c->high_water->record_max(depth);
  if (!c->dirty) {
    c->dirty = true;
    dirty_.push_back(c->fd);
  }
  // A burst bigger than this goes out while it is produced, not at the end
  // of the pass: the queue bound then only bites on a peer that really
  // stopped reading, never on one a single busy pass outran. Both bounds
  // count: continuation records are a few bytes, so a pass can queue the
  // envelope bound long before 64 KiB.
  if (c->writer.unsent() >= kEagerFlushBytes ||
      c->writer.queued() >= wire_.queue_capacity / 2) {
    flush(*c);
  } else {
    set_congested(*c, c->writer.queued() >= wire_.queue_capacity / 2);
  }
  return true;
}

void TcpHost::set_congested(Conn& c, bool on) {
  if (on == c.congested) return;
  c.congested = on;
  congested_ += on ? 1 : -1;
  // Admitting from here could re-enter a send in progress; next turn.
  if (congested_ == 0 && !held_.empty()) reactor_.post([this] { admit(); });
}

void TcpHost::flush_dirty() {
  for (const int fd : dirty_) {
    auto it = conns_.find(fd);
    if (it == conns_.end()) continue;
    it->second->dirty = false;
    flush(*it->second);
  }
  dirty_.clear();
}

void TcpHost::flush(Conn& c) {
  if (const int envs = c.writer.close_frame(); envs > 0) {
    m_frame_envs_->record(static_cast<double>(envs));
    m_frame_bytes_->record(static_cast<double>(c.writer.last_frame_bytes()));
  }
  // The frame above closes even while a dial is in flight, so a pass's
  // frames keep their bounds however long the connect takes.
  if (c.connecting && !finish_connect(c)) return;  // EPOLLOUT flushes later
  FrameWriter::Sent sent;
  const FrameWriter::Flush result = c.writer.flush(c.fd, &sent);
  if (sent.bytes > 0) m_flushes_->inc();
  if (sent.frames > 0) {
    obs::Recorder::instant(rec::flush(), 0, sent.envelopes);
    m_envelopes_->inc(sent.envelopes);
    m_frames_->inc(sent.frames);
    m_bytes_->inc(sent.frame_bytes);
  }
  if (c.depth != nullptr) c.depth->set(static_cast<double>(c.writer.queued()));
  if (result == FrameWriter::Flush::kError) return close_conn(c);
  set_congested(c, c.writer.queued() >= wire_.queue_capacity / 2);
  // EPOLLOUT only while the socket holds back bytes we could send.
  reactor_.set_writable(c.fd, result == FrameWriter::Flush::kBlocked);
}

// ---------------------------------------------------------------------------
// One-shot client helpers
// ---------------------------------------------------------------------------

bool TcpHost::send_once(const TcpEndpoint& endpoint, const Envelope& env) {
  const int fd = dial(endpoint);
  if (fd < 0) return false;
  const bool ok = wire::send_frame(fd, kInvalidNode, env);
  ::close(fd);
  return ok;
}

bool TcpHost::request_reply(const TcpEndpoint& endpoint, NodeId self,
                            const Envelope& req, Envelope* resp,
                            double timeout_sec) {
  const int fd = dial(endpoint);
  if (fd < 0) return false;
  timeval tv{};
  tv.tv_sec = static_cast<time_t>(timeout_sec);
  tv.tv_usec = static_cast<suseconds_t>(
      (timeout_sec - static_cast<double>(tv.tv_sec)) * 1e6);
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof tv);
  wire::ParsedFrame frame;
  if (wire::send_frame(fd, self, req)) frame = read_frame(fd);
  ::close(fd);
  if (!frame.ok) return false;
  if (resp != nullptr) *resp = std::move(frame.envelopes.front());
  return true;
}

}  // namespace bluedove::net
