#include "edge/edge_swarm.h"

#include <fcntl.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <thread>
#include <unordered_map>

#include "common/thread_safety.h"
#include "edge/edge_dial.h"
#include "net/reactor.h"
#include "net/wire.h"

namespace bluedove::edge {

namespace {

std::int64_t mono_ns() {
  using clock = std::chrono::steady_clock;
  static const clock::time_point epoch = clock::now();
  return std::chrono::duration_cast<std::chrono::nanoseconds>(clock::now() -
                                                              epoch)
      .count();
}

void set_nonblocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags >= 0) ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
}

/// write_all for a non-blocking socket: parks in poll() on EAGAIN instead
/// of failing (the swarm's callers want backpressure, not drops).
bool send_all(int fd, const std::uint8_t* data, std::size_t len) {
  std::size_t off = 0;
  while (off < len) {
    const ::ssize_t n = ::send(fd, data + off, len - off, MSG_NOSIGNAL);
    if (n >= 0) {
      off += static_cast<std::size_t>(n);
      continue;
    }
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      ::pollfd pfd{fd, POLLOUT, 0};
      ::poll(&pfd, 1, 100);
      continue;
    }
    return false;
  }
  return true;
}

void sleep_ms(int ms) {
  std::this_thread::sleep_for(std::chrono::milliseconds(ms));
}

double now_sec() { return static_cast<double>(mono_ns()) * 1e-9; }

}  // namespace

struct Swarm::Peer {
  int idx = 0;
  std::atomic<int> fd{-1};
  bd::Mutex send_mu;  ///< serializes socket writes, guards no fields
  std::atomic<std::uint64_t> session{0};
  std::atomic<std::uint64_t> last_seq{0};
  std::atomic<bool> live{false};

  // Driver-thread-only read assembly.
  net::FrameReader reader;
  int unacked = 0;
};

/// One receive-side reactor thread and the peers parked on it.
struct Swarm::Driver {
  explicit Driver(Swarm* swarm)
      : loop([swarm, this](int fd, std::uint32_t events) {
          swarm->on_io(*this, fd, events);
        }) {}
  net::Reactor loop;
  std::unordered_map<int, Peer*> by_fd;  ///< driver-thread only
  std::thread thread;  ///< runs `loop`; last, as it uses all of the above
};

Swarm::Swarm(SwarmConfig config) : config_(std::move(config)) {
  if (config_.drivers < 1) config_.drivers = 1;
  if (config_.ack_every < 1) config_.ack_every = 1;
  for (int i = 0; i < config_.drivers; ++i) {
    drivers_.push_back(std::make_unique<Driver>(this));
    Driver* d = drivers_.back().get();
    d->thread = std::thread([d] { d->loop.run(); });
  }
}

Swarm::~Swarm() {
  for (auto& d : drivers_) d->loop.stop();
  for (auto& d : drivers_) {
    if (d->thread.joinable()) d->thread.join();
  }
  for (auto& p : peers_) {
    const int fd = p->fd.exchange(-1);
    if (fd >= 0) ::close(fd);
  }
}

// --------------------------------------------------------------------------
// Caller-side control plane
// --------------------------------------------------------------------------

bool Swarm::connect_peer(Peer& p, int idx, const Envelope* extra) {
  std::string source;
  if (config_.source_addrs > 0) {
    source = "127.0.0." + std::to_string(2 + idx % config_.source_addrs);
  }
  const int fd = dial(config_.endpoint, source);
  if (fd < 0) return false;
  EdgeHello hello;
  hello.session = p.session.load();
  hello.last_seq = p.last_seq.load();
  // Hello plus (for fresh sessions) the subscription, pipelined into one
  // frame: the edge attaches the session, then runs the rest of the frame.
  serde::Writer w;
  const std::size_t at = w.reserve(4);
  w.u32(kInvalidNode);
  write_envelope(w, Envelope::of(hello));
  if (extra != nullptr) write_envelope(w, *extra);
  w.patch_u32(at, static_cast<std::uint32_t>(w.size() - 4));
  if (!send_all(fd, w.data(), w.size())) {
    ::close(fd);
    return false;
  }
  set_nonblocking(fd);
  p.fd.store(fd);
  Driver& d = *drivers_[static_cast<std::size_t>(idx) % drivers_.size()];
  d.loop.post([this, &d, &p, fd] {
    d.by_fd[fd] = &p;
    if (!d.loop.watch(fd)) detach_peer(d, p);
  });
  return true;
}

int Swarm::open(int n, SubGen sub_for, void* sub_arg, double timeout_sec) {
  const std::uint64_t before = welcomes_.load();
  int dialed = 0;
  for (int i = 0; i < n; ++i) {
    auto p = std::make_unique<Peer>();
    p->idx = static_cast<int>(peers_.size());
    Envelope sub_env;
    const Envelope* extra = nullptr;
    if (sub_for != nullptr) {
      std::vector<Range> ranges = sub_for(p->idx, sub_arg);
      if (!ranges.empty()) {
        Subscription sub;
        sub.id = static_cast<SubscriptionId>(p->idx) + 1;
        sub.ranges = std::move(ranges);
        sub_env = Envelope::of(ClientSubscribe{std::move(sub)});
        extra = &sub_env;
      }
    }
    if (connect_peer(*p, p->idx, extra)) ++dialed;
    peers_.push_back(std::move(p));
  }
  const double deadline = now_sec() + timeout_sec;
  while (welcomes_.load() < before + static_cast<std::uint64_t>(dialed) &&
         now_sec() < deadline) {
    sleep_ms(1);
  }
  return static_cast<int>(welcomes_.load() - before);
}

int Swarm::drop(int n, double timeout_sec) {
  const std::uint64_t before = live_.load();
  int requested = 0;
  for (auto it = peers_.rbegin(); it != peers_.rend() && requested < n; ++it) {
    Peer& p = **it;
    if (!p.live.load()) continue;
    const int fd = p.fd.load();
    if (fd < 0) continue;
    ::shutdown(fd, SHUT_RDWR);  // driver sees EOF and detaches the peer
    ++requested;
  }
  const double deadline = now_sec() + timeout_sec;
  while (live_.load() > before - static_cast<std::uint64_t>(requested) &&
         now_sec() < deadline) {
    sleep_ms(1);
  }
  return static_cast<int>(before - live_.load());
}

int Swarm::resume(int n, double timeout_sec) {
  const std::uint64_t before = welcomes_.load();
  int dialed = 0;
  // Most-recently-dropped first: mirrors drop()'s order, so a drop(n) /
  // resume(n) pair round-trips the same sessions.
  for (auto it = peers_.rbegin(); it != peers_.rend() && dialed < n; ++it) {
    Peer& p = **it;
    if (p.live.load() || p.session.load() == 0 || p.fd.load() >= 0) continue;
    if (connect_peer(p, p.idx, nullptr)) ++dialed;
  }
  const double deadline = now_sec() + timeout_sec;
  while (welcomes_.load() < before + static_cast<std::uint64_t>(dialed) &&
         now_sec() < deadline) {
    sleep_ms(1);
  }
  return static_cast<int>(welcomes_.load() - before);
}

bool Swarm::publish(const std::vector<Value>& values,
                    std::size_t payload_bytes) {
  if (peers_.empty()) return false;
  for (std::size_t scan = 0; scan < peers_.size(); ++scan) {
    Peer& p = *peers_[publish_rr_++ % peers_.size()];
    if (!p.live.load()) continue;
    std::string payload(payload_bytes < 8 ? 8 : payload_bytes, '\0');
    const std::int64_t t = mono_ns();
    std::memcpy(payload.data(), &t, sizeof t);
    Message msg;
    msg.id = 1;  // rewritten by the edge to a cluster-unique id
    msg.values = values;
    msg.payload = PayloadRef(std::move(payload));
    serde::Writer w;
    const std::size_t at = w.reserve(4);
    w.u32(kInvalidNode);
    write_envelope(w, Envelope::of(ClientPublish{std::move(msg)}));
    w.patch_u32(at, static_cast<std::uint32_t>(w.size() - 4));
    bd::LockGuard lk(p.send_mu);
    const int fd = p.fd.load();
    if (fd < 0) continue;
    return send_all(fd, w.data(), w.size());
  }
  return false;
}

bool Swarm::wait_delivered(std::uint64_t target, double timeout_sec) {
  const double deadline = now_sec() + timeout_sec;
  while (delivered_.load() < target) {
    if (now_sec() >= deadline) return false;
    sleep_ms(1);
  }
  return true;
}

void Swarm::drain(double quiet_sec, double timeout_sec) {
  const double deadline = now_sec() + timeout_sec;
  std::uint64_t last = delivered_.load() + gaps_.load() + dups_.load();
  double last_change = now_sec();
  while (now_sec() < deadline) {
    sleep_ms(10);
    const std::uint64_t cur = delivered_.load() + gaps_.load() + dups_.load();
    if (cur != last) {
      last = cur;
      last_change = now_sec();
    } else if (now_sec() - last_change >= quiet_sec) {
      return;
    }
  }
}

// --------------------------------------------------------------------------
// Driver threads: receive side
// --------------------------------------------------------------------------

void Swarm::on_io(Driver& d, int fd, std::uint32_t events) {
  auto it = d.by_fd.find(fd);
  if (it == d.by_fd.end()) return;
  if ((events & (EPOLLHUP | EPOLLERR)) != 0) return detach_peer(d, *it->second);
  handle_peer(d, *it->second);
}

void Swarm::detach_peer(Driver& d, Peer& p) {
  const int fd = p.fd.exchange(-1);
  if (fd < 0) return;
  d.loop.unwatch(fd);
  d.by_fd.erase(fd);
  {
    // Serialize against a publish mid-write on this fd before closing.
    bd::LockGuard lk(p.send_mu);
    ::close(fd);
  }
  p.reader.reset();
  p.unacked = 0;
  if (p.live.exchange(false)) live_.fetch_sub(1);
}

void Swarm::handle_peer(Driver& d, Peer& p) {
  const int fd = p.fd.load();
  if (fd < 0) return;
  for (;;) {
    net::wire::ParsedFrame frame;
    const net::FrameReader::Status st =
        p.reader.read(fd, d.loop.recv_buffer(), &frame);
    if (st == net::FrameReader::Status::kBlocked) return;
    if (st != net::FrameReader::Status::kFrame) return detach_peer(d, p);
    for (const Envelope& env : frame.envelopes) {
      if (const auto* w = std::get_if<EdgeWelcome>(&env.payload)) {
        const std::uint64_t prev = p.session.load();
        if (prev != 0) {
          if (!w->resumed) {
            sessions_lost_.fetch_add(1);
            p.last_seq.store(0);
          } else {
            const std::uint64_t expect = p.last_seq.load() + 1;
            if (w->next_seq > expect) gaps_.fetch_add(w->next_seq - expect);
          }
        }
        p.session.store(w->session);
        if (!p.live.exchange(true)) live_.fetch_add(1);
        welcomes_.fetch_add(1);
      } else if (const auto* ev = std::get_if<EdgeEvent>(&env.payload)) {
        const std::uint64_t last = p.last_seq.load();
        if (ev->seq <= last) {
          dups_.fetch_add(1);
          continue;
        }
        if (ev->seq != last + 1) gaps_.fetch_add(ev->seq - last - 1);
        p.last_seq.store(ev->seq);
        delivered_.fetch_add(1);
        const PayloadRef& payload = ev->delivery.payload;
        if (payload.size() >= 8) {
          std::int64_t t0;
          std::memcpy(&t0, payload.data(), sizeof t0);
          const std::int64_t dt = mono_ns() - t0;
          if (dt >= 0) latency_.record(static_cast<double>(dt) * 1e-9);
        }
        if (++p.unacked >= config_.ack_every) {
          p.unacked = 0;
          serde::Writer w;
          const std::size_t at = w.reserve(4);
          w.u32(kInvalidNode);
          write_envelope(w, Envelope::of(EdgeAck{ev->seq}));
          w.patch_u32(at, static_cast<std::uint32_t>(w.size() - 4));
          bd::LockGuard lk(p.send_mu);
          const int cur = p.fd.load();
          // Best effort: acks are cumulative, the next one covers a miss.
          if (cur >= 0) send_all(cur, w.data(), w.size());
        }
      }
    }
  }
}

}  // namespace bluedove::edge
