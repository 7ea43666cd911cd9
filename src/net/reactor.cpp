#include "net/reactor.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <ctime>

namespace bluedove::net {

namespace {

bool parse_addr(const std::string& host, std::uint16_t port,
                ::sockaddr_in* addr) {
  *addr = {};
  addr->sin_family = AF_INET;
  addr->sin_port = htons(port);
  return ::inet_pton(AF_INET, host.c_str(), &addr->sin_addr) == 1;
}

}  // namespace

// SOCK_CLOEXEC everywhere a socket is minted: a fork/exec from any other
// thread (recorder dump helpers, tests spawning tools) must not leak wire
// fds into the child.
int dial(const TcpEndpoint& endpoint, const std::string& source,
         bool nonblocking) {
  ::sockaddr_in addr{};
  if (!parse_addr(endpoint.host, endpoint.port, &addr)) return -1;
  const int fd = ::socket(
      AF_INET, SOCK_STREAM | SOCK_CLOEXEC | (nonblocking ? SOCK_NONBLOCK : 0),
      0);
  if (fd < 0) return -1;
  ::sockaddr_in src{};
  if (!source.empty() && parse_addr(source, 0, &src)) {
    ::bind(fd, reinterpret_cast<::sockaddr*>(&src), sizeof src);
  }
  if (::connect(fd, reinterpret_cast<::sockaddr*>(&addr), sizeof addr) != 0 &&
      !(nonblocking && errno == EINPROGRESS)) {
    ::close(fd);
    return -1;
  }
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  return fd;
}

int listen_tcp(const std::string& host, std::uint16_t port, int backlog,
               std::uint16_t* bound) {
  const int fd =
      ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC | SOCK_NONBLOCK, 0);
  if (fd < 0) return -1;
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
  ::sockaddr_in addr{};
  if (!parse_addr(host, port, &addr)) addr.sin_addr.s_addr = htonl(INADDR_ANY);
  if (::bind(fd, reinterpret_cast<::sockaddr*>(&addr), sizeof addr) != 0 ||
      ::listen(fd, backlog) != 0) {
    ::close(fd);
    return -1;
  }
  ::socklen_t len = sizeof addr;
  ::getsockname(fd, reinterpret_cast<::sockaddr*>(&addr), &len);
  *bound = ntohs(addr.sin_port);
  return fd;
}

// ---------------------------------------------------------------------------
// Reactor
// ---------------------------------------------------------------------------

Reactor::Reactor(IoFn on_io)
    : on_io_(std::move(on_io)),
      epfd_(::epoll_create1(EPOLL_CLOEXEC)),
      evfd_(::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC)),
      recv_buf_(std::make_unique_for_overwrite<std::uint8_t[]>(
          kRecvBufferBytes)) {
  ::epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.u64 = static_cast<std::uint32_t>(evfd_);
  ::epoll_ctl(epfd_, EPOLL_CTL_ADD, evfd_, &ev);
}

Reactor::~Reactor() {
  ::close(epfd_);
  ::close(evfd_);
}

bool Reactor::post(Task t) {
  if (in_loop()) {
    // The loop owns local_; once stop() ends the loop, what is left there
    // is dropped with the Reactor, like a late inbox post.
    local_.push_back(std::move(t));
    return true;
  }
  bool wake = false;
  {
    bd::LockGuard lk(mu_);
    if (stopped_) return false;
    wake = inbox_.empty();
    inbox_.push_back(std::move(t));
  }
  if (wake) {
    const std::uint64_t one = 1;
    [[maybe_unused]] const ::ssize_t n = ::write(evfd_, &one, sizeof one);
  }
  return true;
}

void Reactor::stop() {
  {
    bd::LockGuard lk(mu_);
    stopped_ = true;
  }
  const std::uint64_t one = 1;
  [[maybe_unused]] const ::ssize_t n = ::write(evfd_, &one, sizeof one);
}

TimerId Reactor::add_timer(double delay, Task fn) {
  const TimerId id = next_timer_.fetch_add(1);
  const Clock::time_point at =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(std::max(delay, 0.0)));
  if (in_loop()) {
    insert_timer(id, at, std::move(fn));
  } else {
    post([this, id, at, fn = std::move(fn)]() mutable {
      insert_timer(id, at, std::move(fn));
    });
  }
  return id;
}

void Reactor::cancel_timer(TimerId id) {
  if (in_loop()) {
    erase_timer(id);
  } else {
    post([this, id] { erase_timer(id); });
  }
}

void Reactor::insert_timer(TimerId id, Clock::time_point at, Task fn) {
  deadlines_.emplace(at, id);
  timers_.emplace(id, std::make_pair(at, std::move(fn)));
}

void Reactor::erase_timer(TimerId id) {
  auto it = timers_.find(id);
  if (it == timers_.end()) return;
  deadlines_.erase({it->second.first, id});
  timers_.erase(it);
}

void Reactor::run_timers() {
  // Timers armed by a callback for "now" wait for the next pass, so a
  // zero-delay re-arm cannot spin this loop.
  const Clock::time_point now = Clock::now();
  while (!deadlines_.empty() && deadlines_.begin()->first <= now) {
    const TimerId id = deadlines_.begin()->second;
    deadlines_.erase(deadlines_.begin());
    auto it = timers_.find(id);
    Task fn = std::move(it->second.second);
    timers_.erase(it);
    fn();
  }
}

bool Reactor::watch(int fd, bool writable) {
  const std::uint32_t serial = ++next_serial_;
  ::epoll_event ev{};
  ev.events = EPOLLIN | (writable ? EPOLLOUT : 0u);
  ev.data.u64 = (static_cast<std::uint64_t>(serial) << 32) |
                static_cast<std::uint32_t>(fd);
  if (::epoll_ctl(epfd_, EPOLL_CTL_ADD, fd, &ev) != 0) return false;
  watches_[fd] = Watch{serial, writable};
  return true;
}

void Reactor::set_writable(int fd, bool on) {
  auto it = watches_.find(fd);
  if (it == watches_.end() || it->second.writable == on) return;
  it->second.writable = on;
  ::epoll_event ev{};
  ev.events = EPOLLIN | (on ? EPOLLOUT : 0u);
  ev.data.u64 = (static_cast<std::uint64_t>(it->second.serial) << 32) |
                static_cast<std::uint32_t>(fd);
  ::epoll_ctl(epfd_, EPOLL_CTL_MOD, fd, &ev);
}

void Reactor::unwatch(int fd) {
  if (watches_.erase(fd) != 0) ::epoll_ctl(epfd_, EPOLL_CTL_DEL, fd, nullptr);
}

int Reactor::wait(::epoll_event* events, int max) {
  ::timespec ts{};
  const ::timespec* timeout = &ts;  // zero: loop-posted work is pending
  if (local_.empty()) {
    if (deadlines_.empty()) {
      timeout = nullptr;
    } else {
      const auto left = std::max(Clock::duration::zero(),
                                 deadlines_.begin()->first - Clock::now());
      const auto ns =
          std::chrono::duration_cast<std::chrono::nanoseconds>(left).count();
      ts.tv_sec = static_cast<std::time_t>(ns / 1000000000);
      ts.tv_nsec = static_cast<long>(ns % 1000000000);
    }
  }
  const int n = ::epoll_pwait2(epfd_, events, max, timeout, nullptr);
  if (n >= 0 || errno != ENOSYS) return n;
  // Kernels before 5.11: millisecond timeouts, rounded up.
  const int ms = timeout == nullptr
                     ? -1
                     : static_cast<int>(ts.tv_sec * 1000 +
                                        (ts.tv_nsec + 999999) / 1000000);
  return ::epoll_wait(epfd_, events, max, ms);
}

void Reactor::run(const Task& first) {
  loop_thread_.store(std::this_thread::get_id());
  if (first) first();
  constexpr int kMaxEvents = 256;
  ::epoll_event events[kMaxEvents];
  std::vector<Task> batch;
  for (;;) {
    const int n = wait(events, kMaxEvents);
    for (int i = 0; i < n; ++i) {
      const std::uint64_t tag = events[i].data.u64;
      const int fd = static_cast<int>(tag & 0xffffffffu);
      if (fd == evfd_) {
        std::uint64_t count;
        [[maybe_unused]] const ::ssize_t r =
            ::read(evfd_, &count, sizeof count);
        continue;
      }
      auto it = watches_.find(fd);
      if (it == watches_.end() ||
          it->second.serial != static_cast<std::uint32_t>(tag >> 32)) {
        continue;  // unwatched earlier in this pass
      }
      on_io_(fd, events[i].events);
    }
    {
      bd::LockGuard lk(mu_);
      batch.swap(inbox_);
      if (stopped_) break;
    }
    for (Task& t : batch) t();
    batch.clear();
    // Loop-posted work runs one generation per pass, so a task that keeps
    // re-posting itself cannot starve sockets and timers.
    batch.swap(local_);
    for (Task& t : batch) t();
    batch.clear();
    run_timers();
    if (pass_end_) pass_end_();
  }
  loop_thread_.store(std::thread::id{});
}

// ---------------------------------------------------------------------------
// FrameReader
// ---------------------------------------------------------------------------

FrameReader::Status FrameReader::read(int fd, std::span<std::uint8_t> scratch,
                                      wire::ParsedFrame* frame) {
  for (;;) {
    if (next_ < ready_.size()) {
      Body b = std::move(ready_[next_++]);
      if (next_ == ready_.size()) {
        // Keep a small vector's capacity; let a burst's go.
        if (ready_.capacity() > 16) {
          ready_ = {};
        } else {
          ready_.clear();
        }
        next_ = 0;
      }
      frame_bytes_ = b.len;
      const std::uint8_t* data = b.bytes.get();
      wire::parse_frame(data, b.len, std::move(b.bytes), *frame);
      return frame->ok ? Status::kFrame : Status::kMalformed;
    }
    if (bad_prefix_) return Status::kMalformed;
    if (short_) {
      short_ = false;
      return Status::kBlocked;
    }
    const ::ssize_t n = ::recv(fd, scratch.data(), scratch.size(), 0);
    ++recv_calls_;
    if (n == 0) return Status::kClosed;
    if (n < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) return Status::kBlocked;
      if (errno == EINTR) continue;
      return Status::kClosed;
    }
    short_ = static_cast<std::size_t>(n) < scratch.size();
    carve(scratch.data(), static_cast<std::size_t>(n));
  }
}

void FrameReader::carve(const std::uint8_t* p, std::size_t n) {
  while (n > 0) {
    if (!in_body_) {
      const std::size_t take = std::min<std::size_t>(4 - got_, n);
      std::memcpy(lenbuf_ + got_, p, take);
      got_ += static_cast<std::uint32_t>(take);
      p += take;
      n -= take;
      if (got_ < 4) return;
      len_ = wire::read_frame_len(lenbuf_);
      if (len_ < wire::kFrameOverhead || len_ > wire::kMaxFrame) {
        bad_prefix_ = true;  // nothing after it can be framed
        return;
      }
      body_ = std::make_shared_for_overwrite<std::uint8_t[]>(len_);
      in_body_ = true;
      got_ = 0;
    }
    // One memcpy per frame into its own buffer: frames never share one, so
    // a payload that outlives the pass pins its frame, not the whole recv.
    const std::size_t take = std::min<std::size_t>(len_ - got_, n);
    std::memcpy(body_.get() + got_, p, take);
    got_ += static_cast<std::uint32_t>(take);
    p += take;
    n -= take;
    if (got_ < len_) return;
    ready_.push_back({std::move(body_), len_});
    in_body_ = false;
    got_ = 0;
  }
}

wire::ParsedFrame read_frame(int fd) {
  wire::ParsedFrame frame;
  std::uint8_t lenbuf[4] = {};
  if (!wire::read_all(fd, lenbuf, sizeof lenbuf)) return frame;
  const std::uint32_t len = wire::read_frame_len(lenbuf);
  if (len < wire::kFrameOverhead || len > wire::kMaxFrame) return frame;
  auto body = std::make_shared_for_overwrite<std::uint8_t[]>(len);
  if (!wire::read_all(fd, body.get(), len)) return frame;
  const std::uint8_t* data = body.get();
  return wire::parse_frame(data, len, std::move(body));
}

// ---------------------------------------------------------------------------
// FrameWriter
// ---------------------------------------------------------------------------

int FrameWriter::append(const Envelope& env, int batch) {
  if (open_ == kNone) {
    open_ = w_.reserve(4);  // length prefix, patched at close
    w_.u32(sender_);
    open_envs_ = 0;
  }
  const auto* d = std::get_if<Delivery>(&env.payload);
  if (d != nullptr && run_.has_value() && same_body(*run_, *d)) {
    append_continuation(w_, *d);
  } else {
    write_envelope(w_, env);
    if (d != nullptr) {
      run_ = *d;
    } else {
      run_.reset();
    }
  }
  ++queued_;
  return ++open_envs_ >= batch ? close_frame() : 0;
}

int FrameWriter::close_frame() {
  if (open_ == kNone) return 0;
  const std::size_t bytes = w_.size() - open_;
  w_.patch_u32(open_, static_cast<std::uint32_t>(bytes - 4));
  last_frame_bytes_ = static_cast<std::uint32_t>(bytes);
  closed_.push_back({base_ + w_.size(), open_envs_, last_frame_bytes_});
  const int envs = open_envs_;
  open_ = kNone;
  open_envs_ = 0;
  run_.reset();
  return envs;
}

FrameWriter::Flush FrameWriter::flush(int fd, Sent* sent) {
  const std::size_t end = open_ == kNone ? w_.size() : open_;
  Flush result = Flush::kDone;
  while (off_ < end) {
    const ::ssize_t n = ::send(fd, w_.data() + off_, end - off_, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      result = errno == EAGAIN || errno == EWOULDBLOCK ? Flush::kBlocked
                                                       : Flush::kError;
      break;
    }
    off_ += static_cast<std::size_t>(n);
    sent->bytes += static_cast<std::size_t>(n);
  }
  while (!closed_.empty() && closed_.front().end <= base_ + off_) {
    const Mark& m = closed_.front();
    ++sent->frames;
    sent->envelopes += static_cast<std::size_t>(m.envelopes);
    sent->frame_bytes += m.bytes;
    queued_ -= static_cast<std::size_t>(m.envelopes);
    closed_.pop_front();
  }
  // Reclaim the sent prefix: all of it when nothing is left (the common
  // case, capacity kept), else once it outweighs what is left to move.
  if (off_ == w_.size() || (off_ > (1u << 16) && off_ * 2 >= w_.size())) {
    w_.erase_front(off_);
    base_ += off_;
    if (open_ != kNone) open_ -= off_;
    off_ = 0;
  }
  return result;
}

}  // namespace bluedove::net
