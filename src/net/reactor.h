#pragma once
// Connection core: the one socket layer under both node-to-node TCP
// (net::TcpHost) and the client edge (edge::EdgeFrontend).
//
//   Reactor      one epoll instance driven by one thread, level-triggered:
//                per-fd readiness callbacks, an eventfd-woken task inbox
//                for other threads, one-shot deadline timers, and an
//                end-of-pass hook where owners flush what they queued
//                during the pass (so one wake costs one write per socket,
//                however many envelopes it produced).
//   FrameReader  framed read assembly (net/wire.h format) for a
//                non-blocking socket: one recv() per readable wake into the
//                loop thread's receive buffer (Reactor::recv_buffer), then
//                every complete frame in it is copied out into one fresh
//                refcounted buffer of its own, so the parse yields
//                zero-copy payload views that keep only that frame alive.
//                The connection keeps just the frames not yet handed out
//                and the bytes of an incomplete trailing frame, which may
//                span any number of receives. read_frame() is the blocking
//                one-shot form: exact-length reads that never consume the
//                next frame.
//   FrameWriter  one contiguous outbound buffer per connection: envelopes
//                serialize straight into the open frame, frames close at a
//                batch bound, and the owner arms EPOLLOUT only while bytes
//                are unsent.
//
// Nothing here blocks on a socket: a peer that stops reading only grows
// its FrameWriter, which the owner bounds (drop-newest or eviction).

#include <sys/epoll.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <optional>
#include <set>
#include <span>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/serde.h"
#include "common/thread_safety.h"
#include "net/transport.h"
#include "net/wire.h"

namespace bluedove::net {

/// Size of each loop thread's receive buffer (Reactor::recv_buffer).
inline constexpr std::size_t kRecvBufferBytes = 64 * 1024;

struct TcpEndpoint {
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;
};

/// Opens a TCP connection to `endpoint` (TCP_NODELAY, close-on-exec) and
/// returns the fd, or -1. A `nonblocking` dial returns while the connect
/// is still in flight: the socket turns writable when it resolves, and
/// SO_ERROR says how.
///
/// `source` (e.g. "127.0.0.7") is bound first when non-empty. That matters
/// at benchmark scale: every connection to one (address, port) destination
/// consumes a local ephemeral port, and the default Linux range holds ~28k.
/// Rotating source addresses across 127.0.0.x — all local on Linux
/// loopback — multiplies the tuple space, which is how bench/micro_edge
/// drives 100k+ connections (and their TIME_WAIT residue) at one edge
/// listener on a single host.
int dial(const TcpEndpoint& endpoint, const std::string& source = "",
         bool nonblocking = false);

/// Binds and listens on `host`:`port` (an unparsable host binds every
/// interface; port 0 picks an ephemeral port, written to *bound). The
/// listener is non-blocking and close-on-exec. Returns -1 on failure.
int listen_tcp(const std::string& host, std::uint16_t port, int backlog,
               std::uint16_t* bound);

class Reactor {
 public:
  using Task = std::function<void()>;
  /// Readiness callback: a watched fd and its epoll event mask.
  using IoFn = std::function<void(int fd, std::uint32_t events)>;

  /// `on_io` runs on the loop for every ready watched fd.
  explicit Reactor(IoFn on_io);
  ~Reactor();  ///< closes the epoll and eventfd, never a watched fd

  Reactor(const Reactor&) = delete;
  Reactor& operator=(const Reactor&) = delete;

  // --- any thread ----------------------------------------------------------

  /// Runs `t` on the loop. From the loop thread itself it runs later in
  /// the same pass, with no lock and no wake. Returns false (and drops `t`)
  /// once stop() has been called.
  bool post(Task t);
  /// Makes run() return after its current pass; later posts are dropped.
  void stop();
  bool in_loop() const {
    return loop_thread_.load() == std::this_thread::get_id();
  }

  /// One-shot timer: `fn` runs on the loop after `delay` seconds unless
  /// cancelled first. Ids are never reused.
  TimerId add_timer(double delay, Task fn);
  void cancel_timer(TimerId id);

  // --- loop thread (or before run) -----------------------------------------

  /// Watches `fd` for input (and for output while set_writable is on).
  /// Returns false when epoll refuses the fd.
  bool watch(int fd, bool writable = false);
  void set_writable(int fd, bool on);
  /// Stops watching `fd`; events already collected for it are skipped.
  void unwatch(int fd);
  /// Runs `fn` at the end of every pass, after I/O, tasks and timers.
  void at_pass_end(Task fn) { pass_end_ = std::move(fn); }
  /// Receive space every FrameReader on this loop reads into. One per loop
  /// thread, never per connection: readers copy out what they keep.
  std::span<std::uint8_t> recv_buffer() {
    return {recv_buf_.get(), kRecvBufferBytes};
  }

  /// Runs the loop on the calling thread until stop(); `first` runs on it
  /// before any event, task or timer.
  void run(const Task& first = {});

 private:
  using Clock = std::chrono::steady_clock;
  struct Watch {
    std::uint32_t serial = 0;  ///< tells a reused fd from its predecessor
    bool writable = false;
  };

  void insert_timer(TimerId id, Clock::time_point at, Task fn);
  void erase_timer(TimerId id);
  void run_timers();
  int wait(::epoll_event* events, int max);

  IoFn on_io_;
  int epfd_ = -1;
  int evfd_ = -1;
  std::atomic<std::thread::id> loop_thread_{};
  std::atomic<TimerId> next_timer_{1};

  bd::Mutex mu_;
  std::vector<Task> inbox_ BD_GUARDED_BY(mu_);
  bool stopped_ BD_GUARDED_BY(mu_) = false;

  // Loop-thread state.
  std::vector<Task> local_;  ///< posted from the loop itself
  std::unordered_map<int, Watch> watches_;
  std::uint32_t next_serial_ = 0;
  std::set<std::pair<Clock::time_point, TimerId>> deadlines_;
  std::unordered_map<TimerId, std::pair<Clock::time_point, Task>> timers_;
  Task pass_end_;
  std::unique_ptr<std::uint8_t[]> recv_buf_;
};

/// Framed read assembly for one non-blocking socket.
class FrameReader {
 public:
  enum class Status { kFrame, kBlocked, kClosed, kMalformed };

  /// Hands out the next buffered frame, parsed with its own refcounted
  /// buffer as the payload owner (kFrame): every payload is a zero-copy
  /// view that keeps that frame, and no other, alive. The parse reuses
  /// `frame`'s envelope vector (wire::parse_frame), so a caller that passes
  /// the same ParsedFrame for every frame keeps one vector's capacity
  /// instead of growing a fresh one per frame. With no whole frame
  /// buffered it makes one recv() into `scratch` and carves out every
  /// complete frame; a trailing partial frame is kept for the next recv().
  ///
  /// kBlocked: nothing buffered and the socket has nothing more for now.
  /// A recv() that came up short ends the wake without another recv(),
  /// which would only return EAGAIN; the level-triggered loop reports the
  /// socket again once more bytes arrive. kClosed: the peer closed or
  /// errored. kMalformed: a frame does not parse, or a length prefix is out
  /// of range (after every frame that preceded it).
  Status read(int fd, std::span<std::uint8_t> scratch,
              wire::ParsedFrame* frame);
  /// Length of the last frame handed out, as its prefix gave it.
  std::uint32_t frame_bytes() const { return frame_bytes_; }
  /// recv() calls made so far.
  std::uint64_t recv_calls() const { return recv_calls_; }
  void reset() { *this = FrameReader{}; }

 private:
  struct Body {
    std::shared_ptr<std::uint8_t[]> bytes;
    std::uint32_t len = 0;
  };
  /// Splits `n` received bytes into ready_ frames and the trailing partial.
  void carve(const std::uint8_t* p, std::size_t n);

  std::vector<Body> ready_;  ///< complete frames, not yet handed out
  std::size_t next_ = 0;     ///< first of ready_ not handed out
  bool bad_prefix_ = false;  ///< reported once ready_ drains
  bool short_ = false;       ///< the last recv() drained the socket
  // The incomplete trailing frame: its length prefix, then its body.
  std::uint8_t lenbuf_[4] = {};
  bool in_body_ = false;
  std::uint32_t len_ = 0;
  std::uint32_t got_ = 0;
  std::shared_ptr<std::uint8_t[]> body_;
  std::uint32_t frame_bytes_ = 0;
  std::uint64_t recv_calls_ = 0;
};

/// Reads one frame from a blocking socket with exact-length reads (the
/// length prefix, then the body), so bytes past the frame stay in the
/// socket for the next call. The result is not ok on EOF, error, receive
/// timeout or a malformed frame.
wire::ParsedFrame read_frame(int fd);

/// One connection's outbound byte stream.
class FrameWriter {
 public:
  enum class Flush { kDone, kBlocked, kError };
  /// What a flush() fully put on the wire.
  struct Sent {
    std::size_t bytes = 0;      ///< bytes written, frame-complete or not
    std::size_t frames = 0;     ///< frames whose last byte was written
    std::size_t envelopes = 0;  ///< envelopes in those frames
    std::size_t frame_bytes = 0;
  };

  /// Frames carry `sender` as their sender id.
  explicit FrameWriter(NodeId sender) : sender_(sender) {}

  /// Serializes `env` into the open frame, opening one when none is, and
  /// closes the frame once it holds `batch` envelopes. Returns the
  /// envelope count of the frame this call closed, else 0. A Delivery with
  /// the body of the Delivery just before it in the open frame is written
  /// as a continuation record (net/protocol.h); it still counts as one
  /// envelope.
  int append(const Envelope& env, int batch);
  /// Patches the open frame's length prefix; returns its envelope count
  /// (0 when no frame was open).
  int close_frame();
  /// Size of the frame the last close closed, header included.
  std::uint32_t last_frame_bytes() const { return last_frame_bytes_; }

  /// Writes the closed frames' unsent bytes to non-blocking `fd` until
  /// done or the socket would block; the open frame stays queued.
  Flush flush(int fd, Sent* sent);

  std::size_t unsent() const { return w_.size() - off_; }
  /// Envelopes not yet completely written, the open frame's included.
  std::size_t queued() const { return queued_; }

 private:
  static constexpr std::size_t kNone = static_cast<std::size_t>(-1);
  struct Mark {
    std::uint64_t end;  ///< stream offset one past the frame
    int envelopes;
    std::uint32_t bytes;
  };

  NodeId sender_;
  serde::Writer w_;
  std::size_t off_ = 0;          ///< first unsent byte in w_
  std::uint64_t base_ = 0;       ///< stream offset of w_'s first byte
  std::size_t open_ = kNone;     ///< open frame's header offset in w_
  int open_envs_ = 0;
  std::size_t queued_ = 0;
  std::uint32_t last_frame_bytes_ = 0;
  std::deque<Mark> closed_;      ///< closed frames not fully written
  /// The open frame's last envelope when it is a Delivery: the body a next
  /// Delivery may continue. Holding its blocks until the frame closes keeps
  /// block identity exact (a freed block's address could be reused).
  std::optional<Delivery> run_;
};

}  // namespace bluedove::net
