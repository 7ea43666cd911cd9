#pragma once
// Bench-owned tracing: per-message timestamps taken around calls into each
// layer's public functions, and the per-layer ledger built from them.
//
// Every published payload carries a stamp (sequence number, due time), so
// each trace point can name the message it saw without any help from the
// program. The 14 ledger stages are differences of consecutive timestamps
// along one message's critical path — due time to the client receipt that
// completed the message — so their sum is e2e.complete exactly, message by
// message (README.md lists each boundary). Where a receiver starts handling
// a message before the sender's send() call has returned, the send stage
// ends at the receiver's start: the rest of that call is off the path.

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "attr/payload.h"
#include "common/thread_safety.h"

namespace bluedove::e2e {

/// Monotonic nanoseconds (steady_clock); every trace point uses this clock.
std::int64_t now_ns();

struct Stamp {
  std::uint64_t seq = 0;
  std::int64_t due_ns = 0;
};
inline constexpr std::size_t kStampBytes = 16;

/// Payload of `bytes` (at least kStampBytes) starting with the stamp.
std::string make_payload(const Stamp& stamp, std::size_t bytes);
/// False when the payload is too short to carry a stamp.
bool read_stamp(const PayloadRef& payload, Stamp* out);

/// Per-message timestamps, each written by exactly one thread.
enum class Point : std::size_t {
  kDue,           ///< schedule (main thread)
  kPublish,       ///< EdgeClient::publish called (main thread)
  kIngress,       ///< EdgeFrontend ingress callback entered (reactor)
  kDispatchRecv,  ///< DispatcherNode::on_receive(ClientPublish) entered
  kReqSendBegin,  ///< dispatcher send(MatchRequest) entered
  kReqSendEnd,    ///< dispatcher send(MatchRequest) returned
  kMatchRecv,     ///< MatcherNode::on_receive(MatchRequest) entered
  kOffload,       ///< matcher offload() called for the message's service
  kWorkBegin,     ///< offloaded work started (pool worker)
  kWorkEnd,       ///< offloaded work returned (pool worker)
  kDoneBegin,     ///< completion entered (matcher node thread)
  kFirstSend,     ///< first Delivery send() of the service entered
  kCount
};

/// One matched delivery leaving a matcher (send returned).
struct MatcherSend {
  std::uint64_t seq = 0;
  std::uint64_t sub = 0;  ///< cluster-global subscription id
  std::int64_t t = 0;
};

/// One delivery entering the edge from DispatcherNode::on_delivery. The
/// edge numbers a session's deliveries in the order deliver() is called,
/// so (session, edge_seq) names the EdgeEvent the client will receive.
struct EdgeHandoff {
  std::uint64_t seq = 0;
  std::uint64_t sub = 0;
  std::uint64_t session = 0;
  std::uint64_t edge_seq = 0;
  std::int64_t t = 0;
};

/// A verified delivery received by a client; `completing` marks the
/// receipt that brought the message's delivered set to its expected size.
struct Receipt {
  std::uint64_t seq = 0;
  std::uint64_t edge_seq = 0;
  std::int64_t t = 0;
  bool completing = false;
};

/// Write-path handlers timed while write tracing is on.
enum class WriteOp : std::size_t { kSubscribe, kStore, kRemove, kCount };

template <typename T>
class Log {
 public:
  void push(const T& v) {
    bd::LockGuard lk(mu_);
    items_.push_back(v);
  }
  /// Allocates and touches room for `n` items.
  void prefault(std::size_t n) {
    bd::LockGuard lk(mu_);
    items_.resize(n);
    items_.clear();
  }
  std::vector<T> take() {
    bd::LockGuard lk(mu_);
    return std::move(items_);
  }

 private:
  bd::Mutex mu_;
  std::vector<T> items_ BD_GUARDED_BY(mu_);
};

class Tracer {
 public:
  /// Only every kEvery-th message can be traced: enough samples for every
  /// stage's p99 at a quarter of the recording cost.
  static constexpr std::uint64_t kEvery = 4;

  /// Room for sequence numbers below `max_messages`.
  Tracer(std::size_t matchers, std::size_t clients, std::size_t max_messages);
  ~Tracer();
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// Turns the trace points on. `messages` traced messages of
  /// `deliveries_per_msg` deliveries each size the delivery logs, which are
  /// allocated and touched here so no traced thread stalls on a
  /// reallocation or a page fault. Call once, from the main thread.
  void arm(std::size_t messages, double deliveries_per_msg);
  bool armed() const { return armed_.load(std::memory_order_acquire); }

  /// Whether the generator is publishing traced messages now. Trace points
  /// that cannot tell which message they serve (the matcher's offload)
  /// record only while this is set.
  void set_tracing(bool on) { tracing_.store(on, std::memory_order_release); }
  bool tracing() const { return tracing_.load(std::memory_order_acquire); }

  bool sampled(std::uint64_t seq) const {
    return seq % kEvery == 0 && seq / kEvery < slots_;
  }
  /// Makes `seq` a traced message: records its due time and publish time.
  /// The generator calls this before publishing it.
  void trace_message(std::uint64_t seq, std::int64_t due, std::int64_t pub) {
    if (!armed() || !sampled(seq)) return;
    slot(Point::kDue, seq).store(due, std::memory_order_relaxed);
    slot(Point::kPublish, seq).store(pub, std::memory_order_relaxed);
  }
  /// Whether `seq` is a traced message; the other points record only these.
  bool tracks(std::uint64_t seq) const {
    return armed() && sampled(seq) && get(Point::kDue, seq) != 0;
  }
  void point(Point p, std::uint64_t seq, std::int64_t t) {
    if (tracks(seq)) slot(p, seq).store(t, std::memory_order_relaxed);
  }
  std::int64_t get(Point p, std::uint64_t seq) const {
    return slot(p, seq).load(std::memory_order_relaxed);
  }

  void set_write_tracing(bool on) {
    write_on_.store(on, std::memory_order_relaxed);
  }
  bool write_tracing() const {
    return write_on_.load(std::memory_order_relaxed);
  }
  void add_write(WriteOp op, std::int64_t ns);
  /// Mean handler duration in ms (0 without samples).
  double write_mean_ms(WriteOp op) const;

  std::size_t matchers() const { return matcher_sends_.size(); }
  Log<MatcherSend>& matcher_sends(std::size_t m) { return *matcher_sends_[m]; }
  Log<EdgeHandoff>& handoffs() { return handoffs_; }
  Log<Receipt>& receipts(std::size_t c) { return *receipts_[c]; }

 private:
  std::atomic_ref<std::int64_t> slot(Point p, std::uint64_t seq) const {
    return std::atomic_ref<std::int64_t>(
        points_[static_cast<std::size_t>(p)][seq / kEvery]);
  }

  std::atomic<bool> armed_{false};
  std::atomic<bool> tracing_{false};
  std::atomic<bool> write_on_{false};
  std::size_t slots_ = 0;
  /// calloc'd, so only the slots of traced messages become resident.
  std::array<std::int64_t*, static_cast<std::size_t>(Point::kCount)> points_{};
  std::vector<std::unique_ptr<Log<MatcherSend>>> matcher_sends_;
  Log<EdgeHandoff> handoffs_;
  std::vector<std::unique_ptr<Log<Receipt>>> receipts_;
  std::array<std::atomic<std::int64_t>,
             static_cast<std::size_t>(WriteOp::kCount)>
      write_ns_{};
  std::array<std::atomic<std::uint64_t>,
             static_cast<std::size_t>(WriteOp::kCount)>
      write_n_{};
};

inline constexpr std::size_t kStages = 14;
extern const std::array<const char*, kStages> kStageNames;

struct Ledger {
  std::size_t messages = 0;      ///< messages with a complete critical path
  std::size_t unattributed = 0;  ///< traced messages missing a trace point
  std::size_t negative = 0;      ///< messages with a negative stage
  std::array<double, kStages> mean_ms{};
  std::array<double, kStages> p99_ms{};
  double complete_mean_ms = 0.0;
  double complete_p99_ms = 0.0;
};

/// A contiguous range of sequence numbers [begin, end).
struct SeqRange {
  std::uint64_t begin = 0, end = 0;
};

/// Builds the ledger for the traced messages in `ranges`. `sessions[c]` is
/// the edge session id of client c. Drains the tracer's logs.
Ledger assemble_ledger(Tracer& tracer, const std::vector<SeqRange>& ranges,
                       const std::vector<std::uint64_t>& sessions);

/// Linear-interpolated quantile of `v` (reorders it); 0 when empty.
double quantile(std::vector<double>& v, double q);

}  // namespace bluedove::e2e
