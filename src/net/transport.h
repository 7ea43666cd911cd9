#pragma once
// Transport abstraction.
//
// Node logic (dispatchers, matchers) is written once against NodeContext and
// runs unchanged on three substrates, with two event loops between them:
//   * sim::SimCluster — deterministic discrete-event simulation; time is
//     virtual and CPU cost is charged from work units (drives experiments).
//     Its loop is the simulator's event queue.
//   * runtime::ThreadCluster — every node of an in-process cluster on its
//     own real-time net::NodeLoop (drives the Service facade, the examples
//     and the threaded integration tests).
//   * net::TcpHost — one node per host on the same net::NodeLoop, with
//     sockets to its peers (drives multi-process deployments).

#include <cstddef>
#include <cstdint>
#include <functional>
#include <utility>

#include "common/offload.h"
#include "common/rng.h"
#include "common/types.h"
#include "net/protocol.h"

namespace bluedove {

using TimerId = std::uint64_t;
inline constexpr TimerId kInvalidTimer = 0;

/// Everything a node may ask of its host environment. Calls are only legal
/// from the node's own execution context (its event handlers / timers).
class NodeContext {
 public:
  virtual ~NodeContext() = default;

  virtual NodeId self() const = 0;
  virtual Timestamp now() const = 0;

  /// Asynchronous, unreliable, ordered-per-link message send (UDP-like with
  /// in-order delivery, matching a datacenter LAN). Sends to dead nodes are
  /// silently dropped — failure detection is the application's job.
  virtual void send(NodeId to, Envelope env) = 0;

  /// One-shot timer. The callback runs in this node's context after `delay`
  /// seconds unless cancelled (or the node dies first).
  virtual TimerId set_timer(Timestamp delay, std::function<void()> fn) = 0;
  virtual void cancel_timer(TimerId id) = 0;

  /// Occupies CPU for `work_units` of computation, then invokes `done` in
  /// this node's context, never inside the call. The simulator converts
  /// units to virtual seconds. The real-time substrates (net::NodeLoop)
  /// have already spent the real cycles: a charge made on the node thread
  /// completes at the end of the current loop pass, before the pass's
  /// writes; one from any other thread, in a later pass. Callers bound
  /// their own concurrency (a node has a fixed number of cores).
  virtual void charge(double work_units, std::function<void()> done) = 0;

  /// Per-node deterministic random stream.
  virtual Rng& rng() = 0;

  /// Asks the substrate to service offload() with `workers` workers
  /// draining `lanes` work queues (the matcher passes one lane per
  /// dimension). Returns true when offload is granted (the matcher then
  /// holds index writes back while work is in flight). A grant does not
  /// mean real threads exist: the real-time substrates back two or more
  /// workers with a pool, and one worker with the node thread itself (work
  /// inline, completion deferred). The default — and the simulator —
  /// return false: offload() then stays the deterministic inline-work +
  /// charge() path, which is what keeps the discrete-event experiments
  /// bit-identical while the same node code saturates real cores on the
  /// threaded substrates. Call once, from Node::start.
  virtual bool enable_offload(int workers, std::size_t lanes) {
    (void)workers;
    (void)lanes;
    return false;
  }

  /// Runs `work` (a read-only computation returning the work units it
  /// spent), then `done(units)` back on this node's serialized execution
  /// context. When enable_offload() granted a pool, work runs on a pool
  /// worker — queued on `lane`, stolen by idle workers when its home lane
  /// backs up — and only `done` returns to the node context, in a later
  /// loop pass. Otherwise (one worker, no grant, or a full lane) work runs
  /// inline here with OffloadWorker::index -1 and the completion is
  /// deferred through charge(): after offload() returns, at the end of
  /// the pass on the real-time substrates. Callers that bound their
  /// in-flight services (the matcher's core accounting) thus behave alike
  /// on every substrate.
  virtual void offload(std::size_t lane, OffloadWork work, OffloadDone done) {
    (void)lane;
    OffloadWorker self{-1};
    const double units = work(self);
    charge(units, [done = std::move(done), units] { done(units); });
  }
};

/// A cluster node. Implementations must not block inside handlers.
class Node {
 public:
  virtual ~Node() = default;

  /// Called once before any message delivery; the context outlives the node.
  virtual void start(NodeContext& ctx) = 0;

  virtual void on_receive(NodeId from, Envelope env) = 0;

  /// Called when the host shuts the node down cleanly (not on crash).
  virtual void stop() {}
};

/// Adapts a callable into a Node; used for client-side sinks (subscriber
/// endpoints, metrics collectors) that only consume messages.
class FunctionNode final : public Node {
 public:
  using Handler = std::function<void(NodeId from, const Envelope&, Timestamp now)>;

  explicit FunctionNode(Handler handler) : handler_(std::move(handler)) {}

  void start(NodeContext& ctx) override { ctx_ = &ctx; }
  void on_receive(NodeId from, Envelope env) override {
    if (handler_) handler_(from, env, ctx_ != nullptr ? ctx_->now() : 0.0);
  }

 private:
  Handler handler_;
  NodeContext* ctx_ = nullptr;
};

}  // namespace bluedove
