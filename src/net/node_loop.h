#pragma once
// NodeLoop: one node on one real-time event loop. The socket-free core that
// both real-time substrates share — net::TcpHost adds its sockets to the
// loop's Reactor, runtime::ThreadCluster keeps a map of loops and delivers
// each node-to-node send straight into the target's loop.
//
// A NodeLoop owns a net::Reactor, the hosted Node, the node's NodeContext
// (the loop itself), the node thread and, when the node asks for two or
// more offload workers, the offload pool. A node that asks for one worker
// is granted offload with no pool: the node thread is that worker, so its
// work runs inline and its completion runs at the end of the same pass.
// The node thread binds itself as the node's serialized execution context
// (affinity::ScopedNodeBind, flight-recorder node id and track "node<id>"),
// runs Node::start as the reactor's first task, serves the reactor until
// stop(), and runs Node::stop last. Everything the node asks of its
// context lands on that reactor: timers are reactor timers, offload
// completions are reactor tasks. send() goes to the owner's SendFn, on
// whatever thread the node called it from.
//
// Pass end: the loop holds the reactor's end-of-pass slot. A charge() made
// on the node thread queues `done` for the end of the current pass, never
// running it inside charge(). At pass end the loop runs that queue until it
// is empty, so a completion that charges again runs in the same step, and
// then calls the owner's hook (TcpHost writes what the pass queued). A
// one-core matcher thus serves every request one pass read in that pass,
// one match_batch service after another, and its deliveries leave in one
// write per peer. A charge() from any other thread, and the pool's
// completions, are posted to a later pass instead.
//
// Inbox bound: with `inbox_capacity` > 0, deliver() admits a message only
// while fewer than that many tasks wait to run, and drops the newest
// otherwise. Completions posted from other threads (the pool's) count
// toward that depth but are never dropped: a caller that bounds its
// in-flight work by completions (the matcher's core accounting) must see
// every one. Node-thread completions never enter the inbox, so they do not
// count. The depth is audited (kQueueAccounting) once the loop has
// stopped. With `inbox_capacity` 0 nothing is bounded and completions go
// uncounted: TcpHost's loop, whose bounds are per peer (WireConfig) and
// which never calls deliver().

#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <thread>
#include <vector>

#include "common/affinity.h"
#include "common/queue_stats.h"
#include "common/thread_safety.h"
#include "net/reactor.h"
#include "net/transport.h"
#include "obs/metrics.h"

namespace bluedove::runtime {
class MatchExecutor;
}

namespace bluedove::net {

class NodeLoop final : private NodeContext {
 public:
  /// Carries one send() of the node to `to`.
  using SendFn = std::function<void(NodeId to, Envelope&& env)>;

  /// `epoch` is time zero of now(); `seed` seeds the node's Rng. `on_io`
  /// serves the fds the owner watches on reactor(). `exec_metrics`
  /// (optional, must outlive the loop) receives the offload pool's exec.*
  /// instruments.
  NodeLoop(NodeId self, std::unique_ptr<Node> node, std::uint64_t seed,
           std::chrono::steady_clock::time_point epoch, SendFn send,
           Reactor::IoFn on_io, std::size_t inbox_capacity,
           obs::MetricsRegistry* exec_metrics);
  ~NodeLoop() override;

  NodeLoop(const NodeLoop&) = delete;
  NodeLoop& operator=(const NodeLoop&) = delete;

  /// Starts the node thread. False when already started or stopped.
  bool start();
  /// Stops the reactor, joins the node thread, then the offload workers.
  /// True only for the one call that stopped the loop; later calls, and
  /// calls racing it, return false at once. A loop stopped before it
  /// started never starts.
  bool stop();
  bool running() const;

  /// Hands `env` to the node on its thread, as received from `from`.
  /// False (and nothing runs) when the loop is not running or its inbox is
  /// full. Safe from any thread.
  bool deliver(NodeId from, Envelope&& env);

  Node* node() { return node_.get(); }
  Reactor& reactor() { return reactor_; }
  /// Runs `fn` at the end of every pass, after that pass's node-thread
  /// completions. Call before start().
  void at_pass_end(std::function<void()> fn) { pass_end_ = std::move(fn); }

 private:
  // NodeContext, for the hosted node.
  NodeId self() const override { return self_; }
  Timestamp now() const override;
  void send(NodeId to, Envelope env) override { send_(to, std::move(env)); }
  TimerId set_timer(Timestamp delay, std::function<void()> fn) override;
  void cancel_timer(TimerId id) override;
  void charge(double work_units, std::function<void()> done) override;
  Rng& rng() override { return rng_; }
  bool enable_offload(int workers, std::size_t lanes) override;
  void offload(std::size_t lane, OffloadWork work, OffloadDone done) override;

  BD_NODE_THREAD void run();
  /// The reactor's pass end: the queued completions, then the owner's hook.
  BD_NODE_THREAD void end_pass();
  /// Posts a completion: counted in the inbox depth when bounded, never
  /// refused for capacity.
  void post_completion(std::function<void()> fn);
  /// Posts `task` as one counted inbox task, refusing it while the loop is
  /// not running or, when `bounded`, while the inbox is full.
  template <typename Task>
  bool post_counted(Task&& task, bool bounded) BD_EXCLUDES(mu_);

  const NodeId self_;
  std::unique_ptr<Node> node_;
  const std::chrono::steady_clock::time_point epoch_;
  const SendFn send_;
  const std::size_t inbox_capacity_;
  obs::MetricsRegistry* const exec_metrics_;
  Rng rng_;
  Reactor reactor_;
  /// Depth of the counted inbox (messages plus posted completions not yet
  /// run).
  QueueStats inbox_;
  /// Node-thread charge() completions queued for the end of this pass.
  std::vector<std::function<void()>> completions_;
  std::function<void()> pass_end_;  ///< the owner's hook

  mutable bd::Mutex mu_;
  bool started_ BD_GUARDED_BY(mu_) = false;
  bool stopping_ BD_GUARDED_BY(mu_) = false;

  /// Created by enable_offload on the node thread for two or more workers,
  /// stopped after it joins. Declared after everything its workers'
  /// completion posts reach.
  std::unique_ptr<runtime::MatchExecutor> executor_;
  std::thread thread_;
};

}  // namespace bluedove::net
