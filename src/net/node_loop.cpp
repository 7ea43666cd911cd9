#include "net/node_loop.h"

#include <algorithm>
#include <string>

#include "obs/audit.h"
#include "obs/recorder.h"
#include "runtime/match_executor.h"

namespace bluedove::net {

NodeLoop::NodeLoop(NodeId self, std::unique_ptr<Node> node,
                   std::uint64_t seed,
                   std::chrono::steady_clock::time_point epoch, SendFn send,
                   Reactor::IoFn on_io, std::size_t inbox_capacity,
                   obs::MetricsRegistry* exec_metrics)
    : self_(self),
      node_(std::move(node)),
      epoch_(epoch),
      send_(std::move(send)),
      inbox_capacity_(inbox_capacity),
      exec_metrics_(exec_metrics),
      rng_(seed),
      reactor_(std::move(on_io)) {
  reactor_.at_pass_end([this] { end_pass(); });
}

NodeLoop::~NodeLoop() { stop(); }

bool NodeLoop::start() {
  bd::LockGuard lock(mu_);
  if (started_ || stopping_) return false;
  started_ = true;
  // Spawned under mu_ so a racing stop() finds the thread to join.
  thread_ = std::thread([this] { run(); });
  return true;
}

bool NodeLoop::stop() {
  bool started = false;
  {
    bd::LockGuard lock(mu_);
    if (stopping_) return false;
    stopping_ = true;
    started = started_;
  }
  reactor_.stop();
  if (!started) return true;
  thread_.join();
  // Stop the offload pool after the node thread is gone: no new submissions
  // can arrive, running jobs finish, and the stopped loop refuses their
  // completions.
  if (executor_ != nullptr) executor_->stop();
  // Every producer checks stopping_ under mu_ before it counts, so the
  // inbox is quiescent and its accounting must close exactly.
  obs::audit_queue_accounting(
      ("node" + std::to_string(self_) + ".inbox").c_str(),
      inbox_.depth.load(std::memory_order_relaxed),
      inbox_.high_water.load(std::memory_order_relaxed),
      inbox_.enqueued.load(std::memory_order_relaxed),
      inbox_.dequeued.load(std::memory_order_relaxed));
  return true;
}

bool NodeLoop::running() const {
  bd::LockGuard lock(mu_);
  return started_ && !stopping_;
}

void NodeLoop::run() {
  // This thread IS the node's serialized execution context for its whole
  // lifetime: start, message handlers, timer callbacks, completions, stop.
  // One binding covers them all.
  affinity::ScopedNodeBind bind(static_cast<NodeContext*>(this));
  // Flight-recorder identity: every event this thread emits carries the
  // node id, and the Perfetto export names the track after it.
  obs::Recorder::bind_node(self_);
  obs::Recorder::label_thread("node" + std::to_string(self_));
  reactor_.run([this] { node_->start(*this); });
  node_->stop();
}

void NodeLoop::end_pass() {
  // By index: a completion that charges again appends to this queue, and
  // runs in this same step.
  for (std::size_t i = 0; i < completions_.size(); ++i) {
    std::function<void()> done = std::move(completions_[i]);
    done();
  }
  completions_.clear();
  if (pass_end_) pass_end_();
}

template <typename Task>
bool NodeLoop::post_counted(Task&& task, bool bounded) {
  bd::LockGuard lock(mu_);
  if (!started_ || stopping_) return false;
  if (bounded && inbox_capacity_ > 0 &&
      inbox_.depth.load(std::memory_order_relaxed) >=
          static_cast<std::int64_t>(inbox_capacity_)) {
    return false;
  }
  // Counted and posted under mu_, so stop() cannot fall between the two:
  // a counted task either runs or stays counted.
  inbox_.on_enqueue();
  reactor_.post([this, task = std::forward<Task>(task)]() mutable {
    inbox_.on_dequeue();
    task();
  });
  return true;
}

bool NodeLoop::deliver(NodeId from, Envelope&& env) {
  return post_counted(
      [this, from, env = std::move(env)]() mutable {
        node_->on_receive(from, std::move(env));
      },
      /*bounded=*/true);
}

void NodeLoop::post_completion(std::function<void()> fn) {
  if (inbox_capacity_ == 0) {
    reactor_.post(std::move(fn));
  } else {
    post_counted(std::move(fn), /*bounded=*/false);
  }
}

Timestamp NodeLoop::now() const {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       epoch_)
      .count();
}

TimerId NodeLoop::set_timer(Timestamp delay, std::function<void()> fn) {
  return reactor_.add_timer(delay, std::move(fn));
}

void NodeLoop::cancel_timer(TimerId id) { reactor_.cancel_timer(id); }

void NodeLoop::charge(double /*work_units*/, std::function<void()> done) {
  // Real cycles were already spent. Never complete inside charge(), so
  // core-bounded callers do not recurse: on the node thread, at the end of
  // this pass, before the owner's hook writes what the pass sent; from
  // any other thread, in a later pass.
  if (reactor_.in_loop()) {
    completions_.push_back(std::move(done));
  } else {
    post_completion(std::move(done));
  }
}

bool NodeLoop::enable_offload(int workers, std::size_t lanes) {
  if (workers < 1) return false;
  // One worker is the node thread itself: offload() runs the work inline
  // and defers `done` through charge() to the end of the pass. A one-thread
  // pool would overlap a job with the node's other work only by paying two
  // cross-thread hand-offs per job (a condvar signal out, an eventfd write
  // back).
  if (workers == 1 || executor_ != nullptr) return true;
  runtime::MatchExecutorConfig cfg;
  cfg.workers = workers;
  cfg.lanes = std::max<std::size_t>(lanes, 1);
  cfg.owner = self_;
  executor_ = std::make_unique<runtime::MatchExecutor>(
      cfg,
      [this](std::function<void()> fn) { post_completion(std::move(fn)); },
      exec_metrics_);
  return true;
}

void NodeLoop::offload(std::size_t lane, OffloadWork work, OffloadDone done) {
  if (executor_ != nullptr && executor_->submit(lane, work, done)) return;
  // One worker, or the lane is full: run inline on the node thread and
  // defer the completion through charge() to the end of the pass.
  NodeContext::offload(lane, std::move(work), std::move(done));
}

}  // namespace bluedove::net
