#pragma once
// MatchExecutor: a per-node pool of worker threads draining per-dimension
// ("lane") bounded job queues, with work stealing across lanes so one hot
// dimension cannot idle the other workers (the paper's matchers service
// their separate per-dimension queues with a fixed number of cores, §II-B).
//
// A job is an OffloadWork closure — a read-only computation, typically a
// SubscriptionIndex::match_batch over a live index whose writes the owner
// holds back until the completion runs — plus an OffloadDone completion.
// The work runs on a pool worker; the completion is handed to the owner's
// `post` callback, which ships it back to the node's serialized execution
// context (its task queue), so every send() and every piece of node state
// stays on legal context. Which worker runs a given job depends on OS
// scheduling; a job's result must not (DESIGN.md §10).

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <optional>
#include <thread>
#include <vector>

#include "common/affinity.h"
#include "common/offload.h"
#include "common/thread_safety.h"
#include "common/types.h"
#include "obs/metrics.h"

namespace bluedove::runtime {

struct MatchExecutorConfig {
  int workers = 1;
  std::size_t lanes = 1;
  /// Pending jobs per lane before submit() refuses (the caller falls back
  /// to running inline; nothing is silently dropped).
  std::size_t lane_capacity = 65536;
  /// Owning node's id: workers bind their flight-recorder events to it
  /// (obs/recorder.h), so offloaded probes attribute to the right node.
  NodeId owner = kInvalidNode;
};

class MatchExecutor {
 public:
  /// Ships a completion closure back to the owning node's serialized
  /// context. Must be callable from any worker thread and must tolerate
  /// being called during host shutdown (where it may drop the closure).
  using Post = std::function<void(std::function<void()>)>;

  /// `metrics` (optional, not owned, must outlive the executor) receives
  /// the exec.* instruments: jobs/steals/rejects counters, a workers-busy
  /// gauge, and offload queue/run latency histograms.
  MatchExecutor(MatchExecutorConfig config, Post post,
                obs::MetricsRegistry* metrics = nullptr);
  ~MatchExecutor();

  MatchExecutor(const MatchExecutor&) = delete;
  MatchExecutor& operator=(const MatchExecutor&) = delete;

  /// Queues `work` on `lane` (clamped into range). Returns false when the
  /// lane is full or the executor is stopping — in that case nothing runs
  /// and the caller still owns the problem (run inline). Safe only from the
  /// owning node's context (one producer); workers are the consumers.
  BD_NODE_THREAD bool submit(std::size_t lane, OffloadWork work,
                             OffloadDone done);

  /// Joins the workers. Jobs already running finish (their completions go
  /// through `post`, which may drop them at host shutdown); jobs still
  /// queued are discarded. Idempotent.
  void stop();

  int workers() const { return static_cast<int>(threads_.size()); }
  std::uint64_t steals() const { return steals_.load(std::memory_order_relaxed); }
  std::uint64_t completed() const {
    return completed_.load(std::memory_order_relaxed);
  }

 private:
  struct Job {
    OffloadWork work;
    OffloadDone done;
    std::chrono::steady_clock::time_point submitted;
  };
  /// One dimension's job queue. A lane is MPMC in practice: the node thread
  /// produces, its home worker and any thief consume.
  struct Lane {
    bd::Mutex mu;
    std::deque<Job> jobs BD_GUARDED_BY(mu);
  };

  BD_WORKER_THREAD void worker_loop(int index);
  std::optional<Job> take(std::size_t lane);

  MatchExecutorConfig config_;
  Post post_;
  std::vector<std::unique_ptr<Lane>> lanes_;
  std::vector<std::thread> threads_;

  // Sleep/wake: workers nap here when every lane is empty.
  bd::Mutex sleep_mu_;
  bd::CondVar sleep_cv_;
  std::atomic<std::size_t> pending_{0};  ///< queued (not yet started) jobs
  std::atomic<bool> stop_{false};
  bool stopped_ BD_GUARDED_BY(sleep_mu_) = false;  ///< stop() completed

  std::atomic<std::uint64_t> steals_{0};
  std::atomic<std::uint64_t> completed_{0};

  // Cached instruments (all may be null when metrics == nullptr).
  obs::Counter* m_jobs_ = nullptr;     ///< exec.jobs: jobs run to completion
  obs::Counter* m_steals_ = nullptr;   ///< exec.steals: jobs taken off-home
  obs::Counter* m_rejects_ = nullptr;  ///< exec.rejects: submit() refusals
  obs::Gauge* m_busy_ = nullptr;       ///< exec.workers_busy
  obs::LatencyHistogram* m_queue_lat_ = nullptr;  ///< exec.queue_seconds
  obs::LatencyHistogram* m_run_lat_ = nullptr;    ///< exec.run_seconds
  std::vector<obs::Counter*> m_worker_jobs_;      ///< exec.worker<i>.jobs
};

}  // namespace bluedove::runtime
