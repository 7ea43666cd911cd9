#include "runtime/match_executor.h"

#include <algorithm>
#include <string>
#include <utility>

#include "common/affinity.h"
#include "obs/recorder.h"

namespace bluedove::runtime {

namespace {
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}
}  // namespace

MatchExecutor::MatchExecutor(MatchExecutorConfig config, Post post,
                             obs::MetricsRegistry* metrics)
    : config_(config), post_(std::move(post)) {
  config_.workers = std::max(config_.workers, 1);
  config_.lanes = std::max<std::size_t>(config_.lanes, 1);
  config_.lane_capacity = std::max<std::size_t>(config_.lane_capacity, 1);
  lanes_.reserve(config_.lanes);
  for (std::size_t i = 0; i < config_.lanes; ++i) {
    lanes_.push_back(std::make_unique<Lane>());
  }
  if (metrics != nullptr) {
    m_jobs_ = &metrics->counter("exec.jobs");
    m_steals_ = &metrics->counter("exec.steals");
    m_rejects_ = &metrics->counter("exec.rejects");
    m_busy_ = &metrics->gauge("exec.workers_busy");
    m_queue_lat_ = &metrics->histogram("exec.queue_seconds");
    m_run_lat_ = &metrics->histogram("exec.run_seconds");
    m_worker_jobs_.reserve(static_cast<std::size_t>(config_.workers));
    for (int w = 0; w < config_.workers; ++w) {
      m_worker_jobs_.push_back(
          &metrics->counter("exec.worker" + std::to_string(w) + ".jobs"));
    }
  }
  threads_.reserve(static_cast<std::size_t>(config_.workers));
  for (int w = 0; w < config_.workers; ++w) {
    threads_.emplace_back([this, w] { worker_loop(w); });
  }
}

MatchExecutor::~MatchExecutor() { stop(); }

bool MatchExecutor::submit(std::size_t lane, OffloadWork work,
                           OffloadDone done) {
  if (stop_.load(std::memory_order_acquire)) {
    if (m_rejects_ != nullptr) m_rejects_->inc();
    return false;
  }
  Lane& l = *lanes_[lane % lanes_.size()];
  {
    bd::LockGuard lock(l.mu);
    if (l.jobs.size() >= config_.lane_capacity) {
      if (m_rejects_ != nullptr) m_rejects_->inc();
      return false;
    }
    l.jobs.push_back(Job{std::move(work), std::move(done), Clock::now()});
  }
  pending_.fetch_add(1, std::memory_order_release);
  // Bridge the sleep mutex before notifying: without it the notify can land
  // in the window between an idle worker's pending_ check and its block on
  // sleep_cv_, and this job would wait for an unrelated future submit to
  // wake anyone (lost wakeup — found by the thread-safety audit, PR 10).
  { bd::LockGuard lock(sleep_mu_); }
  sleep_cv_.notify_one();
  return true;
}

std::optional<MatchExecutor::Job> MatchExecutor::take(std::size_t lane) {
  Lane& l = *lanes_[lane];
  bd::LockGuard lock(l.mu);
  if (l.jobs.empty()) return std::nullopt;
  Job job = std::move(l.jobs.front());
  l.jobs.pop_front();
  return job;
}

void MatchExecutor::worker_loop(int index) {
  affinity::ScopedWorkerBind bind;
  BD_ASSERT_WORKER_THREAD();
  // Flight-recorder identity: offloaded probe spans attribute to the owning
  // node, on a thread labelled by worker index.
  obs::Recorder::bind_node(config_.owner);
  obs::Recorder::label_thread(
      (config_.owner == kInvalidNode
           ? std::string("worker")
           : "node" + std::to_string(config_.owner) + ".worker") +
      std::to_string(index));
  OffloadWorker self{index};
  const std::size_t home =
      static_cast<std::size_t>(index) % lanes_.size();
  while (true) {
    if (stop_.load(std::memory_order_acquire)) return;
    bool ran = false;
    // Scan from the home lane outward; anything taken past offset 0 is a
    // steal (the home worker was busy or its lane was empty).
    for (std::size_t k = 0; k < lanes_.size(); ++k) {
      const std::size_t lane = (home + k) % lanes_.size();
      std::optional<Job> job = take(lane);
      if (!job.has_value()) continue;
      pending_.fetch_sub(1, std::memory_order_acq_rel);
      if (k != 0) {
        steals_.fetch_add(1, std::memory_order_relaxed);
        if (m_steals_ != nullptr) m_steals_->inc();
      }
      if (m_queue_lat_ != nullptr) {
        m_queue_lat_->record(seconds_since(job->submitted));
      }
      if (m_busy_ != nullptr) m_busy_->add(1.0);
      const auto run_start = Clock::now();
      const double units = job->work(self);
      if (m_busy_ != nullptr) m_busy_->add(-1.0);
      if (m_run_lat_ != nullptr) m_run_lat_->record(seconds_since(run_start));
      if (m_jobs_ != nullptr) m_jobs_->inc();
      if (!m_worker_jobs_.empty()) {
        m_worker_jobs_[static_cast<std::size_t>(index)]->inc();
      }
      completed_.fetch_add(1, std::memory_order_relaxed);
      post_([done = std::move(job->done), units] { done(units); });
      ran = true;
      break;
    }
    if (ran) continue;
    bd::UniqueLock lock(sleep_mu_);
    while (!stop_.load(std::memory_order_acquire) &&
           pending_.load(std::memory_order_acquire) == 0) {
      sleep_cv_.wait(lock);
    }
    if (stop_.load(std::memory_order_acquire)) return;
  }
}

void MatchExecutor::stop() {
  {
    bd::LockGuard lock(sleep_mu_);
    if (stopped_) return;
    stopped_ = true;
    stop_.store(true, std::memory_order_release);
  }
  sleep_cv_.notify_all();
  for (std::thread& t : threads_) {
    if (t.joinable()) t.join();
  }
  // Queued-but-unstarted jobs are discarded per the stop() contract.
  for (auto& lane : lanes_) {
    bd::LockGuard lock(lane->mu);
    lane->jobs.clear();
  }
  pending_.store(0, std::memory_order_release);
}

}  // namespace bluedove::runtime
