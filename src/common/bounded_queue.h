#pragma once
// QueueStats: depth accounting for a bounded stage queue — a node loop's
// inbox (net/node_loop.h), whose bound it enforces and whose accounting
// the kQueueAccounting audit checks when the loop stops.

#include <atomic>
#include <cstdint>

namespace bluedove {

/// Stage-queue depth, high-water mark and flow counts. All fields are
/// relaxed atomics, so producers and the consumer touch them concurrently.
struct QueueStats {
  std::atomic<std::int64_t> depth{0};
  std::atomic<std::int64_t> high_water{0};
  std::atomic<std::uint64_t> enqueued{0};
  std::atomic<std::uint64_t> dequeued{0};

  void on_enqueue() {
    enqueued.fetch_add(1, std::memory_order_relaxed);
    const std::int64_t d = depth.fetch_add(1, std::memory_order_relaxed) + 1;
    std::int64_t hw = high_water.load(std::memory_order_relaxed);
    while (hw < d && !high_water.compare_exchange_weak(
                         hw, d, std::memory_order_relaxed)) {
    }
  }
  void on_dequeue() {
    dequeued.fetch_add(1, std::memory_order_relaxed);
    depth.fetch_sub(1, std::memory_order_relaxed);
  }
};

}  // namespace bluedove
