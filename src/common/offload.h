#pragma once
// Offload surface shared between NodeContext and the runtime's
// MatchExecutor: the types a node uses to push heavy read-only computation
// (index probes) off its serialized execution context and get the
// completion posted back onto it.
//
// The contract mirrors the paper's matching servers: a matcher owns `cores`
// workers draining per-dimension queues. On the real substrates
// (ThreadCluster, TcpHost) offloaded work runs on a pool worker thread; on
// the simulator it runs inline and the completion is deferred through the
// deterministic charge() path, so simulation results stay bit-identical.

#include <functional>

namespace bluedove {

/// Identity handed to offloaded work: which pool worker is running it.
/// `index` is in [0, workers) on a pool worker and -1 when the work runs
/// inline on the node's own context (the simulator, or a lane-full fallback
/// that may be concurrent with pool workers) — callers with per-worker
/// scratch arenas key the inline case to its own slot.
struct OffloadWorker {
  int index = -1;
};

/// An offloaded computation. It must only touch state that is safe off the
/// node thread (state the node holds writes back from while the work is in
/// flight, its own captures, the per-worker scratch slot) and returns the
/// work units it spent, for CPU accounting.
using OffloadWork = std::function<double(OffloadWorker&)>;

/// Completion for an offloaded computation; always runs back on the node's
/// serialized execution context with the units the work reported, so it may
/// freely send(), set timers and mutate node state.
using OffloadDone = std::function<void(double)>;

}  // namespace bluedove
